"""Daily allowance price ingestion and GBM parameter estimation.

Prices are treated as one observation per trading day: consecutive rows are
consecutive unit time steps, regardless of calendar gaps.  The drift estimate
is the plain mean of daily log returns: the log-drift mu - sigma^2/2, not the
GbmParams.mu the solver reads, so the CLI, which passes it on as mu, solves
at the log-drift mu_hat - sigma_hat^2/2 (README, "CLI").
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import DataError

DEFAULT_COLUMNS = {"date": "date", "price": "close"}


@dataclass(frozen=True)
class PriceSeries:
    """Dated daily allowance quotations.

    Dates must be strictly increasing and prices strictly positive.
    """

    dates: tuple[date, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise DataError("dates and prices must have equal length")
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise DataError(
                    f"non-monotone dates: {self.dates[i]} follows {self.dates[i - 1]}"
                )
        for i, p in enumerate(self.prices):
            if not (0 < p < math.inf):
                raise DataError(f"non-positive or non-finite price {p} at row {i}")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class GbmEstimate:
    """Per-trading-day drift/volatility estimate from historical returns."""

    mu: float
    sigma: float
    sample_count: int


def _parse_date(text: str | None, line_no: int) -> date:
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except (AttributeError, ValueError) as exc:  # None: the row ends before it
        raise DataError(f"line {line_no}: unparseable date {text!r}") from exc


def load_price_csv(path, columns: dict[str, str] | None = None) -> PriceSeries:
    """Load a PriceSeries from a headered CSV file.

    `columns` maps the logical names {"date", "price"} to the file's header
    names; defaults to date/close.  Dates must be ISO-8601 (YYYY-MM-DD).
    Other columns are ignored.
    """
    mapping = dict(DEFAULT_COLUMNS)
    if columns:
        mapping.update(columns)

    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open price CSV {path}: {exc}") from exc

    dates: list[date] = []
    prices: list[float] = []
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for logical in ("date", "price"):
            if mapping[logical] not in header:
                raise DataError(
                    f"missing column {mapping[logical]!r} (for {logical}) in {path}"
                )
        for row in reader:
            line_no = reader.line_num
            dates.append(_parse_date(row[mapping["date"]], line_no))
            try:
                price = float(row[mapping["price"]])
            except (TypeError, ValueError) as exc:
                raise DataError(
                    f"line {line_no}: unparseable price {row[mapping['price']]!r}"
                ) from exc
            if not (0 < price < math.inf):
                raise DataError(f"line {line_no}: non-positive or non-finite price {price}")
            prices.append(price)

    return PriceSeries(tuple(dates), tuple(prices))


def log_returns(series: PriceSeries) -> np.ndarray:
    """Daily log returns r_i = ln(Y_i) - ln(Y_{i-1}) (length n-1)."""
    if len(series) < 2:
        raise DataError("need at least 2 prices to compute returns")
    return np.diff(np.log(np.asarray(series.prices)))


def estimate_gbm(returns) -> GbmEstimate:
    """Historical drift/volatility estimators.

    mu is the sample mean of the log returns and sigma the sample standard
    deviation with an n-1 denominator, both per trading day, of any
    sequence of returns.
    """
    r = np.asarray(returns, dtype=float)
    n = len(r)
    if n < 2:
        raise DataError("need at least 2 returns to estimate sigma")
    mu = float(r.mean())
    sigma = math.sqrt(float(np.sum((r - mu) ** 2)) / (n - 1))
    return GbmEstimate(mu=mu, sigma=sigma, sample_count=n)


def split_at(series: PriceSeries, cutoff: date) -> tuple[PriceSeries, PriceSeries]:
    """Split into (strictly before cutoff, at/after cutoff).

    The cutoff must fall within the series' date range; concatenating the
    parts restores the input.  Either part may be empty at the range edges.
    """
    if not series.dates:
        raise DataError("cannot split an empty series")
    if cutoff < series.dates[0] or cutoff > series.dates[-1]:
        raise DataError(
            f"cutoff {cutoff} outside date range "
            f"[{series.dates[0]}, {series.dates[-1]}]"
        )
    k = sum(1 for d in series.dates if d < cutoff)
    dates, prices = series.dates, series.prices
    return PriceSeries(dates[:k], prices[:k]), PriceSeries(dates[k:], prices[k:])
