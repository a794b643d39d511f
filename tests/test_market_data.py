import math
from datetime import date

import numpy as np
import pytest

from carbonstop import (
    DataError,
    GbmParams,
    PriceSeries,
    Seed,
    estimate_gbm,
    load_price_csv,
    log_returns,
    simulate_path,
    split_at,
)


def write_csv(path, rows, header="date,close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def basic_csv(tmp_path):
    return write_csv(
        tmp_path / "prices.csv",
        [
            "2020-01-02,20.0,100",
            "2020-01-03,21.0,0",
            "2020-01-06,20.5,50",
            "2020-01-07,22.0,75",
        ],
    )


def test_load_basic(basic_csv):
    series = load_price_csv(basic_csv)
    assert len(series) == 4
    assert series.dates[0] == date(2020, 1, 2)
    assert series.prices == (20.0, 21.0, 20.5, 22.0)


def test_load_custom_columns(tmp_path):
    path = write_csv(
        tmp_path / "odd.csv",
        ["2021-03-01,9.5,3", "2021-03-02,9.9,n/a"],  # qty is not read
        header="day,px,qty",
    )
    series = load_price_csv(path, columns={"date": "day", "price": "px"})
    assert series.prices == (9.5, 9.9)


def test_load_missing_required_column(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["2021-03-01,1"], header="date,open")
    with pytest.raises(DataError, match="close"):
        load_price_csv(path)


def test_load_bad_date_reports_line(tmp_path):
    path = write_csv(
        tmp_path / "bad.csv", ["2021-03-01,9.5,0", "03/02/2021,9.9,0"]
    )
    with pytest.raises(DataError, match="line 3"):
        load_price_csv(path)


def test_load_bad_price_reports_line(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["2021-03-01,n/a,0"])
    with pytest.raises(DataError, match="line 2"):
        load_price_csv(path)


@pytest.mark.parametrize("price", ["nan", "0", "-1", "inf"])
def test_load_non_positive_or_non_finite_price_reports_line(tmp_path, price):
    path = write_csv(tmp_path / "bad.csv", ["2021-03-01,9.5,0", f"2021-03-02,{price},0"])
    with pytest.raises(DataError, match="line 3: non-positive or non-finite price"):
        load_price_csv(path)


def test_load_row_without_date_reports_line(tmp_path):
    path = write_csv(tmp_path / "short.csv", ["5.0,2021-03-01", "6.0"], "close,date")
    with pytest.raises(DataError, match="line 3"):
        load_price_csv(path)


def test_load_missing_file():
    with pytest.raises(DataError, match="cannot open"):
        load_price_csv("/nonexistent/prices.csv")


def test_series_rejects_non_monotone_dates():
    with pytest.raises(DataError, match="non-monotone"):
        PriceSeries((date(2020, 1, 2), date(2020, 1, 2)), (1.0, 2.0))


def test_series_rejects_non_positive_price():
    with pytest.raises(DataError, match="non-positive"):
        PriceSeries((date(2020, 1, 2),), (0.0,))
    with pytest.raises(DataError, match="non-finite"):
        PriceSeries((date(2020, 1, 2),), (math.inf,))


def test_series_rejects_length_mismatch():
    with pytest.raises(DataError, match="equal length"):
        PriceSeries((date(2020, 1, 2),), (1.0, 2.0))


def test_log_returns():
    series = PriceSeries(
        (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)),
        (10.0, 20.0, 10.0),
    )
    r = log_returns(series)
    assert len(r) == 2
    assert r[0] == pytest.approx(math.log(2.0))
    assert r[1] == pytest.approx(-math.log(2.0))


def test_log_returns_needs_two_prices():
    series = PriceSeries((date(2020, 1, 1),), (10.0,))
    with pytest.raises(DataError):
        log_returns(series)


def test_estimate_gbm_hand_values():
    est = estimate_gbm((0.1, 0.2, 0.3))
    assert est.mu == pytest.approx(0.2)
    assert est.sigma == pytest.approx(0.1)  # n-1 denominator
    assert est.sample_count == 3


def test_estimate_gbm_matches_numpy_ddof1():
    rng = np.random.default_rng(3)
    r = rng.normal(0.001, 0.02, size=500)
    est = estimate_gbm(r)
    assert est.mu == pytest.approx(r.mean())
    assert est.sigma == pytest.approx(r.std(ddof=1))


def test_estimate_gbm_needs_two_returns():
    with pytest.raises(DataError):
        estimate_gbm((0.1,))


@pytest.mark.parametrize("seed", range(4))
def test_estimate_gbm_estimates_the_log_drift_not_mu(seed):
    # The mean daily log return of a GBM path estimates mu - sigma^2/2, the
    # log-drift, and not the GbmParams.mu that generated it.  At table 1's
    # (mu, sigma) and 1e5 steps the two lie about 10 standard errors apart,
    # so the mapping README documents is pinned, not merely allowed.
    mu, sigma = -0.0020, 0.0603
    path = simulate_path(GbmParams(21.43, mu, sigma), 100_000, seed=Seed(seed))
    est = estimate_gbm(np.diff(np.log(path)))
    n = est.sample_count
    se_mu = est.sigma / math.sqrt(n)
    assert abs(est.mu - (mu - 0.5 * sigma**2)) <= 3 * se_mu
    assert abs(est.mu - mu) > 3 * se_mu
    assert abs(est.sigma - sigma) <= 3 * est.sigma / math.sqrt(2 * (n - 1))


def test_split_at_roundtrip(basic_csv):
    series = load_price_csv(basic_csv)
    head, tail = split_at(series, date(2020, 1, 6))
    assert head.prices == (20.0, 21.0)
    assert tail.prices == (20.5, 22.0)
    assert head.prices + tail.prices == series.prices
    assert head.dates + tail.dates == series.dates


def test_split_at_first_date_gives_empty_head(basic_csv):
    series = load_price_csv(basic_csv)
    head, tail = split_at(series, date(2020, 1, 2))
    assert len(head) == 0
    assert len(tail) == len(series)


def test_split_at_outside_range(basic_csv):
    series = load_price_csv(basic_csv)
    with pytest.raises(DataError, match="outside"):
        split_at(series, date(2019, 1, 1))
