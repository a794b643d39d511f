"""Optional checks against historical exchange data.

The daily allowance CSVs (SZA 2018-2019, SHEA 2016-2020) are exchange data
we cannot redistribute, so these tests are skipped unless the user points
CARBONSTOP_FIXTURES at a directory containing them.  Expected layout:

    $CARBONSTOP_FIXTURES/sza_2018_2019.csv   columns: date,close,volume
    $CARBONSTOP_FIXTURES/shea_2016_2020.csv  columns: date,close,volume

Documented expected outputs (see README):
  - estimating on the SZA window recovers mu ~ -0.0020, sigma ~ 0.0603
  - running the estimated plant's daily prices against the solved boundary
    reports the first halt signal on trading day 96 at a price of 33.66
"""
import os
from pathlib import Path

import pytest

from carbonstop import (
    GbmParams,
    PlantParams,
    Seed,
    SolverConfig,
    estimate_gbm,
    load_price_csv,
    log_returns,
    monitor,
    solve_boundary,
)

FIXTURE_DIR = os.environ.get("CARBONSTOP_FIXTURES", "")
SZA = Path(FIXTURE_DIR) / "sza_2018_2019.csv" if FIXTURE_DIR else None

pytestmark = pytest.mark.skipif(
    not (SZA and SZA.exists()),
    reason="historical exchange CSVs not available (set CARBONSTOP_FIXTURES)",
)


def test_sza_estimate_matches_published_parameters():
    series = load_price_csv(SZA)
    est = estimate_gbm(log_returns(series))
    assert est.mu == pytest.approx(-0.0020, abs=2e-4)
    assert est.sigma == pytest.approx(0.0603, rel=0.05)


def test_sza_halt_signal_day_96():
    series = load_price_csv(SZA)
    est = estimate_gbm(log_returns(series))
    gbm = GbmParams(y0=series.prices[0], mu=est.mu, sigma=est.sigma)
    plant = PlantParams(0.014, 14.7, 246)
    _, boundary = solve_boundary(gbm, plant, SolverConfig(seed=Seed(0)))
    report = monitor(boundary, series.prices[:247])
    assert report.crossed
    assert report.crossing_index == 96
    assert report.crossing_price == pytest.approx(33.66, abs=0.01)
