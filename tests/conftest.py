import os

import numpy as np
import pytest

from carbonstop import GbmParams, LatticeSpec, PlantParams, Seed, Upgrade, tree_solve


@pytest.fixture(scope="session", autouse=True)
def scratch_working_directory(tmp_path_factory):
    """Run the tests from a scratch directory, so that a command that writes
    to the working directory (a CLI run without --out) leaves the checkout
    as it is.  Session scope: hypothesis refuses function-scoped fixtures."""
    checkout = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    os.chdir(checkout)


@pytest.fixture
def streams(monkeypatch):
    """The index tuples of every `Seed.stream` call."""
    calls = []
    stream = Seed.stream

    def counting(seed, *indices):
        calls.append(indices)
        return stream(seed, *indices)

    monkeypatch.setattr(Seed, "stream", counting)
    return calls


def one_cell(grid, value: float) -> float:
    levels = grid.price_grid.levels
    j = int(np.searchsorted(levels, value))
    return grid.price_grid.cell_width_at(j)


def tree_start_boundary(gbm, plant, tol: float, lo: float, hi: float) -> float:
    """b(0) of the exact daily recombining tree, bisected on y0.

    The smallest starting price whose root premium has fallen to `tol`;
    `lo` must still carry a premium above `tol` and `hi` none.
    """
    spec = LatticeSpec(int(plant.horizon), 1.0)

    def premium(y0: float) -> float:
        return tree_solve(GbmParams(y0, gbm.mu, gbm.sigma), plant, spec).root_premium

    assert premium(lo) > tol >= premium(hi), "bisection bracket does not straddle b(0)"
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if premium(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture
def table1():
    """Long-horizon base case: T=246 trading days."""
    return GbmParams(21.43, -0.0020, 0.0603), PlantParams(0.014, 14.7, 246)


@pytest.fixture
def table2():
    """Mid-horizon upgrade case: (gbm, plant, upgrade)."""
    gbm = GbmParams(36.50, -0.0019, 0.0238)
    return gbm, PlantParams(0.048, 14.5, 49), Upgrade(20, 17.2, 0.041)


@pytest.fixture
def table3():
    """Short-horizon upgrade case: (gbm, plant, upgrade)."""
    gbm = GbmParams(40.25, 0.0007, 0.0600)
    return gbm, PlantParams(0.040, 16.8, 60), Upgrade(30, 17.1, 0.038)
