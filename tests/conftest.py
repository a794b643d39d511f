import os

import pytest

from carbonstop import GbmParams, PlantParams, Upgrade


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
