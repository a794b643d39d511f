import pytest

from carbonstop import GbmParams, PlantParams, Upgrade


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
