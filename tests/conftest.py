import pytest
from hypothesis import settings

from fecam import CellConfig, DeviceParams, GlobalConfig, MatchLineParams

# one profile for every property test: no per-example deadline (the first
# examples pay for numpy warm-up), and a failure prints its reproduction blob
settings.register_profile("fecam", deadline=None, print_blob=True)
settings.load_profile("fecam")


@pytest.fixture(scope="session")
def params():
    return DeviceParams()


@pytest.fixture(scope="session")
def cfg():
    return CellConfig()


@pytest.fixture(scope="session")
def mlp():
    return MatchLineParams()


@pytest.fixture(scope="session")
def config():
    return GlobalConfig()
