import pytest
from hypothesis import settings

from fecam import CellConfig, DeviceParams, GlobalConfig, MatchLineParams, ml_capacitance

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


@pytest.fixture(scope="session")
def overflow_edge():
    """The sense time below which no row's match-line solve can overflow:
    no row draws more than 2 cols i_on, and the solve divides by v_dsat; 0
    where the rate I / C itself may overflow.  Sense times drawn on both
    sides of it reach both sides of the solve's overflow guard."""
    def edge(arr):
        room = 1e300 * min(arr.params.v_dsat, 1.0) - 2 * arr.cfg.vdd
        rate = 2 * arr.cols * arr.params.i_on / ml_capacitance(arr.ml_params, arr.cols)
        return room / rate if rate < 1e300 else 0.0
    return edge
