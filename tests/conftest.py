import pytest
from hypothesis import settings

from qdisim.cells import default_delay_table
from qdisim.sim import Simulation
from qdisim.stage import Architecture, build_stage

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table():
    return default_delay_table()


@pytest.fixture
def simulations_built(monkeypatch):
    """The netlist of every Simulation constructed while the test runs."""
    built, real = [], Simulation.__init__

    def spy(self, netlist, *args, **kwargs):
        built.append(netlist)
        real(self, netlist, *args, **kwargs)

    monkeypatch.setattr(Simulation, "__init__", spy)
    return built


@pytest.fixture(scope="session")
def local_stage32():
    return build_stage(Architecture.LOCAL, n=32)


@pytest.fixture(scope="session")
def global_stage32():
    return build_stage(Architecture.GLOBAL, n=32)
