import pytest
from hypothesis import settings

import qdisim.netlist
import qdisim.sim
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


@pytest.fixture
def compiled(monkeypatch):
    """The netlist of every compile (`qdisim.netlist._compile`) made while
    the test runs, by an event engine, a wave plan or `validate`."""
    calls, real = [], qdisim.netlist._compile

    def spy(netlist, *args):
        calls.append(netlist)
        return real(netlist, *args)

    for module in (qdisim.netlist, qdisim.sim):  # sim calls the name it imported
        monkeypatch.setattr(module, "_compile", spy)
    return calls


@pytest.fixture(scope="session")
def local_stage32():
    return build_stage(Architecture.LOCAL, n=32)


@pytest.fixture(scope="session")
def global_stage32():
    return build_stage(Architecture.GLOBAL, n=32)
