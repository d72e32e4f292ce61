"""The event queue against a reference engine with a (time, sequence)
heap: random netlists with INV gates, loops and jitter, driven at
arbitrary times, must give the same traces, settle times, replacement
counts and oscillation errors on both.  An untraced drain must match the
reference's traced run on all of them but the trace, which it leaves
empty."""
import pytest
from hypothesis import given, settings, strategies as st

from qdisim.cells import DelayTable, default_delay_table
from qdisim.netlist import GATE_ARITY, Gate, GateKind, Netlist, parse_netlist
from qdisim.sim import OscillationError, Simulation
from reference_queue import ReferenceSim
from netlist_utils import nets

TABLE = default_delay_table()


@st.composite
def _looped_netlists(draw):
    """Gates of every kind over any nets, later gates' outputs included,
    so loops and ring oscillators form; an output may be an input or
    another gate's output."""
    inputs = tuple(f"i{k}" for k in range(draw(st.integers(1, 4))))
    count = draw(st.integers(1, 10))
    internal = [f"n{g}" for g in range(count)]
    nets = list(inputs) + internal
    gates = []
    for g in range(count):
        kind = draw(st.sampled_from(list(GateKind)))
        arity = GATE_ARITY[kind]
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        out = draw(st.one_of(st.just(internal[g]), st.sampled_from(nets)))
        gates.append(Gate(f"g{g}", kind, tuple(ins), out))
    return Netlist(gates=tuple(gates), primary_inputs=inputs)


def _state(sim, nets, traced=True):
    """The sim's clock, replacement count, trace (None unless `traced`)
    and the values of `nets`."""
    return sim.now, sim.replacements, sim.trace if traced else None, [sim.net_value(n) for n in nets]


def _step(sim, op):
    """Run `op` on `sim` ("fresh" does nothing here); returns what it
    returned, or the error it raised.  "drain" is `Simulation.drain`,
    which the reference engine matches with the settle time of its
    `run_until_quiescent`."""
    kind, *args = op
    try:
        if kind == "apply":
            at, assignments = args
            sim.apply_inputs(assignments, at_time=None if at is None else sim.now + at)
        elif kind == "redrive":
            # x pending at a late time, y joins that time, x re-driven earlier and back
            x, y, value, late, early = args
            sim.apply_inputs([(x, value)], at_time=sim.now + late)
            sim.apply_inputs([(y, value)], at_time=sim.now + late)
            sim.apply_inputs([(x, 1 - value)], at_time=sim.now + early)
            sim.apply_inputs([(x, value)], at_time=sim.now + late)
        elif kind == "run":
            return sim.run_until_quiescent()
        elif kind == "drain":
            return sim.drain() if isinstance(sim, Simulation) else sim.run_until_quiescent()[1]
        elif kind == "power_on":
            sim.settle_power_on()
    except OscillationError as err:
        return str(err)
    return None


# delays of 1 to 3 make gates due at the same time, and inputs change
# while a gate's output is due, far more often than the default table
_TABLES = st.one_of(st.just(TABLE), st.lists(st.integers(1, 3), min_size=len(GateKind), max_size=len(GateKind)).map(
    lambda delays: DelayTable(dict(zip(GateKind, delays)))))


def _ops(inputs, table):
    net = st.sampled_from(inputs)
    # offsets from `now` at which inputs are driven: any, or a sum of gate
    # delays, which lands on the times unjittered gates commit at
    time = st.one_of(st.integers(0, 400), st.integers(0, 8),
                     st.lists(st.sampled_from(sorted(table.delays.values())), max_size=3).map(sum))
    return st.lists(st.one_of(
        st.tuples(st.just("apply"), st.one_of(st.none(), time),
                  st.lists(st.tuples(net, st.integers(0, 1)), max_size=4)),
        st.tuples(st.just("redrive"), net, net, st.integers(0, 1), time, time).map(
            lambda op: (*op[:4], max(op[4:]), min(op[4:]))),
        st.just(("run",)), st.just(("run",)), st.just(("drain",)),
        st.just(("power_on",)),
        st.just(("fresh",)),
    ), max_size=14)


@settings(max_examples=300)
@given(netlist=_looped_netlists(), table=_TABLES, jitter=st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 80)),
       seed=st.integers(1, 10_000), cap=st.one_of(st.integers(1, 40), st.just(200)), data=st.data())
def test_queue_matches_the_reference_engine(netlist, table, jitter, seed, cap, data):
    def fresh():
        return (Simulation(netlist, table, event_cap=cap, jitter=jitter, jitter_seed=seed),
                ReferenceSim(netlist, table, event_cap=cap, jitter=jitter, jitter_seed=seed))

    sim, ref = fresh()
    names = sorted(nets(netlist))
    traced = True  # False from a drain until the next run, power-on or fresh pair
    for op in data.draw(_ops(netlist.primary_inputs, table)):
        if op == ("fresh",):  # both start over on new instances
            sim, ref = fresh()
        result = _step(sim, op)
        assert result == _step(ref, op), op
        if op[0] not in ("apply", "redrive"):
            traced = op != ("drain",)
        assert _state(sim, names, traced) == _state(ref, names, traced), op
        if not traced:  # a drain records nothing, also when it raises
            assert sim.trace == [], op
        if isinstance(result, str):  # an oscillation error spends both sims
            sim, ref = fresh()
            traced = True
    # a last run drains whatever the ops left queued
    assert _step(sim, ("run",)) == _step(ref, ("run",))
    assert _state(sim, names) == _state(ref, names)


@pytest.mark.parametrize("engine", [Simulation, ReferenceSim])
def test_an_input_redriven_earlier_and_back_commits_after_its_time_peers(engine):
    sim = engine(parse_netlist("input x\ninput y"), TABLE)
    sim.apply_inputs([("x", 1)], at_time=100)
    sim.apply_inputs([("y", 1)], at_time=100)
    sim.apply_inputs([("x", 0)], at_time=50)
    sim.apply_inputs([("x", 1)], at_time=100)
    assert sim.run_until_quiescent() == ([(100, "y", 1), (100, "x", 1)], 100)
    assert sim.replacements == 2


@pytest.mark.parametrize("engine", [Simulation, ReferenceSim])
def test_a_net_rescheduled_twice_while_its_time_drains_commits_at_its_new_time(engine):
    # y = (a & b) | c is due to rise at 63; b falls and c rises at 63 ahead of
    # it, so y is rescheduled to fall at 126, then to rise at 126 instead
    sim = engine(parse_netlist("input a\ninput b\ninput c\ngate g AO21 a b c y"), TABLE)
    sim.apply_inputs([("b", 1)])
    sim.run_until_quiescent()
    sim.apply_inputs([("a", 1)], at_time=0)
    sim.apply_inputs([("b", 0), ("c", 1)], at_time=63)
    trace, settle = sim.run_until_quiescent()
    assert trace == [(0, "a", 1), (63, "b", 0), (63, "c", 1), (126, "y", 1)]
    assert settle == 126 and sim.replacements == 2
