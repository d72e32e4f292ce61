"""The wave plan against the event engine, which stays the reference.

`drive_transaction` always runs the event engine and returns both
traces.  `_WavePlan.run` computes the same record, traces aside, and
the time the spacer wave settles, all timed from the valid wave's start;
it reads and changes no simulation.  `run_transaction` runs the plan unless
traces are asked for, borrowing only the compiled plan of a sim it is
given.
"""
import random
from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qdisim.adders import AdderVariant, build_rca, functional_check, pack_operands
from qdisim.analysis import (
    ChainSpec, TransactionError, classify_both, gen_carry_chain_vector, measure_chains,
)
from qdisim.cells import default_delay_table
from qdisim.dualrail import PAIR_STATE, DecodeIssue, RailState, decode_word, rail_assignments, rail_masks
from qdisim.netlist import GATE_ARITY, Gate, GateKind, Netlist, NetlistBuilder, NetlistError, parse_netlist
from qdisim.sim import (
    OscillationError, Simulation, SimulationError, _WavePlan, _compile, _depth_first, drive_transaction,
)
from qdisim.stage import Architecture, StageDescriptor, build_stage, run_transaction

from completion_detector import build_completion_detector
from netlist_utils import nets
from test_adders import MUTANTS

TABLE = default_delay_table()
WIDTHS = st.one_of(st.integers(1, 8), st.just(32))
JITTER = st.one_of(st.just(0), st.integers(1, 80))


@lru_cache(maxsize=None)
def _stage(arch, variant, n):
    return build_stage(arch, variant, n, force=True)


@lru_cache(maxsize=None)
def _rca(variant, n):
    return build_rca(variant, n)


def _operand_assignments(desc, a, b, cin):
    return rail_assignments(desc.operand_rails, pack_operands(desc.n, a, b, cin))


def _engine(netlist, jitter=0, seed=1):
    """An event engine at rest whose clock reads 1000, as after earlier
    transactions, so that a record timed from 0 would show."""
    sim = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
    sim.now = 1000
    return sim


def _without_traces(rec):
    return replace(rec, set_trace=None, rtz_trace=None)


def _assert_plan_matches_engine(sim, assignments, ports):
    """Both waves of one vector on the engine `sim` from its `now`, which
    is above 0, and on its plan: the same record, traces aside, the
    plan's settle time is the engine's new `now` less that start, and
    every net is back at 0.  Returns the engine's record."""
    start = sim.now
    assert start > 0
    want = drive_transaction(sim, assignments, ports)
    got, settle = sim.plan.run(assignments, ports)
    assert got == _without_traces(want)
    assert settle == sim.now - start
    names = nets(sim.netlist)
    assert {n: sim.net_value(n) for n in names} == dict.fromkeys(names, 0)
    return want


def _operands(data, n):
    word = st.integers(0, (1 << n) - 1)
    return data.draw(st.lists(st.tuples(word, word, st.integers(0, 1)), min_size=1, max_size=3))


def _check_stage(stage, ops, jitter, seed):
    sim = _engine(stage.netlist, jitter, seed)
    for a, b, c in ops:
        _assert_plan_matches_engine(sim, [(stage.ackin, 1)] + _operand_assignments(stage, a, b, c),
                                    stage.forward_ports)


@given(
    arch=st.sampled_from(list(Architecture)),
    variant=st.sampled_from(list(AdderVariant)),
    n=WIDTHS,
    jitter=JITTER,
    seed=st.integers(1, 10_000),
    data=st.data(),
)
def test_stage_transactions_match_event_engine(arch, variant, n, jitter, seed, data):
    _check_stage(_stage(arch, variant, n), _operands(data, n), jitter, seed)


@pytest.mark.parametrize("jitter", [0, 40])
@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("arch", list(Architecture))
def test_every_pairing_matches_event_engine(arch, variant, jitter):
    rng = random.Random(f"{arch.value}/{variant.value}/{jitter}")
    ops = [(rng.getrandbits(5), rng.getrandbits(5), rng.getrandbits(1)) for _ in range(6)]
    _check_stage(_stage(arch, variant, 5), ops, jitter, 3)


@given(variant=st.sampled_from(list(AdderVariant)), n=WIDTHS, jitter=JITTER,
       seed=st.integers(1, 10_000), data=st.data())
def test_rca_transactions_match_event_engine(variant, n, jitter, seed, data):
    rca = _rca(variant, n)
    sim = _engine(rca.netlist, jitter, seed)
    for a, b, c in _operands(data, n):
        want = _assert_plan_matches_engine(sim, _operand_assignments(rca, a, b, c), rca.forward_ports)
        assert decode_word(want.valid_word) == a + b + c


@st.composite
def _acyclic_netlists(draw):
    """Gates of every non-INV kind over earlier nets, inputs repeated at
    will, listed in any order, and disjoint ports over random nets, so
    both rails of a port can rise (an illegal pair)."""
    inputs = tuple(f"i{k}" for k in range(draw(st.integers(1, 5))))
    nets = list(inputs)
    gates = []
    for g in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from([k for k in GateKind if k is not GateKind.INV]))
        arity = GATE_ARITY[kind]
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        gates.append(Gate(f"g{g}", kind, tuple(ins), f"n{g}"))
        nets.append(f"n{g}")
    rails = draw(st.permutations(nets))
    ports = {f"p{j}": (rails[2 * j], rails[2 * j + 1]) for j in range(draw(st.integers(0, len(nets) // 2)))}
    return Netlist(gates=tuple(draw(st.permutations(gates))), primary_inputs=inputs, port_map=ports)


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_random_acyclic_netlists_match_event_engine(netlist, jitter, seed, data):
    """Every net that rose falls again: the engine ends the spacer wave at
    rest, where the plan puts it."""
    sim = _engine(netlist, jitter, seed)
    assigns = st.lists(st.tuples(st.sampled_from(netlist.primary_inputs), st.integers(0, 1)), max_size=8)
    for _ in range(2):
        _assert_plan_matches_engine(sim, data.draw(assigns), list(netlist.port_map))


_RAILS = {state: rails for rails, state in PAIR_STATE.items()}


def _vectors(data, inputs):
    return data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(inputs), max_size=len(inputs)),
                              min_size=1, max_size=6))


def _masks(inputs, vectors):
    return {net: sum(vec[k] << v for v, vec in enumerate(vectors)) for k, net in enumerate(inputs)}


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_levels_from_spacer_match_per_vector_waves(netlist, jitter, seed, data):
    """Bit v of `levels` from spacer says whether each net rises in vector
    v: as the plan's timed pass sees it, and as the event engine settles."""
    # every net on a port rail, so the valid word shows every net; a spare input evens the count
    names = sorted(nets(netlist))
    inputs = netlist.primary_inputs
    if len(names) % 2:
        inputs += ("spare",)
        names.append("spare")
    netlist = replace(netlist, primary_inputs=inputs,
                      port_map={f"q{j}": (names[2 * j], names[2 * j + 1]) for j in range(len(names) // 2)})
    vectors = _vectors(data, inputs)
    plan = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed).plan
    assert plan is not None
    rise = plan.levels([0] * plan.slots, _masks(inputs, vectors))
    ports = list(netlist.port_map)
    for v, vec in enumerate(vectors):
        want = {net: rise[plan.ids[net]] >> v & 1 for net in names}
        assigns = list(zip(inputs, vec))
        word = plan.run(assigns, ports)[0].valid_word
        timed = {}
        for port, state in zip(ports, word):
            timed.update(zip(netlist.port_map[port], _RAILS[state]))
        assert timed == want, v
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        reference.apply_inputs(assigns, at_time=0)
        reference.run_until_quiescent()
        assert {net: reference.net_value(net) for net in names} == want, v


def _first_change(steps, v, before=0):
    """The time of the first step that flips bit v of a step function
    valued `before` ahead of its first step; None if none does."""
    return next((t for t, mask in steps if (mask ^ before) >> v & 1), None)


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_times_match_event_engine_commits(netlist, jitter, seed, data):
    """Bit v of `times` gives each net's rise time in the valid wave of
    vector v and its fall time after the spacer wave's start, as the event
    engine commits them."""
    inputs = netlist.primary_inputs
    vectors = _vectors(data, inputs)
    plan, masks = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed).plan, _masks(inputs, vectors)
    rose_masks, rise, high = plan.times(masks)
    assert rose_masks == plan.levels([0] * plan.slots, masks)
    ids = plan.ids
    assert plan.rails == {port: (ids[r1], ids[r0]) for port, (r1, r0) in netlist.port_map.items()}
    illegal = plan.faults(rose_masks, [])
    for v, vec in enumerate(vectors):
        reported = plan.run(list(zip(inputs, vec)), [])[0].illegal_pairs
        assert illegal >> v & 1 == bool(reported), v
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        waves = drive_transaction(reference, list(zip(inputs, vec)), [])
        spacer = max((t for t, _, _ in waves.set_trace), default=0)
        rise_at = {net: t for t, net, _ in waves.set_trace}
        fall_at = {net: t - spacer for t, net, _ in waves.rtz_trace}
        assert len(rise_at) == len(waves.set_trace) and len(fall_at) == len(waves.rtz_trace)
        for net in nets(netlist):
            i = ids[net]
            rose = rise[i][-1][1] if rise[i] else 0
            assert _first_change(rise[i], v) == rise_at.get(net), (v, net)
            assert _first_change(high[i], v, rose) == fall_at.get(net), (v, net)


@given(name=st.sampled_from([v.value for v in AdderVariant] + list(MUTANTS)), n=st.integers(2, 6), data=st.data())
def test_faults_flag_the_vectors_whose_record_is_not_ok(name, n, data):
    """`faults` over `levels` from spacer is the block form of `ok`, on
    sound adders and on every mutant."""
    rca = MUTANTS[name](n) if name in MUTANTS else _rca(AdderVariant(name), n)
    plan = _WavePlan.build(rca.netlist, TABLE)
    word = st.integers(0, (1 << n) - 1)
    words = [pack_operands(n, *op) for op in data.draw(
        st.lists(st.tuples(word, word, st.integers(0, 1)), min_size=1, max_size=40))]
    faults = plan.faults(plan.levels([0] * plan.slots, rail_masks(rca.operand_rails, words)), rca.forward_ports)
    for v, w in enumerate(words):
        waves = plan.run(rail_assignments(rca.operand_rails, w), rca.forward_ports)[0]
        assert faults >> v & 1 == (not waves.ok), v


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_levels_match_settled_removals(netlist, jitter, seed, data):
    """Bit v of `levels` from a settled valid state says which nets are
    still high when a subset of the inputs returns to 0 after vector v's
    valid wave, as the event engine settles; C-elements hold until every
    input has fallen."""
    inputs = netlist.primary_inputs
    vectors = _vectors(data, inputs)
    removals = [data.draw(st.lists(st.integers(0, 1), min_size=len(inputs), max_size=len(inputs))) for _ in vectors]
    plan = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed).plan
    rise, lowered = plan.levels([0] * plan.slots, _masks(inputs, vectors)), _masks(inputs, removals)
    high = plan.levels(rise, {net: rise[plan.inputs[net]] & ~mask for net, mask in lowered.items()})
    for v, (vec, removed) in enumerate(zip(vectors, removals)):
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        reference.apply_inputs(list(zip(inputs, vec)))
        reference.run_until_quiescent()
        reference.apply_inputs([(net, 0) for net, gone in zip(inputs, removed) if gone])
        reference.run_until_quiescent()
        assert {n: reference.net_value(n) for n in nets(netlist)} == {
            n: high[plan.ids[n]] >> v & 1 for n in nets(netlist)}, v


@given(netlist=_acyclic_netlists(), data=st.data())
def test_a_settled_state_stays_settled(netlist, data):
    """`levels` of a valid state under the inputs that set it is that
    state: each C node that rose holds through its held term."""
    inputs = netlist.primary_inputs
    plan = _WavePlan.build(netlist, TABLE)
    masks = _masks(inputs, _vectors(data, inputs))
    valid = plan.levels([0] * plan.slots, masks)
    assert plan.levels(valid, masks) == valid


@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("arch", list(Architecture))
def test_measure_chains_equals_per_vector_measure(arch, variant):
    """The `run` pass of one spec per call equals one `times` pass over all."""
    stage = _stage(arch, variant, 32)
    specs = [ChainSpec(32, m) for m in range(31)]
    assert measure_chains(stage, specs, TABLE) == [measure_chains(stage, [spec], TABLE)[0] for spec in specs]


def _sum10_both_rails(netlist):
    """Stage 10's sum0 rail also follows its sum1 join: both rails rise
    when stage 10 kills the carry (m = 9), neither when it propagates."""
    gates = tuple(g._replace(inputs=(g.inputs[0], "fa10.s1a")) if g.output == "fa10.s0" else g
                  for g in netlist.gates)
    return replace(netlist, gates=gates)


def _illegal_probe_pair(netlist):
    """An internal port over stage 10's kill detector and sum1 join, which
    both rise only when stage 10 kills the carry (m = 9); the forwarded
    word stays right."""
    return replace(netlist, port_map={**netlist.port_map, "probe": ("fa10.s1a", "fa10.kg")})


@pytest.mark.parametrize("mutate,later_fails", [(_sum10_both_rails, True), (_illegal_probe_pair, False)])
def test_measure_chains_names_the_first_failing_m(mutate, later_fails):
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 32)
    stage = replace(stage, netlist=mutate(stage.netlist))
    specs = [ChainSpec(32, m) for m in range(31)]
    assert measure_chains(stage, specs[:9], TABLE) == [measure_chains(stage, [s], TABLE)[0] for s in specs[:9]]
    with pytest.raises(TransactionError, match="transaction failed for m=9:"):
        measure_chains(stage, specs[9:10], TABLE)
    with pytest.raises(TransactionError, match="transaction failed for m=9:"):
        measure_chains(stage, specs, TABLE)
    if later_fails:
        with pytest.raises(TransactionError, match="transaction failed for m=10:"):
            measure_chains(stage, specs[10:], TABLE)
    else:
        assert measure_chains(stage, specs[10:], TABLE) == [measure_chains(stage, [s], TABLE)[0] for s in specs[10:]]


def _dead_node_stage():
    """A 3-bit stand-in for a stage whose forwarded word registers a and
    cin.  Over the chain vectors of m = 0 and 1, a1's rails rise in
    disjoint vectors and b0.r1 and a2.r1 in none, so the AND2 `x`, the C2
    `c`, the OR2 `z` and both nodes of the AO21 `w` rise in no vector;
    `w` reaches cout.r1 through an OR2 with the registered cin.r1.  It
    has no completion detector; `measure_chains` reads none."""
    nb = NetlistBuilder()
    ackin = nb.add_input("ackin")
    ports = ["a0", "a1", "a2", "b0", "b1", "b2", "cin"]
    rails = dict(zip(ports, map(nb.add_input_pair, ports)))
    (a1t, a1f), (b0t, _), (a2t, _) = rails["a1"], rails["b0"], rails["a2"]
    x = nb.add_gate(GateKind.AND2, (a1t, a1f), "x")
    c = nb.add_gate(GateKind.C2, (a1t, a1f), "c")
    z = nb.add_gate(GateKind.OR2, (b0t, a2t), "z")
    w = nb.add_gate(GateKind.AO21, (c, x, z), "w")
    reg = {p: tuple(nb.add_gate(GateKind.C2, (r, ackin), f"reg.{r}") for r in rails[p]) for p in ports}
    for k in range(3):
        nb.add_output_pair(f"sum{k}", *reg[f"a{k}"])
    nb.add_output_pair("cout", nb.add_gate(GateKind.OR2, (reg["cin"][0], w), "cout.r1"), reg["cin"][1])
    return StageDescriptor(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 3, nb.build(),
                           tuple(rails[p] for p in ports), ("sum0", "sum1", "sum2", "cout"), ackin)


def test_times_leaves_a_node_that_rises_in_no_vector_empty():
    """`times` skips a node that rises in no vector, whether its inputs
    rise in disjoint vectors or not at all; the skip moves no latency."""
    stage = _dead_node_stage()
    specs = [ChainSpec(3, m) for m in range(2)]
    plan = _WavePlan.build(stage.netlist, TABLE)
    words = [pack_operands(3, *gen_carry_chain_vector(spec)) for spec in specs]
    masks = rail_masks(stage.operand_rails, words)
    masks[stage.ackin] = 0b11
    rose, rise, high = plan.times(masks)
    dead = [plan.ids[net] for net in "xczw"] + [out for _, _, _, out, _ in plan.nodes if out >= len(plan.ids)]
    assert len(dead) == 5
    assert [(rose[i], rise[i], high[i]) for i in dead] == [(0, [], [])] * 5
    records = [_assert_plan_matches_engine(_engine(stage.netlist),
                                           [(stage.ackin, 1)] + rail_assignments(stage.operand_rails, word),
                                           stage.forward_ports) for word in words]
    assert measure_chains(stage, specs, TABLE) == [
        (rec.forward_latency, rec.reverse_latency, rec.cycle_time) for rec in records]


@st.composite
def _netlists_with_loops(draw):
    """Gates of every kind, INV included, over any nets, earlier or later,
    so inverting rings, latches and self-loops form."""
    inputs = tuple(f"i{k}" for k in range(draw(st.integers(1, 4))))
    count = draw(st.integers(1, 10))
    nets = list(inputs) + [f"n{g}" for g in range(count)]
    gates = []
    for g in range(count):
        kind = draw(st.sampled_from(list(GateKind)))
        ins = draw(st.lists(st.sampled_from(nets), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind]))
        gates.append(Gate(f"g{g}", kind, tuple(ins), f"n{g}"))
    return Netlist(gates=tuple(gates), primary_inputs=inputs)


@given(netlist=st.one_of(_acyclic_netlists(), _netlists_with_loops()), jitter=JITTER, seed=st.integers(1, 10_000))
def test_plan_from_the_netlist_equals_the_plan_a_simulation_lowers(netlist, jitter, seed):
    """`build` refuses a netlist exactly when a Simulation's `plan` does,
    jittered or not, with the same error; otherwise the two plans differ
    at most in the gates' delays, each raised by at most the jitter."""
    sim = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
    try:
        lowered = sim.plan
    except NetlistError as refused:
        with pytest.raises(NetlistError) as again:
            _WavePlan.build(netlist, TABLE)
        assert again.value.violation == refused.violation
    else:
        built = _WavePlan.build(netlist, TABLE)
        assert (built.slots, built.rails) == (lowered.slots, lowered.rails)
        assert [node[:4] for node in built.nodes] == [node[:4] for node in lowered.nodes]
        assert all(0 <= late[4] - node[4] <= jitter for node, late in zip(built.nodes, lowered.nodes))


# -- one compile per call, and no plan no analysis --------------------------

INV_PROBE = "^inverter: probe is an INV, which the wave plan does not cover$"


def _inv_probe(netlist):
    """`netlist` plus an INV off stage 0's generate detector, which the
    wave plan does not cover."""
    return replace(netlist, gates=netlist.gates + (Gate("probe", GateKind.INV, ("fa0.g",), "probe"),))


def _probed(desc, probe):
    return replace(desc, netlist=probe(desc.netlist))


def _entry_points(rca, stage):
    return {
        "run_transaction": lambda: run_transaction(stage, 1, 1, 0, TABLE),
        "functional_check": lambda: functional_check(rca, 40),
        "measure_chains": lambda: measure_chains(stage, [ChainSpec(stage.n, 1)], TABLE),
        "measure_chains-block": lambda: measure_chains(stage, [ChainSpec(stage.n, 1), ChainSpec(stage.n, 2)], TABLE),
        "classify_both": lambda: classify_both(rca.netlist),
    }


ENTRY_POINTS = list(_entry_points(None, None))


def _refuse(cls, *args):
    raise ValueError("the wave plan does not cover this netlist: patched")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("planless", ["inv-probe", "lower-raises"])
def test_a_netlist_without_a_plan_gets_the_one_value_error(entry, planless, monkeypatch, compiled, simulations_built):
    """`lower`'s refusal reaches every caller unchanged, after one compile
    and with no event engine built as a fallback."""
    rca = _rca(AdderVariant.LATENCY_OPT_BIASED, 4)
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 4)
    refusal = INV_PROBE
    if planless == "inv-probe":
        rca, stage = _probed(rca, _inv_probe), _probed(stage, _inv_probe)
    else:
        monkeypatch.setattr(_WavePlan, "lower", classmethod(_refuse))
        refusal = "^the wave plan does not cover this netlist: patched$"
    with pytest.raises(ValueError, match=refusal):
        _entry_points(rca, stage)[entry]()
    assert len(compiled) == 1 and simulations_built == []


def _illegal_port(netlist):
    """A port over stage 0's generate and its `e = OR2(kg, g)`: both rise
    when a0 = b0 = 1."""
    return replace(netlist, port_map={**netlist.port_map, "probe": ("fa0.g", "fa0.e")})


def _unlatched(stage):
    """ackin never rises, so the stage forwards only spacer."""
    return replace(stage, ackin="a0.r1")


def _passes(call):
    """Whether an analysis call succeeds: no TransactionError, and a record
    or a check that passed."""
    try:
        result = call()
    except TransactionError:
        return False
    return getattr(result, "ok", getattr(result, "passed", True))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
def test_each_analysis_call_compiles_once(entry, faulty, compiled, simulations_built):
    """Passing or failing, a call compiles its netlist once, into the wave
    plan, and builds no event engine."""
    rca = _rca(AdderVariant.LATENCY_OPT_BIASED, 4)
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 4)
    if faulty:
        rca, stage = _probed(rca, _illegal_port), _unlatched(stage)
    # the faulty block only classifies differently: classify_both reports no failure
    assert _passes(_entry_points(rca, stage)[entry]) == (not faulty or entry == "classify_both")
    assert compiled == [rca.netlist if entry in ("functional_check", "classify_both") else stage.netlist]
    assert simulations_built == []


def test_an_inv_stage_runs_on_a_sim_it_is_given():
    """Without traces a given sim only lends its plan, which refuses an
    INV netlist and leaves the sim as it was; with traces the event engine
    drives the sim, with the record `drive_transaction` gives."""
    stage = _probed(_stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 4), _inv_probe)
    sim = Simulation(stage.netlist, TABLE)
    with pytest.raises(NetlistError, match=INV_PROBE):
        run_transaction(stage, 5, 3, 1, TABLE, sim=sim)
    assert sim.now == 0 and sim.trace == []
    got = run_transaction(stage, 5, 3, 1, TABLE, sim=sim, keep_traces=True)
    assigns = [(stage.ackin, 1)] + _operand_assignments(stage, 5, 3, 1)
    want = drive_transaction(Simulation(stage.netlist, TABLE), assigns, stage.forward_ports)
    assert sim.trace and sim.trace == got.rtz_trace
    assert vars(want).items() <= vars(got).items()  # every wave field, traces included


def _outcome(sim, step):
    """'quiet' with nothing left pending, or 'oscillation'; any other
    exception fails the test."""
    try:
        step()
    except OscillationError:
        return "oscillation", sim.now, sim.trace
    assert not sim._heap
    return "quiet", sim.now, sim.trace


@given(netlist=_netlists_with_loops(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_inv_and_loops_go_quiet_or_raise_oscillation(netlist, jitter, seed, data):
    """Power-on and a few transactions on one reused sim each go quiet or
    raise OscillationError, which spends the sim and ends the replay; a
    second sim replays the same outcomes."""
    stimuli = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(netlist.primary_inputs), st.integers(0, 1)), max_size=5),
        min_size=1, max_size=3))

    def replay(sim):
        outcomes = []
        for step in [sim.settle_power_on] + [lambda s=s: drive_transaction(sim, s, []) for s in stimuli]:
            outcomes.append(_outcome(sim, step))
            if outcomes[-1][0] == "oscillation":
                break
        return outcomes

    def new_sim():
        return Simulation(netlist, TABLE, event_cap=200, jitter=jitter, jitter_seed=seed)

    assert replay(new_sim()) == replay(new_sim())


@pytest.mark.parametrize("block_pass", ["levels", "times"])
def test_block_passes_reject_a_net_that_is_not_a_primary_input(block_pass):
    rca = _rca(AdderVariant.EARLY_OUTPUT, 2)
    plan = _WavePlan.build(rca.netlist, TABLE)
    held = ([0] * plan.slots,) if block_pass == "levels" else ()
    with pytest.raises(SimulationError, match="'fa0.s1' is not a primary input"):
        getattr(plan, block_pass)(*held, {"fa0.s1": 1})


RING = """\
input d.r1
input d.r0
gate q1 C2 d.r1 ack q.r1
gate q0 C2 d.r0 ack q.r0
gate cd OR2 q.r1 q.r0 done
gate inv INV done ack
pair d d.r1 d.r0
pair q q.r1 q.r0
"""


def _or_loop(length):
    lines = ["input d.r1", "input d.r0", "pair d d.r1 d.r0", f"gate g0 OR2 d.r1 n{length - 1} n0"]
    lines += [f"gate g{i} OR2 n{i - 1} d.r0 n{i}" for i in range(1, length)]
    return "\n".join(lines)


@pytest.mark.parametrize("text,port,refusal", [
    ("input d.r1\ninput d.r0\ngate i INV d.r0 y.r0\ngate o OR2 d.r1 d.r1 y.r1\n"
     "pair d d.r1 d.r0\npair y y.r1 y.r0", "y", "inverter: i is an INV"),
    ("input d.r1\ninput d.r0\ngate z C2 d.r1 z z\npair d d.r1 d.r0", "d", "cycle: z is on a loop through a C-element"),
    (RING, "q", "cycle: q.r1 is on a loop through a C-element"),
    (_or_loop(3000), "d", "combinational-cycle: n0 is on a loop of stateless gates"),
], ids=["inv", "c2-self-loop", "ring", "long-or-loop"])
def test_inv_or_cycle_takes_the_event_engine(text, port, refusal):
    """The plan names the rule and the first offending gate or net, with
    no recursion however long the loop; the event engine runs it."""
    netlist = parse_netlist(text)
    with pytest.raises(NetlistError, match=f"^{refusal}"):
        _WavePlan.build(netlist, TABLE)
    sim = Simulation(netlist, TABLE)
    with pytest.raises(NetlistError, match=f"^{refusal}"):
        sim.plan
    waves = drive_transaction(sim, [("d.r1", 1), ("d.r0", 0)], [port])
    assert waves.set_trace and waves.rtz_trace, "the event engine returns both waves' commits"
    assert sim.trace == waves.rtz_trace and sim.now == waves.rtz_trace[-1][0]


def _or_chain(length, reverse):
    """OR2 gates n0 = d.r1 | d.r1 and n{i} = n{i-1} | d.r0, listed in
    order or last gate first."""
    gates = ["gate g0 OR2 d.r1 d.r1 n0"] + [f"gate g{i} OR2 n{i - 1} d.r0 n{i}" for i in range(1, length)]
    lines = ["input d.r1", "input d.r0", f"pair y n{length - 1} d.r0"]
    return "\n".join(lines + (gates[::-1] if reverse else gates))


def test_a_long_chain_listed_last_gate_first_lowers_as_listed_in_order():
    """The plan's depth-first order takes no recursion, however deep."""
    records = [_WavePlan.build(parse_netlist(_or_chain(3000, reverse)), TABLE).run([("d.r1", 1)], ["y"])
               for reverse in (False, True)]
    assert records[0] == records[1]
    assert records[0][0].forward_latency == 3000 * TABLE[GateKind.OR2]


GENERATED = {
    **{str(arch): (lambda arch=arch: build_stage(arch, n=32).netlist) for arch in Architecture},
    **{f"full-adder-{v.value}": (lambda v=v: _rca(v, 1).netlist) for v in AdderVariant},
    **{f"rca4-{v.value}": (lambda v=v: _rca(v, 4).netlist) for v in AdderVariant},
    "completion-detector-5": lambda: build_completion_detector(5).netlist,
}


@pytest.mark.parametrize("generate", GENERATED.values(), ids=GENERATED.keys())
def test_a_generated_stage_lowers_in_gate_order(generate):
    """A generator emits gates in topological order, and the plan keeps
    it; the depth-first order leaves that order as it is too."""
    netlist = generate()
    plan = _WavePlan.build(netlist, TABLE)
    drives = [out for _, _, _, out, _ in plan.nodes if out < len(plan.ids)]
    assert drives == [plan.ids[g.output] for g in netlist.gates]
    ids, inputs, gates = _compile(netlist, TABLE)
    assert _depth_first(gates, ids, len(inputs)) == gates


def _adder(variant, n):
    """(netlist, operand rail pairs, output ports, fixed operand words) of
    an n-bit RCA; a full adder (n = 1) takes all eight words."""
    rca, top = _rca(variant, n), (1 << n) - 1
    ops = [(0, 0, 0), (top, 1, 0), (5, 10, 1), (top, top, 1), (9, 6, 0), (0, top, 1)]
    words = range(8) if n == 1 else [pack_operands(n, *op) for op in ops]
    return rca.netlist, rca.operand_rails, rca.forward_ports, words


@pytest.mark.parametrize("n", [1, 4], ids=["full-adder", "rca4"])
@pytest.mark.parametrize("variant", list(AdderVariant))
def test_an_adder_listed_last_gate_first_runs_as_listed_in_order(variant, n):
    """Gates listed in reverse take the depth-first order, and every
    record matches the in-order netlist's."""
    netlist, rails, ports, words = _adder(variant, n)
    reverse = replace(netlist, gates=netlist.gates[::-1])
    in_order, listed = (_WavePlan.build(net, TABLE) for net in (netlist, reverse))
    assert in_order.nodes != listed.nodes
    for word in words:
        assigns = rail_assignments(rails, word)
        assert listed.run(assigns, ports) == in_order.run(assigns, ports), word


def test_a_gate_listed_before_its_driver_lowers_as_in_order():
    """In-order gates but one, cout.r1's gate, listed ahead of its first
    driver: the depth-first order lowers its drivers first, so every
    record matches the in-order netlist's."""
    rca = _rca(AdderVariant.EARLY_OUTPUT, 2)
    gates = list(rca.netlist.gates)
    index = {g.output: k for k, g in enumerate(gates)}
    i = index[rca.netlist.port_map["cout"][0]]
    j = min(index[net] for net in gates[i].inputs if net in index)
    moved = gates[:j] + [gates[i]] + gates[j:i] + gates[i + 1:]
    in_order, listed = (_WavePlan.build(replace(rca.netlist, gates=tuple(gs)), TABLE) for gs in (gates, moved))
    for a, b, c in product(range(4), range(4), range(2)):
        assigns = _operand_assignments(rca, a, b, c)
        assert listed.run(assigns, rca.forward_ports) == in_order.run(assigns, rca.forward_ports), (a, b, c)


def test_last_assignment_of_an_input_wins():
    rca = _rca(AdderVariant.EARLY_OUTPUT, 2)
    assigns = _operand_assignments(rca, 1, 2, 0) + [("a0.r1", 0), ("a0.r0", 1)]
    want = _assert_plan_matches_engine(_engine(rca.netlist), assigns, rca.forward_ports)
    assert decode_word(want.valid_word) == 2


def test_a_stage_whose_ackin_never_rises_is_not_ok():
    """With ackin low the registers never fire: the outputs stay spacer
    through both waves, with no phase fault, and a word of spacers is no
    codeword, on the plan and on the engine alike."""
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 4)
    want = _assert_plan_matches_engine(_engine(stage.netlist), _operand_assignments(stage, 5, 9, 1), stage.forward_ports)
    assert want.valid_word == (RailState.SPACER,) * 5
    assert want.illegal_pairs == want.nonmonotonic == [] and want.spacer_restored
    assert not want.ok and not _without_traces(want).ok


def test_low_event_cap_sim_takes_the_engine_in_drive_transaction():
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 8)
    sim = Simulation(stage.netlist, TABLE, event_cap=20)
    assigns = [(stage.ackin, 1)] + _operand_assignments(stage, 255, 1, 0)
    with pytest.raises(OscillationError, match="quiescence"):
        drive_transaction(sim, assigns, stage.forward_ports)


def _engine_failure(stage, spec):
    """The text of `spec`'s failed transaction as the event engine sees it,
    from a clock past 0."""
    rec = run_transaction(stage, *gen_carry_chain_vector(spec), TABLE, sim=_engine(stage.netlist), keep_traces=True)
    assert not rec.ok
    faults = [f"illegal pair {port} at {t}" for t, port in rec.illegal_pairs[:1]]
    faults += [] if rec.spacer_restored else ["spacer not restored"]
    faults += [f"{word} pair {value.index} is {value.state.value}" for word, value in
               (("sum", rec.sum_value), ("carry", rec.carry_value)) if isinstance(value, DecodeIssue)][:1]
    return f"transaction failed for m={spec.m}: {', '.join(faults)}"


@pytest.mark.parametrize("mutate,text", [
    (_sum10_both_rails, "transaction failed for m=9: illegal pair sum10 at 1068, sum pair 10 is ILLEGAL"),
    (_illegal_probe_pair, "transaction failed for m=9: illegal pair probe at 1008"),
])
def test_a_failing_spec_compiles_once_and_builds_no_engine(mutate, text, compiled, simulations_built):
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 32)
    stage = replace(stage, netlist=mutate(stage.netlist))
    assert _engine_failure(stage, ChainSpec(32, 9)) == text
    compiled.clear()
    simulations_built.clear()
    with pytest.raises(TransactionError) as failed:
        measure_chains(stage, [ChainSpec(32, m) for m in range(31)], TABLE)
    assert str(failed.value) == text
    assert compiled == [stage.netlist] and simulations_built == []
    with pytest.raises(TransactionError) as failed:
        measure_chains(stage, [ChainSpec(32, 9)], TABLE)
    assert str(failed.value) == text
    assert compiled == [stage.netlist] * 2 and simulations_built == []


def test_low_event_cap_still_raises():
    """A given sim's event cap binds only the event engine: the plan,
    which commits no events, runs the transaction without traces."""
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 8)
    sim = Simulation(stage.netlist, TABLE, event_cap=20)
    rec = run_transaction(stage, 255, 1, 0, sim=sim)
    assert rec.ok and rec == run_transaction(stage, 255, 1, 0)
    with pytest.raises(OscillationError, match="quiescence"):
        run_transaction(stage, 255, 1, 0, sim=sim, keep_traces=True)


@pytest.mark.parametrize("jitter", [0, 40])
@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("arch", list(Architecture))
def test_a_reused_sim_only_lends_its_plan(arch, variant, jitter, compiled, simulations_built):
    """Many transactions without traces on one reused sim, as a benchmark
    loop drives them, compile nothing after its construction, build no
    event engine and leave the sim as it was built; each record is the
    one a fresh sim of the same jitter gives, and the event engine's
    apart from traces.  The lent plan carries the sim's jitter: jittered
    records differ from the unjittered plan's."""
    stage = _stage(arch, variant, 32)
    rng = random.Random(f"lend/{arch.value}/{variant.value}/{jitter}")
    ops = [(rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1)) for _ in range(20)]
    sim = Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=7)
    compiled.clear()
    simulations_built.clear()
    records = [run_transaction(stage, a, b, c, TABLE, sim=sim, keep_traces=False) for a, b, c in ops]
    assert compiled == [] and simulations_built == []
    names = nets(stage.netlist)
    assert sim.now == 0 and sim.trace == [] and not sim._heap
    assert {n: sim.net_value(n) for n in names} == dict.fromkeys(names, 0)
    fresh, engine = (Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=7) for _ in range(2))
    unjittered = []
    for (a, b, c), rec in zip(ops, records):
        assert rec.ok and rec == run_transaction(stage, a, b, c, TABLE, sim=fresh)
        assert rec == _without_traces(run_transaction(stage, a, b, c, TABLE, sim=engine, keep_traces=True))
        unjittered.append(rec == run_transaction(stage, a, b, c, TABLE))
    assert all(unjittered) == (jitter == 0)
