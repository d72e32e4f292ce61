"""The wave plan against the event engine, which stays the reference.

`keep_traces=True` always runs the event engine.  With traces off, a
simulation resting at all-spacer over a netlist without INV or cycles
runs the wave plan, which commits no events, so its `trace` stays empty;
the event engine always leaves the spacer wave's commits there.
"""
import random
from dataclasses import fields, replace
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from qdisim.adders import AdderVariant, build_rca, pack_operands, rca_transaction
from qdisim.analysis import ChainSpec, TransactionError, measure, measure_chains
from qdisim.cells import default_delay_table
from qdisim.dualrail import PAIR_STATE, decode_word, rail_assignments
from qdisim.netlist import GATE_ARITY, Gate, GateKind, Netlist, parse_netlist
from qdisim.sim import OscillationError, Simulation, SimulationError, _WavePlan, drive_transaction
from qdisim.stage import Architecture, build_stage, run_transaction

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


def _sims(netlist, jitter, seed):
    return tuple(Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed) for _ in range(2))


def _report(rep):
    return rep.nonmonotonic, sorted(rep.illegal_pairs)


def _record(rec):
    out = {f.name: getattr(rec, f.name) for f in fields(rec) if not f.name.endswith("trace")}
    out["set_report"] = _report(rec.set_report)
    out["rtz_report"] = _report(rec.rtz_report)
    return out


def _assert_same_state(planned, reference):
    assert planned.trace == [] and reference.trace, "expected the plan on one side only"
    assert planned.now == reference.now
    nets = planned.netlist.nets()
    assert {n: planned.net_value(n) for n in nets} == {n: reference.net_value(n) for n in nets}


def _operands(data, n):
    word = st.integers(0, (1 << n) - 1)
    return data.draw(st.lists(st.tuples(word, word, st.integers(0, 1)), min_size=1, max_size=3))


def _check_stage(stage, ops, jitter, seed):
    planned, reference = _sims(stage.netlist, jitter, seed)
    for a, b, c in ops:
        got = run_transaction(stage, a, b, c, sim=planned)
        want = run_transaction(stage, a, b, c, sim=reference, keep_traces=True)
        assert _record(got) == _record(want), (a, b, c)
        _assert_same_state(planned, reference)


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
    planned, reference = _sims(rca.netlist, jitter, seed)
    ports = rca.forward_ports
    for a, b, c in _operands(data, n):
        decoded, set_rep, rtz_rep, spacer = rca_transaction(planned, rca, a, b, c)
        want = drive_transaction(reference, _operand_assignments(rca, a, b, c), ports, keep_traces=True)
        assert decoded == decode_word(want.valid_word)
        assert (_report(set_rep), _report(rtz_rep), spacer) == (
            _report(want.set_report), _report(want.rtz_report), want.spacer_restored)
        _assert_same_state(planned, reference)


@st.composite
def _acyclic_netlists(draw):
    """Gates of every non-INV kind over earlier nets, inputs repeated at
    will, and disjoint ports over random nets, so both rails of a port can
    rise (an illegal pair)."""
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
    return Netlist(gates=tuple(gates), primary_inputs=inputs, port_map=ports)


def _waves(w):
    return (w.valid_word, w.forward_latency, w.reverse_latency,
            _report(w.set_report), _report(w.rtz_report), w.spacer_restored)


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_random_acyclic_netlists_match_event_engine(netlist, jitter, seed, data):
    planned, reference = _sims(netlist, jitter, seed)
    ports = list(netlist.port_map)
    nets = netlist.nets()
    assigns = st.lists(st.tuples(st.sampled_from(netlist.primary_inputs), st.integers(0, 1)), max_size=8)
    for _ in range(2):
        inputs = data.draw(assigns)
        got = drive_transaction(planned, inputs, ports)
        want = drive_transaction(reference, inputs, ports, keep_traces=True)
        assert isinstance(planned.plan, _WavePlan) and planned.trace == []
        assert _waves(got) == _waves(want)
        assert planned.now == reference.now
        # every net that rose falls again: the engine ends the spacer wave at rest
        assert {n: reference.net_value(n) for n in nets} == dict.fromkeys(nets, 0)
        assert {n: planned.net_value(n) for n in nets} == dict.fromkeys(nets, 0)


_RAILS = {state: rails for rails, state in PAIR_STATE.items()}


def _vectors(data, inputs):
    return data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(inputs), max_size=len(inputs)),
                              min_size=1, max_size=6))


def _masks(inputs, vectors):
    return {net: sum(vec[k] << v for v, vec in enumerate(vectors)) for k, net in enumerate(inputs)}


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_rises_match_per_vector_waves(netlist, jitter, seed, data):
    """Bit v of `rises` says whether each net rises in vector v: as the
    plan's timed pass sees it, and as the event engine settles."""
    # every net on a port rail, so the valid word shows every net; a spare input evens the count
    nets = sorted(netlist.nets())
    inputs = netlist.primary_inputs
    if len(nets) % 2:
        inputs += ("spare",)
        nets.append("spare")
    netlist = replace(netlist, primary_inputs=inputs,
                      port_map={f"q{j}": (nets[2 * j], nets[2 * j + 1]) for j in range(len(nets) // 2)})
    vectors = _vectors(data, inputs)
    plan = _WavePlan.build(netlist, TABLE, jitter=jitter, jitter_seed=seed)
    assert plan is not None
    rise = plan.rises(_masks(inputs, vectors))
    ports = list(netlist.port_map)
    for v, vec in enumerate(vectors):
        want = {net: rise[plan.ids[net]] >> v & 1 for net in nets}
        assigns = list(zip(inputs, vec))
        word = plan.run(assigns, ports)[0].valid_word
        timed = {}
        for port, state in zip(ports, word):
            timed.update(zip(netlist.port_map[port], _RAILS[state]))
        assert timed == want, v
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        reference.apply_inputs(assigns, at_time=0)
        reference.run_until_quiescent()
        assert {net: reference.net_value(net) for net in nets} == want, v


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
    plan, masks = _WavePlan.build(netlist, TABLE, jitter=jitter, jitter_seed=seed), _masks(inputs, vectors)
    rose_masks, rise, high = plan.times(masks)
    assert rose_masks == plan.rises(masks)
    ids = plan.ids
    assert plan.rails == {port: (ids[r1], ids[r0]) for port, (r1, r0) in netlist.port_map.items()}
    illegal = plan.illegal(rose_masks)
    for v, vec in enumerate(vectors):
        reported = plan.run(list(zip(inputs, vec)), [])[0].set_report.illegal_pairs
        assert illegal >> v & 1 == bool(reported), v
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        waves = drive_transaction(reference, list(zip(inputs, vec)), [], keep_traces=True)
        spacer = max((t for t, _, _ in waves.set_trace), default=0)
        rises = {net: t for t, net, _ in waves.set_trace}
        falls = {net: t - spacer for t, net, _ in waves.rtz_trace}
        assert len(rises) == len(waves.set_trace) and len(falls) == len(waves.rtz_trace)
        for net in netlist.nets():
            i = ids[net]
            rose = rise[i][-1][1] if rise[i] else 0
            assert _first_change(rise[i], v) == rises.get(net), (v, net)
            assert _first_change(high[i], v, rose) == falls.get(net), (v, net)


@given(netlist=_acyclic_netlists(), jitter=JITTER, seed=st.integers(1, 10_000), data=st.data())
def test_falls_match_settled_removals(netlist, jitter, seed, data):
    """Bit v of `falls` says which nets are still high when a subset of the
    inputs returns to 0 after vector v's valid wave settled, as the event
    engine settles; C-elements hold until every input has fallen."""
    inputs = netlist.primary_inputs
    vectors = _vectors(data, inputs)
    removals = [data.draw(st.lists(st.integers(0, 1), min_size=len(inputs), max_size=len(inputs))) for _ in vectors]
    plan = _WavePlan.build(netlist, TABLE, jitter=jitter, jitter_seed=seed)
    high = plan.falls(plan.rises(_masks(inputs, vectors)), _masks(inputs, removals))
    for v, (vec, removed) in enumerate(zip(vectors, removals)):
        reference = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed)
        reference.apply_inputs(list(zip(inputs, vec)))
        reference.run_until_quiescent()
        reference.apply_inputs([(net, 0) for net, gone in zip(inputs, removed) if gone])
        reference.run_until_quiescent()
        assert {n: reference.net_value(n) for n in netlist.nets()} == {
            n: high[plan.ids[n]] >> v & 1 for n in netlist.nets()}, v


@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("arch", list(Architecture))
def test_measure_chains_equals_per_vector_measure(arch, variant):
    stage = _stage(arch, variant, 32)
    specs = [ChainSpec(32, m) for m in range(31)]
    sim = Simulation(stage.netlist, TABLE)
    assert measure_chains(stage, specs, TABLE) == [measure(stage, spec, TABLE, sim) for spec in specs]


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


@pytest.mark.parametrize("planned", [True, False], ids=["plan", "no-plan"])
@pytest.mark.parametrize("mutate,later_fails", [(_sum10_both_rails, True), (_illegal_probe_pair, False)])
def test_measure_chains_names_the_first_failing_m(mutate, later_fails, planned, monkeypatch):
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 32)
    stage = replace(stage, netlist=mutate(stage.netlist))
    if not planned:
        monkeypatch.setattr(_WavePlan, "lower", classmethod(lambda cls, *compiled: None))
    specs = [ChainSpec(32, m) for m in range(31)]
    assert measure_chains(stage, specs[:9], TABLE) == [measure(stage, s, TABLE) for s in specs[:9]]
    with pytest.raises(TransactionError, match="transaction failed for m=9:"):
        measure(stage, specs[9], TABLE)
    with pytest.raises(TransactionError, match="transaction failed for m=9:"):
        measure_chains(stage, specs, TABLE)
    if later_fails:
        with pytest.raises(TransactionError, match="transaction failed for m=10:"):
            measure_chains(stage, specs[10:], TABLE)
    else:
        assert measure_chains(stage, specs[10:], TABLE) == [measure(stage, s, TABLE) for s in specs[10:]]


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
    built = _WavePlan.build(netlist, TABLE, jitter, seed)
    lowered = Simulation(netlist, TABLE, jitter=jitter, jitter_seed=seed).plan
    assert (built is None) == (lowered is None)
    if built is not None:
        assert (built.nodes, built.slots, built.pairs) == (lowered.nodes, lowered.slots, lowered.pairs)


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
    raise OscillationError, resuming after it; the reset sim replays the
    same outcomes as a fresh one."""
    stimuli = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(netlist.primary_inputs), st.integers(0, 1)), max_size=5),
        min_size=1, max_size=3))

    def replay(sim):
        steps = [sim.settle_power_on] + [lambda s=s: drive_transaction(sim, s, [], keep_traces=True) for s in stimuli]
        return [_outcome(sim, step) for step in steps]

    def new_sim():
        return Simulation(netlist, TABLE, event_cap=200, jitter=jitter, jitter_seed=seed)

    reused = new_sim()
    first = replay(reused)
    reused.reset()
    assert replay(reused) == first == replay(new_sim())


@pytest.mark.parametrize("block_pass", ["rises", "falls", "times"])
def test_block_passes_reject_a_net_that_is_not_a_primary_input(block_pass):
    rca = _rca(AdderVariant.EARLY_OUTPUT, 2)
    plan = _WavePlan.build(rca.netlist, TABLE)
    rise = (plan.rises({}),) if block_pass == "falls" else ()
    with pytest.raises(SimulationError, match="'fa0.s1' is not a primary input"):
        getattr(plan, block_pass)(*rise, {"fa0.s1": 1})


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


@pytest.mark.parametrize("text,port", [
    ("input d.r1\ninput d.r0\ngate i INV d.r0 y.r0\ngate o OR2 d.r1 d.r1 y.r1\n"
     "pair d d.r1 d.r0\npair y y.r1 y.r0", "y"),
    ("input d.r1\ninput d.r0\ngate z C2 d.r1 z z\npair d d.r1 d.r0", "d"),
    (RING, "q"),
    (_or_loop(3000), "d"),
], ids=["inv", "c2-self-loop", "ring", "long-or-loop"])
def test_inv_or_cycle_takes_the_event_engine(text, port):
    netlist = parse_netlist(text)
    sim, reference = Simulation(netlist, TABLE), Simulation(netlist, TABLE)
    waves = drive_transaction(sim, [("d.r1", 1), ("d.r0", 0)], [port])
    want = drive_transaction(reference, [("d.r1", 1), ("d.r0", 0)], [port], keep_traces=True)
    assert sim.trace, "the event engine leaves the spacer wave's commits"
    assert sim.trace == want.rtz_trace and sim.now == reference.now
    assert (waves.valid_word, waves.spacer_restored, waves.forward_latency, waves.reverse_latency) == (
        want.valid_word, want.spacer_restored, want.forward_latency, want.reverse_latency)


def test_last_assignment_of_an_input_wins():
    rca = _rca(AdderVariant.EARLY_OUTPUT, 2)
    assigns = _operand_assignments(rca, 1, 2, 0) + [("a0.r1", 0), ("a0.r0", 1)]
    planned, reference = _sims(rca.netlist, 0, 1)
    got = drive_transaction(planned, assigns, rca.forward_ports)
    want = drive_transaction(reference, assigns, rca.forward_ports, keep_traces=True)
    assert decode_word(got.valid_word) == decode_word(want.valid_word) == 2
    _assert_same_state(planned, reference)


def test_low_event_cap_sim_takes_the_engine_in_drive_transaction():
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 8)
    sim = Simulation(stage.netlist, TABLE, event_cap=20)
    assigns = [(stage.ackin, 1)] + _operand_assignments(stage, 255, 1, 0)
    with pytest.raises(OscillationError, match="quiescence"):
        drive_transaction(sim, assigns, stage.forward_ports)


@pytest.mark.parametrize("mutate,text", [
    (_sum10_both_rails, "transaction failed for m=9: set=False rtz=True spacer=True, sum pair 10 is ILLEGAL"),
    (_illegal_probe_pair, "transaction failed for m=9: set=False rtz=True spacer=True"),
])
def test_a_failing_spec_falls_back_to_one_simulation(mutate, text, simulations_built):
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 32)
    stage = replace(stage, netlist=mutate(stage.netlist))
    built = simulations_built
    with pytest.raises(TransactionError) as failed:
        measure_chains(stage, [ChainSpec(32, m) for m in range(31)], TABLE)
    assert str(failed.value) == text
    assert built == [stage.netlist]
    with pytest.raises(TransactionError) as failed:
        measure(stage, ChainSpec(32, 9), TABLE)
    assert str(failed.value) == text
    assert built == [stage.netlist], "a plan-covered measure builds no Simulation"


def test_low_event_cap_still_raises():
    stage = _stage(Architecture.LOCAL, AdderVariant.LATENCY_OPT_BIASED, 8)
    sim = Simulation(stage.netlist, TABLE, event_cap=20)
    with pytest.raises(OscillationError, match="quiescence"):
        run_transaction(stage, 255, 1, 0, sim=sim)


# -- reset: a used simulation returns to the state of a fresh one -----------


def _state(sim):
    return sim.now, sim.replacements, {n: sim.net_value(n) for n in sim.netlist.nets()}


def _assert_reset_matches_fresh(stage, used, jitter, ops):
    plan = used.plan
    assert isinstance(plan, _WavePlan)
    for keep_traces in (False, True):
        for a, b, c in ops:
            used.reset()
            fresh = Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=7)
            assert _state(used) == _state(fresh)
            want = run_transaction(stage, a, b, c, sim=fresh, keep_traces=keep_traces)
            got = run_transaction(stage, a, b, c, sim=used, keep_traces=keep_traces)
            assert got == want, (a, b, c, keep_traces)
            assert used.trace == fresh.trace
            assert _state(used) == _state(fresh)
    assert used.plan is plan, "reset must keep the compiled wave plan"


@pytest.mark.parametrize("jitter", [0, 40])
@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("arch", list(Architecture))
def test_reset_sim_matches_a_fresh_one(arch, variant, jitter):
    stage = _stage(arch, variant, 5)
    rng = random.Random(f"reset/{arch.value}/{variant.value}/{jitter}")
    used = Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=7)
    for i in range(rng.randint(1, 3)):
        ops = (rng.getrandbits(5), rng.getrandbits(5), rng.getrandbits(1))
        run_transaction(stage, *ops, sim=used, keep_traces=bool(i % 2))
    ops = [(rng.getrandbits(5), rng.getrandbits(5), rng.getrandbits(1)) for _ in range(2)]
    _assert_reset_matches_fresh(stage, used, jitter, ops)


@pytest.mark.parametrize("jitter", [0, 40])
def test_reset_drops_pending_events(jitter):
    stage = _stage(Architecture.GLOBAL, AdderVariant.EARLY_OUTPUT, 5)
    used = Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=7)
    run_transaction(stage, 9, 22, 1, sim=used)
    assigns = [(stage.ackin, 1)] + _operand_assignments(stage, 31, 1, 1)
    used.apply_inputs(assigns)
    used.apply_inputs([(net, 0) for net, v in assigns if v][:3])  # replaces pending events
    assert used._heap and used.replacements == 3
    _assert_reset_matches_fresh(stage, used, jitter, [(31, 1, 1), (0, 0, 0)])
