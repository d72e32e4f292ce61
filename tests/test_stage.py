import gc
import hashlib
import random
import sys
import threading
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import qdisim.stage

from qdisim.adders import AdderVariant, pack_operands
from qdisim.cells import DelayTable, default_delay_table
from qdisim.dualrail import RailState, rail_assignments
from qdisim.netlist import GateKind, NetlistError, gate_census, validate
from qdisim.sim import Simulation, WaveResult, _WavePlan, drive_transaction
from qdisim.stage import (
    PAIRED_VARIANT,
    Architecture,
    DeadlockError,
    StageConfigError,
    TransactionRecord,
    build_stage,
    run_closed_loop,
    run_transaction,
)

from completion_detector import build_completion_detector, completion_tree_depth
from trace_utils import assert_completion_ordering, transitions_of

# the bounded cache of built rings that every `run_closed_loop` call goes through
RING_CACHE = qdisim.stage._closed_ring


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


# -- completion detector ------------------------------------------------


def test_detector_65_pairs_depth_seven():
    cd = build_completion_detector(65)
    assert cd.depth == 7
    cen = gate_census(cd.netlist)
    assert cen.counts[GateKind.OR2] == 65
    assert cen.counts[GateKind.C2] == 64


def test_detector_single_pair():
    cd = build_completion_detector(1)
    cen = gate_census(cd.netlist)
    assert cen.counts[GateKind.OR2] == 1
    assert cen.counts[GateKind.C2] == 0
    assert cd.depth == 0
    driver = [g for g in cd.netlist.gates if g.output == cd.cd_out]
    assert driver and driver[0].kind is GateKind.OR2


def test_detector_four_pairs():
    cd = build_completion_detector(4)
    cen = gate_census(cd.netlist)
    assert cen.counts[GateKind.OR2] == 4
    assert cen.counts[GateKind.C2] == 3
    assert cd.depth == 2


@pytest.mark.parametrize("pairs,depth", [(2, 1), (3, 2), (5, 3), (16, 4), (33, 6)])
def test_detector_depth_is_log2_ceiling(pairs, depth):
    cd = build_completion_detector(pairs)
    assert cd.depth == depth


def test_detector_functional(table):
    cd = build_completion_detector(3)
    sim = Simulation(cd.netlist, table)
    sim.apply_inputs([("p0.r1", 1), ("p1.r0", 1)], at_time=0)
    sim.run_until_quiescent()
    assert sim.net_value(cd.cd_out) == 0  # one pair still spacer
    sim.apply_inputs([("p2.r1", 1)])
    sim.run_until_quiescent()
    assert sim.net_value(cd.cd_out) == 1


# -- stage structure ------------------------------------------------------


def test_stage_pairing_enforced():
    with pytest.raises(StageConfigError, match="pair"):
        build_stage(Architecture.GLOBAL, AdderVariant.DIMS_STRONG, 4)
    forced = build_stage(Architecture.GLOBAL, AdderVariant.DIMS_STRONG, 4, force=True)
    assert forced.variant is AdderVariant.DIMS_STRONG


def test_stage_defaults_to_paired_variant():
    assert build_stage(Architecture.LOCAL, n=2).variant is AdderVariant.LATENCY_OPT_BIASED
    assert build_stage(Architecture.GLOBAL, n=2).variant is AdderVariant.EARLY_OUTPUT


def test_stage_netlists_validate(local_stage32, global_stage32):
    assert validate(local_stage32.netlist) is None
    assert validate(global_stage32.netlist) is None


def test_local_width_one_detector_covers_three_pairs():
    st = build_stage(Architecture.LOCAL, n=1)
    assert [p for p in st.netlist.port_map if p.startswith("reg.")] == ["reg.a0", "reg.b0", "reg.cin"]
    assert completion_tree_depth(st.netlist, st.cd_out) == 2


def test_global_stage_synchronizer_is_two_c2(local_stage32, global_stage32):
    forced_local = build_stage(Architecture.LOCAL, AdderVariant.EARLY_OUTPUT, 32, force=True)
    g = gate_census(global_stage32.netlist)
    l = gate_census(forced_local.netlist)
    assert g.total - l.total == 2
    assert g.counts[GateKind.C2] - l.counts[GateKind.C2] == 2
    assert global_stage32.netlist.port_map["cout"] == ("sync.r1", "sync.r0")
    assert local_stage32.netlist.port_map["cout"] == ("fa31.k1", "fa31.k0")


def test_stage_register_count(local_stage32):
    # one C2 per rail over 2n+1 pairs, plus adder and detector C2s
    n = 32
    regs = [g for g in local_stage32.netlist.gates if g.gid.startswith("reg.")]
    assert len(regs) == 2 * (2 * n + 1)
    assert all(g.kind is GateKind.C2 and g.inputs[1] == "ackin" for g in regs)


# -- transactions ---------------------------------------------------------


def test_local_canonical_m4_latencies(local_stage32, table):
    a = 0b11111  # propagate chain over stages 0..4, kill at 5
    rec = run_transaction(local_stage32, a, 0, 1, table)
    assert rec.ok
    assert (rec.forward_latency, rec.reverse_latency, rec.cycle_time) == (753, 501, 1254)
    assert rec.sum_value == a + 1
    assert rec.carry_value == 0


def test_global_reverse_latency_constant(global_stage32, table):
    rng = random.Random(3)
    for _ in range(5):
        a, b, c = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1)
        rec = run_transaction(global_stage32, a, b, c, table)
        assert rec.ok
        assert rec.reverse_latency == 1014
        assert rec.sum_value == (a + b + c) % 2**32
        assert rec.carry_value == (a + b + c) >> 32


def test_cycle_is_sum_of_latencies(local_stage32, table):
    rec = run_transaction(local_stage32, 12345, 67890, 1, table)
    assert rec.cycle_time == rec.forward_latency + rec.reverse_latency


@pytest.mark.parametrize("keep_traces", [False, True], ids=["plan", "traces"])
@pytest.mark.parametrize("arch", list(Architecture))
def test_record_carries_every_wave_field(arch, keep_traces, table):
    """Every field of the event engine's record, traces only when kept."""
    stage = build_stage(arch, n=8)
    a, b, cin = 0xF5, 0x3C, 1
    rec = run_transaction(stage, a, b, cin, table, keep_traces=keep_traces)
    assignments = [(stage.ackin, 1)] + rail_assignments(stage.operand_rails, pack_operands(8, a, b, cin))
    waves = drive_transaction(Simulation(stage.netlist, table), assignments, stage.forward_ports)
    for f in fields(WaveResult):
        traced = f.name.endswith("trace")
        assert getattr(rec, f.name) == (getattr(waves, f.name) if keep_traces or not traced else None), f.name


def test_transaction_csv_row(table):
    st = build_stage(Architecture.LOCAL, n=4)
    rec = run_transaction(st, 3, 5, 1, table)
    fields = rec.csv_row().split(",")
    assert fields[:6] == ["local", "latency-opt-biased", "4", "3", "5", "1"]
    assert fields[6:] == [
        str(rec.forward_latency), str(rec.reverse_latency), str(rec.cycle_time)
    ]


def test_zero_operands_all_outputs_valid_zero(table):
    st = build_stage(Architecture.LOCAL, n=4)
    sim = Simulation(st.netlist, table)
    rec = run_transaction(st, 0, 0, 0, table, sim=sim, keep_traces=True)
    assert rec.ok and rec.sum_value == 0 and rec.carry_value == 0
    # at forward-latency time every forwarded pair held a valid zero
    assert set(sim.read_word(st.forward_ports)) == {RailState.SPACER}  # after the full cycle the spacer is back
    rails = {r for p in st.forward_ports for r in st.netlist.port_map[p]}
    set_states = [v for _, net, v in rec.set_trace if net in rails]
    assert set_states and all(v == 1 for v in set_states)


@pytest.mark.parametrize("a,b,cin", [(2**32, 0, 0), (1.5, 0, 0), ("3", 0, 0), (0, 0, 1.0)])
def test_operand_range_checked(a, b, cin, local_stage32, table):
    with pytest.raises(ValueError, match="do not fit width 32"):
        run_transaction(local_stage32, a, b, cin, table)


def test_run_transaction_rejects_a_sim_of_another_netlist(table):
    """A sim of the GLOBAL netlist would report its own timing as the LOCAL
    stage's (forward latency 696 against 567) and pass."""
    local, other = build_stage(Architecture.LOCAL, n=4), build_stage(Architecture.GLOBAL, n=4)
    with pytest.raises(ValueError, match="^sim was built for another netlist than the stage's$"):
        run_transaction(local, 3, 5, 1, table, sim=Simulation(other.netlist, table))


@pytest.mark.parametrize("keep_traces", [False, True], ids=["plan", "traces"])
def test_run_transaction_times_with_the_sim_s_delay_table(keep_traces, table):
    """A sim fixes the delay table: a different table given with it is
    refused, and an equal one or none times the transaction as the
    table does without a sim."""
    stage = build_stage(Architecture.LOCAL, n=8)
    slow = table.replace({GateKind.C2: 200})
    with pytest.raises(ValueError, match="^sim was built with another delay table than the one given$"):
        run_transaction(stage, 5, 9, 1, slow, sim=Simulation(stage.netlist, table), keep_traces=keep_traces)
    want = run_transaction(stage, 5, 9, 1, slow, keep_traces=keep_traces)
    assert want.csv_row().endswith(",849,783,1632")
    for given in (slow, None, slow.replace({})):
        got = run_transaction(stage, 5, 9, 1, given, sim=Simulation(stage.netlist, slow), keep_traces=keep_traces)
        assert got == want, given


def test_detector_ordering_random_vectors(global_stage32, table):
    rng = random.Random(11)
    sim = Simulation(global_stage32.netlist, table)
    pairs = {p: rails for p, rails in global_stage32.netlist.port_map.items() if p.startswith("reg.")}
    for _ in range(10):
        a, b, c = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1)
        rec = run_transaction(global_stage32, a, b, c, table, sim=sim, keep_traces=True)
        assert rec.ok
        initial_set = {r: 0 for r1, r0 in pairs.values() for r in (r1, r0)}
        assert_completion_ordering(rec.set_trace, pairs, initial_set, global_stage32.cd_out, rising=True)
        initial_rtz = {}
        for r1, r0 in pairs.values():
            seen = {net: v for _, net, v in rec.set_trace if net in (r1, r0)}
            initial_rtz[r1] = seen.get(r1, 0)
            initial_rtz[r0] = seen.get(r0, 0)
        assert_completion_ordering(rec.rtz_trace, pairs, initial_rtz, global_stage32.cd_out, rising=False)


def test_synchronizer_withholds_carry_until_detection(global_stage32, table):
    rec = run_transaction(global_stage32, 5, 9, 1, table, keep_traces=True)
    cd_rise = transitions_of(rec.set_trace, global_stage32.cd_out)[0][0]
    for rail in global_stage32.netlist.port_map["cout"]:
        for t, _ in transitions_of(rec.set_trace, rail):
            assert t > cd_rise


def test_single_transition_per_net_per_phase(local_stage32, table):
    rec = run_transaction(local_stage32, 2**20 - 1, 2**10 - 1, 1, table, keep_traces=True)
    for segment in (rec.set_trace, rec.rtz_trace):
        seen = set()
        for _, net, _ in segment:
            assert net not in seen, f"{net} transitioned twice in one phase"
            seen.add(net)


# -- closed loop ----------------------------------------------------------


def test_closed_loop_two_local_stages(table):
    ops = [(5, 9, 1)] * 10
    report = run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 8, ops)
    assert len(report.deliveries) == 10
    assert all(value == 15 and carry == 0 for _, value, carry in report.deliveries)
    single = run_transaction(build_stage(Architecture.LOCAL, n=8), 5, 9, 1, table)
    assert min(report.intervals) >= single.cycle_time
    assert report.steady_interval == report.intervals[-1]


def test_closed_loop_global_pass_through(table):
    report = run_closed_loop(2, AdderVariant.EARLY_OUTPUT, Architecture.GLOBAL, 8, [(200, 55, 0)])
    assert [(v, c) for _, v, c in report.deliveries] == [((200 + 55) % 256, 0)]


@st.composite
def _rings(draw):
    """A ring's stage count, architecture, width, delay table, operands,
    jitter and jitter seed."""
    n = draw(st.integers(1, 8))
    word = st.integers(0, (1 << n) - 1)
    return (
        draw(st.sampled_from([2, 3, 5])),
        draw(st.sampled_from(list(Architecture))),
        n,
        DelayTable({kind: draw(st.integers(1, 300)) for kind in GateKind}),
        draw(st.lists(st.tuples(word, word, st.integers(0, 1)), min_size=1, max_size=4)),
        draw(st.one_of(st.just(0), st.integers(1, 300))),
        draw(st.integers(1, 10_000)),
    )


@given(ring=_rings())
def test_ring_deliveries_do_not_depend_on_the_delay_table(ring):
    """Every stage after the first adds zero, so each operand's sum comes
    out unchanged with carry 0, in order, whatever the gate delays and
    their per-instance jitter."""
    stages, arch, n, delays, operands, jitter, seed = ring
    report = run_closed_loop(stages, PAIRED_VARIANT[arch], arch, n, operands, delays, jitter, seed)
    assert [(value, carry) for _, value, carry in report.deliveries] == [
        ((a + b + cin) % (1 << n), 0) for a, b, cin in operands
    ]
    times = [t for t, _, _ in report.deliveries]
    assert all(earlier < later for earlier, later in zip(times, times[1:]))


def test_ring_jitter_moves_delivery_times_not_values():
    arch = Architecture.LOCAL
    ops = [(87, 168, 1), (69, 149, 1)]
    plain, jittered, again = (
        run_closed_loop(3, PAIRED_VARIANT[arch], arch, 8, ops, jitter=jitter, jitter_seed=5).deliveries
        for jitter in (0, 40, 40)
    )
    assert [d[1:] for d in jittered] == [d[1:] for d in plain]
    assert jittered == again and [d[0] for d in jittered] != [d[0] for d in plain]


def test_closed_loop_zero_transactions():
    report = run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, [])
    assert report.deliveries == [] and report.intervals == []


@pytest.mark.parametrize("operands", [[], [(1, 2, 0)]])
def test_closed_loop_refuses_a_mispaired_stage_with_or_without_operands(operands):
    with pytest.raises(StageConfigError) as refused:
        run_closed_loop(2, AdderVariant.EARLY_OUTPUT, Architecture.LOCAL, 4, operands)
    assert str(refused.value) == "local stages pair with latency-opt-biased; got early-output (use force=True to override)"


@pytest.mark.parametrize("operands", [[], [(0, 0, 0)]])
@pytest.mark.parametrize("n", [0, -1])
def test_closed_loop_refuses_a_width_below_one(n, operands):
    """The stage is built before any operand is packed."""
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, n, operands)


def test_a_record_is_ok_as_its_waves_are():
    assert TransactionRecord.ok is WaveResult.ok


def test_closed_loop_needs_two_stages():
    with pytest.raises(ValueError, match="stage_count"):
        run_closed_loop(1, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, [(1, 1, 0)])


def test_a_ring_whose_drains_commit_nothing_deadlocks(monkeypatch):
    """Drains that commit nothing leave every stage where the environment
    found it, so the ring stops where power-on left its clock, once the
    acknowledge inverters rose, with both transactions outstanding."""
    monkeypatch.setattr(Simulation, "drain", lambda self: self.now)
    stalled = f"^ring stalled at t={default_delay_table()[GateKind.INV]} with 2 transactions outstanding$"
    with pytest.raises(DeadlockError, match=stalled):
        run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, [(1, 2, 0), (3, 4, 1)])


@pytest.mark.parametrize("operands", [[(17, 1, 0)], [(1, 1, 0), (2, 3, 2)], [(1.5, 0, 0)], [("3", 1, 0)]])
def test_closed_loop_rejects_operands_before_running(operands, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the ring ran before its operands were checked")

    RING_CACHE.cache_clear()
    monkeypatch.setattr(qdisim.stage, "Simulation", no_simulation)
    with pytest.raises(ValueError, match="do not fit width 4"):
        run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, operands)


# a 3-copy GLOBAL ring at n = 3 whose slow AO22s let copy 2 complete on
# copy 1's partial spacer and re-arm ack1 while copy 1's `reg.a2.r1` still
# holds 1 (ROADMAP item 15, probe B)
_STALL = (3, Architecture.GLOBAL, 3, DelayTable({kind: 7 if kind is GateKind.AO22 else 1 for kind in GateKind}))


def _stall_ring(operands):
    stages, arch, n, delays = _STALL
    return run_closed_loop(stages, PAIRED_VARIANT[arch], arch, n, operands, delays)


@pytest.mark.xfail(strict=True, raises=DeadlockError, reason="ROADMAP item 15: the ring reads no intermediate cout")
def test_a_global_ring_with_slow_ao22s_delivers_every_value():
    report = _stall_ring([(0, 3, 1), (0, 0, 0)])
    assert [(value, carry) for _, value, carry in report.deliveries] == [(4, 0), (0, 0)]


def test_a_ring_that_stalled_delivers_as_a_fresh_one_next():
    """The deliveries after the stall are those of fresh rings, on the one
    ring the stall left behind."""
    RING_CACHE.cache_clear()
    with pytest.raises(DeadlockError, match="^ring stalled at t=72 with 1 transactions outstanding$"):
        _stall_ring([(0, 3, 1), (0, 0, 0)])
    assert _stall_ring([(5, 1, 0)]).deliveries == [(44, 6, 0)]
    assert _stall_ring([(0, 3, 1)]).deliveries == [(51, 4, 0)]
    assert _stall_ring([(2, 2, 1), (1, 1, 1), (7, 7, 0)]).deliveries == [(44, 5, 0), (104, 3, 0), (170, 6, 0)]
    assert RING_CACHE.cache_info().misses == 1


def _outcome(call):
    """A call's deliveries, or the type and text of what it raised."""
    stages, arch, n, delays, jitter, operands = call
    try:
        return run_closed_loop(stages, PAIRED_VARIANT[arch], arch, n, operands, delays, jitter, 3).deliveries
    except (DeadlockError, ValueError) as refused:
        return f"{type(refused).__name__}: {refused}"


@st.composite
def _ring_calls(draw):
    """Calls over a few ring keys, each with its own operands; a jitter of
    True and an operand one past the width draw refusals."""
    keys = draw(st.lists(
        st.tuples(
            st.integers(2, 5),
            st.sampled_from(list(Architecture)),
            st.integers(1, 8),
            st.one_of(st.just(default_delay_table()), st.just(_STALL[3]),
                      st.builds(DelayTable, st.fixed_dictionaries({kind: st.integers(1, 300) for kind in GateKind}))),
            st.sampled_from([0, 1, 40, True]),
        ),
        min_size=1, max_size=3,
    ))
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        stages, arch, n, delays, jitter = draw(st.sampled_from(keys))
        word = st.integers(0, 1 << n)
        operands = draw(st.lists(st.tuples(word, word, st.integers(0, 1)), max_size=4))
        calls.append((stages, arch, n, delays, jitter, operands))
    return calls


@settings(max_examples=25)
@given(calls=_ring_calls())
def test_a_reused_ring_runs_as_a_fresh_one(calls):
    fresh = []
    for call in calls:
        RING_CACHE.cache_clear()
        fresh.append(_outcome(call))
    RING_CACHE.cache_clear()
    assert [_outcome(call) for call in calls] == fresh


def test_equal_tables_share_one_ring_and_a_changed_delay_gets_its_own(table):
    reversed_order = DelayTable(dict(reversed(table.delays.items())))
    slower = table.replace({GateKind.C2: table[GateKind.C2] + 1})
    assert list(reversed_order.delays) != list(table.delays) and hash(reversed_order) == hash(table)
    arch = Architecture.LOCAL
    RING_CACHE.cache_clear()
    runs = [
        run_closed_loop(2, PAIRED_VARIANT[arch], arch, 4, [(5, 9, 1), (3, 2, 0)], delays).deliveries
        for delays in (table, reversed_order, None, slower)
    ]
    info = RING_CACHE.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    assert runs[0] == runs[1] == runs[2]
    assert [d[1:] for d in runs[3]] == [d[1:] for d in runs[0]]
    assert [d[0] for d in runs[3]] != [d[0] for d in runs[0]]


def test_a_refused_jitter_finds_no_cached_ring():
    """True == 1, but a jitter of True is refused, cached ring or not."""
    arch = Architecture.LOCAL
    run_closed_loop(2, PAIRED_VARIANT[arch], arch, 4, [(1, 2, 0)], jitter=1)
    with pytest.raises(ValueError, match="^jitter must be a non-negative integer, got True$"):
        run_closed_loop(2, PAIRED_VARIANT[arch], arch, 4, [(1, 2, 0)], jitter=True)


def test_the_ring_cache_keeps_at_most_its_bound_alive():
    """Rings past the bound are dropped, least recently used first."""
    arch, variant = Architecture.LOCAL, PAIRED_VARIANT[Architecture.LOCAL]
    RING_CACHE.cache_clear()
    bound = RING_CACHE.cache_info().maxsize
    sims = []
    for seed in range(bound + 3):
        run_closed_loop(2, variant, arch, 2, [(1, 2, 0)], jitter=1, jitter_seed=seed)
        sims.append(weakref.ref(RING_CACHE(2, variant, arch, 2, default_delay_table(), 1, seed).sim))
    gc.collect()
    info = RING_CACHE.cache_info()
    assert (info.misses, info.currsize) == (bound + 3, bound)
    assert [ref() is not None for ref in sims] == [False] * 3 + [True] * bound


def test_threads_sharing_a_ring_each_get_their_own_deliveries():
    arch = Architecture.LOCAL
    jobs = [[(k, 15 - k, k % 2)] * 3 for k in range(6)]
    want = [run_closed_loop(2, PAIRED_VARIANT[arch], arch, 4, ops).deliveries for ops in jobs]
    got: dict[int, list] = {i: [] for i in range(len(jobs))}

    def work(i):
        for _ in range(5):
            try:
                got[i].append(run_closed_loop(2, PAIRED_VARIANT[arch], arch, 4, jobs[i]).deliveries)
            except Exception as failed:  # the assertion below reports it
                got[i].append(repr(failed))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: [deliveries] * 5 for i, deliveries in enumerate(want)}


def _ring(monkeypatch, stage_count=3, architecture=Architecture.LOCAL):
    """The netlist of a 4-bit ring, as `run_closed_loop` simulates it."""
    rings = []

    def capture(netlist, *args, **kwargs):
        rings.append(netlist)
        return Simulation(netlist, *args, **kwargs)

    RING_CACHE.cache_clear()  # a cached ring would build no Simulation to capture
    monkeypatch.setattr(qdisim.stage, "Simulation", capture)
    run_closed_loop(stage_count, PAIRED_VARIANT[architecture], architecture, 4, [(1, 2, 0)])
    (ring,) = rings
    return ring


@pytest.mark.parametrize(
    "stage_count, architecture, digest",
    [
        (3, Architecture.LOCAL, "820e4a3341f2bd27b06c19396aea0c53914b321ebdeedd2976e4eb953e77777b"),
        (2, Architecture.GLOBAL, "3b3f1f9b7b845727da5dde75439450a44847906b852dc21022fbe5da763089fe"),
    ],
)
def test_the_ring_netlist_is_pinned(stage_count, architecture, digest, monkeypatch):
    """The ring's gates in order, its inputs, outputs and ports.  Gate
    order is the engine's tie order, so a reordering can move delivery
    times without changing any value."""
    ring = _ring(monkeypatch, stage_count, architecture)
    text = repr((
        [(g.gid, g.kind.value, tuple(g.inputs), g.output) for g in ring.gates],
        tuple(ring.primary_inputs),
        tuple(ring.primary_outputs),
        list(ring.port_map.items()),
    ))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_the_closed_ring_validates_but_has_no_wave_plan(monkeypatch):
    """Every loop of the ring passes through a C-element, so `validate`
    accepts it; the wave plan refuses the first such loop by its own
    rule."""
    ring = _ring(monkeypatch)
    assert validate(ring) is None
    with pytest.raises(NetlistError, match="^cycle: ack0 is on a loop through a C-element"):
        _WavePlan.build(ring, default_delay_table())


def test_ring_copies_share_one_string_per_net(monkeypatch):
    """Every reference to a net of the ring, across gates, stage copies,
    ports and the acknowledge inverters, is the same string object."""
    ring = _ring(monkeypatch)
    refs = [*ring.primary_inputs, *ring.primary_outputs]
    for g in ring.gates:
        refs.extend(g.inputs)
        refs.append(g.output)
    for r1, r0 in ring.port_map.values():
        refs += [r1, r0]
    objects: dict[str, set[int]] = {}
    for net in refs:
        objects.setdefault(net, set()).add(id(net))
    assert {net: len(ids) for net, ids in objects.items() if len(ids) > 1} == {}
