import random
from dataclasses import fields

import pytest

import qdisim.stage

from qdisim.adders import AdderVariant, pack_operands
from qdisim.cells import default_delay_table
from qdisim.dualrail import RailState, rail_assignments
from qdisim.netlist import GateKind, gate_census, validate
from qdisim.sim import Simulation, WaveResult, drive_transaction
from qdisim.stage import (
    Architecture,
    DeadlockError,
    StageConfigError,
    build_completion_detector,
    build_stage,
    run_closed_loop,
    run_transaction,
)

from trace_utils import assert_completion_ordering, transitions_of


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


def completion_tree_depth(netlist, cd_out: str) -> int:
    """Longest C2 chain between the per-pair OR level and cd_out, computed
    structurally from the netlist."""
    by_output = {g.output: g for g in netlist.gates}
    memo: dict[str, int] = {}

    def depth_of(net: str) -> int:
        g = by_output.get(net)
        if g is None or g.kind is not GateKind.C2:
            return 0
        if net not in memo:
            memo[net] = 1 + max(depth_of(x) for x in g.inputs)
        return memo[net]

    return depth_of(cd_out)


# -- completion detector ------------------------------------------------


def test_detector_65_pairs_depth_seven():
    cd = build_completion_detector(65)
    assert cd.depth == 7
    assert completion_tree_depth(cd.netlist, cd.cd_out) == 7
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
    assert completion_tree_depth(cd.netlist, cd.cd_out) == depth


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
    assert validate(local_stage32.netlist).ok
    assert validate(global_stage32.netlist).ok


def test_local_width_one_detector_covers_three_pairs():
    st = build_stage(Architecture.LOCAL, n=1)
    assert len(st.register_ports) == 3
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
    stage = build_stage(arch, n=8)
    a, b, cin = 0xF5, 0x3C, 1
    rec = run_transaction(stage, a, b, cin, table, keep_traces=keep_traces)
    assignments = [(stage.ackin, 1)] + rail_assignments(stage.operand_rails, pack_operands(8, a, b, cin))
    waves = drive_transaction(Simulation(stage.netlist, table), assignments, stage.forward_ports, keep_traces)
    for f in fields(WaveResult):
        assert getattr(rec, f.name) == getattr(waves, f.name), f.name


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
    assert all(
        sim.pair_value(p) is RailState.SPACER for p in st.forward_ports
    )  # after the full cycle the spacer is back
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


def test_detector_ordering_random_vectors(global_stage32, table):
    rng = random.Random(11)
    sim = Simulation(global_stage32.netlist, table)
    pairs = {p: global_stage32.netlist.port_map[p] for p in global_stage32.register_ports}
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


def test_closed_loop_zero_transactions():
    report = run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, [])
    assert report.deliveries == [] and report.intervals == []


def test_closed_loop_needs_two_stages():
    with pytest.raises(ValueError, match="stage_count"):
        run_closed_loop(1, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, [(1, 1, 0)])


@pytest.mark.parametrize("operands", [[(17, 1, 0)], [(1, 1, 0), (2, 3, 2)], [(1.5, 0, 0)], [("3", 1, 0)]])
def test_closed_loop_rejects_operands_before_running(operands, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the ring ran before its operands were checked")

    monkeypatch.setattr(qdisim.stage, "Simulation", no_simulation)
    with pytest.raises(ValueError, match="do not fit width 4"):
        run_closed_loop(2, AdderVariant.LATENCY_OPT_BIASED, Architecture.LOCAL, 4, operands)
