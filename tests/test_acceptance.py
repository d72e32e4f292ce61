"""Acceptance suite: every criterion in one module, one test each, a
printed PASS line per criterion.  Tolerances are pinned here and nowhere
else; every latency check is exact integer equality."""

import random
import time

import pytest

from qdisim.adders import AdderVariant, build_rca, functional_check
from qdisim.analysis import (
    ChainSpec,
    EXPECTED_CLASSES,
    Indication,
    asymptotic_check,
    classify_both,
    crossover_m,
    sweep,
    sweep_csv,
)
from qdisim.cells import default_delay_table, derive_pinned_delays, global_datapath_cycle, local_cycle, path_delay
from qdisim.dualrail import RailState
from qdisim.netlist import GateKind, gate_census
from qdisim.sim import Simulation
from qdisim.stage import Architecture, build_stage, run_transaction

from completion_detector import build_completion_detector
from trace_utils import assert_completion_ordering


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


@pytest.fixture(scope="module")
def sweep_report(table):
    return sweep(n=32, table=table)


def test_criterion_1_delay_derivation(table):
    t0 = time.time()
    derived = derive_pinned_delays()
    assert derived == {
        GateKind.C2: 106,
        GateKind.OR2: 60,
        GateKind.AO21: 63,
        GateKind.AO22: 72,
    }
    for m in range(31):
        assert path_delay(local_cycle(m), table) == 63 * m + 1002
        assert path_delay(global_datapath_cycle(m), table) == 72 * m + 1430
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: pinned delays 106/60/63/72, laws reproduced for m=0..30 ({elapsed:.3f}s)")


def test_criterion_2_local_cycle_time(sweep_report):
    for row in sweep_report.rows:
        assert row.local_sim[2] == 63 * row.m + 1002, row.m
    by_m = {r.m: r.local_sim[2] for r in sweep_report.rows}
    assert by_m[4] == 1254 and by_m[28] == 2766
    print("PASS criterion 2: simulated local cycle == 63m+1002 exactly for m=4..28")


def test_criterion_3_global_cycle_and_crossover(sweep_report, table):
    for row in sweep_report.rows:
        expected = 2028 if row.m <= 8 else 72 * row.m + 1430
        assert row.global_sim[2] == expected, row.m
    assert crossover_m(table) == 8
    print("PASS criterion 3: global cycle 2028 for m<=8, 72m+1430 beyond; crossover m=8")


def test_criterion_4_average_reduction(sweep_report):
    avg = sweep_report.average_reduction_pct
    assert 19.0 <= avg <= 26.0
    print(f"PASS criterion 4: average cycle-time reduction {avg:.2f}% within [19%, 26%]")


def test_criterion_5_asymptotic_shapes():
    strong = asymptotic_check(AdderVariant.DIMS_STRONG)
    assert len(set(strong.fl)) == 1
    weak = asymptotic_check(AdderVariant.DIMS_WEAK)
    assert all(d > 0 for d in weak.rl_deltas)
    assert len(set(weak.rl_deltas)) == 1
    opt = asymptotic_check(AdderVariant.LATENCY_OPT_BIASED)
    assert opt.rl == (501, 501, 501, 501)
    early = asymptotic_check(AdderVariant.EARLY_OUTPUT)
    assert early.rl == (416, 416, 416, 416)
    print("PASS criterion 5: latency shapes over m={4,12,20,28}: strong flat, "
          "basic-weak reset linear, opt reset 501, early-output reset 416")


def test_criterion_6_indication_classes(table):
    for variant, expected in EXPECTED_CLASSES.items():
        assert classify_both(build_rca(variant, 1).netlist) == expected, variant
    assert EXPECTED_CLASSES[AdderVariant.DIMS_STRONG].set_phase is Indication.STRONG
    assert EXPECTED_CLASSES[AdderVariant.EARLY_OUTPUT].rtz_phase is Indication.EARLY

    # the three early-reset operand scenarios, each driven partially to
    # the spacer and asserted to reset fully with one input still valid
    for a, b, c, drop in (
        (0, 1, 1, ("a0.r0", "cin.r1")),   # carry propagation
        (1, 1, 1, ("a0.r1", "cin.r1")),   # carry generation
        (0, 0, 0, ("a0.r0", "cin.r0")),   # carry kill
    ):
        fa = build_rca(AdderVariant.EARLY_OUTPUT, 1).netlist
        sim = Simulation(fa, table)
        sim.apply_inputs(
            [("a0.r1", a), ("a0.r0", 1 - a), ("b0.r1", b), ("b0.r0", 1 - b),
             ("cin.r1", c), ("cin.r0", 1 - c)], at_time=0)
        sim.run_until_quiescent()
        for net in drop:
            sim.apply_inputs([(net, 0)])
            sim.run_until_quiescent()
        assert sim.read_word(["sum0", "cout"]) == (RailState.SPACER, RailState.SPACER)
        assert sim.net_value("b0.r1" if b else "b0.r0") == 1
    print("PASS criterion 6: indication classes match for all six variants; "
          "propagate/generate/kill early-reset scenarios confirmed")


def test_criterion_7_functional_correctness(table, local_stage32, global_stage32):
    t0 = time.time()
    for variant in AdderVariant:
        result = functional_check(build_rca(variant, 4), None)
        assert result.passed and result.trials == 512, variant

    for stage in (local_stage32, global_stage32):
        sim = Simulation(stage.netlist, table)
        rng = random.Random(1)
        for _ in range(1000):
            a, b, c = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1)
            rec = run_transaction(stage, a, b, c, table, sim=sim)
            assert rec.ok, (stage.architecture, a, b, c)
            assert rec.sum_value == (a + b + c) % 2**32
            assert rec.carry_value == (a + b + c) >> 32
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 7: 512x6 exhaustive n=4 plus 1000 random n=32 vectors "
          f"per architecture, zero violations ({elapsed:.1f}s)")


def test_criterion_8_structural_proxies(global_stage32):
    early = gate_census(build_rca(AdderVariant.EARLY_OUTPUT, 1).netlist)
    assert early.total == 10
    assert early.counts[GateKind.AO22] == 4
    assert early.counts[GateKind.C2] == 4
    assert early.counts[GateKind.OR2] == 2
    opt = gate_census(build_rca(AdderVariant.LATENCY_OPT_BIASED, 1).netlist)
    assert early.total < opt.total
    assert early.complex_total < opt.complex_total
    forced_local = build_stage(Architecture.LOCAL, AdderVariant.EARLY_OUTPUT, 32, force=True)
    g = gate_census(global_stage32.netlist)
    l = gate_census(forced_local.netlist)
    assert g.total - l.total == 2
    assert g.counts[GateKind.C2] - l.counts[GateKind.C2] == 2
    print("PASS criterion 8: early-output adder 10 gates < 14, complex 8 < 10; "
          "global stage adds exactly 2 synchronizer C2s")


def test_criterion_9_completion_detector(table, global_stage32):
    cd = build_completion_detector(65)
    assert cd.depth == 7
    pairs = {p: rails for p, rails in global_stage32.netlist.port_map.items() if p.startswith("reg.")}
    sim = Simulation(global_stage32.netlist, table)
    rng = random.Random(9)
    for _ in range(100):
        a, b, c = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1)
        rec = run_transaction(global_stage32, a, b, c, table, sim=sim, keep_traces=True)
        assert rec.ok
        initial_set = {r: 0 for r1, r0 in pairs.values() for r in (r1, r0)}
        assert_completion_ordering(rec.set_trace, pairs, initial_set,
                                   "cd.out", rising=True)
        initial_rtz = {}
        for r1, r0 in pairs.values():
            seen = {net: v for _, net, v in rec.set_trace if net in (r1, r0)}
            initial_rtz[r1] = seen.get(r1, 0)
            initial_rtz[r0] = seen.get(r0, 0)
        assert_completion_ordering(rec.rtz_trace, pairs, initial_rtz,
                                   "cd.out", rising=False)
    print("PASS criterion 9: 65-pair detector depth exactly 7; done signal "
          "brackets validity/spacer on 100 random vectors")


def test_criterion_10_sweep_determinism(table):
    first = sweep_csv(sweep(n=32, table=table))
    second = sweep_csv(sweep(n=32, table=table))
    assert first.encode() == second.encode()
    print("PASS criterion 10: repeated sweeps are byte-identical")
