import pytest

import qdisim.analysis
from qdisim.adders import AdderVariant, build_full_adder
from qdisim.analysis import (
    ChainSpec,
    EXPECTED_CLASSES,
    Indication,
    SweepRow,
    TimingReport,
    classify_both,
    classify_indication,
    crossover_m,
    gen_carry_chain_vector,
    global_datapath_cycle_formula,
    local_cycle_formula,
    measure,
    sweep,
    sweep_csv,
    synchronizing_delay,
    theory_global,
    theory_local,
)
from qdisim.analysis import asymptotic_check
from qdisim.cells import default_delay_table
from qdisim.dualrail import RailState
from qdisim.netlist import GateKind
from qdisim.sim import Phase, Simulation
from qdisim.stage import Architecture, build_stage


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


def carry_profile(a: int, b: int, cin: int, n: int) -> list[str]:
    """Reference ripple addition labeling each stage by what it does to
    the incoming carry: 'propagate', 'generate', or 'kill'.  Independent
    of any netlist; used to confirm chain stimuli."""
    labels = []
    for i in range(n):
        abit = (a >> i) & 1
        bbit = (b >> i) & 1
        if abit and bbit:
            labels.append("generate")
        elif abit or bbit:
            labels.append("propagate")
        else:
            labels.append("kill")
    return labels


# -- canonical chain vectors ---------------------------------------------


def test_chain_vector_example():
    a, b, cin = gen_carry_chain_vector(ChainSpec(8, 3))
    assert (a, b, cin) == (0b00001111, 0, 1)
    assert a + b + cin == 0b00010000
    profile = carry_profile(a, b, cin, 8)
    assert profile[:4] == ["propagate"] * 4
    assert profile[4] == "kill"


def test_chain_vector_minimal():
    a, b, cin = gen_carry_chain_vector(ChainSpec(32, 0))
    assert (a, b, cin) == (1, 0, 1)
    assert carry_profile(a, b, cin, 32)[0] == "propagate"
    assert carry_profile(a, b, cin, 32)[1] == "kill"


def test_chain_vector_needs_kill_stage():
    with pytest.raises(ValueError, match="m must be"):
        ChainSpec(8, 7)


def test_carry_profile_oracle():
    # generate at stage 0, kill at 1, propagate at 2
    assert carry_profile(0b101, 0b001, 0, 3) == ["generate", "kill", "propagate"]


# -- closed forms ----------------------------------------------------------


def test_theory_local_values(table):
    assert theory_local(4, table) == (753, 501, 1254)
    assert theory_local(0, table)[2] == 1002
    for m in range(0, 29):
        assert theory_local(m, table)[1] == 501


def test_theory_global_values(table):
    assert theory_global(8, table)[2] == 2028
    assert theory_global(12, table)[2] == 2294
    fl9 = theory_global(9, table)[0]
    assert fl9 == 1064 and fl9 > synchronizing_delay(table)


def test_cycle_formula_back_substitution(table):
    for m in range(31):
        assert local_cycle_formula(m, table) == 63 * m + 1002
        assert global_datapath_cycle_formula(m, table) == 72 * m + 1430


def test_crossover_with_derived_delays(table):
    assert crossover_m(table) == 8


def test_crossover_with_doubled_ao22(table):
    doubled = table.replace({GateKind.AO22: 144})
    assert crossover_m(doubled) == 3
    # cross-check against the max-based cycle model
    assert theory_global(3, doubled)[0] == synchronizing_delay(doubled)
    assert theory_global(4, doubled)[0] > synchronizing_delay(doubled)


def test_crossover_never_dominates_sentinel(table):
    huge = table.replace({GateKind.AO22: 10**6})
    assert crossover_m(huge) == -1


# -- measurement -----------------------------------------------------------


def test_closed_forms_hold_at_every_width(table):
    """Every width from 2 to 40 meets the closed forms: GLOBAL at every m,
    so the synchronizing path's tree depth is checked against every
    detector shape, and LOCAL from m = 3, where its reverse form is exact."""
    for n in range(2, 41):
        for arch, theory, m_values in (
            (Architecture.GLOBAL, lambda m: theory_global(m, table, n), range(n - 1)),
            (Architecture.LOCAL, lambda m: theory_local(m, table), range(3, n - 1)),
        ):
            stage = build_stage(arch, n=n)
            sim = Simulation(stage.netlist, table)
            for m in m_values:
                assert measure(stage, ChainSpec(n, m), table, sim) == theory(m), (arch, n, m)


def test_measure_local_m10(local_stage32, table):
    assert measure(local_stage32, ChainSpec(32, 10), table)[2] == 1632


def test_measure_global_sync_dominated(global_stage32, table):
    assert measure(global_stage32, ChainSpec(32, 4), table)[2] == 2028


def test_measure_global_data_dominated(global_stage32, table):
    assert measure(global_stage32, ChainSpec(32, 20), table)[2] == 2870


def test_measure_rejects_width_mismatch(local_stage32, table):
    with pytest.raises(ValueError, match="width"):
        measure(local_stage32, ChainSpec(8, 2), table)


def test_measure_rejects_a_sim_of_another_netlist(local_stage32, global_stage32, table):
    with pytest.raises(ValueError, match="another netlist"):
        measure(local_stage32, ChainSpec(32, 4), table, Simulation(global_stage32.netlist, table))


# -- sweep -------------------------------------------------------------------


@pytest.fixture(scope="module")
def report(table):
    return sweep(n=32, table=table)


def test_sweep_row_m4(report):
    row = report.rows[0]
    assert row.m == 4
    assert row.local_sim[2] == 1254 and row.global_sim[2] == 2028
    assert row.reduction_pct == pytest.approx(38.17, abs=0.01)


def test_sweep_row_m28(report):
    row = report.rows[-1]
    assert row.m == 28
    assert row.local_sim[2] == 2766 and row.global_sim[2] == 3446
    assert row.reduction_pct == pytest.approx(19.73, abs=0.01)


def test_sweep_average_within_band(report):
    assert 19.0 <= report.average_reduction_pct <= 26.0
    assert report.average_reduction_pct == pytest.approx(23.78, abs=0.01)


def test_sweep_simulation_equals_theory(report):
    for row in report.rows:
        assert row.local_sim == row.local_theory
        assert row.global_sim == row.global_theory


def test_sweep_local_step_is_carry_cell_delay(report, table):
    cycles = [r.local_sim[2] for r in report.rows]
    assert all(b - a == table[GateKind.AO21] for a, b in zip(cycles, cycles[1:]))


def test_sweep_global_regimes(report, table):
    for row in report.rows:
        expected = 2028 if row.m <= 8 else 72 * row.m + 1430
        assert row.global_sim[2] == expected
    fls = {r.m: r.global_sim[0] for r in report.rows}
    assert all(fls[m] == fls[4] for m in range(4, 9))
    assert all(fls[m + 1] > fls[m] for m in range(9, 28))


def test_sweep_local_always_faster(report):
    for row in report.rows:
        assert row.global_sim[2] > row.local_sim[2]


def test_sweep_csv_shape(report):
    lines = sweep_csv(report).splitlines()
    assert lines[0] == (
        "m,cycle_local_sim,cycle_local_theory,cycle_global_sim,cycle_global_theory,reduction_pct"
    )
    assert lines[1] == "4,1254,1254,2028,2028,38.17"
    assert lines[-1] == "average,,,,,23.78"
    assert len(lines) == 2 + len(report.rows)


def test_sweep_on_one_reset_sim_per_stage_matches_fresh_sims(report, table):
    # oracle: measure() without a sim builds a fresh Simulation for every point
    local = build_stage(Architecture.LOCAL, n=32)
    glob = build_stage(Architecture.GLOBAL, n=32)
    rows = []
    for m in range(4, 29):
        spec = ChainSpec(32, m)
        rows.append(SweepRow(m, measure(local, spec, table), theory_local(m, table),
                             measure(glob, spec, table), theory_global(m, table, 32)))
    assert report.rows == rows
    assert sweep_csv(report) == sweep_csv(TimingReport(32, rows))


def test_analyses_compile_each_netlist_once(monkeypatch, table):
    built = []

    class Counting(Simulation):
        def __init__(self, netlist, *args, **kwargs):
            built.append(netlist)
            super().__init__(netlist, *args, **kwargs)

    monkeypatch.setattr(qdisim.analysis, "Simulation", Counting)
    sweep(n=8, m_values=range(4, 7), table=table)
    assert len(built) == 2
    asymptotic_check(AdderVariant.DIMS_WEAK, n=8, m_values=(2, 4, 6), table=table)
    assert len(built) == 3
    fa = build_full_adder(AdderVariant.EARLY_OUTPUT)
    assert classify_both(fa, table) == EXPECTED_CLASSES[AdderVariant.EARLY_OUTPUT]
    assert built[3:] == [fa, fa]


# -- indication classes -------------------------------------------------------


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_classification_matches_expected(variant, table):
    assert classify_both(build_full_adder(variant), table) == EXPECTED_CLASSES[variant]


def test_strong_adder_both_phases(table):
    fa = build_full_adder(AdderVariant.DIMS_STRONG)
    assert classify_indication(fa, Phase.SET, table) is Indication.STRONG
    assert classify_indication(fa, Phase.RTZ, table) is Indication.STRONG


def test_early_output_resets_early(table):
    fa = build_full_adder(AdderVariant.EARLY_OUTPUT)
    assert classify_indication(fa, Phase.SET, table) is Indication.WEAK
    assert classify_indication(fa, Phase.RTZ, table) is Indication.EARLY


def test_classifier_rejects_wide_blocks(table):
    from qdisim.stage import build_stage

    wide = build_stage(Architecture.LOCAL, n=3).netlist
    with pytest.raises(ValueError, match="too wide"):
        classify_indication(wide, Phase.SET, table)


# -- the three early-reset scenarios, replayed at trace level ----------------


def _settled_fa(table, a, b, c):
    fa = build_full_adder(AdderVariant.EARLY_OUTPUT)
    sim = Simulation(fa, table)
    sim.apply_inputs(
        [("a.r1", a), ("a.r0", 1 - a), ("b.r1", b), ("b.r0", 1 - b),
         ("cin.r1", c), ("cin.r0", 1 - c)], at_time=0)
    sim.run_until_quiescent()
    return sim


def test_early_reset_propagate_scenario(table):
    # a=0, b=1 propagates cin=1; dropping one operand rail resets the carry
    # alone, and dropping cin as well resets the whole block early
    sim = _settled_fa(table, 0, 1, 1)
    assert sim.pair_value("sum") is RailState.ZERO
    assert sim.pair_value("cout") is RailState.ONE
    sim.apply_inputs([("a.r0", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("cout") is RailState.SPACER
    assert sim.pair_value("sum") is RailState.ZERO  # sum still held
    sim.apply_inputs([("cin.r1", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("sum") is RailState.SPACER
    assert sim.net_value("b.r1") == 1  # fully reset with one input still valid


def test_early_reset_generate_scenario(table):
    sim = _settled_fa(table, 1, 1, 1)
    assert sim.pair_value("sum") is RailState.ONE
    assert sim.pair_value("cout") is RailState.ONE
    sim.apply_inputs([("a.r1", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("cout") is RailState.SPACER
    sim.apply_inputs([("cin.r1", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("sum") is RailState.SPACER
    assert sim.net_value("b.r1") == 1


def test_early_reset_kill_scenario(table):
    sim = _settled_fa(table, 0, 0, 0)
    assert sim.pair_value("sum") is RailState.ZERO
    assert sim.pair_value("cout") is RailState.ZERO
    sim.apply_inputs([("a.r0", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("cout") is RailState.SPACER
    sim.apply_inputs([("cin.r0", 0)])
    sim.run_until_quiescent()
    assert sim.pair_value("sum") is RailState.SPACER
    assert sim.net_value("b.r0") == 1


# -- asymptotic shapes ---------------------------------------------------------


def test_strong_adder_latency_flat():
    rep = asymptotic_check(AdderVariant.DIMS_STRONG)
    assert len(set(rep.fl)) == 1
    assert len(set(rep.rl)) == 1
    assert rep.shape == "O(n)+O(n)"


def test_basic_weak_adder_reset_grows_linearly():
    rep = asymptotic_check(AdderVariant.DIMS_WEAK)
    assert all(d > 0 for d in rep.rl_deltas)
    assert len(set(rep.rl_deltas)) == 1
    assert rep.shape == "O(m)+O(m)"


def test_latency_opt_reset_constant():
    rep = asymptotic_check(AdderVariant.LATENCY_OPT_BIASED)
    assert rep.rl == (501, 501, 501, 501)
    assert rep.shape == "O(m)+O(2)"


def test_early_output_datapath_reset_constant():
    rep = asymptotic_check(AdderVariant.EARLY_OUTPUT)
    assert rep.rl == (416, 416, 416, 416)
    assert rep.shape == "O(m)+O(2)"


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("variant", list(AdderVariant))
def test_asymptotic_check_matches_fresh_sims(variant, arch, table):
    rep = asymptotic_check(variant, arch, table=table)
    stage = build_stage(arch, variant, 32, force=True)
    fresh = [measure(stage, ChainSpec(32, m), table)[:2] for m in rep.m_values]
    assert list(zip(rep.fl, rep.rl)) == fresh
