import random
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import qdisim.analysis
from qdisim.adders import AdderVariant, build_full_adder, build_rca
from qdisim.analysis import (
    CLASSIFY_MAX_PAIRS,
    ChainSpec,
    EXPECTED_CLASSES,
    Indication,
    SweepRow,
    TimingReport,
    TransactionError,
    classify_both,
    classify_indication,
    crossover_m,
    gen_carry_chain_vector,
    measure,
    measure_chains,
    sweep,
    sweep_csv,
    theory_global,
    theory_local,
)
from qdisim.analysis import asymptotic_check
from qdisim.cells import default_delay_table, global_datapath_cycle, local_cycle, path_delay, sync_path
from qdisim.dualrail import DecodeIssue, RailState, rail_assignments
from qdisim.netlist import GATE_ARITY, Gate, GateKind, Netlist, parse_netlist
from qdisim.sim import Phase, Simulation
from qdisim.stage import Architecture, build_stage, run_transaction


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
    # short chains reset faster than the steady state: a stage after the
    # kill stage waits for no carry (m = 0, 1), cin's carry chain beats the
    # last propagate stage's detector (m = 2)
    assert [theory_local(m, table)[1] for m in range(3)] == [441, 441, 461]
    assert theory_local(0, table)[2] == 942 != path_delay(local_cycle(0), table)
    for m in range(3, 29):
        assert theory_local(m, table)[1] == 501
    # with no stage after the kill stage, the kill stage's own sum ends the wave
    assert theory_local(0, table, n=2)[1] == theory_local(1, table, n=3)[1] == 438


def test_theory_global_values(table):
    assert theory_global(8, table)[2] == 2028
    assert theory_global(12, table)[2] == 2294
    fl9 = theory_global(9, table)[0]
    assert fl9 == 1064 and fl9 > path_delay(sync_path(32), table)


def test_cycle_formula_back_substitution(table):
    for m in range(31):
        assert path_delay(local_cycle(m), table) == 63 * m + 1002
        assert path_delay(global_datapath_cycle(m), table) == 72 * m + 1430


def test_crossover_with_derived_delays(table):
    assert crossover_m(table) == 8


def test_crossover_with_doubled_ao22(table):
    doubled = table.replace({GateKind.AO22: 144})
    assert crossover_m(doubled) == 3
    # cross-check against the max-based cycle model
    assert theory_global(3, doubled)[0] == path_delay(sync_path(32), doubled)
    assert theory_global(4, doubled)[0] > path_delay(sync_path(32), doubled)


def test_crossover_never_dominates_sentinel(table):
    huge = table.replace({GateKind.AO22: 10**6})
    assert crossover_m(huge) == -1


# -- measurement -----------------------------------------------------------


def test_closed_forms_hold_at_every_width(table):
    """Every width from 2 to 40 meets the closed forms at every m: the
    synchronizing path's tree depth is checked against every detector
    shape, and the local reset against every short chain."""
    for n in range(2, 41):
        for arch, theory in (
            (Architecture.GLOBAL, lambda m: theory_global(m, table, n)),
            (Architecture.LOCAL, lambda m: theory_local(m, table, n)),
        ):
            stage = build_stage(arch, n=n)
            sim = Simulation(stage.netlist, table)
            for m in range(n - 1):
                assert measure(stage, ChainSpec(n, m), table, sim) == theory(m), (arch, n, m)


@pytest.mark.parametrize("seed", range(4))
def test_local_closed_form_holds_for_other_tables(seed, table):
    rng = random.Random(seed)
    other = table.replace({kind: rng.randint(1, 200) for kind in (GateKind.C2, GateKind.OR2, GateKind.AO21)})
    for n in (2, 3, 4, 9):
        stage = build_stage(Architecture.LOCAL, n=n)
        specs = [ChainSpec(n, m) for m in range(n - 1)]
        assert measure_chains(stage, specs, other) == [theory_local(s.m, other, n) for s in specs], n


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


def test_undecoded_transaction_names_its_first_bad_pair(table):
    """A stage whose real ackin never rises forwards only spacer: both
    latencies read 0, and the record and the error flag the undecoded
    word.  A forwarded carry that stays spacer is named the same way."""
    stage = build_stage(Architecture.LOCAL, n=4)
    spec = ChainSpec(4, 1)
    unlatched = replace(stage, ackin="a0.r1")
    rec = run_transaction(unlatched, *gen_carry_chain_vector(spec), table)
    assert (rec.forward_latency, rec.reverse_latency, rec.ok) == (0, 0, False)
    assert rec.sum_value == DecodeIssue(RailState.SPACER, 0)
    ports = {**stage.netlist.port_map, "cout": ("fa3.k1", "fa2.k1")}  # two carry rails that stay low
    carryless = replace(stage, netlist=replace(stage.netlist, port_map=ports))
    for bad, detail in ((unlatched, "sum pair 0 is SPACER"), (carryless, "carry pair 0 is SPACER")):
        message = f"^transaction failed for m=1: set=True rtz=True spacer=True, {detail}$"
        with pytest.raises(TransactionError, match=message):
            measure(bad, spec, table)
        with pytest.raises(TransactionError, match=message):
            measure_chains(bad, [spec], table)


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
    assert built[3:] == [fa]  # one Simulation, and one wave plan, for both phases


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
    assert CLASSIFY_MAX_PAIRS == 9
    classify_both(build_rca(AdderVariant.EARLY_OUTPUT, 4).netlist, table)  # 9 input pairs
    wide = build_rca(AdderVariant.EARLY_OUTPUT, 5).netlist  # 11 input pairs
    with pytest.raises(ValueError, match="too wide"):
        classify_indication(wide, Phase.SET, table)


def test_classifier_rejects_an_unpaired_input(table):
    stage = build_stage(Architecture.LOCAL, n=1).netlist  # ackin is on no input pair
    with pytest.raises(ValueError, match="'ackin' is on no input pair"):
        classify_both(stage, table)


def test_classifier_rejects_a_block_the_wave_plan_does_not_cover(table):
    inv = parse_netlist("input d.r1\ninput d.r0\ngate i INV d.r0 y.r0\ngate o OR2 d.r1 d.r1 y.r1\n"
                        "output y.r1\noutput y.r0\npair d d.r1 d.r0\npair y y.r1 y.r0")
    with pytest.raises(ValueError, match="wave plan"):
        classify_indication(inv, Phase.RTZ, table)


# -- the subset lattice against the event engine ---------------------------


def _order_enumerator(netlist, phase, table):
    """The classes by their definition: every codeword and every arrival
    order, one input-rail event at a time with full settling between
    events, on the event engine."""
    in_rails, out_ports = _io_ports(netlist)
    out_rails = {r for p in out_ports for r in netlist.port_map[p]}
    is_set = phase is Phase.SET
    any_transition_early = all_complete_early = False
    k = len(in_rails)
    sim = Simulation(netlist, table)
    for codeword in range(1 << k):
        active = [net for net, v in rail_assignments(in_rails, codeword) if v]
        for order in permutations(range(k)):
            sim.reset()
            if not is_set:
                sim.apply_inputs([(net, 1) for net in active])
                sim.run_until_quiescent()
            for step, idx in enumerate(order):
                sim.apply_inputs([(active[idx], 1 if is_set else 0)])
                seg, _ = sim.run_until_quiescent()
                if step == k - 1:
                    break
                if any(net in out_rails for _, net, _ in seg):
                    any_transition_early = True
                if all(_pair_complete(sim.pair_value(p), is_set) for p in out_ports):
                    all_complete_early = True
    return _indication(all_complete_early, any_transition_early)


def _subset_oracle(netlist, phase, table):
    """Every codeword and every proper non-empty subset of its input pairs
    arrived (SET) or returned to spacer (RTZ) at once, on the event engine."""
    in_rails, out_ports = _io_ports(netlist)
    is_set = phase is Phase.SET
    moved = complete = False
    k = len(in_rails)
    sim = Simulation(netlist, table)
    for codeword in range(1 << k):
        active = [net for net, v in rail_assignments(in_rails, codeword) if v]
        for subset in range(1, (1 << k) - 1):
            sim.reset()
            if not is_set:
                sim.apply_inputs([(net, 1) for net in active])
                sim.run_until_quiescent()
            before = sim.read_word(out_ports)
            sim.apply_inputs([(net, int(is_set)) for i, net in enumerate(active) if subset >> i & 1])
            sim.run_until_quiescent()
            after = sim.read_word(out_ports)
            moved |= after != before
            complete |= all(_pair_complete(state, is_set) for state in after)
    return _indication(complete, moved)


def _io_ports(netlist):
    """The rails of the input pairs, and the output ports."""
    pis, pos = set(netlist.primary_inputs), set(netlist.primary_outputs)
    in_rails = [pair for pair in netlist.port_map.values() if pis.issuperset(pair)]
    return in_rails, [p for p, pair in netlist.port_map.items() if pos.issuperset(pair)]


def _pair_complete(state, is_set):
    return state in (RailState.ZERO, RailState.ONE) if is_set else state is RailState.SPACER


def _indication(complete, moved):
    return Indication.EARLY if complete else Indication.WEAK if moved else Indication.STRONG


@pytest.mark.parametrize("phase", list(Phase))
@pytest.mark.parametrize("variant", list(AdderVariant))
def test_lattice_equals_the_order_enumerator(variant, phase, table):
    fa = build_full_adder(variant)
    assert classify_indication(fa, phase, table) is _order_enumerator(fa, phase, table)
    assert _subset_oracle(fa, phase, table) is _order_enumerator(fa, phase, table)


@st.composite
def _paired_blocks(draw):
    """Random acyclic blocks of every non-INV kind over 1-3 input pairs,
    with output pairs over random gate outputs: outputs may move early,
    complete early, never move, or raise both rails."""
    k = draw(st.integers(1, 3))
    inputs = tuple(f"x{j}.r{r}" for j in range(k) for r in (1, 0))
    nets, gates = list(inputs), []
    for g in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from([kind for kind in GateKind if kind is not GateKind.INV]))
        ins = draw(st.lists(st.sampled_from(nets), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind]))
        gates.append(Gate(f"g{g}", kind, tuple(ins), f"n{g}"))
        nets.append(f"n{g}")
    outs = draw(st.permutations([g.output for g in gates]))[: 2 * draw(st.integers(1, len(gates) // 2))]
    ports = {f"x{j}": (f"x{j}.r1", f"x{j}.r0") for j in range(k)}
    ports.update({f"y{j}": (outs[2 * j], outs[2 * j + 1]) for j in range(len(outs) // 2)})
    return Netlist(tuple(gates), inputs, tuple(outs), ports)


@given(block=_paired_blocks(), phase=st.sampled_from(list(Phase)))
def test_lattice_equals_the_order_enumerator_on_random_blocks(block, phase):
    table = default_delay_table()
    assert classify_indication(block, phase, table) is _order_enumerator(block, phase, table)


def test_an_early_zero_rail_alone_makes_a_block_weak(table):
    # y0's 0-rail follows x0 alone; y0's 1-rail and both of y1's wait for
    # x0 and x1, so only a 0-rail ever moves early and nothing completes
    block = parse_netlist(
        "input x0.r1\ninput x0.r0\ninput x1.r1\ninput x1.r0\n"
        "gate a C2 x0.r1 x1.r1 y0.r1\ngate b OR2 x0.r0 x0.r0 y0.r0\n"
        "gate c C2 x0.r1 x1.r0 y1.r1\ngate d C2 x0.r0 x1.r1 y1.r0\n"
        "output y0.r1\noutput y0.r0\noutput y1.r1\noutput y1.r0\n"
        "pair x0 x0.r1 x0.r0\npair x1 x1.r1 x1.r0\npair y0 y0.r1 y0.r0\npair y1 y1.r1 y1.r0")
    assert classify_indication(block, Phase.SET, table) is Indication.WEAK
    assert _order_enumerator(block, Phase.SET, table) is Indication.WEAK


@pytest.mark.parametrize("phase", list(Phase))
@pytest.mark.parametrize("variant", list(AdderVariant))
def test_lattice_equals_the_subset_oracle_on_two_bit_adders(variant, phase, table):
    rca = build_rca(variant, 2).netlist
    assert classify_indication(rca, phase, table) is _subset_oracle(rca, phase, table)


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
