import pytest
from hypothesis import given, settings, strategies as st

from qdisim.adders import (
    AdderVariant,
    build_full_adder,
    build_rca,
    functional_check,
    rca_transaction,
)
from qdisim.cells import default_delay_table
from qdisim.dualrail import RailState
from qdisim.netlist import GateKind, gate_census, validate
from qdisim.sim import Simulation

ALL_VARIANTS = list(AdderVariant)

# gate inventories implied by each variant's defining equations
EXPECTED_CENSUS = {
    AdderVariant.DIMS_STRONG: {GateKind.C3: 8, GateKind.OR2: 12},
    AdderVariant.DIMS_WEAK: {GateKind.C3: 8, GateKind.C2: 2, GateKind.OR2: 10},
    AdderVariant.DISTRIBUTIVE: {GateKind.C2: 8, GateKind.OR2: 6},
    AdderVariant.BIASED_AO222: {GateKind.C2: 8, GateKind.OR2: 4, GateKind.AO222: 2},
    AdderVariant.LATENCY_OPT_BIASED: {GateKind.C2: 8, GateKind.OR2: 4, GateKind.AO21: 2},
    AdderVariant.EARLY_OUTPUT: {GateKind.AO22: 4, GateKind.C2: 4, GateKind.OR2: 2},
}


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_adder_validates(variant):
    assert validate(build_full_adder(variant)).ok


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_adder_census(variant):
    cen = gate_census(build_full_adder(variant))
    expected = EXPECTED_CENSUS[variant]
    for kind, count in expected.items():
        assert cen.counts[kind] == count, kind
    assert cen.total == sum(expected.values())


def test_rca_gate_count_scales_linearly():
    rca = build_rca(AdderVariant.EARLY_OUTPUT, 32)
    assert gate_census(rca.netlist).total == 320
    assert validate(rca.netlist).ok


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_truth_table_single_stage(variant, table):
    rca = build_rca(variant, 1)
    sim = Simulation(rca.netlist, table)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                decoded, set_rep, rtz_rep, spacer = rca_transaction(sim, rca, a, b, c)
                assert decoded == a + b + c, (variant, a, b, c)
                assert set_rep.ok and rtz_rep.ok
                assert spacer


def test_a_plus_b_plus_cin_example(table):
    # 1 + 1 + 0: sum 0, carry out 1 for every variant
    for variant in ALL_VARIANTS:
        rca = build_rca(variant, 1)
        sim = Simulation(rca.netlist, table)
        decoded, *_ = rca_transaction(sim, rca, 1, 1, 0)
        assert decoded == 2


def test_degenerate_cascade_matches_full_adder(table):
    """A one-stage cascade and the standalone adder settle to identical
    port states for every input codeword."""
    for variant in ALL_VARIANTS:
        fa = build_full_adder(variant)
        rca = build_rca(variant, 1)
        for code in range(8):
            a, b, c = code & 1, (code >> 1) & 1, (code >> 2) & 1
            s_fa = Simulation(fa, table)
            s_fa.apply_inputs(
                [("a.r1", a), ("a.r0", 1 - a), ("b.r1", b), ("b.r0", 1 - b),
                 ("cin.r1", c), ("cin.r0", 1 - c)], at_time=0)
            s_fa.run_until_quiescent()
            s_rca = Simulation(rca.netlist, table)
            decoded, *_ = rca_transaction(s_rca, rca, a, b, c)
            fa_sum = s_fa.pair_value("sum")
            fa_cout = s_fa.pair_value("cout")
            want_sum = RailState.ONE if (a + b + c) & 1 else RailState.ZERO
            want_cout = RailState.ONE if (a + b + c) > 1 else RailState.ZERO
            assert fa_sum is want_sum and fa_cout is want_cout
            assert decoded == a + b + c


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_exhaustive_two_bit(variant, table):
    result = functional_check(build_rca(variant, 2), 0, exhaustive=True, delay_table=table)
    assert result.passed and result.trials == 32


@given(
    variant=st.sampled_from([AdderVariant.LATENCY_OPT_BIASED, AdderVariant.EARLY_OUTPUT]),
    width=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=40)
def test_random_additions_match_integers(variant, width, data, table):
    a = data.draw(st.integers(0, (1 << width) - 1))
    b = data.draw(st.integers(0, (1 << width) - 1))
    c = data.draw(st.integers(0, 1))
    rca = build_rca(variant, width)
    sim = Simulation(rca.netlist, table)
    decoded, set_rep, rtz_rep, spacer = rca_transaction(sim, rca, a, b, c)
    assert decoded == a + b + c
    assert set_rep.ok and rtz_rep.ok and spacer


def test_full_length_propagate(table):
    rca = build_rca(AdderVariant.LATENCY_OPT_BIASED, 32)
    sim = Simulation(rca.netlist, table)
    decoded, *_ = rca_transaction(sim, rca, 2**32 - 1, 0, 1)
    assert decoded == 2**32  # sum rails all zero, overflow carry set


def test_all_zero_operands(table):
    rca = build_rca(AdderVariant.DIMS_WEAK, 8)
    sim = Simulation(rca.netlist, table)
    decoded, *_ = rca_transaction(sim, rca, 0, 0, 0)
    assert decoded == 0


@pytest.mark.parametrize("variant", [AdderVariant.DIMS_STRONG, AdderVariant.DIMS_WEAK])
def test_minterm_outputs_mutually_disjoint(variant, table):
    """At quiescence under any valid input, at most one product-term
    C-element in a stage drives 1."""
    rca = build_rca(variant, 1)
    minterm_nets = [g.output for g in rca.netlist.gates if g.kind is GateKind.C3]
    assert len(minterm_nets) == 8
    sim = Simulation(rca.netlist, table)
    for code in range(8):
        a, b, c = code & 1, (code >> 1) & 1, (code >> 2) & 1
        rca_transaction(sim, rca, a, b, c)  # leaves the state back at spacer
        sim2 = Simulation(rca.netlist, table)
        sim2.apply_inputs(
            [("a0.r1", a), ("a0.r0", 1 - a), ("b0.r1", b), ("b0.r0", 1 - b),
             ("cin.r1", c), ("cin.r0", 1 - c)], at_time=0)
        sim2.run_until_quiescent()
        assert sum(sim2.net_value(net) for net in minterm_nets) <= 1


def test_functional_check_seeded(table):
    result = functional_check(build_rca(AdderVariant.LATENCY_OPT_BIASED, 8), 50, seed=7, delay_table=table)
    assert result.passed and result.trials == 50


def test_functional_check_rejects_zero_trials(table):
    with pytest.raises(ValueError, match="trials"):
        functional_check(build_rca(AdderVariant.EARLY_OUTPUT, 2), 0, delay_table=table)


def test_build_rca_rejects_zero_width():
    with pytest.raises(ValueError, match="n must be"):
        build_rca(AdderVariant.EARLY_OUTPUT, 0)


@pytest.mark.parametrize("a,b,cin", [(3, 1, 2), (16, 0, 0), (0, -1, 0), (1.5, 0, 0), ("3", 0, 0)])
def test_rca_transaction_rejects_operands_that_do_not_fit(a, b, cin, table):
    rca = build_rca(AdderVariant.LATENCY_OPT_BIASED, 4)
    sim = Simulation(rca.netlist, table)
    with pytest.raises(ValueError, match="do not fit width 4"):
        rca_transaction(sim, rca, a, b, cin)
    assert sim.now == 0 and not sim._heap  # nothing was driven
