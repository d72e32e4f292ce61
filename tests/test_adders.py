import dataclasses
import itertools
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from qdisim import adders
from qdisim.adders import (
    AdderVariant,
    FunctionalCheckResult,
    build_rca,
    functional_check,
    pack_operands,
)
from qdisim.cells import DelayTable, default_delay_table
from qdisim.dualrail import bit_columns, decode_word, rail_assignments
from qdisim.netlist import Gate, GateKind, gate_census, validate
from qdisim.sim import Simulation, _WavePlan, drive_transaction
from qdisim.stage import Architecture, build_stage, run_transaction

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


def _transaction(sim, rca, a, b, cin):
    """Both waves of one vector through a bare ripple chain on `sim`."""
    assignments = rail_assignments(rca.operand_rails, pack_operands(rca.n, a, b, cin))
    return drive_transaction(sim, assignments, rca.forward_ports)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_adder_validates(variant):
    assert validate(build_rca(variant, 1).netlist) is None


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_adder_census(variant):
    cen = gate_census(build_rca(variant, 1).netlist)
    expected = EXPECTED_CENSUS[variant]
    for kind, count in expected.items():
        assert cen.counts[kind] == count, kind
    assert cen.total == sum(expected.values())


def test_rca_gate_count_scales_linearly():
    rca = build_rca(AdderVariant.EARLY_OUTPUT, 32)
    assert gate_census(rca.netlist).total == 320
    assert validate(rca.netlist) is None


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_truth_table_single_stage(variant, table):
    rca = build_rca(variant, 1)
    sim = Simulation(rca.netlist, table)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                waves = _transaction(sim, rca, a, b, c)
                assert decode_word(waves.valid_word) == a + b + c, (variant, a, b, c)
                assert waves.ok


def test_a_plus_b_plus_cin_example(table):
    # 1 + 1 + 0: sum 0, carry out 1 for every variant
    for variant in ALL_VARIANTS:
        rca = build_rca(variant, 1)
        sim = Simulation(rca.netlist, table)
        assert decode_word(_transaction(sim, rca, 1, 1, 0).valid_word) == 2


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_exhaustive_two_bit(variant):
    result = functional_check(build_rca(variant, 2), None)
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
    waves = _transaction(sim, rca, a, b, c)
    assert decode_word(waves.valid_word) == a + b + c
    assert waves.ok


def test_full_length_propagate(table):
    rca = build_rca(AdderVariant.LATENCY_OPT_BIASED, 32)
    sim = Simulation(rca.netlist, table)
    assert decode_word(_transaction(sim, rca, 2**32 - 1, 0, 1).valid_word) == 2**32  # sum rails all zero, overflow carry set


def test_all_zero_operands(table):
    rca = build_rca(AdderVariant.DIMS_WEAK, 8)
    sim = Simulation(rca.netlist, table)
    assert decode_word(_transaction(sim, rca, 0, 0, 0).valid_word) == 0


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
        _transaction(sim, rca, a, b, c)  # leaves the state back at spacer
        sim2 = Simulation(rca.netlist, table)
        sim2.apply_inputs(
            [("a0.r1", a), ("a0.r0", 1 - a), ("b0.r1", b), ("b0.r0", 1 - b),
             ("cin.r1", c), ("cin.r0", 1 - c)], at_time=0)
        sim2.run_until_quiescent()
        assert sum(sim2.net_value(net) for net in minterm_nets) <= 1


def test_functional_check_seeded():
    result = functional_check(build_rca(AdderVariant.LATENCY_OPT_BIASED, 8), 50, seed=7)
    assert result.passed and result.trials == 50


def test_functional_check_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        functional_check(build_rca(AdderVariant.EARLY_OUTPUT, 2), 0)


def test_build_rca_rejects_zero_width():
    with pytest.raises(ValueError, match="n must be"):
        build_rca(AdderVariant.EARLY_OUTPUT, 0)


@pytest.mark.parametrize("a,b,cin", [(3, 1, 2), (16, 0, 0), (0, -1, 0), (1.5, 0, 0), ("3", 0, 0)])
def test_pack_operands_rejects_operands_that_do_not_fit(a, b, cin):
    with pytest.raises(ValueError, match="do not fit width 4"):
        pack_operands(4, a, b, cin)


@pytest.mark.parametrize("call,message", [
    (lambda: pack_operands(4, True, 0, 0), "do not fit width 4"),
    (lambda: pack_operands(4, 1, False, 0), "do not fit width 4"),
    (lambda: pack_operands(4, 1, 2, True), "do not fit width 4"),
    (lambda: run_transaction(build_stage(Architecture.LOCAL, n=1), True, 0, False), "do not fit width 1"),
    (lambda: functional_check(build_rca(AdderVariant.EARLY_OUTPUT, 2), True), "trials must be an integer or None"),
    (lambda: functional_check(build_rca(AdderVariant.EARLY_OUTPUT, 2), 2.0), "trials must be an integer or None"),
], ids=["a", "b", "cin", "run_transaction", "trials", "float-trials"])
def test_operands_and_trial_counts_refuse_bools_and_non_ints(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- the block-wise check against one full transaction per vector -------------


def _cases(n, trials, seed):
    """The vectors `functional_check(rca, trials, seed)` reads."""
    if trials is None:
        return itertools.product(range(1 << n), range(1 << n), (0, 1))
    rng = random.Random(seed)
    return [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)) for _ in range(trials)]


def _per_vector(rca, cases, table):
    """The reference: both waves of every vector on the event engine, up to
    the first failure.  An illegal pair is named by the first such port in
    port-map order."""
    sim = Simulation(rca.netlist, table)
    ran = 0
    for a, b, c in cases:
        assignments = rail_assignments(rca.operand_rails, pack_operands(rca.n, a, b, c))
        waves = drive_transaction(sim, assignments, rca.forward_ports)
        decoded = decode_word(waves.valid_word)
        ran += 1
        if decoded != a + b + c:
            return FunctionalCheckResult(False, ran, (a, b, c), f"decoded {decoded!r}, expected {a + b + c}")
        if waves.illegal_pairs:
            port = next(port for port in rca.netlist.port_map if port in {p for _, p in waves.illegal_pairs})
            return FunctionalCheckResult(False, ran, (a, b, c), f"illegal pair {port}")
        if waves.nonmonotonic:
            return FunctionalCheckResult(False, ran, (a, b, c), f"non-monotone transition {waves.nonmonotonic[0]}")
        if not waves.spacer_restored:
            return FunctionalCheckResult(False, ran, (a, b, c), "outputs did not return to spacer")
    return FunctionalCheckResult(True, ran)


def _with_netlist(rca, gates=None, port_map=None):
    netlist = dataclasses.replace(
        rca.netlist,
        gates=rca.netlist.gates if gates is None else tuple(gates),
        port_map=rca.netlist.port_map if port_map is None else port_map,
    )
    return dataclasses.replace(rca, netlist=netlist)


def _swap_sum_rails(variant, n):
    """sum1 reads its rails the wrong way round: every vector decodes wrong."""
    rca = build_rca(variant, n)
    r1, r0 = rca.netlist.port_map["sum1"]
    return _with_netlist(rca, port_map={**rca.netlist.port_map, "sum1": (r0, r1)})


def _retyped(variant, n, gid, kind):
    rca = build_rca(variant, n)
    gates = [g._replace(kind=kind) if g.gid == gid else g for g in rca.netlist.gates]
    assert gates != list(rca.netlist.gates)
    return _with_netlist(rca, gates=gates)


def _top_sum_both_rails(variant, n):
    """The top sum's 0-rail also rises when a's top bit and b's bit 0 are 1,
    so both of its rails rise once that sum bit is 1 too: exhaustively,
    first at a = 2^(n-1), b = 1, cin = 0."""
    rca = build_rca(variant, n)
    top = f"fa{n - 1}.s0"
    gates = [g._replace(output=f"{top}.x") if g.output == top else g for g in rca.netlist.gates]
    gates.append(Gate("trigger", GateKind.C2, (f"a{n - 1}.r1", "b0.r1"), "trigger"))
    gates.append(Gate("fault", GateKind.OR2, (f"{top}.x", "trigger"), top))
    return _with_netlist(rca, gates=gates)


def _illegal_probe(n):
    """A port over stage 0's generate and its `e = OR2(kg, g)`: both rise
    whenever a0 = b0 = 1, an illegal pair that leaves the sum correct."""
    rca = build_rca(AdderVariant.LATENCY_OPT_BIASED, n)
    return _with_netlist(rca, port_map={**rca.netlist.port_map, "probe": ("fa0.g", "fa0.e")})


MUTANTS = {
    "swapped-sum": lambda n: _swap_sum_rails(AdderVariant.EARLY_OUTPUT, n),
    "illegal-probe": _illegal_probe,
    # stage 0's carry join d*cin1 is an OR2, so its 1-carry rises early
    "carry-c2-as-or2": lambda n: _retyped(AdderVariant.DISTRIBUTIVE, n, "fa0.s0b", GateKind.OR2),
    # sum1's 0-rail joins its two exclusive terms with an AND2, so it never rises
    "sum-or2-as-and2": lambda n: _retyped(AdderVariant.LATENCY_OPT_BIASED, n, "fa1.s0", GateKind.AND2),
    "both-rails": lambda n: _top_sum_both_rails(AdderVariant.LATENCY_OPT_BIASED, n),
}


def _timed(*args):
    raise AssertionError("the functional check read a time")


@pytest.mark.parametrize("block", [adders.CHECK_BLOCK, 3, 64])
@pytest.mark.parametrize("trials,seed", [(None, 1), (200, 5)], ids=["exhaustive", "random"])
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_faulty_adder_reports_what_the_per_vector_loop_does(mutant, trials, seed, block, table, monkeypatch):
    """The check gives the loop's result with no timed pass (`run` and
    `times` raise) and with every delay of its plan doubled."""
    rca = MUTANTS[mutant](4)
    want = _per_vector(rca, _cases(4, trials, seed), table)
    assert not want.passed
    monkeypatch.setattr(adders, "CHECK_BLOCK", block)
    monkeypatch.setattr(_WavePlan, "run", _timed)
    monkeypatch.setattr(_WavePlan, "times", _timed)
    doubled = DelayTable({kind: 2 * delay for kind, delay in table.delays.items()})
    monkeypatch.setattr(adders, "default_delay_table", lambda: doubled)
    assert functional_check(rca, trials, seed=seed) == want


@pytest.mark.parametrize("mutant,result", [
    ("swapped-sum", ((0, 0, 0), 1, "decoded 2, expected 0")),
    ("illegal-probe", ((1, 1, 0), 35, "illegal pair probe")),
    ("both-rails", ((8, 1, 0), 259,
                    "decoded DecodeIssue(state=<RailState.ILLEGAL: 'ILLEGAL'>, index=3), expected 9")),
])
def test_a_faulty_adder_compiles_once_and_builds_no_engine(mutant, result, compiled, simulations_built):
    rca = MUTANTS[mutant](4)
    got = functional_check(rca, None)
    assert (got.counterexample, got.trials, got.detail) == result and not got.passed
    assert compiled == [rca.netlist] and simulations_built == []


def test_first_failure_past_the_first_block(table):
    rca = _top_sum_both_rails(AdderVariant.LATENCY_OPT_BIASED, 6)
    got = functional_check(rca, None)
    assert got.trials == adders.CHECK_BLOCK + 3 and got.counterexample == (32, 1, 0)
    assert got == _per_vector(rca, _cases(6, None, 1), table)
    assert "ILLEGAL" in got.detail


def _raise_if_called(*args):
    raise AssertionError("validated an operand that the check generated itself")


def test_random_mode_draws_the_per_vector_sequence(table, monkeypatch):
    """The block reader draws random.Random(seed) in the per-vector order,
    a, b, cin, and packs its own operands without validating them again."""
    drawn = []

    class Recording(random.Random):
        def getrandbits(self, k):
            bits = super().getrandbits(k)
            drawn.append((k, bits))
            return bits

    monkeypatch.setattr(adders, "random", types.SimpleNamespace(Random=Recording))
    monkeypatch.setattr(adders, "pack_operands", _raise_if_called)
    rca = build_rca(AdderVariant.LATENCY_OPT_BIASED, 32)
    assert functional_check(rca, 1000, seed=7) == FunctionalCheckResult(True, 1000)
    assert drawn == [draw for a, b, c in _cases(32, 1000, 7) for draw in ((32, a), (32, b), (1, c))]
    monkeypatch.undo()  # the reference below packs through pack_operands

    mutant = _top_sum_both_rails(AdderVariant.LATENCY_OPT_BIASED, 32)
    got = functional_check(mutant, 1000, seed=7)
    want = _per_vector(mutant, _cases(32, 1000, 7), table)
    assert got == want and not got.passed
    assert got.counterexample == _cases(32, 1000, 7)[got.trials - 1]


def test_an_exhaustive_check_packs_no_vector(monkeypatch):
    """Each exhaustive block reaches `rail_masks` as a range of index
    words, whose operand masks are built in closed form."""
    blocks = []

    def spy(pairs, words):
        blocks.append(words)
        return real(pairs, words)

    real = adders.rail_masks
    monkeypatch.setattr(adders, "rail_masks", spy)
    monkeypatch.setattr(adders, "pack_operands", _raise_if_called)
    rca = build_rca(AdderVariant.EARLY_OUTPUT, 6)
    assert functional_check(rca, None) == FunctionalCheckResult(True, 1 << 13)
    step = adders.CHECK_BLOCK
    assert blocks == [range(start, start + step) for start in range(0, 1 << 13, step)]


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.integers(0, 1)), max_size=300))))
def test_sliced_sum_is_the_transposed_integer_sum(case):
    n, block = case
    operands = bit_columns([pack_operands(n, a, b, c) for a, b, c in block], 2 * n + 1)
    assert adders._sliced_sum(n, operands) == bit_columns([a + b + c for a, b, c in block], n + 1)
