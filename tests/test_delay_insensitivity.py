"""Delay insensitivity, the paper's central claim, as a property: under
seeded per-gate delay jitter every adder variant, in either architecture
and as a bare ripple chain, decodes the same values with the same phase
faults (none) as with the calibrated delays.  Only latencies may move.  The
delay-free analyses, `classify_both` and `functional_check`, agree with
their event-engine oracles timed with any positive delay table."""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qdisim.adders import AdderVariant, build_rca, functional_check
from qdisim.analysis import classify_both
from qdisim.cells import DelayTable, default_delay_table
from qdisim.dualrail import decode_word
from qdisim.netlist import GateKind
from qdisim.sim import Phase, Simulation
from qdisim.stage import Architecture, build_stage, run_transaction

from test_adders import MUTANTS, _cases, _per_vector, _transaction
from test_analysis import _order_enumerator, _paired_blocks, _subset_oracle

TABLE = default_delay_table()
WIDTHS = st.one_of(st.integers(1, 8), st.just(32))
FUNCTIONAL = ("sum_value", "carry_value", "illegal_pairs", "nonmonotonic", "spacer_restored", "ok")
DELAY_TABLES = st.lists(st.integers(1, 300), min_size=len(GateKind), max_size=len(GateKind)).map(
    lambda delays: DelayTable(dict(zip(GateKind, delays))))


@lru_cache(maxsize=None)
def _stage(arch, variant, n):
    stage = build_stage(arch, variant, n, force=True)
    return stage, Simulation(stage.netlist, TABLE)


@lru_cache(maxsize=None)
def _rca(variant, n):
    rca = build_rca(variant, n)
    return rca, Simulation(rca.netlist, TABLE)


def _operands(data, n):
    word = st.integers(0, (1 << n) - 1)
    return data.draw(st.tuples(word, word, st.integers(0, 1)))


def _functional(record):
    return tuple(getattr(record, name) for name in FUNCTIONAL)


@given(arch=st.sampled_from(list(Architecture)), variant=st.sampled_from(list(AdderVariant)),
       n=WIDTHS, jitter=st.integers(1, 80), seed=st.integers(1, 10_000), data=st.data())
def test_stage_results_do_not_depend_on_delays(arch, variant, n, jitter, seed, data):
    stage, calibrated = _stage(arch, variant, n)
    a, b, cin = _operands(data, n)
    want = run_transaction(stage, a, b, cin, sim=calibrated)
    assert want.ok and want.sum_value + (want.carry_value << n) == a + b + cin
    jittered = Simulation(stage.netlist, TABLE, jitter=jitter, jitter_seed=seed)
    for keep_traces in (False, True):
        got = run_transaction(stage, a, b, cin, sim=jittered, keep_traces=keep_traces)
        assert _functional(got) == _functional(want), keep_traces


def _rca_functional(sim, rca, a, b, cin):
    """The decoded word, the phase faults and whether the spacer came
    back, for one transaction through a bare ripple chain on `sim`."""
    waves = _transaction(sim, rca, a, b, cin)
    assert waves.rtz_trace, "the event engine, not the wave plan, ran the transaction"
    return decode_word(waves.valid_word), waves.illegal_pairs, waves.nonmonotonic, waves.spacer_restored


@given(variant=st.sampled_from(list(AdderVariant)), n=WIDTHS, jitter=st.integers(1, 80),
       seed=st.integers(1, 10_000), data=st.data())
def test_rca_results_do_not_depend_on_delays(variant, n, jitter, seed, data):
    rca, calibrated = _rca(variant, n)
    a, b, cin = _operands(data, n)
    want = _rca_functional(calibrated, rca, a, b, cin)
    assert want[0] == a + b + cin
    jittered = Simulation(rca.netlist, TABLE, jitter=jitter, jitter_seed=seed)
    assert _rca_functional(jittered, rca, a, b, cin) == want


def _assert_classes_under(netlist, table):
    """Both engine oracles, timed with `table`, give `classify_both`'s classes."""
    want = classify_both(netlist)
    for phase, indication in ((Phase.SET, want.set_phase), (Phase.RTZ, want.rtz_phase)):
        assert _order_enumerator(netlist, phase, table) is indication, phase
        assert _subset_oracle(netlist, phase, table) is indication, phase


@pytest.mark.parametrize("variant", list(AdderVariant))
@given(table=DELAY_TABLES)
@settings(max_examples=10)
def test_full_adder_classes_do_not_depend_on_delays(variant, table):
    _assert_classes_under(build_rca(variant, 1).netlist, table)


@given(block=_paired_blocks(), table=DELAY_TABLES)
def test_random_block_classes_do_not_depend_on_delays(block, table):
    _assert_classes_under(block, table)


@pytest.mark.parametrize("mutant", list(MUTANTS))
@given(table=DELAY_TABLES)
@settings(max_examples=10)
def test_a_faulty_adder_fails_alike_under_any_delays(mutant, table):
    """The same vector fails in the same way, with the same detail."""
    rca = MUTANTS[mutant](3)
    assert functional_check(rca, None) == _per_vector(rca, _cases(3, None, 1), table)
