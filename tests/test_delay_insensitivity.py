"""Delay insensitivity, the paper's central claim, as a property: under
seeded per-gate delay jitter every adder variant, in either architecture
and as a bare ripple chain, decodes the same values with the same phase
reports as with the calibrated delays.  Only latencies may move."""
from functools import lru_cache

from hypothesis import given, strategies as st

from qdisim.adders import AdderVariant, build_rca, rca_transaction
from qdisim.cells import default_delay_table
from qdisim.sim import Simulation
from qdisim.stage import Architecture, build_stage, run_transaction

TABLE = default_delay_table()
WIDTHS = st.one_of(st.integers(1, 8), st.just(32))
FUNCTIONAL = ("sum_value", "carry_value", "set_report", "rtz_report", "spacer_restored", "ok")


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


@given(variant=st.sampled_from(list(AdderVariant)), n=WIDTHS, jitter=st.integers(1, 80),
       seed=st.integers(1, 10_000), data=st.data())
def test_rca_results_do_not_depend_on_delays(variant, n, jitter, seed, data):
    rca, calibrated = _rca(variant, n)
    a, b, cin = _operands(data, n)
    want = rca_transaction(calibrated, rca, a, b, cin)
    assert want[0] == a + b + cin
    jittered = Simulation(rca.netlist, TABLE, jitter=jitter, jitter_seed=seed)
    assert rca_transaction(jittered, rca, a, b, cin) == want
