from itertools import product

import pytest
from hypothesis import given, strategies as st

from qdisim.cells import (
    DEFAULT_UNPINNED,
    DelayTable,
    DelayTableError,
    GLOBAL_CYCLE_LAW,
    LOCAL_CYCLE_LAW,
    default_delay_table,
    derive_pinned_delays,
    dump_delay_table,
    eval_gate,
    load_delay_table,
)
from qdisim.netlist import GATE_ARITY, GateKind

# frozen solution of the calibration identities, worked out by hand:
#   a21 = 63, a22 = 72, 6c + 4o = 876, 11c + 2o = 1286  =>  c = 106, o = 60
PINNED = {GateKind.C2: 106, GateKind.OR2: 60, GateKind.AO21: 63, GateKind.AO22: 72}


def test_c2_holds_on_disagreement():
    assert eval_gate(GateKind.C2, [1, 0], previous_output=0) == 0
    assert eval_gate(GateKind.C2, [1, 0], previous_output=1) == 1


def test_c3_fires_on_unanimity():
    assert eval_gate(GateKind.C3, [1, 1, 1], previous_output=0) == 1
    assert eval_gate(GateKind.C3, [0, 0, 0], previous_output=1) == 0


def test_ao222_first_product():
    assert eval_gate(GateKind.AO222, [1, 1, 0, 0, 0, 0]) == 1


def test_arity_mismatch_raises():
    with pytest.raises(ValueError, match="expects"):
        eval_gate(GateKind.AO22, [1, 0, 1])


@pytest.mark.parametrize(
    "kind",
    [k for k in GateKind if k not in (GateKind.C2, GateKind.C3)],
)
def test_combinational_kinds_are_memoryless(kind):
    for inputs in product((0, 1), repeat=GATE_ARITY[kind]):
        assert eval_gate(kind, inputs, 0) == eval_gate(kind, inputs, 1)


@pytest.mark.parametrize("kind", [GateKind.C2, GateKind.C3])
def test_c_element_hysteresis_exhaustive(kind):
    """Over every input sequence of length <= 6, the output moves only on
    unanimous input vectors."""
    arity = GATE_ARITY[kind]
    vectors = list(product((0, 1), repeat=arity))
    for length in (1, 6):
        for seq in product(vectors, repeat=length):
            out = 0
            for vec in seq:
                new = eval_gate(kind, vec, out)
                if new != out:
                    assert all(v == new for v in vec)
                out = new


def test_derived_delays_match_frozen_solution():
    assert derive_pinned_delays() == PINNED


def test_derived_delays_consistency_identities():
    d = derive_pinned_delays()
    c, o, a22 = d[GateKind.C2], d[GateKind.OR2], d[GateKind.AO22]
    assert 18 * c + 2 * o == 2028
    # largest m with (m + 2) * a22 <= 7 * c
    m = 0
    while (m + 3) * a22 <= 7 * c:
        m += 1
    assert m == 8


def test_back_substitution_reproduces_cycle_laws():
    d = derive_pinned_delays()
    c, o, a21, a22 = d[GateKind.C2], d[GateKind.OR2], d[GateKind.AO21], d[GateKind.AO22]
    for m in range(31):
        assert 6 * c + 4 * o + (m + 2) * a21 == LOCAL_CYCLE_LAW[0] * m + LOCAL_CYCLE_LAW[1]
        assert 11 * c + 2 * o + (m + 2) * a22 == GLOBAL_CYCLE_LAW[0] * m + GLOBAL_CYCLE_LAW[1]


def test_default_table_entries():
    table = default_delay_table()
    assert table[GateKind.OR2] == 60
    assert table[GateKind.AO222] == 80
    for kind, delay in DEFAULT_UNPINNED.items():
        assert table[kind] == delay
    for kind in GateKind:
        assert table[kind] >= 1


def test_load_overrides_only_listed_kinds():
    table = load_delay_table("C2 100\n# comment\n")
    assert table[GateKind.C2] == 100
    base = default_delay_table()
    for kind in GateKind:
        if kind is not GateKind.C2:
            assert table[kind] == base[kind]


def test_load_rejects_zero_delay():
    with pytest.raises(DelayTableError, match=">= 1"):
        load_delay_table("C2 0")


def test_load_rejects_unknown_kind():
    with pytest.raises(DelayTableError, match="unknown gate kind"):
        load_delay_table("FOO 5")


def test_dump_round_trips_through_load():
    table = default_delay_table().replace({GateKind.INV: 17})
    again = load_delay_table(dump_delay_table(table))
    assert all(again[k] == table[k] for k in GateKind)


def test_table_requires_all_kinds_positive():
    with pytest.raises(DelayTableError):
        DelayTable({GateKind.INV: 1})
    with pytest.raises(DelayTableError):
        default_delay_table().replace({GateKind.C2: 0})


def test_table_keeps_its_own_copy_of_the_delays():
    delays = dict(default_delay_table().delays)
    table = DelayTable(delays)
    delays[GateKind.C2] = 1
    assert table[GateKind.C2] == 106
    with pytest.raises(TypeError):
        table.delays[GateKind.C2] = 1


@given(st.sampled_from(list(GateKind)), st.data())
def test_eval_gate_is_pure(kind, data):
    inputs = data.draw(
        st.lists(st.integers(0, 1), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind])
    )
    prev = data.draw(st.integers(0, 1))
    assert eval_gate(kind, inputs, prev) == eval_gate(kind, list(inputs), prev)
