from itertools import product

import pytest
from hypothesis import given, strategies as st

import qdisim.cells
from qdisim.cells import (
    DEFAULT_UNPINNED,
    DelayTable,
    DelayTableError,
    GLOBAL_CYCLE_LAW,
    LOCAL_CYCLE_LAW,
    default_delay_table,
    derive_pinned_delays,
    dump_delay_table,
    load_delay_table,
)
from qdisim.netlist import GATE_ARITY, GateKind, parse_netlist
from qdisim.sim import Simulation

# frozen solution of the calibration identities, worked out by hand:
#   a21 = 63, a22 = 72, 6c + 4o = 876, 11c + 2o = 1286  =>  c = 106, o = 60
PINNED = {GateKind.C2: 106, GateKind.OR2: 60, GateKind.AO21: 63, GateKind.AO22: 72}

# -- gate semantics, through the simulator's one definition of them --------

# boolean functions of the combinational kinds, written out independently
TRUTH = {
    GateKind.INV: lambda v: 1 - v[0],
    GateKind.AND2: lambda v: v[0] & v[1],
    GateKind.OR2: lambda v: v[0] | v[1],
    GateKind.AO21: lambda v: (v[0] & v[1]) | v[2],
    GateKind.AO22: lambda v: (v[0] & v[1]) | (v[2] & v[3]),
    GateKind.AO222: lambda v: (v[0] & v[1]) | (v[2] & v[3]) | (v[4] & v[5]),
}


def gate_output(kind, first, vector):
    """Output of a one-gate simulation that is powered on, driven to `first`
    and settled (which sets the previous output), then driven to `vector`."""
    ins = [f"i{k}" for k in range(GATE_ARITY[kind])]
    text = "".join(f"input {x}\n" for x in ins) + f"gate z {kind.value} {' '.join(ins)} z"
    sim = Simulation(parse_netlist(text), default_delay_table())
    sim.settle_power_on()
    outputs = []
    for vec in (first, vector):
        sim.apply_inputs(zip(ins, vec))
        sim.run_until_quiescent()
        outputs.append(sim.net_value("z"))
    return outputs


def test_c2_holds_on_disagreement():
    assert gate_output(GateKind.C2, (0, 0), (1, 0)) == [0, 0]
    assert gate_output(GateKind.C2, (1, 1), (1, 0)) == [1, 1]


def test_c3_fires_on_unanimity():
    assert gate_output(GateKind.C3, (0, 0, 0), (1, 1, 1)) == [0, 1]
    assert gate_output(GateKind.C3, (1, 1, 1), (0, 0, 0)) == [1, 0]


def test_ao222_first_product():
    assert gate_output(GateKind.AO222, (0,) * 6, (1, 1, 0, 0, 0, 0)) == [0, 1]


@pytest.mark.parametrize("kind", list(TRUTH))
def test_combinational_kinds_are_memoryless(kind):
    """Every input vector gives the kind's boolean function, whichever
    output the gate held before (all-zero and all-one first vectors leave
    different previous outputs for every kind here)."""
    arity = GATE_ARITY[kind]
    for vec in product((0, 1), repeat=arity):
        after_zeros = gate_output(kind, (0,) * arity, vec)
        after_ones = gate_output(kind, (1,) * arity, vec)
        assert after_zeros[0] != after_ones[0]
        assert after_zeros[1] == after_ones[1] == TRUTH[kind](vec), vec


@pytest.mark.parametrize("kind", [GateKind.C2, GateKind.C3])
def test_c_element_hysteresis_exhaustive(kind):
    """From either output state, every input vector moves the output only
    when all inputs agree, and then to their common value.

    The output is the gate's only state, so any sequence of input vectors
    (say, all sequences of length 6) is a chain of these (output state,
    input vector) transitions, and checking each transition once covers
    every sequence.  Replaying all length-6 sequences through the
    simulator instead would make this one test slower than the rest of
    the suite together.
    """
    arity = GATE_ARITY[kind]
    for out in (0, 1):
        for vec in product((0, 1), repeat=arity):
            want = vec[0] if len(set(vec)) == 1 else out
            assert gate_output(kind, (out,) * arity, vec) == [out, want], (out, vec)


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


def test_calibration_without_an_integer_solution_is_refused(monkeypatch):
    monkeypatch.setattr(qdisim.cells, "LOCAL_CYCLE_LAW", (63, 1003))
    with pytest.raises(DelayTableError, match="calibration identities have no"):
        derive_pinned_delays()


def test_default_table_entries():
    table = default_delay_table()
    assert table[GateKind.OR2] == 60
    assert table[GateKind.AO222] == 80
    for kind, delay in DEFAULT_UNPINNED.items():
        assert table[kind] == delay
    for kind in GateKind:
        assert table[kind] >= 1


def test_default_table_is_one_shared_read_only_object():
    table = default_delay_table()
    assert default_delay_table() is table
    with pytest.raises(TypeError):
        table.delays[GateKind.C2] = 1


def test_an_override_leaves_the_default_table_alone():
    assert load_delay_table("C2 107\n")[GateKind.C2] == 107
    assert default_delay_table()[GateKind.C2] == 106


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


@pytest.mark.parametrize("text", ["C2 \u0663", "C2 1_0", "C2 +5", "C2 " + "9" * 5000],
                         ids=["arabic-indic-digit", "underscore", "plus-sign", "5000-digits"])
def test_load_rejects_non_decimal_delay(text):
    with pytest.raises(DelayTableError, match="delay must be an integer"):
        load_delay_table(text)


def test_load_rejects_unknown_kind():
    with pytest.raises(DelayTableError, match="unknown gate kind"):
        load_delay_table("FOO 5")


def test_load_rejects_duplicate_kind():
    with pytest.raises(DelayTableError, match="^line 3: duplicate delay for C2$"):
        load_delay_table("C2 100\n# again\nC2 7")


def test_dump_round_trips_through_load():
    table = default_delay_table().replace({GateKind.INV: 17})
    again = load_delay_table(dump_delay_table(table))
    assert all(again[k] == table[k] for k in GateKind)


@given(st.fixed_dictionaries({kind: st.integers(1, 10**9) for kind in GateKind}))
def test_dump_round_trips_any_positive_table(delays):
    table = DelayTable(delays)
    assert load_delay_table(dump_delay_table(table)) == table


_DELAY_TOKENS = st.one_of(
    st.sampled_from([k.value for k in GateKind] + ["#", "-", "-0", "0", "+5", "1_0", "\u0663", "c2"]),
    st.integers(-10**6, 10**6).map(str),
    st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4),
)


@given(st.lists(st.lists(_DELAY_TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join))
def test_load_raises_only_delay_table_errors(text):
    try:
        table = load_delay_table(text)
    except DelayTableError:
        return
    assert all(table[kind] >= 1 for kind in GateKind)


def test_table_requires_all_kinds_positive():
    with pytest.raises(DelayTableError):
        DelayTable({GateKind.INV: 1})
    with pytest.raises(DelayTableError):
        default_delay_table().replace({GateKind.C2: 0})


def test_table_refuses_a_bool_delay():
    """True is an int to isinstance, but not a delay of 1."""
    with pytest.raises(DelayTableError, match=r"^delay for OR2 must be a positive integer, got True$"):
        default_delay_table().replace({GateKind.OR2: True})


def test_table_keeps_its_own_copy_of_the_delays():
    delays = dict(default_delay_table().delays)
    table = DelayTable(delays)
    delays[GateKind.C2] = 1
    assert table[GateKind.C2] == 106
    with pytest.raises(TypeError):
        table.delays[GateKind.C2] = 1
