from hypothesis import given, strategies as st
import pytest

from qdisim.dualrail import (
    PAIR_STATE,
    DecodeIssue,
    RailState,
    decode_pair,
    decode_word,
    rail_assignments,
)

WIDTH_AND_VALUE = st.integers(min_value=1, max_value=16).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))
)

S, Z, O, X = RailState.SPACER, RailState.ZERO, RailState.ONE, RailState.ILLEGAL


def _encode(value, width):
    """The pair states `rail_assignments` puts on a width-bit bus."""
    pairs = [(f"p{k}.r1", f"p{k}.r0") for k in range(width)]
    rails = dict(rail_assignments(pairs, value))
    return [decode_pair(rails[r1], rails[r0]) for r1, r0 in pairs]


def test_decode_pair_covers_all_four_states():
    assert decode_pair(0, 0) is S
    assert decode_pair(1, 1) is X
    assert decode_pair(0, 1) is Z
    assert decode_pair(1, 0) is O
    assert set(PAIR_STATE.values()) == set(RailState)


@pytest.mark.parametrize("rails", [(2, 0), (0, -1), (1, 2)])
def test_decode_pair_rejects_non_bits(rails):
    with pytest.raises(ValueError, match="rails must be bits"):
        decode_pair(*rails)


def test_encode_word_example():
    assert _encode(5, 4) == [O, Z, O, Z]


def test_encode_word_single_zero():
    assert _encode(0, 1) == [Z]


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 9):
        for value in range(1 << width):
            assert decode_word(_encode(value, width)) == value


@given(WIDTH_AND_VALUE)
def test_round_trip_property(case):
    width, value = case
    assert decode_word(_encode(value, width)) == value


def test_decode_word_full_valid():
    assert decode_word((O, O)) == 3


def test_decode_word_partial_report():
    assert decode_word((O, S)) == DecodeIssue(S, 1)


def test_decode_word_illegal_report():
    assert decode_word((X,)) == DecodeIssue(X, 0)


def test_illegal_outranks_partial():
    assert decode_word((S, X)) == DecodeIssue(X, 1)


@given(WIDTH_AND_VALUE)
def test_rail_assignments_put_bit_k_on_pair_k(case):
    width, value = case
    pairs = [(f"p{k}.r1", f"p{k}.r0") for k in range(width)]
    got = rail_assignments(pairs, value)
    assert len(got) == 2 * width
    for k, (r1, r0) in enumerate(pairs):
        bit = (value >> k) & 1
        assert got[2 * k:2 * k + 2] == [(r1, bit), (r0, 1 - bit)]
    assert rail_assignments(pairs, None) == [(net, 0) for pair in pairs for net in pair]
