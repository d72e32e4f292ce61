from hypothesis import given, strategies as st
import pytest

from qdisim.dualrail import (
    DecodeIssue,
    DualRailValue,
    DualRailWord,
    ILLEGAL,
    RailState,
    SPACER,
    VALID_ONE,
    VALID_ZERO,
    decode_pair,
    decode_word,
    encode_bit,
    encode_word,
    rail_assignments,
)

WIDTH_AND_VALUE = st.integers(min_value=1, max_value=16).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))
)


def test_encode_bit_values():
    assert encode_bit(1) == DualRailValue(rail1=1, rail0=0)
    assert encode_bit(0) == DualRailValue(rail1=0, rail0=1)


def test_encode_bit_rejects_non_bits():
    with pytest.raises(ValueError):
        encode_bit(2)


def test_decode_pair_covers_all_four_states():
    assert decode_pair(DualRailValue(0, 0)) is RailState.SPACER
    assert decode_pair(DualRailValue(1, 1)) is RailState.ILLEGAL
    assert decode_pair(DualRailValue(0, 1)) is RailState.ZERO
    assert decode_pair(DualRailValue(1, 0)) is RailState.ONE


def test_classification_is_a_partition():
    seen = set()
    for r1 in (0, 1):
        for r0 in (0, 1):
            seen.add(decode_pair(DualRailValue(r1, r0)))
    assert seen == set(RailState)


def test_encoder_never_emits_spacer_or_illegal():
    for b in (0, 1):
        assert decode_pair(encode_bit(b)) in (RailState.ZERO, RailState.ONE)


def test_encode_word_example():
    word = encode_word(5, 4)
    assert [decode_pair(p) for p in word.pairs] == [
        RailState.ONE, RailState.ZERO, RailState.ONE, RailState.ZERO
    ]


def test_encode_word_single_zero():
    assert encode_word(0, 1).pairs == (VALID_ZERO,)


def test_encode_word_range_error():
    with pytest.raises(ValueError):
        encode_word(16, 4)


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 9):
        for value in range(1 << width):
            assert decode_word(encode_word(value, width)) == value


@given(WIDTH_AND_VALUE)
def test_round_trip_property(case):
    width, value = case
    assert decode_word(encode_word(value, width)) == value


def test_decode_word_full_valid():
    assert decode_word(DualRailWord((VALID_ONE, VALID_ONE))) == 3


def test_decode_word_partial_report():
    issue = decode_word(DualRailWord((VALID_ONE, SPACER)))
    assert issue == DecodeIssue(RailState.SPACER, 1)


def test_decode_word_illegal_report():
    issue = decode_word(DualRailWord((ILLEGAL,)))
    assert issue == DecodeIssue(RailState.ILLEGAL, 0)


def test_illegal_outranks_partial():
    issue = decode_word(DualRailWord((SPACER, ILLEGAL)))
    assert issue == DecodeIssue(RailState.ILLEGAL, 1)


@given(WIDTH_AND_VALUE)
def test_rail_assignments_match_encode_word(case):
    width, value = case
    pairs = [(f"p{k}.r1", f"p{k}.r0") for k in range(width)]
    got = rail_assignments(pairs, value)
    assert len(got) == 2 * width
    for k, pair in enumerate(encode_word(value, width).pairs):
        assert got[2 * k:2 * k + 2] == [(pairs[k][0], pair.rail1), (pairs[k][1], pair.rail0)]
    assert rail_assignments(pairs, None) == [(net, 0) for pair in pairs for net in pair]
