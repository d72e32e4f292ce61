from hypothesis import given, strategies as st
import random
import tracemalloc

import pytest

from qdisim.dualrail import (
    PAIR_STATE,
    DecodeIssue,
    RailState,
    bit_columns,
    decode_word,
    rail_assignments,
    rail_masks,
)

WIDTH_AND_VALUE = st.integers(min_value=1, max_value=16).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))
)

S, Z, O, X = RailState.SPACER, RailState.ZERO, RailState.ONE, RailState.ILLEGAL


def _encode(value, width):
    """The pair states `rail_assignments` puts on a width-bit bus."""
    pairs = [(f"p{k}.r1", f"p{k}.r0") for k in range(width)]
    rails = dict(rail_assignments(pairs, value))
    return [PAIR_STATE[rails[r1], rails[r0]] for r1, r0 in pairs]


def test_pair_state_table_covers_all_four_states():
    assert PAIR_STATE == {(0, 0): S, (1, 1): X, (0, 1): Z, (1, 0): O}
    assert set(PAIR_STATE.values()) == set(RailState)


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


@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=64))))
def test_rail_masks_are_rail_assignments_bit_by_bit(case):
    width, words = case
    pairs = [(f"p{k}.r1", f"p{k}.r0") for k in range(width)]
    masks = rail_masks(pairs, words)
    assert set(masks) == {net for pair in pairs for net in pair}
    assert all(0 <= mask < 1 << len(words) for mask in masks.values())
    for v, word in enumerate(words):
        assert {net: mask >> v & 1 for net, mask in masks.items()} == dict(rail_assignments(pairs, word)), v


def _columns(words, width):
    """`bit_columns` by its definition: bit v of column k is bit k of words[v]."""
    return [sum((w >> k & 1) << v for v, w in enumerate(words)) for k in range(width)]


@given(st.integers(min_value=1, max_value=80).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=300))))
def test_bit_columns_by_definition(case):
    width, words = case
    assert bit_columns(words, width) == _columns(words, width)


@given(st.integers(min_value=1, max_value=80).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, (1 << w) - 1), st.integers(0, 300), st.integers(1, 5))))
def test_bit_columns_of_a_range(case):
    width, start, count, step = case
    words = range(start, min(start + count * step, 1 << width), step)
    assert bit_columns(words, width) == _columns(words, width)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 80])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_bit_columns_across_byte_and_word_boundaries(width, count):
    rng = random.Random(width * 1000 + count)
    words = [rng.getrandbits(width) for _ in range(count)] + [(1 << width) - 1] * (count > 0)
    assert bit_columns(words, width) == _columns(words, width)


@pytest.mark.parametrize("words,width", [
    ([-1], 4), ([0, 16], 4), ([3, 1 << 64, 0], 64), (range(-2, 3), 3), (range(9), 3),
])
def test_bit_columns_refuse_a_word_that_does_not_fit(words, width):
    with pytest.raises(ValueError, match="does not fit"):
        bit_columns(words, width)


@given(st.integers(0, 1 << 40).flatmap(lambda start: st.integers(0, 5000).flatmap(lambda count: st.tuples(
    st.just(start), st.just(count), st.integers(max(1, (start + count - 1).bit_length()), 64)))))
def test_bit_columns_of_a_run_in_closed_form_are_its_transpose(case):
    """A range of step 1 takes the closed form, a list of the same words
    the transpose; the widths reach far past the top index bit."""
    start, count, width = case
    words = range(start, start + count)
    assert bit_columns(words, width) == bit_columns(list(words), width)


@pytest.mark.parametrize("words,width", [(range(-3, 5), 4), (range(5, 17), 4), (range(1 << 40, (1 << 40) + 9), 40)])
def test_a_run_that_does_not_fit_is_refused_as_its_list_is(words, width):
    with pytest.raises(ValueError) as closed:
        bit_columns(words, width)
    with pytest.raises(ValueError) as transposed:
        bit_columns(list(words), width)
    assert str(closed.value) == str(transposed.value)


def test_the_closed_form_of_a_high_run_stays_small():
    """The high columns set the runs the block meets, never a whole
    period: at bit 63 that period alone would take 2^61 bytes."""
    tracemalloc.start()
    try:
        columns = bit_columns(range(1 << 40, (1 << 40) + 4096), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns[40] == (1 << 4096) - 1 and not any(columns[41:])
    assert peak < 1 << 20
