"""Dual-rail encoding of Boolean values.

One bit travels on two wires: (rail1, rail0) = (1,0) carries a logical 1,
(0,1) a logical 0, (0,0) is the spacer that separates successive codewords
in return-to-zero handshaking, and (1,1) is a forbidden codeword.  The
forbidden state is representable so that checks can assert its absence.
`PAIR_STATE` is the one table from rail values to states.  There is one
encoder, in two forms: `rail_assignments` puts one word on the rails, and
`rail_masks` puts a block of words on them at once, one bit per word.  The
block form rests on `bit_columns`.  A run of consecutive words (a `range`
of step 1) has closed-form columns, built from the runs of each bit;
any other block is transposed: its words become one int, and each bit
column is a strided slice of its binary string.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat


class RailState(enum.Enum):
    SPACER = "SPACER"
    ZERO = "ZERO"
    ONE = "ONE"
    ILLEGAL = "ILLEGAL"


PAIR_STATE = {
    (0, 0): RailState.SPACER,
    (1, 0): RailState.ONE,
    (0, 1): RailState.ZERO,
    (1, 1): RailState.ILLEGAL,
}


def rail_assignments(pairs, value: int) -> list[tuple[str, int]]:
    """Rail-net assignments that put bit k of `value` on `pairs[k]`, a
    (rail1, rail0) pair of net names.  Bits beyond the last pair are
    ignored: callers check their operands."""
    out = []
    for r1, r0 in pairs:
        bit = value & 1
        out.append((r1, bit))
        out.append((r0, 1 - bit))
        value >>= 1
    return out


def bit_columns(words, width: int) -> list[int]:
    """Column k is an int whose bit v is bit k of `words[v]`, a sequence
    of ints that fit `width` bits (ValueError otherwise).  A `range` of
    step 1 takes each column in closed form (`_range_column`), with no
    word built.  Any other sequence takes one transpose: the words,
    little-endian and `stride` bits apart, make one int whose binary
    string holds column k at every stride-th character."""
    if not words:
        return [0] * width
    run = isinstance(words, range) and words.step == 1
    low, high = (words.start, words.stop - 1) if run else (min(words), max(words))
    if low < 0 or high >> width:
        raise ValueError(f"word {low if low < 0 else high} does not fit {width} bits")
    if run:
        return [_range_column(low, len(words), k) for k in range(width)]
    size = (width + 7) // 8
    stride = 8 * size
    packed = int.from_bytes(b"".join(map(int.to_bytes, words, repeat(size), repeat("little"))), "little")
    bits = format(packed, f"0{stride * len(words)}b")
    return [int(bits[stride - 1 - k::stride], 2) for k in range(width)]


def _range_column(start: int, count: int, k: int) -> int:
    """Column k of `range(start, start + count)`: bit v is set exactly when
    bit k of `start + v` is.  With h = 2^k those indices are the runs
    [j*h, (j+1)*h) with j odd.  While one period of 2h bits (h clear,
    then h set) fits the block, the period is doubled until it covers the
    block plus the start's offset in its period, then shifted down by
    that offset and cut to `count` bits.  A longer period meets the block
    in at most two runs, set one by one: tiling a whole period there
    would build an int of 2^(k+1) bits."""
    half = 1 << k
    if 2 * half <= count:
        offset = start % (2 * half)
        tile, span = (1 << half) - 1 << half, 2 * half
        while span < offset + count:
            tile |= tile << span
            span *= 2
        return tile >> offset & (1 << count) - 1
    stop, column = start + count, 0
    for j in range(start >> k | 1, (stop - 1 >> k) + 1, 2):
        column |= (1 << min(j + 1 << k, stop) - start) - (1 << max(j << k, start) - start)
    return column


def rail_masks(pairs, words) -> dict:
    """The block form of `rail_assignments`: bit v of the mask of
    `pairs[k]`'s rail1 is bit k of `words[v]`, and its rail0 carries the
    complement within the block.  The rails may be net names or any other
    keys, such as wave-plan slots.  A word that does not fit `len(pairs)`
    bits raises ValueError."""
    full = (1 << len(words)) - 1
    masks = {}
    for (r1, r0), column in zip(pairs, bit_columns(words, len(pairs))):
        masks[r1], masks[r0] = column, full ^ column
    return masks


@dataclass(frozen=True)
class DecodeIssue:
    """Why a word failed to decode: the first offending pair and its state.

    ILLEGAL anywhere outranks PARTIAL, so a forbidden codeword is never
    masked by an incomplete one.
    """

    state: RailState
    index: int


def decode_word(states):
    """The integer value of a word of pair states, least-significant pair
    first, when every pair is valid, else a DecodeIssue."""
    value = 0
    first_bad = None
    for i, s in enumerate(states):
        if s is RailState.ONE:
            value |= 1 << i
        elif s is RailState.ILLEGAL:
            return DecodeIssue(RailState.ILLEGAL, i)
        elif s is not RailState.ZERO and first_bad is None:
            first_bad = i
    if first_bad is not None:
        return DecodeIssue(states[first_bad], first_bad)
    return value
