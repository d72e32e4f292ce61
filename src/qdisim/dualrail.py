"""Dual-rail encoding of Boolean values.

One bit travels on two wires: (rail1, rail0) = (1,0) carries a logical 1,
(0,1) a logical 0, (0,0) is the spacer that separates successive codewords
in return-to-zero handshaking, and (1,1) is a forbidden codeword.  The
forbidden state is representable so that checks can assert its absence.
`PAIR_STATE` is the one table from rail values to states.  There is one
encoder, in two forms: `rail_assignments` puts one word on the rails, and
`rail_masks` puts a block of words on them at once, one bit per word.  The
block form rests on the one transpose, `bit_columns`: the block's words
become one int, and each bit column is a strided slice of its binary
string.
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
    of ints that fit `width` bits (ValueError otherwise).  One transpose:
    the words, little-endian and `stride` bits apart, make one int whose
    binary string holds column k at every stride-th character."""
    if not words:
        return [0] * width
    low, high = min(words), max(words)
    if low < 0 or high >> width:
        raise ValueError(f"word {low if low < 0 else high} does not fit {width} bits")
    size = (width + 7) // 8
    stride = 8 * size
    packed = int.from_bytes(b"".join(map(int.to_bytes, words, repeat(size), repeat("little"))), "little")
    bits = format(packed, f"0{stride * len(words)}b")
    return [int(bits[stride - 1 - k::stride], 2) for k in range(width)]


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
