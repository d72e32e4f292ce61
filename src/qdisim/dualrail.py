"""Dual-rail encoding of Boolean values.

One bit travels on two wires: (rail1, rail0) = (1,0) carries a logical 1,
(0,1) a logical 0, (0,0) is the spacer that separates successive codewords
in return-to-zero handshaking, and (1,1) is a forbidden codeword.  The
forbidden state is representable so that checks can assert its absence.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class RailState(enum.Enum):
    SPACER = "SPACER"
    ZERO = "ZERO"
    ONE = "ONE"
    ILLEGAL = "ILLEGAL"


@dataclass(frozen=True)
class DualRailValue:
    rail1: int
    rail0: int

    def __post_init__(self):
        if self.rail1 not in (0, 1) or self.rail0 not in (0, 1):
            raise ValueError(f"rails must be bits, got ({self.rail1}, {self.rail0})")


SPACER = DualRailValue(0, 0)
VALID_ONE = DualRailValue(1, 0)
VALID_ZERO = DualRailValue(0, 1)
ILLEGAL = DualRailValue(1, 1)


def encode_bit(b: int) -> DualRailValue:
    """Encode one bit; never produces the spacer or the forbidden state."""
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return VALID_ONE if b else VALID_ZERO


def decode_pair(v: DualRailValue) -> RailState:
    """Classify a rail pair.  Total: every pair maps to exactly one state."""
    if v.rail1:
        return RailState.ILLEGAL if v.rail0 else RailState.ONE
    return RailState.ZERO if v.rail0 else RailState.SPACER


@dataclass(frozen=True)
class DualRailWord:
    """A bus of rail pairs, least-significant pair at index 0."""

    pairs: tuple[DualRailValue, ...]

    @property
    def width(self) -> int:
        return len(self.pairs)


def encode_word(value: int, width: int) -> DualRailWord:
    """Encode an unsigned integer onto a bus, bit i at pair i."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return DualRailWord(tuple(encode_bit((value >> i) & 1) for i in range(width)))


def rail_assignments(pairs, value: int | None) -> list[tuple[str, int]]:
    """Rail-net assignments that put bit k of `value` on `pairs[k]`, a
    (rail1, rail0) pair of net names, or every rail at 0 (the spacer) when
    `value` is None.  Bits beyond the last pair are ignored: callers check
    their operands."""
    if value is None:
        return [(r, 0) for pair in pairs for r in pair]
    out = []
    for r1, r0 in pairs:
        bit = value & 1
        out.append((r1, bit))
        out.append((r0, 1 - bit))
        value >>= 1
    return out


@dataclass(frozen=True)
class DecodeIssue:
    """Why a word failed to decode: the first offending pair and its state.

    ILLEGAL anywhere outranks PARTIAL, so a forbidden codeword is never
    masked by an incomplete one.
    """

    state: RailState
    index: int


def decode_word(word: DualRailWord):
    """Return the integer value of a fully valid word, else a DecodeIssue."""
    value = 0
    first_bad = None
    for i, pair in enumerate(word.pairs):
        s = decode_pair(pair)
        if s is RailState.ONE:
            value |= 1 << i
        elif s is RailState.ILLEGAL:
            return DecodeIssue(RailState.ILLEGAL, i)
        elif s is not RailState.ZERO and first_bad is None:
            first_bad = i
    if first_bad is not None:
        return DecodeIssue(decode_pair(word.pairs[first_bad]), first_bad)
    return value
