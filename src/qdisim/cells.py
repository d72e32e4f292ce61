"""Propagation-delay tables and the gate counts of the calibrated paths.

Delays are positive integers in abstract time units (tu).  Four of them
are not free parameters: the toolkit is calibrated so that the carry-chain
cycle-time laws of the two reference architectures come out exactly as

    local cycle(m)           = 63*m + 1002
    global datapath cycle(m) = 72*m + 1430

where m is the carry-propagation length.  The gates on each calibrated
path are counted per kind once, in `local_path`, `global_datapath` and
`sync_path`, and `path_delay` prices a count with a table.  Each law's
slope is its carry cell's delay (AO21, AO22), and its constant is a
linear identity in C2 and OR2, solved by C2 = 106, OR2 = 60.  The closed
forms in `analysis` evaluate the same counts.  The remaining kinds never
sit on a calibrated path and default to documented, overridable values.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .netlist import GateKind

# cycle-time laws the delay table is calibrated against: (slope per stage, constant)
LOCAL_CYCLE_LAW = (63, 1002)
GLOBAL_CYCLE_LAW = (72, 1430)

DEFAULT_UNPINNED = {
    GateKind.INV: 30,
    GateKind.AND2: 60,
    GateKind.AO222: 80,
    GateKind.C3: 150,
}


class DelayTableError(ValueError):
    pass


@dataclass(frozen=True)
class DelayTable:
    delays: Mapping[GateKind, int]

    def __post_init__(self):
        # a read-only copy: later changes to the caller's mapping cannot reach the table
        object.__setattr__(self, "delays", MappingProxyType(dict(self.delays)))
        for kind in GateKind:
            d = self.delays.get(kind)
            if d is None:
                raise DelayTableError(f"missing delay for {kind.value}")
            if isinstance(d, bool) or not isinstance(d, int) or d < 1:  # True would be delay 1
                raise DelayTableError(f"delay for {kind.value} must be a positive integer, got {d!r}")

    def __hash__(self) -> int:
        # agrees with the generated __eq__, which compares the delays as a
        # mapping: equal tables hash alike whatever their insertion order
        return hash(frozenset(self.delays.items()))

    def __getitem__(self, kind: GateKind) -> int:
        return self.delays[kind]

    def replace(self, overrides: Mapping[GateKind, int]) -> "DelayTable":
        merged = dict(self.delays)
        merged.update(overrides)
        return DelayTable(merged)


# -- critical-path gate counts ------------------------------------------
# m is the carry-propagation length.


def local_path(m: int) -> Counter[GateKind]:
    """LOCAL wave: register C2, pair detector C2 and OR2, m+1 AO21 carry
    cells, then the sum's C2 join and OR2."""
    return Counter({GateKind.C2: 3, GateKind.OR2: 2, GateKind.AO21: m + 1})


def local_chain_reset(m: int) -> Counter[GateKind]:
    """LOCAL spacer wave along the carry chain from cin: its register C2,
    the m+1 AO21 carry cells (an AO21 falls with its earlier input, here
    the carry), then the kill stage's sum C2 join and OR2."""
    return Counter({GateKind.C2: 2, GateKind.OR2: 1, GateKind.AO21: m + 1})


def local_kill_resets(tail: bool) -> list[Counter[GateKind]]:
    """LOCAL spacer waves that wait for no carry chain, from the kill
    stage's register and kill-detector C2s: its own sum through its OR2
    and the sum's C2 join and OR2, and, when a stage follows it (`tail`),
    that stage's sum through the kill stage's AO21 carry cell."""
    own = Counter({GateKind.C2: 3, GateKind.OR2: 2})
    return [own, Counter({GateKind.C2: 3, GateKind.OR2: 1, GateKind.AO21: 1})] if tail else [own]


def global_datapath(m: int) -> Counter[GateKind]:
    """GLOBAL datapath wave: register C2, the propagate AO22, m+1 AO22
    carry cells, then the sum's C2 join and OR2."""
    return Counter({GateKind.C2: 2, GateKind.OR2: 1, GateKind.AO22: m + 2})


def global_datapath_reset(m: int) -> Counter[GateKind]:
    """GLOBAL datapath spacer wave: register C2, the last propagate stage's
    propagate AO22 and carry cell (at m = 0 the carry falls with the
    registered cin, its earlier input), the kill stage's sum C2 join and OR2."""
    return Counter({GateKind.C2: 2, GateKind.OR2: 1, GateKind.AO22: 2 if m else 1})


def sync_path(n: int) -> Counter[GateKind]:
    """GLOBAL synchronizing path: register C2, detector OR2, the detector's
    C2 tree over 2n+1 pairs, ceil(log2(2n+1)) levels deep, synchronizer C2."""
    return Counter({GateKind.C2: (2 * n).bit_length() + 2, GateKind.OR2: 1})


def local_cycle(m: int) -> Counter[GateKind]:
    return local_path(m) + local_path(0)


def global_datapath_cycle(m: int) -> Counter[GateKind]:
    """Datapath valid wave plus the n = 32 synchronizing spacer wave."""
    return global_datapath(m) + sync_path(32)


def path_delay(counts: Mapping[GateKind, int], table: DelayTable) -> int:
    return sum(count * table[kind] for kind, count in counts.items())


def derive_pinned_delays() -> dict[GateKind, int]:
    """Solve both cycle laws for C2, OR2, AO21, AO22: each law's slope is
    its carry cell's delay, and each constant, less the carry cells,
    is a linear identity in C2 and OR2."""
    carry_cells, solved, rows = {}, {}, []
    laws = ((LOCAL_CYCLE_LAW, local_cycle), (GLOBAL_CYCLE_LAW, global_datapath_cycle))
    for (slope, const), cycle in laws:
        (carry,) = cycle(1) - cycle(0)  # the one kind that grows with m
        carry_cells[carry] = slope
        base = cycle(0)
        rows.append((base[GateKind.C2], base[GateKind.OR2], const - base[carry] * slope))
    (c1, o1, k1), (c2, o2, k2) = rows
    det = c1 * o2 - c2 * o1
    for kind, num in ((GateKind.C2, k1 * o2 - k2 * o1), (GateKind.OR2, c1 * k2 - c2 * k1)):
        if num % det or num // det < 1:
            raise DelayTableError(f"calibration identities have no positive integer {kind.value}")
        solved[kind] = num // det
    return solved | carry_cells


@cache
def default_delay_table() -> DelayTable:
    """Derived once per process: a frozen, read-only table callers share."""
    delays = dict(DEFAULT_UNPINNED)
    delays.update(derive_pinned_delays())
    return DelayTable(delays)


def _integer(text: str) -> int:
    """`text` as an int when it is ASCII decimal digits after at most one
    leading minus, else ValueError: the integer rule of every text boundary,
    delay tables and command-line options alike.  int() alone would also
    take "+5", "1_0", "٣" and surrounding whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def load_delay_table(text: str) -> DelayTable:
    """Parse `<KIND> <positive integer>` override lines on top of the
    default table.  `#` starts a comment."""
    overrides: dict[GateKind, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise DelayTableError(f"line {line_no}: expected '<KIND> <delay>'")
        try:
            kind = GateKind(tokens[0])
        except ValueError:
            raise DelayTableError(f"line {line_no}: unknown gate kind {tokens[0]!r}") from None
        if kind in overrides:
            raise DelayTableError(f"line {line_no}: duplicate delay for {kind.value}")
        try:
            delay = _integer(tokens[1])
        except ValueError:
            raise DelayTableError(f"line {line_no}: delay must be an integer") from None
        if delay < 1:
            raise DelayTableError(f"line {line_no}: delay must be >= 1, got {delay}")
        overrides[kind] = delay
    return default_delay_table().replace(overrides)


def dump_delay_table(table: DelayTable) -> str:
    """Inverse of load_delay_table for the pinned-plus-default table."""
    return "".join(f"{kind.value} {table[kind]}\n" for kind in GateKind)
