"""Propagation-delay tables.

Delays are positive integers in abstract time units (tu).  Four of them
are not free parameters: the toolkit is calibrated so that the carry-chain
cycle-time laws of the two reference architectures come out exactly as

    local cycle(m)           = 63*m + 1002
    global datapath cycle(m) = 72*m + 1430

where m is the carry-propagation length.  Expanding the two laws over the
gates on those paths gives four linear identities,

    AO21 coefficient of m       -> T_AO21 = 63
    AO22 coefficient of m       -> T_AO22 = 72
    6*T_CE2 + 4*T_OR2 + 2*T_AO21 = 1002
    11*T_CE2 + 2*T_OR2 + 2*T_AO22 = 1430

whose unique integer solution pins T_CE2, T_OR2, T_AO21, T_AO22.  The
remaining kinds never sit on a calibrated path and default to documented,
overridable values.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .netlist import GateKind

# cycle-time laws the delay table is calibrated against: (slope per stage, constant)
LOCAL_CYCLE_LAW = (63, 1002)
GLOBAL_CYCLE_LAW = (72, 1430)

# structural coefficients of the two laws: local = 6*C2 + 4*OR2 + (m+2)*AO21,
# global datapath = 11*C2 + 2*OR2 + (m+2)*AO22
_LOCAL_C2_COEFF, _LOCAL_OR2_COEFF = 6, 4
_GLOBAL_C2_COEFF, _GLOBAL_OR2_COEFF = 11, 2

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
            if not isinstance(d, int) or d < 1:
                raise DelayTableError(f"delay for {kind.value} must be a positive integer, got {d!r}")

    def __getitem__(self, kind: GateKind) -> int:
        return self.delays[kind]

    def replace(self, overrides: Mapping[GateKind, int]) -> "DelayTable":
        merged = dict(self.delays)
        merged.update(overrides)
        return DelayTable(merged)


def derive_pinned_delays() -> dict[GateKind, int]:
    """Solve the four calibration identities for C2, OR2, AO21, AO22."""
    local_slope, local_const = LOCAL_CYCLE_LAW
    global_slope, global_const = GLOBAL_CYCLE_LAW
    t_ao21 = local_slope
    t_ao22 = global_slope
    k_local = local_const - 2 * t_ao21    # 6*C2 + 4*OR2
    k_global = global_const - 2 * t_ao22  # 11*C2 + 2*OR2
    num = 2 * k_global - k_local          # (2*11 - 6) * C2
    denom = 2 * _GLOBAL_C2_COEFF - _LOCAL_C2_COEFF
    if num % denom:
        raise DelayTableError("calibration identities have no integer C2 solution")
    t_ce2 = num // denom
    rem = k_local - _LOCAL_C2_COEFF * t_ce2
    if rem % _LOCAL_OR2_COEFF or rem <= 0:
        raise DelayTableError("calibration identities have no integer OR2 solution")
    t_or2 = rem // _LOCAL_OR2_COEFF
    return {
        GateKind.C2: t_ce2,
        GateKind.OR2: t_or2,
        GateKind.AO21: t_ao21,
        GateKind.AO22: t_ao22,
    }


def default_delay_table() -> DelayTable:
    delays = dict(DEFAULT_UNPINNED)
    delays.update(derive_pinned_delays())
    return DelayTable(delays)


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
        try:
            delay = int(tokens[1])
        except ValueError:
            raise DelayTableError(f"line {line_no}: delay must be an integer") from None
        if delay < 1:
            raise DelayTableError(f"line {line_no}: delay must be >= 1, got {delay}")
        overrides[kind] = delay
    return default_delay_table().replace(overrides)


def dump_delay_table(table: DelayTable) -> str:
    """Inverse of load_delay_table for the pinned-plus-default table."""
    return "".join(f"{kind.value} {table[kind]}\n" for kind in GateKind)
