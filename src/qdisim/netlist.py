"""Typed gate-graph circuits with a line-oriented text format.

A netlist is a set of gates over named nets plus declared primary inputs
and outputs and a map of named dual-rail ports onto (rail1, rail0) net
pairs.  Muller C-elements (C2/C3) are primitive stateful gates, not
feedback macros: a well-formed netlist has no loop of stateless gates,
but may loop through a C-element, as the closed ring does.

The compile pass that both engines in `sim` run (`_compile`, `_port_rails`,
`_depth_first`) is the one check of structure: each rule raises
NetlistError, naming the first offending gate, net or port, and `validate`
reports from the same pass.

Text format, one statement per line, `#` starts a comment, and names
hold no whitespace and no `#`:

    input <net>
    output <net>
    gate <id> <KIND> <in...> <out>
    pair <portname> <rail1-net> <rail0-net>

Serialization emits inputs, outputs, gates (id-lexicographic), pairs.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import NamedTuple


class GateKind(enum.Enum):
    INV = "INV"
    AND2 = "AND2"
    OR2 = "OR2"
    AO21 = "AO21"
    AO22 = "AO22"
    AO222 = "AO222"
    C2 = "C2"
    C3 = "C3"
    __hash__ = object.__hash__  # members compare by identity; Enum's own hash runs Python code


# each kind's terms as input positions, INV aside: the output is the OR of
# the terms, each the AND of its inputs, except that a C-element's one term
# changes the output only when all its inputs agree
GATE_TERMS = {
    GateKind.C2: ((0, 1),),
    GateKind.C3: ((0, 1, 2),),
    GateKind.AND2: ((0, 1),),
    GateKind.OR2: ((0,), (1,)),
    GateKind.AO21: ((0, 1), (2,)),
    GateKind.AO22: ((0, 1), (2, 3)),
    GateKind.AO222: ((0, 1), (2, 3), (4, 5)),
}
GATE_ARITY = {GateKind.INV: 1, **{kind: sum(map(len, t)) for kind, t in GATE_TERMS.items()}}

# and-or cells and C-elements; INV/AND2/OR2 count as simple gates
COMPLEX_KINDS = frozenset(
    {GateKind.AO21, GateKind.AO22, GateKind.AO222, GateKind.C2, GateKind.C3}
)
STATEFUL_KINDS = frozenset({GateKind.C2, GateKind.C3})

# each kind's code in compiled gates, ordered by frequency in the generated
# circuits, the order the event engine dispatches in
_C2, _OR2, _AO22, _AO21, _C3, _AND2, _INV = range(7)  # AO222, code 7, is the final `else`
_CODE = {GateKind[name]: code for code, name in enumerate("C2 OR2 AO22 AO21 C3 AND2 INV AO222".split())}


class Gate(NamedTuple):
    gid: str
    kind: GateKind
    inputs: tuple[str, ...]
    output: str


@dataclass
class Netlist:
    gates: tuple[Gate, ...] = ()
    primary_inputs: tuple[str, ...] = ()
    primary_outputs: tuple[str, ...] = ()
    port_map: dict[str, tuple[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str  # the gate, net or port at fault
    detail: str = ""

    def __str__(self):
        return f"{self.rule}: {self.subject} {self.detail}".rstrip()


class NetlistError(ValueError):
    """A netlist that breaks a structural rule, or that the wave plan does
    not cover; its one argument is the Violation, which is also its text."""

    @property
    def violation(self) -> Violation:
        return self.args[0]


class SimulationError(RuntimeError):
    """A stimulus a compiled netlist cannot take."""


class _Inputs(dict):
    """Each primary input's slot; looking up any other net raises."""

    def __missing__(self, net):
        raise SimulationError(f"{net!r} is not a primary input")


def _compile(netlist: Netlist, delay_table, jitter: int = 0, jitter_seed: int = 1):
    """(ids, inputs, gates) for the event engine and the wave plan: each
    net's slot (primary inputs first, then each gate's inputs and output,
    then primary outputs), each primary input's slot, and each gate as
    (code, input slots, output slot, delay plus jitter drawn in gate
    order).  Fanout is the engine's own, built by `Simulation`.  Raises
    ValueError unless `jitter` is a non-negative int, and NetlistError at
    the first gate of unknown kind or wrong arity."""
    if isinstance(jitter, bool) or not isinstance(jitter, int) or jitter < 0:
        raise ValueError(f"jitter must be a non-negative integer, got {jitter!r}")
    rng = random.Random(jitter_seed) if jitter else None
    ids: dict[str, int] = {}
    intern = ids.setdefault
    for net in netlist.primary_inputs:
        intern(net, len(ids))
    inputs = _Inputs(ids)
    kinds = {kind: (_CODE[kind], GATE_ARITY[kind], delay_table[kind]) for kind in GateKind}
    gates = []
    for gid, kind, names, output in netlist.gates:
        compiled = kinds.get(kind)
        if compiled is None:
            raise NetlistError(Violation("unknown-kind", gid, f"{kind!r} is not a GateKind"))
        code, arity, delay = compiled
        if len(names) != arity:
            raise NetlistError(Violation("arity", gid, f"{kind.value} needs {arity} inputs, has {len(names)}"))
        if rng is not None:
            delay += rng.randint(0, jitter)
        if arity == 2:
            a, b = names
            ins = (intern(a, len(ids)), intern(b, len(ids)))
        else:
            ins = tuple([intern(net, len(ids)) for net in names])
        gates.append((code, ins, intern(output, len(ids)), delay))
    for net in netlist.primary_outputs:
        intern(net, len(ids))
    return ids, inputs, gates


def _port_rails(ids: dict[str, int], port_map) -> dict[str, tuple[int, int]]:
    """Each port's (rail1 slot, rail0 slot); raises NetlistError (port-map)
    at the first port whose rails are not two distinct nets of `ids`."""
    rails = {}
    for port, pair in port_map.items():
        if len(pair) != 2 or pair[0] == pair[1]:
            raise NetlistError(Violation("port-map", port, "needs two distinct nets"))
        i1, i0 = ids.get(pair[0]), ids.get(pair[1])
        if i1 is None or i0 is None:
            raise NetlistError(Violation("port-map", port, f"unknown net {pair[0] if i1 is None else pair[1]}"))
        rails[port] = i1, i0
    return rails


_STATELESS_LOOP = "is on a loop of stateless gates"
_C_LOOP = "is on a loop through a C-element"


def _depth_first(gates: list, ids: dict[str, int], first: int) -> list:
    """Compiled `gates` in a depth-first post-order over each input's one
    driver, roots in gate order, so each gate follows the drivers of its
    inputs; `first` is the first slot in `ids` not a primary input's.
    Raises NetlistError: single-driver at the first gate that drives a
    driven net or a primary input, then at the first loop the walk closes
    combinational-cycle, or cycle if a C-element is on it."""
    driver = [-1] * len(ids)  # each slot's driving gate, until that gate is ordered
    for gi, (_, _, out, _) in enumerate(gates):
        if driver[out] >= 0 or out < first:
            detail = "gate drives a primary input" if out < first else "driven by more than one gate"
            raise NetlistError(Violation("single-driver", list(ids)[out], detail))
        driver[out] = gi
    # `gi` is the gate being ordered and `stack` the open gates under it; a
    # gate is open from its first visit until it is ordered, so reaching an
    # open gate again closes a cycle
    opened = [False] * len(gates)
    stack = []
    order = []
    for root in range(len(gates)):
        if opened[root]:
            continue  # ordered as an earlier gate's driver
        opened[root] = True
        gi = root
        while True:
            for net in gates[gi][1]:
                d = driver[net]
                if d >= 0:
                    if opened[d]:
                        loop = [*stack, gi]
                        if {gates[k][0] for k in loop[loop.index(d):]}.isdisjoint((_C2, _C3)):
                            raise NetlistError(Violation("combinational-cycle", list(ids)[net], _STATELESS_LOOP))
                        raise NetlistError(Violation("cycle", list(ids)[net], _C_LOOP))
                    opened[d] = True
                    stack.append(gi)
                    gi = d
                    break
            else:
                gate = gates[gi]
                driver[gate[2]] = -1
                order.append(gate)
                if not stack:
                    break
                gi = stack.pop()
    return order


_UNTIMED = dict.fromkeys(GateKind, 0)  # validate compiles with it; it reads no delay


def validate(n: Netlist) -> Violation | None:
    """The first structural violation, None if there is none: the compile
    pass's, with every C-element's inputs cut so that only a loop of
    stateless gates counts, then a gate id, net or port name that the text
    format cannot hold (empty, or with whitespace or `#`), then a repeated
    gate id, primary input or output, then a dangling net (neither a
    primary input nor any gate's output)."""
    try:
        ids, inputs, gates = _compile(n, _UNTIMED)
        _port_rails(ids, n.port_map)
        cut = [(code, () if code in (_C2, _C3) else ins, out, 0) for code, ins, out, _ in gates]
        _depth_first(cut, ids, len(inputs))
    except NetlistError as refused:
        return refused.violation
    gids = [g.gid for g in n.gates]
    for what, names in (("gate id", gids), ("net", ids), ("port", n.port_map)):
        for name in names:
            if name.split() != [name] or "#" in name:  # split() is [] for "" and splits at any whitespace
                return Violation("name", repr(name), f"is not a {what} the text format can hold")
    for rule, names in (("duplicate-gate-id", gids), ("duplicate-input", n.primary_inputs),
                        ("duplicate-output", n.primary_outputs)):
        seen = set()
        for name in names:
            if name in seen:
                return Violation(rule, name)
            seen.add(name)
    driven = {out for _, _, out, _ in gates}
    dangling = [net for net, slot in ids.items() if slot >= len(inputs) and slot not in driven]
    return Violation("dangling-net", dangling[0], "no driver") if dangling else None


class NetlistParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_netlist(text: str) -> Netlist:
    inputs: dict[str, None] = {}  # ordered sets
    outputs: dict[str, None] = {}
    gates: list[Gate] = []
    pairs: dict[str, tuple[str, str]] = {}
    gate_ids: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        stmt = tokens[0]
        if stmt == "input":
            if len(tokens) != 2:
                raise NetlistParseError(line_no, "input takes one net name")
            if tokens[1] in inputs:
                raise NetlistParseError(line_no, f"duplicate input {tokens[1]!r}")
            inputs[tokens[1]] = None
        elif stmt == "output":
            if len(tokens) != 2:
                raise NetlistParseError(line_no, "output takes one net name")
            if tokens[1] in outputs:
                raise NetlistParseError(line_no, f"duplicate output {tokens[1]!r}")
            outputs[tokens[1]] = None
        elif stmt == "gate":
            if len(tokens) < 5:
                raise NetlistParseError(line_no, "gate needs id, kind, inputs, output")
            gid, kind_name = tokens[1], tokens[2]
            try:
                kind = GateKind(kind_name)
            except ValueError:
                raise NetlistParseError(line_no, f"unknown gate kind {kind_name!r}") from None
            if gid in gate_ids:
                raise NetlistParseError(line_no, f"duplicate gate id {gid!r}")
            ins = tuple(tokens[3:-1])
            if len(ins) != GATE_ARITY[kind]:
                raise NetlistParseError(line_no, f"{kind.value} takes {GATE_ARITY[kind]} inputs, got {len(ins)}")
            gate_ids.add(gid)
            gates.append(Gate(gid, kind, ins, tokens[-1]))
        elif stmt == "pair":
            if len(tokens) != 4:
                raise NetlistParseError(line_no, "pair takes portname, rail1 net, rail0 net")
            if tokens[1] in pairs:
                raise NetlistParseError(line_no, f"duplicate pair {tokens[1]!r}")
            pairs[tokens[1]] = (tokens[2], tokens[3])
        else:
            raise NetlistParseError(line_no, f"unknown statement {stmt!r}")
    return Netlist(tuple(gates), tuple(inputs), tuple(outputs), pairs)


def serialize_netlist(n: Netlist) -> str:
    """Deterministic text form; refuses netlists that fail validation."""
    violation = validate(n)
    if violation is not None:
        raise ValueError(f"refusing to serialize invalid netlist:\n{violation}")
    lines = [f"input {net}" for net in n.primary_inputs]
    lines += [f"output {net}" for net in n.primary_outputs]
    for g in sorted(n.gates, key=lambda g: g.gid):
        lines.append(f"gate {g.gid} {g.kind.value} {' '.join(g.inputs)} {g.output}")
    for port, (r1, r0) in n.port_map.items():
        lines.append(f"pair {port} {r1} {r0}")
    return "".join(line + "\n" for line in lines)


@dataclass
class GateCensus:
    counts: dict[GateKind, int]
    total: int
    complex_total: int


def gate_census(n: Netlist) -> GateCensus:
    counts = {kind: 0 for kind in GateKind}
    for g in n.gates:
        counts[g.kind] += 1
    return GateCensus(
        counts=counts,
        total=len(n.gates),
        complex_total=sum(counts[k] for k in COMPLEX_KINDS),
    )


class NetlistBuilder:
    """Incremental construction helper used by the circuit generators.

    Gate ids double as output net names, which keeps generated files
    compact and guarantees id uniqueness via the single-driver rule.
    """

    def __init__(self):
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: list[Gate] = []
        self._pairs: dict[str, tuple[str, str]] = {}

    def add_input(self, net: str) -> str:
        self._inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        self._outputs.append(net)
        return net

    def add_gate(self, kind: GateKind, inputs, output: str) -> str:
        # Gate(...) through the one C-level call its Python-level __new__ makes
        self._gates.append(tuple.__new__(Gate, (output, kind, tuple(inputs), output)))
        return output

    def add_pair(self, port: str, rail1: str, rail0: str):
        self._pairs[port] = (rail1, rail0)

    def add_input_pair(self, port: str) -> tuple[str, str]:
        """Declare dual-rail input port `port` on inputs `{port}.r1` and
        `{port}.r0`; returns (rail1, rail0)."""
        rails = self.add_input(f"{port}.r1"), self.add_input(f"{port}.r0")
        self._pairs[port] = rails
        return rails

    def add_output_pair(self, port: str, rail1: str, rail0: str):
        """Declare dual-rail output port `port` on two existing nets."""
        self._outputs.extend((rail1, rail0))
        self._pairs[port] = (rail1, rail0)

    def tree(self, kind: GateKind, inputs, root: str, inner: str) -> str:
        """Reduce nets with a balanced tree of two-input `kind` gates named
        `root` and `{inner}{round}.{j}`; returns the root net, or the input
        itself when there is only one.

        Adjacent pairing keeps the depth at ceil(log2(k)) so every input
        sits at most that many levels from the root.
        """
        level = list(inputs)
        round_no = 0
        while len(level) > 1:
            nxt = [
                self.add_gate(
                    kind,
                    (level[j], level[j + 1]),
                    root if len(level) == 2 else f"{inner}{round_no}.{j // 2}",
                )
                for j in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            round_no += 1
        return level[0]

    def build(self) -> Netlist:
        return Netlist(
            tuple(self._gates), tuple(self._inputs), tuple(self._outputs), dict(self._pairs)
        )
