"""Typed gate-graph circuits with a line-oriented text format.

A netlist is a set of gates over named nets plus declared primary inputs
and outputs and a map of named dual-rail ports onto (rail1, rail0) net
pairs.  Muller C-elements (C2/C3) are primitive stateful gates, not
feedback macros, so every well-formed netlist here is acyclic.

Text format, one statement per line, `#` starts a comment:

    input <net>
    output <net>
    gate <id> <KIND> <in...> <out>
    pair <portname> <rail1-net> <rail0-net>

Serialization emits inputs, outputs, gates (id-lexicographic), pairs.
"""
from __future__ import annotations

import enum
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

    def nets(self) -> set[str]:
        s = set(self.primary_inputs) | set(self.primary_outputs)
        for g in self.gates:
            s.update(g.inputs)
            s.add(g.output)
        return s


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    detail: str = ""


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(f"{v.rule}: {v.subject} {v.detail}".rstrip() for v in self.violations)


def validate(n: Netlist) -> ValidationReport:
    """Structural checks: single driver, arity, dangling nets, port map,
    acyclicity of the combinational (non C-element) subgraph."""
    report = ValidationReport()
    seen_ids: set[str] = set()
    drivers: dict[str, int] = {}  # net -> the number of gates driving it
    for g in n.gates:
        if g.gid in seen_ids:
            report.violations.append(Violation("duplicate-gate-id", g.gid))
        seen_ids.add(g.gid)
        drivers[g.output] = drivers.get(g.output, 0) + 1
        want = GATE_ARITY[g.kind]
        if len(g.inputs) != want:
            report.violations.append(
                Violation("arity", g.gid, f"{g.kind.value} needs {want} inputs, has {len(g.inputs)}")
            )

    pi = set(n.primary_inputs)
    for net, count in drivers.items():
        if count > 1:
            report.violations.append(Violation("single-driver", net, f"driven by {count} gates"))
        if net in pi:
            report.violations.append(Violation("single-driver", net, "gate drives a primary input"))

    used = set(n.primary_outputs)
    for g in n.gates:
        used.update(g.inputs)
    for net in sorted(used):
        if net not in pi and net not in drivers:
            report.violations.append(Violation("dangling-net", net, "no driver"))

    all_nets = n.nets()
    for port, rails in n.port_map.items():
        if len(rails) != 2 or rails[0] == rails[1]:
            report.violations.append(Violation("port-map", port, "needs two distinct nets"))
            continue
        for net in rails:
            if net not in all_nets:
                report.violations.append(Violation("port-map", port, f"unknown net {net}"))

    # cycle check over stateless gates only; C-elements may legally sit on
    # feedback paths (none of the generated circuits have any cycles)
    edges: dict[str, list[str]] = {}
    for g in n.gates:
        if g.kind in STATEFUL_KINDS:
            continue
        for src in g.inputs:
            edges.setdefault(src, []).append(g.output)
    color: dict[str, int] = {}  # 1 on the current path, 2 finished

    def walk(root: str) -> bool:
        """Depth-first from `root` with an explicit stack, so a long gate
        chain cannot exhaust the interpreter's recursion limit."""
        color[root] = 1
        stack = [(root, iter(edges.get(root, ())))]
        while stack:
            net, successors = stack[-1]
            for nxt in successors:
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    break
            else:
                color[net] = 2
                stack.pop()
        return False

    for net in sorted(edges):
        if color.get(net, 0) == 0 and walk(net):
            report.violations.append(Violation("combinational-cycle", net))
            break
    return report


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
    report = validate(n)
    if not report.ok:
        raise ValueError(f"refusing to serialize invalid netlist:\n{report}")
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
