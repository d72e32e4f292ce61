"""Self-timed pipeline stages around a ripple-carry function block.

A stage consists of a register bank (one C2 per rail, gated by ackin),
the adder, and a completion detector that ORs each registered pair and
reduces the results through a balanced C2 tree.  The LOCAL flavor
forwards every adder output directly to the next stage; the GLOBAL
flavor withholds the overflow carry pair behind a two-C2 synchronizer
that waits for the completion detector, which is how it meets the
weak-indication obligation globally rather than per stage.

Latencies are measured open loop: ackin is forced high for the valid
wave and low for the spacer wave, and the stage's own completion
detector output is observed but not fed back.  A closed handshake ring
built from several stages is available for demonstration.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .adders import AdderVariant, RcaDescriptor, StagePorts, emit_rca
from .cells import DelayTable, default_delay_table
from .dualrail import DecodeIssue, DualRailWord, RailState, decode_pair, decode_word, encode_bit
from .netlist import Gate, GateKind, Netlist, NetlistBuilder
from .sim import PhaseCheckReport, Simulation, drive_transaction


class Architecture(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"


class StageConfigError(ValueError):
    pass


class DeadlockError(RuntimeError):
    pass


# architecture pairings used throughout: LOCAL keeps the fast constant-time
# spacer path of the and-or carry adder, GLOBAL relies on the early-reset
# adder whose outputs the synchronizer re-times
PAIRED_VARIANT = {
    Architecture.LOCAL: AdderVariant.LATENCY_OPT_BIASED,
    Architecture.GLOBAL: AdderVariant.EARLY_OUTPUT,
}


def _emit_completion_detector(nb: NetlistBuilder, pairs: list[tuple[str, str]], prefix: str = "cd.") -> tuple[str, int]:
    """OR2 per pair then a balanced C2 reduction; returns (root net, depth).

    Adjacent pairing per round keeps the maximum C2 depth at
    ceil(log2(pair_count)).
    """
    root = f"{prefix}out"
    if len(pairs) == 1:
        # single pair: the OR2 itself produces the done signal
        r1, r0 = pairs[0]
        nb.add_gate(GateKind.OR2, (r1, r0), root)
        return root, 0
    level = [
        nb.add_gate(GateKind.OR2, (r1, r0), f"{prefix}or{i}")
        for i, (r1, r0) in enumerate(pairs)
    ]
    round_no = 0
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level) - 1, 2):
            out = root if len(level) == 2 else f"{prefix}l{round_no}.{j // 2}"
            nxt.append(nb.add_gate(GateKind.C2, (level[j], level[j + 1]), out))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        round_no += 1
    return level[0], round_no


@dataclass
class CompletionDetector:
    netlist: Netlist
    cd_out: str
    depth: int
    pair_ports: tuple[str, ...]


def build_completion_detector(pair_count: int) -> CompletionDetector:
    """Standalone detector over pair_count dual-rail inputs p0..p(k-1)."""
    if pair_count < 1:
        raise ValueError(f"pair_count must be >= 1, got {pair_count}")
    nb = NetlistBuilder()
    rails = []
    ports = []
    for i in range(pair_count):
        r1 = nb.add_input(f"p{i}.r1")
        r0 = nb.add_input(f"p{i}.r0")
        nb.add_pair(f"p{i}", r1, r0)
        ports.append(f"p{i}")
        rails.append((r1, r0))
    root, depth = _emit_completion_detector(nb, rails)
    nb.add_output(root)
    return CompletionDetector(nb.build(), root, depth, tuple(ports))


def completion_tree_depth(netlist: Netlist, cd_out: str) -> int:
    """Longest C2 chain between the per-pair OR level and cd_out, computed
    structurally from the netlist."""
    by_output = {g.output: g for g in netlist.gates}
    memo: dict[str, int] = {}

    def depth_of(net: str) -> int:
        g = by_output.get(net)
        if g is None or g.kind is not GateKind.C2:
            return 0
        if net not in memo:
            memo[net] = 1 + max(depth_of(x) for x in g.inputs)
        return memo[net]

    return depth_of(cd_out)


@dataclass
class StageDescriptor:
    architecture: Architecture
    variant: AdderVariant
    n: int
    netlist: Netlist
    stages: tuple[StagePorts, ...]
    input_ports: tuple[str, ...]       # a0.., b0.., cin (raw, pre-register)
    register_ports: tuple[str, ...]    # reg.a0.. watched by the detector
    forward_ports: tuple[str, ...]     # sum0.., cout: what the next stage sees
    ackin: str
    cd_out: str
    cd_depth: int
    sync_port: str | None = None       # GLOBAL only: alias of the cout port


def build_stage(
    architecture: Architecture,
    variant: AdderVariant | None = None,
    n: int = 32,
    force: bool = False,
) -> StageDescriptor:
    """Register bank + adder + completion detector, plus the synchronizer
    when GLOBAL.  The detector watches all 2n+1 registered operand pairs.
    Architecture and adder style come paired; pass force=True to explore
    other combinations (their timing has no closed form here).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if variant is None:
        variant = PAIRED_VARIANT[architecture]
    elif variant is not PAIRED_VARIANT[architecture] and not force:
        raise StageConfigError(
            f"{architecture.value} stages pair with {PAIRED_VARIANT[architecture].value}; "
            f"got {variant.value} (use force=True to override)"
        )
    nb = NetlistBuilder()
    ackin = nb.add_input("ackin")
    input_ports = []
    register_ports = []
    reg_pairs = []
    a_reg, b_reg = [], []

    def add_registered_pair(port: str) -> tuple[str, str]:
        r1 = nb.add_input(f"{port}.r1")
        r0 = nb.add_input(f"{port}.r0")
        nb.add_pair(port, r1, r0)
        input_ports.append(port)
        q1 = nb.add_gate(GateKind.C2, (r1, ackin), f"reg.{port}.r1")
        q0 = nb.add_gate(GateKind.C2, (r0, ackin), f"reg.{port}.r0")
        nb.add_pair(f"reg.{port}", q1, q0)
        register_ports.append(f"reg.{port}")
        reg_pairs.append((q1, q0))
        return q1, q0

    for i in range(n):
        a_reg.append(add_registered_pair(f"a{i}"))
    for i in range(n):
        b_reg.append(add_registered_pair(f"b{i}"))
    cin_reg = add_registered_pair("cin")

    stages, sums, cout = emit_rca(nb, variant, n, a_reg, b_reg, cin_reg)
    cd_out, cd_depth = _emit_completion_detector(nb, reg_pairs)

    forward_ports = []
    for i, (s1, s0) in enumerate(sums):
        nb.add_pair(f"sum{i}", s1, s0)
        forward_ports.append(f"sum{i}")
        nb.add_output(s1)
        nb.add_output(s0)
    sync_port = None
    if architecture is Architecture.GLOBAL:
        y1 = nb.add_gate(GateKind.C2, (cout[0], cd_out), "sync.r1")
        y0 = nb.add_gate(GateKind.C2, (cout[1], cd_out), "sync.r0")
        nb.add_pair("cout.rca", cout[0], cout[1])
        nb.add_pair("cout", y1, y0)
        nb.add_output(y1)
        nb.add_output(y0)
        sync_port = "cout"
    else:
        nb.add_pair("cout", cout[0], cout[1])
        nb.add_output(cout[0])
        nb.add_output(cout[1])
    forward_ports.append("cout")
    nb.add_output(cd_out)

    return StageDescriptor(
        architecture=architecture,
        variant=variant,
        n=n,
        netlist=nb.build(),
        stages=stages,
        input_ports=tuple(input_ports),
        register_ports=tuple(register_ports),
        forward_ports=tuple(forward_ports),
        ackin=ackin,
        cd_out=cd_out,
        cd_depth=cd_depth,
        sync_port=sync_port,
    )


@dataclass
class TransactionRecord:
    architecture: Architecture
    variant: AdderVariant
    n: int
    a: int
    b: int
    cin: int
    forward_latency: int
    reverse_latency: int
    sum_value: int | DecodeIssue
    carry_value: int | DecodeIssue
    set_report: PhaseCheckReport
    rtz_report: PhaseCheckReport
    spacer_restored: bool
    # populated only when run_transaction(..., keep_traces=True)
    set_trace: list[tuple[int, str, int]] | None = None
    rtz_trace: list[tuple[int, str, int]] | None = None
    set_origin: int = 0
    rtz_origin: int = 0

    @property
    def cycle_time(self) -> int:
        return self.forward_latency + self.reverse_latency

    @property
    def ok(self) -> bool:
        return (
            self.set_report.ok
            and self.rtz_report.ok
            and self.spacer_restored
            and not isinstance(self.sum_value, DecodeIssue)
            and not isinstance(self.carry_value, DecodeIssue)
        )

    def csv_row(self) -> str:
        return (
            f"{self.architecture.value},{self.variant.value},{self.n},"
            f"{self.a},{self.b},{self.cin},"
            f"{self.forward_latency},{self.reverse_latency},{self.cycle_time}"
        )


def _stage_assignments(stage: StageDescriptor, a: int, b: int, cin: int) -> list[tuple[str, int]]:
    out = []
    for i in range(stage.n):
        for port, value in ((f"a{i}", (a >> i) & 1), (f"b{i}", (b >> i) & 1)):
            v = encode_bit(value)
            out.append((f"{port}.r1", v.rail1))
            out.append((f"{port}.r0", v.rail0))
    v = encode_bit(cin)
    out.append(("cin.r1", v.rail1))
    out.append(("cin.r0", v.rail0))
    return out


def run_transaction(
    stage: StageDescriptor,
    a: int,
    b: int,
    cin: int,
    delay_table: DelayTable | None = None,
    sim: Simulation | None = None,
    keep_traces: bool = False,
) -> TransactionRecord:
    """One open-loop transaction: valid wave with ackin held high, then
    spacer wave with ackin low.  Latencies are the times of the last
    transition on any forwarded output pair, measured from each wave's
    start.  Pass a quiescent sim to chain transactions on one instance.
    """
    if not 0 <= a < (1 << stage.n) or not 0 <= b < (1 << stage.n) or cin not in (0, 1):
        raise ValueError("operands do not fit the stage width")
    if sim is None:
        sim = Simulation(stage.netlist, delay_table or default_delay_table())
    assignments = [(stage.ackin, 1)] + _stage_assignments(stage, a, b, cin)
    waves = drive_transaction(sim, assignments, stage.forward_ports, keep_traces)
    carry_state = decode_pair(waves.valid_word.pairs[-1])
    if carry_state is RailState.ONE:
        carry_value: int | DecodeIssue = 1
    elif carry_state is RailState.ZERO:
        carry_value = 0
    else:
        carry_value = DecodeIssue(carry_state, 0)
    return TransactionRecord(
        architecture=stage.architecture,
        variant=stage.variant,
        n=stage.n,
        a=a,
        b=b,
        cin=cin,
        forward_latency=waves.forward_latency,
        reverse_latency=waves.reverse_latency,
        sum_value=decode_word(DualRailWord(waves.valid_word.pairs[:-1])),
        carry_value=carry_value,
        set_report=waves.set_report,
        rtz_report=waves.rtz_report,
        spacer_restored=waves.spacer_restored,
        set_trace=waves.set_trace,
        rtz_trace=waves.rtz_trace,
        set_origin=waves.set_origin,
        rtz_origin=waves.rtz_origin,
    )


# -- closed-loop demonstration ring ------------------------------------


@dataclass
class ThroughputReport:
    deliveries: list[tuple[int, int, int]] = field(default_factory=list)  # (time, sum, carry)
    intervals: list[int] = field(default_factory=list)

    @property
    def steady_interval(self) -> int | None:
        return self.intervals[-1] if self.intervals else None


def _prefixed(netlist: Netlist, prefix: str, rename: dict[str, str]) -> Netlist:
    def nm(net: str) -> str:
        return rename.get(net, prefix + net)

    gates = tuple(
        Gate(prefix + g.gid, g.kind, tuple(nm(x) for x in g.inputs), nm(g.output))
        for g in netlist.gates
    )
    pins = tuple(nm(x) for x in netlist.primary_inputs)
    pouts = tuple(nm(x) for x in netlist.primary_outputs)
    pmap = {prefix + p: (nm(r1), nm(r0)) for p, (r1, r0) in netlist.port_map.items()}
    return Netlist(gates, pins, pouts, pmap)


def run_closed_loop(
    stage_count: int,
    variant: AdderVariant,
    architecture: Architecture,
    n: int,
    operands: list[tuple[int, int, int]],
    delay_table: DelayTable | None = None,
    force: bool = False,
) -> ThroughputReport:
    """Demonstration pipeline of identical stages under full handshaking.

    Stage k+1 adds stage k's sum to environment-supplied zero operands, so
    a value travels the ring unchanged.  Acknowledge wiring lives in the
    harness: each inter-stage ackin is the inverted completion-detector
    output of the consumer, and a zero-delay source/sink plays the
    environment at quiescence points.  Raises DeadlockError when the ring
    stops making progress with transactions outstanding.
    """
    if stage_count < 2:
        raise ValueError(f"stage_count must be >= 2, got {stage_count}")
    report = ThroughputReport()
    if not operands:
        return report
    stage = build_stage(architecture, variant, n, force=force)
    prefixes = [f"st{k}." for k in range(stage_count)]

    gates: list[Gate] = []
    pins: list[str] = []
    pmap: dict[str, tuple[str, str]] = {}
    for k, pref in enumerate(prefixes):
        rename: dict[str, str] = {}
        if k > 0:
            # consume the producer's forwarded sum pairs as this stage's a operand
            prev = prefixes[k - 1]
            for i in range(n):
                r1, r0 = stage.netlist.port_map[f"sum{i}"]
                rename[f"a{i}.r1"] = prev + r1
                rename[f"a{i}.r0"] = prev + r0
        if k < stage_count - 1:
            rename["ackin"] = f"ack{k}"
        nl = _prefixed(stage.netlist, pref, rename)
        gates.extend(nl.gates)
        pmap.update(nl.port_map)
        pins.extend(nl.primary_inputs)
    for k in range(stage_count - 1):
        gates.append(Gate(f"ackinv{k}", GateKind.INV, (prefixes[k + 1] + stage.cd_out,), f"ack{k}"))
    driven = {g.output for g in gates}
    pins = [p for p in dict.fromkeys(pins) if p not in driven]
    ring = Netlist(tuple(gates), tuple(pins), (), pmap)

    sim = Simulation(ring, delay_table or default_delay_table())
    sim.settle_power_on()

    last_pref = prefixes[-1]
    last_ackin = last_pref + "ackin"
    out_ports = [last_pref + p for p in stage.forward_ports]

    def outputs_state() -> str:
        states = {decode_pair(sim.pair_value(p)) for p in out_ports}
        if states == {RailState.SPACER}:
            return "spacer"
        if states <= {RailState.ZERO, RailState.ONE}:
            return "valid"
        return "mixed"

    def zero_assign(k: int, valid: bool) -> list[tuple[str, int]]:
        pref = prefixes[k]
        out = []
        ports = [f"b{i}" for i in range(n)] + ["cin"]
        if k == 0:
            ports += [f"a{i}" for i in range(n)]
        for port in ports:
            pair = encode_bit(0) if valid else None
            r1 = 0 if pair is None else pair.rail1
            r0 = 0 if pair is None else pair.rail0
            out.append((pref + port + ".r1", r1))
            out.append((pref + port + ".r0", r0))
        return out

    pending_ops = list(operands)
    src_valid = [False] * stage_count  # environment rails currently valid, per stage
    sink_ack = 0
    while True:
        progressed = False
        t = sim.now
        state = outputs_state()
        # sink: acknowledge a fresh codeword, re-arm on spacer
        if state == "valid" and sink_ack == 1:
            word = sim.read_word([last_pref + f"sum{i}" for i in range(n)])
            value = decode_word(word)
            carry = decode_pair(sim.pair_value(last_pref + "cout"))
            report.deliveries.append((t, value, 1 if carry is RailState.ONE else 0))
            if len(report.deliveries) > 1:
                report.intervals.append(t - report.deliveries[-2][0])
            sim.apply_inputs([(last_ackin, 0)], at_time=t)
            sink_ack = 0
            progressed = True
        elif state == "spacer" and sink_ack == 0:
            sim.apply_inputs([(last_ackin, 1)], at_time=t)
            sink_ack = 1
            progressed = True
        # per-stage environment rails follow each stage's own ack
        for k in range(stage_count):
            cd = sim.net_value(prefixes[k] + stage.cd_out)
            if cd == 0 and not src_valid[k]:
                if k == 0:
                    if not pending_ops:
                        continue
                    a, b, c = pending_ops.pop(0)
                    assigns = []
                    for i in range(n):
                        for port, bit in ((f"a{i}", (a >> i) & 1), (f"b{i}", (b >> i) & 1)):
                            v = encode_bit(bit)
                            assigns.append((prefixes[0] + port + ".r1", v.rail1))
                            assigns.append((prefixes[0] + port + ".r0", v.rail0))
                    v = encode_bit(c)
                    assigns.append((prefixes[0] + "cin.r1", v.rail1))
                    assigns.append((prefixes[0] + "cin.r0", v.rail0))
                    sim.apply_inputs(assigns, at_time=t)
                else:
                    sim.apply_inputs(zero_assign(k, valid=True), at_time=t)
                src_valid[k] = True
                progressed = True
            elif cd == 1 and src_valid[k]:
                sim.apply_inputs(zero_assign(k, valid=False), at_time=t)
                src_valid[k] = False
                progressed = True
        if progressed:
            sim.run_until_quiescent()
            continue
        if len(report.deliveries) == len(operands) and not pending_ops and state == "spacer":
            return report
        raise DeadlockError(
            f"ring stalled at t={sim.now} with {len(operands) - len(report.deliveries)} "
            "transactions outstanding"
        )
