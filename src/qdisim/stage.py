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

from .adders import AdderVariant, emit_rca, pack_operands
from .cells import DelayTable, default_delay_table
from .dualrail import DecodeIssue, RailState, decode_word, rail_assignments
from .netlist import Gate, GateKind, Netlist, NetlistBuilder
from .sim import Simulation, WaveResult, _WavePlan, drive_transaction


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


def _emit_completion_detector(nb: NetlistBuilder, pairs: list[tuple[str, str]]) -> str:
    """OR2 per pair then a balanced C2 tree, nets prefixed `cd.`; returns
    the root net.

    A single pair's OR2 is the root itself; otherwise the tree is
    ceil(log2(pair_count)) C2 levels deep.
    """
    root = "cd.out"
    level = [
        nb.add_gate(GateKind.OR2, (r1, r0), root if len(pairs) == 1 else f"cd.or{i}")
        for i, (r1, r0) in enumerate(pairs)
    ]
    return nb.tree(GateKind.C2, level, root, "cd.l")


@dataclass
class StageDescriptor:
    architecture: Architecture
    variant: AdderVariant
    n: int
    netlist: Netlist
    operand_rails: tuple[tuple[str, str], ...]  # a0.., b0.., cin input rail pairs
    register_ports: tuple[str, ...]    # reg.a0.. covered by the detector
    forward_ports: tuple[str, ...]     # sum0.., cout: what the next stage sees
    ackin: str
    cd_out: str


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
    operand_ports = [*(f"a{i}" for i in range(n)), *(f"b{i}" for i in range(n)), "cin"]
    operand_rails, reg_pairs = [], []
    for port in operand_ports:
        r1, r0 = nb.add_input_pair(port)
        q1 = nb.add_gate(GateKind.C2, (r1, ackin), f"reg.{port}.r1")
        q0 = nb.add_gate(GateKind.C2, (r0, ackin), f"reg.{port}.r0")
        nb.add_pair(f"reg.{port}", q1, q0)
        operand_rails.append((r1, r0))
        reg_pairs.append((q1, q0))

    sums, cout = emit_rca(nb, variant, n, reg_pairs[:n], reg_pairs[n:-1], reg_pairs[-1])
    cd_out = _emit_completion_detector(nb, reg_pairs)

    forward_ports = tuple(f"sum{i}" for i in range(n)) + ("cout",)
    for port, (s1, s0) in zip(forward_ports[:n], sums):
        nb.add_output_pair(port, s1, s0)
    if architecture is Architecture.GLOBAL:
        nb.add_pair("cout.rca", *cout)
        cout = (
            nb.add_gate(GateKind.C2, (cout[0], cd_out), "sync.r1"),
            nb.add_gate(GateKind.C2, (cout[1], cd_out), "sync.r0"),
        )
    nb.add_output_pair("cout", *cout)
    nb.add_output(cd_out)

    return StageDescriptor(
        architecture=architecture,
        variant=variant,
        n=n,
        netlist=nb.build(),
        operand_rails=tuple(operand_rails),
        register_ports=tuple(f"reg.{port}" for port in operand_ports),
        forward_ports=forward_ports,
        ackin=ackin,
        cd_out=cd_out,
    )


@dataclass(kw_only=True)
class TransactionRecord(WaveResult):
    """One stage transaction: its two waves, the stage and operands that
    drove them, and the forwarded word decoded as sum and carry."""

    architecture: Architecture
    variant: AdderVariant
    n: int
    a: int
    b: int
    cin: int
    sum_value: int | DecodeIssue
    carry_value: int | DecodeIssue

    @property
    def ok(self) -> bool:
        return (
            super().ok
            and not isinstance(self.sum_value, DecodeIssue)
            and not isinstance(self.carry_value, DecodeIssue)
        )

    def csv_row(self) -> str:
        return (
            f"{self.architecture.value},{self.variant.value},{self.n},"
            f"{self.a},{self.b},{self.cin},"
            f"{self.forward_latency},{self.reverse_latency},{self.cycle_time}"
        )


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
    start.  With `keep_traces`, `drive_transaction` runs it on the event
    engine, on `sim` (which it advances) or on a new one.  Otherwise the
    wave plan runs it: `sim.plan`, whose compiled gates (jitter included)
    `sim` only lends, its state, clock and trace untouched, or with no
    `sim` the plan compiled from the netlist.  `delay_table` defaults to
    the sim's table, or to the default one.  Raises ValueError when an
    operand does not fit the stage width, `sim` was built for another
    netlist or another delay table, or the plan is needed and does not
    cover the netlist.
    """
    word = pack_operands(stage.n, a, b, cin)
    if sim is not None:
        if sim.netlist is not stage.netlist:
            raise ValueError("sim was built for another netlist than the stage's")
        if delay_table is not None and delay_table != sim.delay_table:
            raise ValueError("sim was built with another delay table than the one given")
    assignments = [(stage.ackin, 1)] + rail_assignments(stage.operand_rails, word)
    table = delay_table or default_delay_table()
    if keep_traces:
        waves = drive_transaction(sim or Simulation(stage.netlist, table), assignments, stage.forward_ports)
    else:
        plan = _WavePlan.build(stage.netlist, table) if sim is None else sim.plan
        waves, _ = plan.run(assignments, stage.forward_ports)
    return TransactionRecord(
        **vars(waves),
        architecture=stage.architecture,
        variant=stage.variant,
        n=stage.n,
        a=a,
        b=b,
        cin=cin,
        sum_value=decode_word(waves.valid_word[:-1]),
        carry_value=decode_word(waves.valid_word[-1:]),
    )


# -- closed-loop demonstration ring ------------------------------------


@dataclass
class ThroughputReport:
    deliveries: list[tuple[int, int, int]] = field(default_factory=list)  # (time, sum, carry)
    intervals: list[int] = field(default_factory=list)

    @property
    def steady_interval(self) -> int | None:
        return self.intervals[-1] if self.intervals else None


def _prefixed(netlist: Netlist, prefix: str, names: dict[str, str]) -> Netlist:
    """`netlist` with `prefix` on its gate ids and ports and each net
    renamed by `names`, which maps every net of it to one string."""
    nm = names.__getitem__
    gates = tuple(
        tuple.__new__(Gate, (prefix + g.gid, g.kind, tuple(map(nm, g.inputs)), nm(g.output)))  # as add_gate does
        for g in netlist.gates
    )
    pins = tuple(map(nm, netlist.primary_inputs))
    pouts = tuple(map(nm, netlist.primary_outputs))
    pmap = {prefix + p: (nm(r1), nm(r0)) for p, (r1, r0) in netlist.port_map.items()}
    return Netlist(gates, pins, pouts, pmap)


def run_closed_loop(
    stage_count: int,
    variant: AdderVariant,
    architecture: Architecture,
    n: int,
    operands: list[tuple[int, int, int]],
    delay_table: DelayTable | None = None,
) -> ThroughputReport:
    """Demonstration pipeline of identical stages under full handshaking,
    timed with `delay_table` (the default table when None): delivery times
    depend on it, the delivered values do not.

    Stage k+1 adds stage k's sum to environment-supplied zero operands, so
    a value travels the ring unchanged.  Acknowledge wiring lives in the
    harness: each inter-stage ackin is the inverted completion-detector
    output of the consumer, and a zero-delay source/sink plays the
    environment at quiescence points.  The ring reads only net values at
    those points, so it reaches each of them with `Simulation.drain`,
    which records no trace.  Raises DeadlockError when the ring
    stops making progress with transactions outstanding, and ValueError
    before anything runs when an operand does not fit n bits.
    """
    if stage_count < 2:
        raise ValueError(f"stage_count must be >= 2, got {stage_count}")
    words = [pack_operands(n, a, b, c) for a, b, c in operands]
    report = ThroughputReport()
    if not operands:
        return report
    stage = build_stage(architecture, variant, n)
    prefixes = [f"st{k}." for k in range(stage_count)]
    acks = [f"ack{k}" for k in range(stage_count - 1)]

    gates: list[Gate] = []
    pins: list[str] = []
    pmap: dict[str, tuple[str, str]] = {}
    stage_nets = stage.netlist.nets()
    names_of: list[dict[str, str]] = []  # each copy's net names, one string per net
    for k, pref in enumerate(prefixes):
        names = {net: pref + net for net in stage_nets}
        if k > 0:
            # consume the producer's forwarded sum pairs as this stage's a operand
            prev = names_of[-1]
            for (a1, a0), port in zip(stage.operand_rails, stage.forward_ports[:n]):
                s1, s0 = stage.netlist.port_map[port]
                names[a1], names[a0] = prev[s1], prev[s0]
        if k < stage_count - 1:
            names[stage.ackin] = acks[k]
        names_of.append(names)
        nl = _prefixed(stage.netlist, pref, names)
        gates.extend(nl.gates)
        pmap.update(nl.port_map)
        pins.extend(nl.primary_inputs)
    for k, ack in enumerate(acks):
        gates.append(Gate(f"ackinv{k}", GateKind.INV, (names_of[k + 1][stage.cd_out],), ack))
    driven = {g.output for g in gates}
    pins = [p for p in dict.fromkeys(pins) if p not in driven]
    ring = Netlist(tuple(gates), tuple(pins), (), pmap)

    sim = Simulation(ring, delay_table or default_delay_table())
    sim.settle_power_on()

    last_pref = prefixes[-1]
    last_ackin = names_of[-1][stage.ackin]
    out_ports = [last_pref + p for p in stage.forward_ports]

    def outputs_state() -> str:
        states = set(sim.read_word(out_ports))
        if states == {RailState.SPACER}:
            return "spacer"
        if states <= {RailState.ZERO, RailState.ONE}:
            return "valid"
        return "mixed"

    # the environment drives every operand of stage 0, and b and cin of the
    # others (their a is the previous stage's sum)
    env = []
    for k, names in enumerate(names_of):
        rails = stage.operand_rails if k == 0 else stage.operand_rails[n:]
        env.append((names[stage.cd_out], [(names[r1], names[r0]) for r1, r0 in rails]))
    src_valid = [False] * stage_count  # environment rails currently valid, per stage
    sink_ack = 0
    while True:
        progressed = False
        t = sim.now
        state = outputs_state()
        # sink: acknowledge a fresh codeword, re-arm on spacer
        if state == "valid" and sink_ack == 1:
            value = decode_word(sim.read_word(out_ports[:-1]))
            carry = sim.pair_value(out_ports[-1])
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
        for k, (cd_net, rails) in enumerate(env):
            cd = sim.net_value(cd_net)
            if cd == 0 and not src_valid[k]:
                if k == 0:
                    if not words:
                        continue
                    word = words.pop(0)
                else:
                    word = 0  # b = cin = 0: the sum passes through unchanged
                sim.apply_inputs(rail_assignments(rails, word), at_time=t)
                src_valid[k] = True
                progressed = True
            elif cd == 1 and src_valid[k]:
                sim.apply_inputs(rail_assignments(rails, None), at_time=t)
                src_valid[k] = False
                progressed = True
        if progressed:
            sim.drain()
            continue
        if len(report.deliveries) == len(operands) and not words and state == "spacer":
            return report
        raise DeadlockError(
            f"ring stalled at t={sim.now} with {len(operands) - len(report.deliveries)} "
            "transactions outstanding"
        )
