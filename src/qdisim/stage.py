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
from itertools import pairwise, repeat

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
        forward_ports=forward_ports,
        ackin=ackin,
        cd_out=cd_out,
    )


@dataclass(kw_only=True)
class TransactionRecord(WaveResult):
    """One stage transaction: the `WaveResult` of its two waves, `ok`
    included, extended with only its stage, operands and decoded sum and carry."""

    architecture: Architecture
    variant: AdderVariant
    n: int
    a: int
    b: int
    cin: int
    sum_value: int | DecodeIssue
    carry_value: int | DecodeIssue

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
    """A ring's deliveries in order.  `intervals` is derived from the
    delivery times, and `steady_interval` is the last interval between two
    deliveries, a round trip, not a pipelined steady state."""

    deliveries: list[tuple[int, int, int]] = field(default_factory=list)  # (time, sum, carry)

    @property
    def intervals(self) -> list[int]:
        return [later[0] - earlier[0] for earlier, later in pairwise(self.deliveries)]

    @property
    def steady_interval(self) -> int | None:
        return self.intervals[-1] if len(self.deliveries) > 1 else None


def _rising(pairs, value: int) -> list[str]:
    """The rail of each pair in `pairs` that rises to put `value` on them,
    as `rail_assignments` encodes it."""
    return [rail for rail, bit in rail_assignments(pairs, value) if bit]


def run_closed_loop(
    stage_count: int,
    variant: AdderVariant,
    architecture: Architecture,
    n: int,
    operands: list[tuple[int, int, int]],
    delay_table: DelayTable | None = None,
    jitter: int = 0,
    jitter_seed: int = 1,
) -> ThroughputReport:
    """Demonstration pipeline of identical stages under full handshaking,
    timed with `delay_table` (the default table when None) and the
    per-gate `jitter` drawn from `jitter_seed`, as `Simulation` draws it:
    delivery times depend on them, the delivered values do not.

    Stage k+1 adds stage k's sum to environment-supplied zero operands, so
    a value travels the ring unchanged.  Acknowledge wiring lives in the
    harness: each inter-stage ackin is the inverted completion-detector
    output of the consumer, and a zero-delay source/sink plays the
    environment at quiescence points: at each it reads the last stage's
    word once, applies its moves in one input batch and, reading only net
    values, reaches the next with `Simulation.drain`, which records no
    trace.  A source raises only the rail that rises in each pair and later
    lowers exactly those rails, so every move it applies changes a rail.
    Each call builds, compiles and powers on its own ring and keeps
    nothing after it returns or raises.

    Raises DeadlockError when the ring stops making progress with
    transactions outstanding, and ValueError before anything runs, in this
    order: for the stage count, when `build_stage` refuses n or the
    pairing, when an operand does not fit n bits, and when `Simulation`
    refuses the jitter.
    """
    if stage_count < 2:
        raise ValueError(f"stage_count must be >= 2, got {stage_count}")
    stage = build_stage(architecture, variant, n)  # refuses n < 1 before any operand is packed
    words = iter([pack_operands(n, a, b, c) for a, b, c in operands])
    report = ThroughputReport()
    nets = stage.netlist.nets()

    # one rename map per stage copy, one string per net, and one source per
    # copy, which drives every operand of copy 0 but only b and cin of the
    # others (their a is the previous copy's sum); its feed yields the rails
    # that rise for each operand word, copy 0's words or zeros
    gates: list[Gate] = []
    acks: list[Gate] = []  # the acknowledge inverters, listed after every copy's gates
    pins: list[str] = []
    pmap: dict[str, tuple[str, str]] = {}
    sources = []
    names: dict[str, str] = {}
    for k in range(stage_count):
        prev, pref = names, f"st{k}."
        names = {net: pref + net for net in nets}
        if k > 0:
            for (a1, a0), port in zip(stage.operand_rails, stage.forward_ports[:n]):
                names[a1], names[a0] = (prev[rail] for rail in stage.netlist.port_map[port])
            acks.append(Gate(f"ackinv{k - 1}", GateKind.INV, (names[stage.cd_out],), prev[stage.ackin]))
        if k < stage_count - 1:
            names[stage.ackin] = f"ack{k}"
        nm = names.__getitem__
        gates.extend(
            tuple.__new__(Gate, (pref + g.gid, g.kind, tuple(map(nm, g.inputs)), nm(g.output)))  # as add_gate does
            for g in stage.netlist.gates
        )
        pins.extend(map(nm, stage.netlist.primary_inputs))
        pmap.update((pref + port, (nm(r1), nm(r0))) for port, (r1, r0) in stage.netlist.port_map.items())
        rails = [(nm(r1), nm(r0)) for r1, r0 in stage.operand_rails[n if k else 0:]]
        sources.append((nm(stage.cd_out), repeat(_rising(rails, 0)) if k else map(_rising, repeat(rails), words)))
    gates += acks
    driven = {g.output for g in gates}
    pins = [p for p in pins if p not in driven]
    netlist = Netlist(tuple(gates), tuple(pins), (), pmap)
    sim = Simulation(netlist, delay_table or default_delay_table(), jitter=jitter, jitter_seed=jitter_seed)
    sim.settle_power_on()

    out_ports = [pref + port for port in stage.forward_ports]
    sink_ackin = names[stage.ackin]
    sink_ack = 0
    high: list[list[str]] = [[] for _ in sources]  # the rails each source holds high, none while spacer
    while True:
        word = sim.read_word(out_ports)
        states = set(word)
        moves: list[tuple[str, int]] = []
        # sink: acknowledge a fresh codeword while its ack is high, re-arm on spacer while low
        if states <= ({RailState.ZERO, RailState.ONE} if sink_ack else {RailState.SPACER}):
            if sink_ack:
                carry, value = divmod(decode_word(word), 1 << n)
                report.deliveries.append((sim.now, value, carry))
            sink_ack = 1 - sink_ack
            moves.append((sink_ackin, sink_ack))
        # a source acts when its stage's ack (cd.out) equals its valid flag:
        # whether it holds rails high
        for k, (cd_out, feed) in enumerate(sources):
            if sim.net_value(cd_out) == bool(high[k]):
                if high[k]:
                    moves += [(rail, 0) for rail in high[k]]
                    high[k] = []
                else:
                    high[k] = next(feed, [])
                    moves += [(rail, 1) for rail in high[k]]
        if not moves:
            break
        sim.apply_inputs(moves)
        sim.drain()
    outstanding = len(operands) - len(report.deliveries)
    if outstanding or states != {RailState.SPACER}:
        raise DeadlockError(f"ring stalled at t={sim.now} with {outstanding} transactions outstanding")
    return report
