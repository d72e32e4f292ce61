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
from .netlist import GateKind, Netlist, NetlistBuilder
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


def _emit_completion_detector(nb: NetlistBuilder, prefix: str, pairs: list[tuple[str, str]]) -> str:
    """OR2 per pair then a balanced C2 tree, nets named `{prefix}cd.`;
    returns the root net, `{prefix}cd.out`.

    A single pair's OR2 is the root itself; otherwise the tree is
    ceil(log2(pair_count)) C2 levels deep.
    """
    root = f"{prefix}cd.out"
    level = [
        nb.add_gate(GateKind.OR2, (r1, r0), root if len(pairs) == 1 else f"{prefix}cd.or{i}")
        for i, (r1, r0) in enumerate(pairs)
    ]
    return nb.tree(GateKind.C2, level, root, f"{prefix}cd.l")


@dataclass
class StageDescriptor:
    architecture: Architecture
    variant: AdderVariant
    n: int
    netlist: Netlist
    operand_rails: tuple[tuple[str, str], ...]  # a0.., b0.., cin input rail pairs
    forward_ports: tuple[str, ...]     # sum0.., cout: what the next stage sees
    ackin: str


def _stage_variant(
    architecture: Architecture, variant: AdderVariant | None, n: int, force: bool = False
) -> AdderVariant:
    """`variant`, or the architecture's paired one when None.  Raises
    ValueError when n < 1, then StageConfigError when `variant` is not the
    architecture's pair and `force` is False."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if variant is None:
        return PAIRED_VARIANT[architecture]
    if variant is not PAIRED_VARIANT[architecture] and not force:
        raise StageConfigError(
            f"{architecture.value} stages pair with {PAIRED_VARIANT[architecture].value}; "
            f"got {variant.value} (use force=True to override)"
        )
    return variant


def emit_stage(nb: NetlistBuilder, prefix: str, architecture: Architecture, variant: AdderVariant, n: int,
               ackin: str, a_rails: list[tuple[str, str]] | None = None):
    """Write one stage into `nb`, every net and port named with `prefix`:
    register bank (one C2 per rail, gated by the net `ackin`), adder and
    completion detector, plus the synchronizer when GLOBAL.  The a operand
    reads `a_rails`, or its own input pairs when None.  The forward ports
    and the detector root `{prefix}cd.out` are outputs.  Returns (the input
    rail pairs it declared, forward ports, sum rail pairs, detector root).
    """
    operand_rails, reg_pairs = [], []
    for i, port in enumerate([*(f"a{i}" for i in range(n)), *(f"b{i}" for i in range(n)), "cin"]):
        if i < n and a_rails is not None:
            r1, r0 = a_rails[i]
        else:
            r1, r0 = nb.add_input_pair(prefix + port)
            operand_rails.append((r1, r0))
        reg = f"{prefix}reg.{port}"
        q1 = nb.add_gate(GateKind.C2, (r1, ackin), f"{reg}.r1")
        q0 = nb.add_gate(GateKind.C2, (r0, ackin), f"{reg}.r0")
        nb.add_pair(reg, q1, q0)
        reg_pairs.append((q1, q0))

    sums, cout = emit_rca(nb, prefix, variant, n, reg_pairs[:n], reg_pairs[n:-1], reg_pairs[-1])
    cd_out = _emit_completion_detector(nb, prefix, reg_pairs)

    forward_ports = (*(f"{prefix}sum{i}" for i in range(n)), f"{prefix}cout")
    for port, (s1, s0) in zip(forward_ports, sums):
        nb.add_output_pair(port, s1, s0)
    if architecture is Architecture.GLOBAL:
        nb.add_pair(f"{prefix}cout.rca", *cout)
        cout = (
            nb.add_gate(GateKind.C2, (cout[0], cd_out), f"{prefix}sync.r1"),
            nb.add_gate(GateKind.C2, (cout[1], cd_out), f"{prefix}sync.r0"),
        )
    nb.add_output_pair(forward_ports[-1], *cout)
    nb.add_output(cd_out)
    return operand_rails, forward_ports, sums, cd_out


def build_stage(
    architecture: Architecture,
    variant: AdderVariant | None = None,
    n: int = 32,
    force: bool = False,
) -> StageDescriptor:
    """One stage, `emit_stage` with no prefix, gated by its primary input
    `ackin`; its detector `cd.out` watches all 2n+1 registered operand
    pairs.  Architecture and adder style come paired; pass force=True to
    explore other combinations (their timing has no closed form here).
    """
    variant = _stage_variant(architecture, variant, n, force)
    nb = NetlistBuilder()
    ackin = nb.add_input("ackin")
    operand_rails, forward_ports, _, _ = emit_stage(nb, "", architecture, variant, n, ackin)
    return StageDescriptor(architecture, variant, n, nb.build(), tuple(operand_rails), forward_ports, ackin)


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
    variant: AdderVariant | None,
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

    Copy k is `emit_stage` with prefix `st{k}.`; copy k+1 adds copy k's
    sum rails to environment-supplied zero operands, so a value travels
    the ring unchanged.  Copy k's ackin is `ack{k}`, an INV (after every
    copy's gates) of copy k+1's `cd.out`; the last copy's is the sink's.
    A zero-delay source/sink plays the environment at quiescence points:
    at each it reads the last stage's word once, applies its moves in one
    input batch and, reading only net values, reaches the next with
    `Simulation.drain`, which records no trace.  A source raises only the
    rail that rises in each pair and later lowers exactly those rails, so
    every move it applies changes a rail.  Each call builds, compiles and
    powers on its own ring and keeps nothing after it returns or raises.

    Raises DeadlockError when the ring stops making progress with
    transactions outstanding, and ValueError before anything runs, in this
    order: for the stage count, for n and the pairing as `build_stage`
    refuses them (`variant` None is the paired one), when an operand does
    not fit n bits, and when `Simulation` refuses the jitter.
    """
    if stage_count < 2:
        raise ValueError(f"stage_count must be >= 2, got {stage_count}")
    variant = _stage_variant(architecture, variant, n)  # before any operand is packed
    words = iter([pack_operands(n, a, b, c) for a, b, c in operands])
    report = ThroughputReport()

    # one source per copy drives the input pairs it declares (all of copy
    # 0's, b and cin of the others) and yields the rails that rise for each
    # operand word, copy 0's words or zeros; each `ack{k}` is one string
    nb = NetlistBuilder()
    acks = [f"ack{k}" for k in range(stage_count - 1)]
    sources = []
    sums = None
    for k in range(stage_count):
        ackin = acks[k] if k < len(acks) else nb.add_input(f"st{k}.ackin")
        rails, out_ports, sums, cd_out = emit_stage(nb, f"st{k}.", architecture, variant, n, ackin, sums)
        sources.append((cd_out, repeat(_rising(rails, 0)) if k else map(_rising, repeat(rails), words)))
    for ack, (cd_out, _) in zip(acks, sources[1:]):
        nb.add_gate(GateKind.INV, (cd_out,), ack)
    sim = Simulation(nb.build(), delay_table or default_delay_table(), jitter=jitter, jitter_seed=jitter_seed)
    sim.settle_power_on()

    sink_ack = 0  # the level the sink drives on the last copy's `ackin`; it reads that copy's `out_ports`
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
            moves.append((ackin, sink_ack))
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
