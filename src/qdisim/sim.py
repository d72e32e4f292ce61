"""Deterministic discrete-event simulation with transport delays.

Every net starts at 0, the global spacer/reset state.  A committed
transition re-evaluates the gates of the net's fanout, which only the
engine builds, on its first run, and schedules each changed output at
`now + delay(kind)`.  A gate of one or two inputs (C2, OR2, AND2, INV)
is listed as (code, other input, out, delay) and evaluated from the
value that just committed and its other input; a wider gate is listed
as its compiled gate and reads every input.  `settle_power_on` feeds
the same loop pseudo-commits, each gate seen from its first input, so
each kind's formula is written once.  Events commit in (time,
scheduling) order, so repeated runs of the same stimulus produce
identical traces.  `run_until_quiescent` records each commit as (time,
net, value); `drain` commits exactly the same transitions and records
nothing, for callers such as the closed ring that read only net values.
`fork` starts a second sim from a sim's committed values, sharing its
compiled gates and fanout; the closed ring forks its powered-on sim for
every call.
The queue is a calendar of net ids: a heap holds each distinct pending
time once, a per-time list holds the nets pending at that time in
scheduling order, and each net has one pending time and one pending
value.  Every delay is at least 1, so a time's list never grows while
it is drained; one heap operation serves all the events of one time.
Scheduling a different value for a net that is already pending replaces
the pending event: the net leaves its old time's list (or, when that
time is being drained, is skipped there, its pending time no longer
matching) and joins the new time's list at the end.  A replacement is
counted as a diagnostic, a case that monotone handshake stimuli never
trigger.  A run that commits more than `event_cap` transitions raises
OscillationError and spends the sim.

C-element state is the effective value of its output net (pending event
if one exists, settled value otherwise), which coincides with the
all-zero power-on state required of return-to-zero circuits.

`drive_transaction` runs one valid wave and one spacer wave on the event
engine, the reference, and returns both traces.  When the netlist has no
INV and no cycle, every net moves at most once per wave from the
all-spacer state, in one direction, so both waves are one min/max-plus
pass over the gates lowered to two-input AND, OR and C-element nodes,
each gate after the drivers of its inputs (`_WavePlan`), which reads and
changes no simulation state.  Gates listed in that order, as every
generator lists them, are lowered in one loop as listed; any other
netlist is first put in a depth-first post-order.  On bit masks the same
nodes give, for a block of vectors at once, where each net settles once
some inputs move from a settled state (`levels`, one boolean pass for
both waves) and, on step functions of masks, when each net rises and
falls (`times`).  The plan is compiled straight from a netlist with no
jitter (`_WavePlan.build`) or lowered from a simulation's own compiled
gates, jitter included (`Simulation.plan`).  Both raise the compile
pass's NetlistError (see `netlist`), and add three refusals that the
event engine does not make: an INV (inverter), a loop through a
C-element (cycle) and a rail shared by two ports (shared-rail).
"""
from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable

from .cells import DelayTable
from .dualrail import PAIR_STATE, RailState
from .netlist import (
    _AND2, _AO21, _AO22, _C2, _C3, _CODE, _INV, _OR2, GATE_TERMS, STATEFUL_KINDS, GateKind, Netlist,
    NetlistError, SimulationError, Violation, _compile, _depth_first, _port_rails,
)


class Phase(enum.Enum):
    SET = "SET"    # valid-data wave: every transition must rise
    RTZ = "RTZ"    # spacer wave: every transition must fall


class OscillationError(RuntimeError):
    pass


class Simulation:
    """One confined simulation instance over a compiled netlist.

    The netlist itself is never mutated; many instances can simulate the
    same netlist concurrently.

    `jitter` adds a seeded per-gate-instance uniform delay in [0, jitter]
    on top of the table, for robustness experiments; delay-insensitive
    circuits must keep functioning under it.  All calibrated timing runs
    use jitter=0.  The engine's fanout (`_fanout`) is built on its first
    run, not by `_compile`, whose gates the wave plan (`plan`) shares.  A
    negative or non-integer `jitter` or `event_cap` raises ValueError.
    """

    def __init__(
        self,
        netlist: Netlist,
        delay_table: DelayTable,
        event_cap: int = 1_000_000,
        jitter: int = 0,
        jitter_seed: int = 1,
    ):
        if isinstance(event_cap, bool) or not isinstance(event_cap, int) or event_cap < 0:
            raise ValueError(f"event_cap must be a non-negative integer, got {event_cap!r}")
        self.netlist = netlist
        self.delay_table = delay_table
        self.event_cap = event_cap
        self._ids, self._inputs, self._gates = _compile(netlist, delay_table, jitter, jitter_seed)
        self._names = list(self._ids)
        self._start([0] * len(self._names), 0, 0)

    def _start(self, values: list[int], now: int, replacements: int):
        """Set every field a run changes: the committed `values` at time
        `now`, nothing pending and no trace."""
        self._values = values
        self._ptime = [-1] * len(values)  # time of the net's pending event, -1 if none
        self._eff = list(values)  # pending value if an event is pending, else the settled value
        self._heap: list[int] = []  # the distinct times that have queued events
        self._buckets: dict[int, list[int]] = {}  # time -> the nets pending then, in scheduling order
        self._trace: list[tuple[int, str, int]] = []
        self.now = now
        self.replacements = replacements

    def fork(self) -> Simulation:
        """A sim over this one's compiled gates, fanout and plan, shared
        and not rebuilt, that starts from this one's committed values at
        `now` with nothing pending.  A run of either leaves the other's
        state as it was."""
        sim = copy.copy(self)
        sim._start(list(self._values), self.now, self.replacements)
        return sim

    @cached_property
    def plan(self) -> _WavePlan:
        """The wave plan of this sim's own compiled gates (jitter
        included), lowered on first use; it neither reads nor changes the
        sim's state.  Raises NetlistError as `_WavePlan.lower` does."""
        return _WavePlan.lower(self._ids, self._inputs, self._gates, self.netlist)

    @cached_property
    def _fanout(self) -> list[list[tuple]]:
        """Each net's gates as the engine's entries (code, other, out,
        delay), in gate order and once per gate, which is the tie order.  A
        gate of one or two inputs holds its other input: the same net for
        an INV or a gate that reads the net twice.  A wider gate's entry is
        its compiled gate, which holds every input slot.  Built on the
        engine's first run, so a sim that only lends its `plan` builds
        none."""
        fanout: list[list[tuple]] = [[] for _ in self._names]
        for gate in self._gates:
            code, ins, out, delay = gate
            if len(ins) > 2:
                for net in ins:
                    users = fanout[net]
                    if not users or users[-1] is not gate:
                        users.append(gate)
            else:
                a = ins[0]
                b = ins[-1]
                fanout[a].append((code, b, out, delay))
                if b != a:
                    fanout[b].append((code, a, out, delay))
        return fanout

    # -- state access ------------------------------------------------

    def net_value(self, net: str) -> int:
        return self._values[self._ids[net]]

    def read_word(self, ports: Iterable[str]) -> tuple[RailState, ...]:
        """Each port's pair state, `PAIR_STATE` of its two rails' values."""
        values, ids, port_map = self._values, self._ids, self.netlist.port_map
        return tuple(PAIR_STATE[values[ids[r1]], values[ids[r0]]] for r1, r0 in map(port_map.__getitem__, ports))

    @property
    def trace(self) -> list[tuple[int, str, int]]:
        """Transitions committed by the latest drain of the queue:
        `run_until_quiescent` or `settle_power_on`, or none after
        `drain`, which records nothing."""
        return list(self._trace)

    # -- stimulus ----------------------------------------------------

    def apply_inputs(self, assignments: Iterable[tuple[str, int]], at_time: int | None = None):
        """Schedule primary-input transitions; same-value entries are dropped.
        A net that is not a primary input refuses them all, queueing none."""
        t = self.now if at_time is None else at_time
        if t < self.now:
            raise SimulationError(f"cannot apply inputs at {t}, already settled at {self.now}")
        slots = [(self._inputs[net], value) for net, value in assignments]
        ptime, eff, buckets = self._ptime, self._eff, self._buckets
        bucket = buckets.get(t)
        for nid, value in slots:
            if value == eff[nid]:
                continue
            if ptime[nid] >= 0:
                self.replacements += 1
                buckets[ptime[nid]].remove(nid)
            ptime[nid] = t
            eff[nid] = value
            if bucket is None:
                bucket = buckets[t] = []
                heappush(self._heap, t)
            bucket.append(nid)

    def settle_power_on(self):
        """Evaluate every gate once from the current state and settle.

        Each gate, in gate order, is seen from its first input, as if that
        input had just committed its present value: the gates of a run
        whose first inputs hold one value make one pseudo-commit, which
        `_run` dispatches as it dispatches a commit's fanout.  A no-op
        for the return-to-zero circuits generated here; needed when a
        netlist contains inverters whose quiescent output is 1 (e.g.
        acknowledge wiring in a closed handshake loop).
        """
        values = self._values
        pseudo = []
        last = None
        for gate in self._gates:
            code, ins, out, delay = gate
            val = values[ins[0]]
            if val != last:
                last = val
                entries = []
                pseudo.append((val, entries))
            entries.append(gate if len(ins) > 2 else (code, ins[-1], out, delay))
        self._trace = []
        self._run(pseudo, self._trace.append)

    # -- engine ------------------------------------------------------

    def run_until_quiescent(self) -> tuple[list[tuple[int, str, int]], int]:
        """Drain the event queue; returns (new trace entries, settle time).

        Raises OscillationError when more than event_cap transitions
        commit in a single call; `now` is then the last commit's time,
        and the sim is spent: the rest of its run is dropped.
        """
        trace = self._trace = []
        return trace, self._run((), trace.append)

    def drain(self) -> int:
        """`run_until_quiescent` without the trace: the same transitions
        commit at the same times, in the same order, and the same
        OscillationError spends the sim, but nothing is recorded and
        `trace` is left empty.  Returns the settle time."""
        self._trace = []
        return self._run((), None)

    def _run(self, pseudo, append) -> int:
        """Dispatch the pseudo-commits `pseudo`, each (value, entries) as
        a commit of that value to a net whose fanout is `entries`, at
        `now`, then drain the event queue, dispatching the fanout of every
        committed net and passing each commit's (time, net name, value) to
        `append` unless it is None.  Returns the settle time.

        A fanout entry (see `_fanout`) of a gate of one or two inputs is
        evaluated from the value that just committed, `val`, and its other
        input; a wider gate's reads every input.  This dispatch is the one
        definition of what each gate kind computes."""
        heap = self._heap
        buckets = self._buckets
        bucket_at = buckets.get
        ptime = self._ptime
        eff = self._eff
        values = self._values
        fanout = self._fanout
        names = self._names
        cap = self.event_cap
        c2, or2, ao22, ao21, c3, and2, inv = _C2, _OR2, _AO22, _AO21, _C3, _AND2, _INV
        commits = 0
        t = settle = self.now
        pseudo = iter(pseudo)
        last, bucket = -1, None  # the time scheduled at last and its list: outputs scheduled in a row often share it
        users = ()
        val = 0
        events = iter(())  # the rest of time t's bucket, which is no longer in `buckets`
        while True:
            for code, b, out, delay in users:  # b: the other input, or a wider gate's inputs
                held = eff[out]
                if code == c2:
                    if val == held or values[b] != val:
                        continue
                    new = val
                elif code == or2:
                    new = val | values[b]
                elif code == ao22:
                    new = (values[b[0]] & values[b[1]]) | (values[b[2]] & values[b[3]])
                elif code == ao21:
                    new = (values[b[0]] & values[b[1]]) | values[b[2]]
                elif code == c3:
                    new = values[b[0]]
                    if new != values[b[1]] or new != values[b[2]]:
                        continue
                elif code == and2:
                    new = val & values[b]
                elif code == inv:
                    new = 1 - val
                else:
                    new = (values[b[0]] & values[b[1]]) | (values[b[2]] & values[b[3]]) | (values[b[4]] & values[b[5]])
                if new != held:
                    if ptime[out] >= 0:
                        self.replacements += 1
                        stale = bucket_at(ptime[out])
                        if stale is not None:  # else it is time t's, skipped when drained
                            stale.remove(out)
                    when = t + delay
                    ptime[out] = when
                    eff[out] = new
                    if when == last:
                        bucket.append(out)
                    else:
                        last = when
                        bucket = bucket_at(when)
                        if bucket is None:
                            bucket = buckets[when] = [out]
                            heappush(heap, when)
                        else:
                            bucket.append(out)
            for net in events:
                if ptime[net] != t:
                    continue  # rescheduled while time t was drained
                ptime[net] = -1
                val = eff[net]
                if values[net] == val:
                    continue
                values[net] = val
                if append is not None:
                    append((t, names[net], val))
                settle = t
                commits += 1
                if commits > cap:
                    self.now = t
                    raise OscillationError(
                        f"no quiescence after {cap} transitions (last: {names[net]} at {t})"
                    )
                users = fanout[net]
                break
            else:
                for val, users in pseudo:
                    break
                else:
                    if not heap:
                        break
                    t = heappop(heap)
                    events = iter(buckets.pop(t))
                    users = ()
        self.now = settle
        return settle


# -- two-wave transactions ------------------------------------------------


@dataclass
class WaveResult:
    """One valid wave then one spacer wave, seen from the output ports.
    The phase faults' times count from the valid wave's start.  `ok` is
    the one test of a good transaction."""

    valid_word: tuple[RailState, ...]  # output ports once the valid wave settled
    spacer_restored: bool           # every output port back at spacer
    forward_latency: int
    reverse_latency: int
    illegal_pairs: list[tuple[int, str]]  # (t, port) with both rails high, sorted
    nonmonotonic: list[tuple[int, str, int]]  # (t, net, value): a valid-wave fall or a spacer-wave rise
    set_trace: list[tuple[int, str, int]] | None = None
    rtz_trace: list[tuple[int, str, int]] | None = None

    @property
    def cycle_time(self) -> int:
        return self.forward_latency + self.reverse_latency

    @property
    def ok(self) -> bool:
        """No illegal pair, no non-monotone transition, a codeword on every
        output port after the valid wave, and the outputs back at spacer."""
        codewords = {RailState.ZERO, RailState.ONE}.issuperset(self.valid_word)
        return codewords and not self.illegal_pairs and not self.nonmonotonic and self.spacer_restored


def drive_transaction(
    sim: Simulation,
    assignments: list[tuple[str, int]],
    output_ports: tuple[str, ...] | list[str],
) -> WaveResult:
    """Apply `assignments` to primary inputs at `sim.now` and settle (the
    valid wave), then return every assigned input to 0 and settle (the
    spacer wave), on the event engine; the record carries both waves'
    traces, in the sim's own times.  Each latency is the time of the last
    transition on any rail of `output_ports`, measured from its wave's
    start, 0 if none moved.  One pass over both traces, from the port
    rails' values at `sim.now`, finds the phase faults: a rise of both
    rails of a port pair, a fall in the valid wave, a rise in the spacer
    wave.  `_WavePlan.run` computes the same record, traces aside, with no
    sim.
    """
    pairs = sim.netlist.port_map
    rail_of = {}
    for port, (r1, r0) in pairs.items():
        rail_of[r1] = (port, r0)
        rail_of[r0] = (port, r1)
    high = {r: sim.net_value(r) for r in rail_of}
    outs = {r for p in output_ports for r in pairs[p]}
    origin = sim.now
    sim.apply_inputs(assignments, at_time=origin)
    set_trace, set_settle = sim.run_until_quiescent()
    valid_word = sim.read_word(output_ports)
    sim.apply_inputs([(net, 0) for net, _ in assignments], at_time=set_settle)
    rtz_trace, _ = sim.run_until_quiescent()
    illegal, nonmonotonic, last = [], [], [origin, set_settle]
    for wave, (trace, expect) in enumerate(((set_trace, 1), (rtz_trace, 0))):
        for t, net, value in trace:
            if value != expect:
                nonmonotonic.append((t - origin, net, value))
            hit = rail_of.get(net)
            if hit is not None:
                high[net] = value
                port, partner = hit
                if value and high[partner]:
                    illegal.append((t - origin, port))
                if net in outs:
                    last[wave] = t
    illegal.sort()
    return WaveResult(
        valid_word=valid_word,
        spacer_restored=all(state is RailState.SPACER for state in sim.read_word(output_ports)),
        forward_latency=last[0] - origin,
        reverse_latency=last[1] - set_settle,
        illegal_pairs=illegal,
        nonmonotonic=nonmonotonic,
        set_trace=set_trace,
        rtz_trace=rtz_trace,
    )


# wave times: a net that never rises in the valid wave, and one that stays
# low through the spacer wave
_NEVER = math.inf
_BEFORE = -math.inf

# two-input node ops of the wave plan
_AND, _OR, _C = range(3)


def _lower(product: int, terms: tuple[tuple[int, ...], ...]):
    """One kind's chain of two-input nodes, each (op, operand, operand):
    `product` combines each term's inputs, and _OR the terms.  Operand k
    below the arity is input k, and operand arity + j is the chain's j-th
    node.  Returns the intermediate nodes and the last node, which drives
    the gate's output."""
    arity = sum(map(len, terms))
    nodes: list[tuple[int, int, int]] = []

    def fold(op, operands):
        acc = operands[0]
        for b in operands[1:]:
            nodes.append((op, acc, b))
            acc = arity + len(nodes) - 1
        return acc

    fold(_OR, [fold(product, term) for term in terms])
    return tuple(nodes[:-1]), nodes[-1]


# GATE_TERMS lowered, by the codes of the compiled gates
_CHAINS = {
    _CODE[kind]: _lower(_C if kind in STATEFUL_KINDS else _AND, terms) for kind, terms in GATE_TERMS.items()
}


class _WavePlan:
    """A netlist's gates (jittered delays included) lowered, each after its
    inputs' drivers, to two-input nodes for evaluating both waves of an
    open-loop transaction, with the nets' slots and the port map.

    From the all-zero state every gate here is monotone, so in the valid
    wave each net rises at most once and in the spacer wave it falls at
    most once.  A gate becomes a chain of nodes: AND nodes combine a term's
    inputs (a node rises at its later input and falls at its earlier one),
    OR nodes combine the terms (rises at the earlier, falls at the later)
    and C nodes a C-element's inputs (rises and falls at the later, and
    falls only if it rose).  Intermediate nodes have delay 0 and are not
    nets; the gate's last node drives its output with the gate's delay.

    Every input that rose falls as the spacer wave starts, so fall times
    are offsets from that start that depend only on which nets rose, and
    one pass computes both waves.  By induction over the topological order
    every net that rose falls again, so the spacer wave always ends at
    rest.  The event engine commits exactly these times, never replaces a
    pending event and never breaks phase monotonicity, so its records
    list no non-monotone transition, only illegal pairs.
    """

    def __init__(self, nodes, slots: int, rails: dict[str, tuple[int, int]], ids: dict[str, int], inputs: dict):
        self.nodes = nodes  # (op, input, input, output slot, delay)
        self.slots = slots  # the nets, then the intermediate nodes
        self.rails = rails  # each port's (rail1 slot, rail0 slot)
        self.ids = ids  # each net's slot
        self.inputs = inputs  # each primary input's slot

    @classmethod
    def build(cls, netlist: Netlist, delay_table: DelayTable) -> _WavePlan:
        """`netlist` compiled as a Simulation with no jitter compiles it,
        then lowered; a jittered plan is `Simulation(..., jitter=).plan`."""
        return cls.lower(*_compile(netlist, delay_table), netlist)

    @classmethod
    def lower(cls, ids: dict[str, int], inputs: dict, gates: list, netlist: Netlist) -> _WavePlan:
        """Lower compiled gates (see `_compile`), each after the drivers of
        its inputs.  Gates listed in order, each reading only primary
        inputs and earlier gates' outputs and driving a net no earlier gate
        drives, as every generator lists them, are emitted in one loop in
        gate order.  Under `_compile`'s interning they are the gates whose
        outputs take the consecutive slots after the primary inputs' and
        none of which reads its own output.  Any other netlist is first put
        in a depth-first post-order (`_depth_first`).  Raises its and
        `_port_rails`' NetlistError, and one for a rail shared by two ports
        or an INV, whose output rises while its input is spacer."""
        first = len(inputs)
        rails = _port_rails(ids, netlist.port_map)
        if [out for _, _, out, _ in gates] != [*range(first, first + len(gates))]:
            gates = _depth_first(gates, ids, first)
        used = [i for pair in rails.values() for i in pair]
        if len(set(used)) < len(used):  # name the first port with a rail of an earlier one
            port = next(p for k, p in enumerate(rails) if not set(used[:2 * k]).isdisjoint(rails[p]))
            raise NetlistError(Violation("shared-rail", port, "shares a rail with an earlier port"))
        chains = _CHAINS
        nodes = []
        slot = len(ids)
        for code, ins, out, delay in gates:
            chain = chains.get(code)
            if chain is None:  # an INV: name the first in gate order
                gid = next(g.gid for g in netlist.gates if g.kind is GateKind.INV)
                raise NetlistError(Violation("inverter", gid, "is an INV, which the wave plan does not cover"))
            if out in ins:  # a gate listed in order that reads its own output
                _depth_first(gates, ids, first)  # which refuses the loop
            inner, (op, a, b) = chain
            operands = ins
            if inner:
                operands = list(ins)
                for iop, ia, ib in inner:
                    nodes.append((iop, operands[ia], operands[ib], slot, 0))
                    operands.append(slot)
                    slot += 1
            nodes.append((op, operands[a], operands[b], out, delay))  # the gate's output, with its delay
        return cls(nodes, slot, rails, ids, inputs)

    def run(self, assignments, output_ports) -> tuple[WaveResult, int]:
        """Both waves of one vector: the record `drive_transaction` returns,
        traces aside, on a sim at rest, and the time the spacer wave
        settles, counted from the valid wave's start."""
        inputs = self.inputs
        out_pairs = [self.rails[p] for p in output_ports]
        out_rails = [i for pair in out_pairs for i in pair]
        never, before, and_, or_ = _NEVER, _BEFORE, _AND, _OR

        rise = [never] * self.slots
        fall = [before] * self.slots  # offsets from the spacer wave's start
        for net, value in assignments:
            # the last value wins, as in apply_inputs; an input that rose falls as the spacer wave starts
            nid = inputs[net]
            rise[nid], fall[nid] = (0, 0) if value else (never, before)
        for op, a, b, out, delay in self.nodes:
            ra = rise[a]
            rb = rise[b]
            fa = fall[a]
            fb = fall[b]
            if op == and_:
                rise[out] = (ra if ra > rb else rb) + delay
                fall[out] = (fa if fa < fb else fb) + delay
            elif op == or_:
                rise[out] = (ra if ra < rb else rb) + delay
                fall[out] = (fa if fa > fb else fb) + delay
            else:
                t = ra if ra > rb else rb
                rise[out] = t + delay
                fall[out] = (fa if fa > fb else fb) + delay if t != never else before

        # each wave settles at its last net; intermediate nodes are not nets
        nets = len(self.ids)
        rtz_origin = max(filter(never.__gt__, rise[:nets]), default=0)
        illegal = sorted(
            (max(rise[i1], rise[i0]), port)
            for port, (i1, i0) in self.rails.items()
            if rise[i1] != never and rise[i0] != never
        )
        waves = WaveResult(
            valid_word=tuple(PAIR_STATE[rise[i1] != never, rise[i0] != never] for i1, i0 in out_pairs),
            spacer_restored=True,
            forward_latency=max((rise[i] for i in out_rails if rise[i] != never), default=0),
            reverse_latency=max((fall[i] for i in out_rails if fall[i] != before), default=0),
            illegal_pairs=illegal,
            nonmonotonic=[],
        )
        return waves, rtz_origin + max(0, max(fall[:nets], default=0))

    def levels(self, held: list[int], high: dict[str, int]) -> list[int]:
        """Which slots are high once a settled block of vectors takes new
        input levels, with no times; bit v of each int stands for vector v.
        `held` is the settled slot masks, `[0] * slots` for spacer.  Each
        primary input named in `high` takes its mask and every other input
        keeps its held level; each node then settles as AND `a & b`, OR
        `a | b` and C `a & b | held[out] & (a | b)`, the Muller C-element's
        next-state equation.  From spacer these are the valid waves; from a
        valid state with some inputs lowered, where their spacer waves stop."""
        level = list(held)
        inputs = self.inputs
        for net, mask in high.items():
            level[inputs[net]] = mask
        or_, c_ = _OR, _C
        for op, a, b, out, _ in self.nodes:
            if op == or_:
                level[out] = level[a] | level[b]
            elif op == c_ and held[out]:
                level[out] = level[a] & level[b] | held[out] & (level[a] | level[b])
            else:  # an AND node, or a C node that held 0 in every vector, whose equation is then a & b
                level[out] = level[a] & level[b]
        return level

    def faults(self, rose: list[int], ports) -> int:
        """Bit v set when, in vector v, some port pair has both rails high
        or a port in `ports` does not have exactly one rail high: the block
        form of `WaveResult.ok`'s valid-word test, given which slots rose
        (a `levels` result from spacer or the first list of `times`).  The
        block's vectors are those in which some primary input rose."""
        block = bad = 0
        for i in self.inputs.values():
            block |= rose[i]
        for i1, i0 in self.rails.values():
            bad |= rose[i1] & rose[i0]
        for port in ports:
            i1, i0 = self.rails[port]
            bad |= block & ~(rose[i1] ^ rose[i0])
        return bad

    def times(self, masks: dict[str, int]) -> tuple[list[int], list[list], list[list]]:
        """`run`'s times for a block of vectors at once.  Bit v of
        `masks[net]` is set when primary input `net` rises in vector v; it
        rises at 0 in its vectors and falls at 0, the spacer wave's start.
        Returns (rose, rise, high): rose[i] is the mask of the vectors in
        which slot i rises, as `levels` from spacer gives it, and rise and
        high hold a step function per slot, a list of (t, mask) with t
        increasing.  Bit v of rise[i]'s mask is set when
        slot i has risen by t in vector v, from 0 before its first step.
        high[i] is the dual over offsets from the spacer wave's start: bit
        v is set while slot i is still high in vector v, from rose[i]
        before its first step, so a slot that never rose is never high and
        needs no case of its own.

        Each node combines its inputs over the union of their steps,
        shifted by its delay: AND and C nodes rise on `&` and OR nodes on
        `|`; an AND node stays high on `&` (falls at its earlier input),
        OR and C nodes on `|`, a C node only where it rose.  A node that
        rises in no vector (`rose[a] | rose[b]` is 0 for an OR node,
        `rose[a] & rose[b]` for an AND or C node) is skipped: rise masks
        only gain bits and a slot is high only where it rose, so both its
        step functions are empty, as they start."""
        rise: list[list] = [[] for _ in range(self.slots)]
        high: list[list] = [[] for _ in range(self.slots)]
        rose = [0] * self.slots
        for net, mask in masks.items():
            nid = self.inputs[net]
            rose[nid] = mask
            rise[nid], high[nid] = ([(0, mask)], [(0, 0)]) if mask else ([], [])
        and_, or_ = _AND, _OR
        for op, a, b, out, delay in self.nodes:
            ra = rose[a]
            rb = rose[b]
            last = ra | rb if op == or_ else ra & rb  # the mask its rise steps end at
            if not last:
                continue  # rises in no vector: both step functions stay empty
            rose[out] = last
            rise[out] = _steps(rise[a], 0, rise[b], 0, op != or_, delay)
            if op == and_:
                high[out] = _steps(high[a], ra, high[b], rb, True, delay)
            else:  # an OR node is high only where it rose anyway
                high[out] = _steps(high[a], ra, high[b], rb, False, delay, last)
        return rose, rise, high


def _steps(a: list, a0: int, b: list, b0: int, meet: bool, delay: int, keep: int = -1) -> list:
    """Step functions `a` and `b`, valued `a0` and `b0` before their first
    steps, combined by `&` (meet) or `|`, masked by `keep` and shifted by
    `delay`: the steps where the combined value changes."""
    out = []
    va, vb = a0, b0
    last = (va & vb if meet else va | vb) & keep
    i = j = 0
    na, nb = len(a), len(b)
    never = _NEVER
    while i < na or j < nb:
        ta = a[i][0] if i < na else never
        tb = b[j][0] if j < nb else never
        t = ta if ta < tb else tb
        if ta == t:
            va = a[i][1]
            i += 1
        if tb == t:
            vb = b[j][1]
            j += 1
        v = (va & vb if meet else va | vb) & keep
        if v != last:
            out.append((t + delay, v))
            last = v
    return out
