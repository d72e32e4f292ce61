"""Deterministic discrete-event simulation with transport delays.

Every net starts at 0, the global spacer/reset state.  A committed
transition re-evaluates the fanout gates and schedules each changed
output at `now + delay(kind)`.  Events commit in (time, scheduling)
order, so repeated runs of the same stimulus produce identical traces.
The queue is a calendar of net ids: a heap holds each distinct pending
time once, a per-time list holds the nets pending at that time in
scheduling order, and each net has one pending time and one pending
value.  Every delay is at least 1, so a time's list never grows while it
is drained; one heap operation serves all the events of one time.
Scheduling a different value for a net that is already pending replaces
the pending event: the net leaves its old time's list (or, when that time
is being drained, is skipped there, its pending time no longer matching)
and joins the new time's list at the end.  A replacement is counted as a
diagnostic, a case that monotone handshake stimuli never trigger.

C-element state is the effective value of its output net (pending event
if one exists, settled value otherwise), which coincides with the
all-zero power-on state required of return-to-zero circuits.

`drive_transaction` runs one valid wave and one spacer wave.  When the
netlist has no INV and no cycle and the simulation rests at all-spacer,
every net moves at most once per wave, in one direction, so both waves
are one min/max-plus pass over the gates lowered to two-input AND, OR and
C-element nodes in topological order (`_WavePlan`).  On bit masks the
same nodes give, for a block of vectors at once, which nets rise
(`rises`), which stay high once some inputs fall (`falls`) and, on step
functions of masks, when each net rises and falls (`times`).  The plan is
compiled straight from a netlist (`_WavePlan.build`); the event engine is
built only where it runs, and it stays the reference the plan is tested
against.
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable

from .cells import DelayTable
from .dualrail import PAIR_STATE, RailState
from .netlist import GATE_ARITY, GATE_TERMS, STATEFUL_KINDS, GateKind, Netlist

# dispatch codes ordered by frequency in the generated circuits
_C2, _OR2, _AO22, _AO21, _C3, _AND2, _INV, _AO222 = range(8)
_CODE = {GateKind[name]: code for code, name in enumerate("C2 OR2 AO22 AO21 C3 AND2 INV AO222".split())}


class Phase(enum.Enum):
    SET = "SET"    # valid-data wave: every transition must rise
    RTZ = "RTZ"    # spacer wave: every transition must fall


class OscillationError(RuntimeError):
    pass


class SimulationError(RuntimeError):
    pass


@dataclass
class PhaseCheckReport:
    nonmonotonic: list[tuple[int, str, int]] = field(default_factory=list)
    illegal_pairs: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.nonmonotonic and not self.illegal_pairs


class _Inputs(dict):
    """Each primary input's slot; looking up any other net raises."""

    def __missing__(self, net):
        raise SimulationError(f"{net!r} is not a primary input")


def _compile(netlist: Netlist, delay_table: DelayTable, jitter: int = 0, jitter_seed: int = 1):
    """(ids, inputs, gates, fanout) for the event engine and the wave plan:
    each net's slot (primary inputs first, then each gate's inputs and
    output, then primary outputs), each primary input's slot, each gate as
    (code, input slots, output slot, delay plus jitter drawn in gate order),
    and each net's users in gate order, once per gate: the engine's tie order."""
    rng = random.Random(jitter_seed) if jitter else None
    ids: dict[str, int] = {}
    intern = ids.setdefault
    for net in netlist.primary_inputs:
        intern(net, len(ids))
    inputs = _Inputs(ids)
    kinds = {kind: (_CODE[kind], GATE_ARITY[kind], delay_table[kind]) for kind in GateKind}
    gates = []
    for g in netlist.gates:
        compiled = kinds.get(g.kind)
        if compiled is None:
            raise SimulationError(f"gate {g.gid!r} has unknown kind {g.kind!r}")
        code, arity, delay = compiled
        if len(g.inputs) != arity:
            raise SimulationError(f"gate {g.gid!r} ({g.kind.value}) takes {arity} inputs, got {len(g.inputs)}")
        if rng is not None:
            delay += rng.randint(0, jitter)
        ins = []
        for net in g.inputs:
            ins.append(intern(net, len(ids)))
        gates.append((code, tuple(ins), intern(g.output, len(ids)), delay))
    for net in netlist.primary_outputs:
        intern(net, len(ids))
    fanout: list[list[int]] = [[] for _ in ids]
    for gi, (_, ins, _, _) in enumerate(gates):
        for net in ins:
            users = fanout[net]
            if not users or users[-1] != gi:
                users.append(gi)
    return ids, inputs, gates, fanout


class Simulation:
    """One confined simulation instance over a compiled netlist.

    The netlist itself is never mutated; many instances can simulate the
    same netlist concurrently.

    `jitter` adds a seeded per-gate-instance uniform delay in [0, jitter]
    on top of the table, for robustness experiments; delay-insensitive
    circuits must keep functioning under it.  All calibrated timing runs
    use jitter=0.
    """

    def __init__(
        self,
        netlist: Netlist,
        delay_table: DelayTable,
        event_cap: int = 1_000_000,
        jitter: int = 0,
        jitter_seed: int = 1,
    ):
        self.netlist = netlist
        self.event_cap = event_cap
        self._ids, self._inputs, self._gates, fanout = _compile(netlist, delay_table, jitter, jitter_seed)
        self._names = list(self._ids)
        self._fanout = [tuple(f) for f in fanout]
        self.reset()

    @cached_property
    def plan(self) -> _WavePlan | None:
        """The wave plan of this sim's own compiled gates, lowered on first
        use and kept across `reset`; None when the netlist admits none."""
        return _WavePlan.lower(self._ids, self._inputs, self._gates, self._fanout, self.netlist.port_map)

    def reset(self):
        """Return to the state of a fresh instance: every net 0, nothing
        pending, time 0 (call `settle_power_on` again if the netlist needs
        it).  The interned gates, their jittered delays and the wave plan
        are kept, so a netlist is compiled once however often it is run."""
        nets = len(self._names)
        self._values = [0] * nets
        self._ptime = [-1] * nets  # time of the net's pending event, -1 if none
        self._eff = [0] * nets     # pending value if an event is pending, else the settled value
        self._heap: list[int] = []  # the distinct times that have queued events
        self._buckets: dict[int, list[int]] = {}  # time -> the nets pending then, in scheduling order
        self._resume: tuple[int, ...] = ()  # fanout of the commit an OscillationError cut off
        self._trace: list[tuple[int, str, int]] = []
        self.now = 0
        self.replacements = 0

    # -- state access ------------------------------------------------

    def net_value(self, net: str) -> int:
        return self._values[self._ids[net]]

    def pair_value(self, port: str) -> RailState:
        r1, r0 = self.netlist.port_map[port]
        return PAIR_STATE[self.net_value(r1), self.net_value(r0)]

    def read_word(self, ports: Iterable[str]) -> tuple[RailState, ...]:
        return tuple(self.pair_value(p) for p in ports)

    @property
    def trace(self) -> list[tuple[int, str, int]]:
        """Transitions committed by the latest `run_until_quiescent` call;
        empty after a transaction the wave plan evaluated."""
        return list(self._trace)

    # -- stimulus ----------------------------------------------------

    def apply_inputs(self, assignments: Iterable[tuple[str, int]], at_time: int | None = None):
        """Schedule primary-input transitions; same-value entries are dropped."""
        t = self.now if at_time is None else at_time
        if t < self.now:
            raise SimulationError(f"cannot apply inputs at {t}, already settled at {self.now}")
        ptime, eff, buckets = self._ptime, self._eff, self._buckets
        bucket = buckets.get(t)
        for net, value in assignments:
            nid = self._inputs[net]
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
        """Evaluate every gate once from the all-zero state and settle.

        A no-op for the return-to-zero circuits generated here; needed
        when a netlist contains inverters whose quiescent output is 1
        (e.g. acknowledge wiring in a closed handshake loop).
        """
        self._run(range(len(self._gates)))

    # -- engine ------------------------------------------------------

    def run_until_quiescent(self) -> tuple[list[tuple[int, str, int]], int]:
        """Drain the event queue; returns (new trace entries, settle time).

        Raises OscillationError when more than event_cap transitions
        commit in a single call; `now` is then the last commit's time,
        and the next call resumes with that commit's fanout.
        """
        return self._run(self._resume)

    def _run(self, users) -> tuple[list[tuple[int, str, int]], int]:
        """Evaluate the gates indexed by `users` at `now`, then drain the
        event queue, re-evaluating the fanout of every committed net.
        This loop is the one definition of what each gate kind computes."""
        heap = self._heap
        buckets = self._buckets
        bucket_at = buckets.get
        ptime = self._ptime
        eff = self._eff
        values = self._values
        gates = self._gates
        fanout = self._fanout
        names = self._names
        trace = self._trace = []
        self._resume = ()
        append = trace.append
        cap = self.event_cap
        commits = 0
        t = settle = self.now
        events = iter(())  # the rest of time t's bucket, which is no longer in `buckets`
        while True:
            for gi in users:
                code, ins, out, delay = gates[gi]
                held = eff[out]
                if code == _C2:
                    a = values[ins[0]]
                    new = a if a == values[ins[1]] else held
                elif code == _OR2:
                    new = values[ins[0]] | values[ins[1]]
                elif code == _AO22:
                    new = (values[ins[0]] & values[ins[1]]) | (values[ins[2]] & values[ins[3]])
                elif code == _AO21:
                    new = (values[ins[0]] & values[ins[1]]) | values[ins[2]]
                elif code == _C3:
                    a = values[ins[0]]
                    new = a if a == values[ins[1]] == values[ins[2]] else held
                elif code == _AND2:
                    new = values[ins[0]] & values[ins[1]]
                elif code == _INV:
                    new = 1 - values[ins[0]]
                else:
                    new = (
                        (values[ins[0]] & values[ins[1]])
                        | (values[ins[2]] & values[ins[3]])
                        | (values[ins[4]] & values[ins[5]])
                    )
                if new != held:
                    if ptime[out] >= 0:
                        self.replacements += 1
                        stale = bucket_at(ptime[out])
                        if stale is not None:  # else it is time t's, skipped when drained
                            stale.remove(out)
                    when = t + delay
                    ptime[out] = when
                    eff[out] = new
                    bucket = bucket_at(when)
                    if bucket is None:
                        buckets[when] = [out]
                        heappush(heap, when)
                    else:
                        bucket.append(out)
            users = ()
            for net in events:
                if ptime[net] != t:
                    continue  # rescheduled while time t was drained
                ptime[net] = -1
                val = eff[net]
                if values[net] == val:
                    continue
                values[net] = val
                append((t, names[net], val))
                settle = t
                commits += 1
                if commits > cap:
                    self.now = t
                    self._resume = fanout[net]
                    # requeue the nets still pending in the undrained rest of time t,
                    # so a later call resumes here
                    rest = [n for n in events if ptime[n] == t]
                    if rest:
                        buckets[t] = rest
                        heappush(heap, t)
                    raise OscillationError(
                        f"no quiescence after {cap} transitions (last: {names[net]} at {t})"
                    )
                users = fanout[net]
                break
            else:
                if not heap:
                    break
                t = heappop(heap)
                events = iter(buckets.pop(t))
        self.now = settle
        return trace, settle


def check_phase(
    trace: list[tuple[int, str, int]],
    phase: Phase,
    pairs: dict[str, tuple[str, str]] | None = None,
    initial_rails: dict[str, int] | None = None,
) -> PhaseCheckReport:
    """Verify handshake discipline over one phase trace.

    SET allows only rising transitions, RTZ only falling
    ones, and no port pair may ever show both rails high.  `initial_rails`
    gives the pair-rail values at the start of the phase (0 if omitted).
    """
    report = PhaseCheckReport()
    expect = 1 if phase is Phase.SET else 0
    rail_of: dict[str, tuple[str, str]] = {}
    rail_values: dict[str, int] = {}
    if pairs:
        for port, (r1, r0) in pairs.items():
            rail_of[r1] = (port, r0)
            rail_of[r0] = (port, r1)
            rail_values[r1] = initial_rails.get(r1, 0) if initial_rails else 0
            rail_values[r0] = initial_rails.get(r0, 0) if initial_rails else 0
    for t, net, value in trace:
        if value != expect:
            report.nonmonotonic.append((t, net, value))
        hit = rail_of.get(net)
        if hit is not None:
            rail_values[net] = value
            port, partner = hit
            if value and rail_values[partner]:
                report.illegal_pairs.append((t, port))
    return report


# -- two-wave transactions ------------------------------------------------


@dataclass
class WaveResult:
    """One valid wave then one spacer wave, seen from the output ports."""

    valid_word: tuple[RailState, ...]  # output ports once the valid wave settled
    spacer_restored: bool           # every output port back at spacer
    forward_latency: int
    reverse_latency: int
    set_report: PhaseCheckReport
    rtz_report: PhaseCheckReport
    set_trace: list[tuple[int, str, int]] | None = None
    rtz_trace: list[tuple[int, str, int]] | None = None

    @property
    def cycle_time(self) -> int:
        return self.forward_latency + self.reverse_latency

    @property
    def ok(self) -> bool:
        """Both phase checks passed and the outputs are back at spacer."""
        return self.set_report.ok and self.rtz_report.ok and self.spacer_restored


def drive_transaction(
    sim: Simulation,
    assignments: list[tuple[str, int]],
    output_ports: tuple[str, ...] | list[str],
    keep_traces: bool = False,
) -> WaveResult:
    """Apply `assignments` to primary inputs at `sim.now` and settle (the
    valid wave), then return every assigned input to 0 and settle (the
    spacer wave).  Each latency is the time of the last transition on any
    rail of `output_ports`, measured from its wave's start, 0 if none moved.

    The wave plan evaluates both waves when the netlist admits one, no
    traces are kept, the sim rests at all-spacer with nothing pending and
    `event_cap` is at least the net count (a wave commits once per net at
    most); otherwise the event engine runs them, with the same result.
    """
    if not keep_traces and sim.event_cap >= len(sim._names) and not sim._heap and not any(sim._values):
        plan = sim.plan
        if plan is not None:
            waves, sim.now = plan.run(assignments, output_ports, sim.now)
            sim._trace = []
            return waves
    pairs = sim.netlist.port_map
    rails = {r for p in output_ports for r in pairs[p]}
    origin = sim.now
    sim.apply_inputs(assignments, at_time=origin)
    set_trace, set_settle = sim.run_until_quiescent()
    set_report = check_phase(set_trace, Phase.SET, pairs=pairs)
    valid_word = sim.read_word(output_ports)
    initial = {r: sim.net_value(r) for pair in pairs.values() for r in pair}
    sim.apply_inputs([(net, 0) for net, _ in assignments], at_time=set_settle)
    rtz_trace, _ = sim.run_until_quiescent()
    rtz_report = check_phase(rtz_trace, Phase.RTZ, pairs=pairs, initial_rails=initial)
    return WaveResult(
        valid_word=valid_word,
        spacer_restored=all(sim.pair_value(p) is RailState.SPACER for p in output_ports),
        forward_latency=_latency(set_trace, rails, origin),
        reverse_latency=_latency(rtz_trace, rails, set_settle),
        set_report=set_report,
        rtz_report=rtz_report,
        set_trace=set_trace if keep_traces else None,
        rtz_trace=rtz_trace if keep_traces else None,
    )


def _latency(trace: list[tuple[int, str, int]], rails: set[str], origin: int) -> int:
    times = [t for t, net, _ in trace if net in rails]
    return max(times) - origin if times else 0


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
    """A netlist's gates (jittered delays included) lowered, in
    topological order, to two-input nodes for evaluating both waves of an
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
    pending event and never breaks phase monotonicity, so only illegal
    pairs can appear in the phase reports.
    """

    def __init__(self, nodes, slots: int, pairs: list[tuple[str, int, int]], ids: dict[str, int], inputs: _Inputs):
        self.nodes = nodes  # (op, input, input, output slot, delay)
        self.slots = slots  # the nets, then the intermediate nodes
        self.pairs = pairs  # (port, rail1 slot, rail0 slot)
        self.rails = {port: (i1, i0) for port, i1, i0 in pairs}
        self.ids = ids  # each net's slot
        self.inputs = inputs  # each primary input's slot

    @classmethod
    def build(cls, netlist: Netlist, delay_table: DelayTable, jitter=0, jitter_seed=1) -> _WavePlan | None:
        """`netlist` compiled as a Simulation compiles it, then lowered."""
        return cls.lower(*_compile(netlist, delay_table, jitter, jitter_seed), netlist.port_map)

    @classmethod
    def lower(cls, ids: dict[str, int], inputs: _Inputs, gates: list, fanout, port_map) -> _WavePlan | None:
        """Lower compiled gates (see `_compile`).  None for a netlist the
        algebra does not cover: an INV (its output rises while its input is
        spacer), a cycle, a net with two drivers or a driven primary input,
        or a port map that shares a rail or names an unknown net."""
        driven: set[int] = set()
        waiting = [0] * len(gates)  # each gate's driven inputs not yet ordered
        for code, _, out, _ in gates:
            if code not in _CHAINS or out in driven or out < len(inputs):
                return None
            driven.add(out)
            for user in fanout[out]:
                waiting[user] += 1
        pairs = [(port, ids.get(r1), ids.get(r0)) for port, (r1, r0) in port_map.items()]
        rails = [i for _, i1, i0 in pairs for i in (i1, i0)]
        if None in rails or len(set(rails)) < len(rails):  # an unknown net, or a shared rail
            return None
        # Kahn's algorithm over the gates, lowering each as it is ordered;
        # a gate still waiting at the end sits on or behind a cycle
        ready = [gi for gi, w in enumerate(waiting) if w == 0]
        nodes = []
        slot = len(ids)
        while ready:
            code, ins, out, delay = gates[ready.pop()]
            for user in fanout[out]:
                waiting[user] -= 1
                if waiting[user] == 0:
                    ready.append(user)
            inner, last = _CHAINS[code]
            operands = list(ins)
            for op, a, b in inner:
                nodes.append((op, operands[a], operands[b], slot, 0))
                operands.append(slot)
                slot += 1
            op, a, b = last  # drives the gate's output, with the gate's delay
            nodes.append((op, operands[a], operands[b], out, delay))
        return None if any(waiting) else cls(nodes, slot, pairs, ids, inputs)

    def run(self, assignments, output_ports, origin: int = 0) -> tuple[WaveResult, int]:
        """Both waves of one vector, the valid wave starting at `origin`;
        returns the WaveResult and the time the spacer wave settles."""
        inputs = self.inputs
        out_pairs = [self.rails[p] for p in output_ports]
        out_rails = [i for pair in out_pairs for i in pair]
        never, before, and_, or_ = _NEVER, _BEFORE, _AND, _OR

        rise = [never] * self.slots
        fall = [before] * self.slots  # offsets from the spacer wave's start
        for net, value in assignments:
            # the last value wins, as in apply_inputs; an input that rose falls as the spacer wave starts
            nid = inputs[net]
            rise[nid], fall[nid] = (origin, 0) if value else (never, before)
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
        rtz_origin = max(filter(never.__gt__, rise[:nets]), default=origin)
        illegal = sorted(
            (max(rise[i1], rise[i0]), port)
            for port, i1, i0 in self.pairs
            if rise[i1] != never and rise[i0] != never
        )
        waves = WaveResult(
            valid_word=tuple(PAIR_STATE[rise[i1] != never, rise[i0] != never] for i1, i0 in out_pairs),
            spacer_restored=True,
            forward_latency=max((rise[i] for i in out_rails if rise[i] != never), default=origin) - origin,
            reverse_latency=max((fall[i] for i in out_rails if fall[i] != before), default=0),
            set_report=PhaseCheckReport(illegal_pairs=illegal),
            rtz_report=PhaseCheckReport(),
        )
        return waves, rtz_origin + max(0, max(fall[:nets], default=0))

    def rises(self, masks: dict[str, int]) -> list[int]:
        """Which slots rise in the valid waves of a block of vectors, with
        no times: `masks` maps primary inputs to an int whose bit v is set
        when that input rises in vector v, and bit v of the returned slot
        i is set when slot i rises in vector v.  A node rises when both
        inputs rise (AND, C) or either does (OR), as in `run`."""
        rise = [0] * self.slots
        for net, mask in masks.items():
            rise[self.inputs[net]] = mask
        or_ = _OR
        for op, a, b, out, _ in self.nodes:
            rise[out] = rise[a] | rise[b] if op == or_ else rise[a] & rise[b]
        return rise

    def illegal(self, rose: list[int]) -> int:
        """Bit v set when some port pair has both rails risen in vector v,
        given which slots rose: a `rises` result or the first list of
        `times`."""
        bad = 0
        for i1, i0 in self.rails.values():
            bad |= rose[i1] & rose[i0]
        return bad

    def falls(self, rise: list[int], masks: dict[str, int]) -> list[int]:
        """Which slots are still high once some inputs of settled valid
        waves fall, with no times: `rise` is a `rises` result, and bit v
        of `masks[net]` is set when primary input `net` falls in vector v.
        An AND node falls on either input and an OR or C node on both, a
        C node only where it rose; the rest of `rise` stays high."""
        high = list(rise)
        for net, mask in masks.items():
            high[self.inputs[net]] &= ~mask
        and_, or_ = _AND, _OR
        for op, a, b, out, _ in self.nodes:
            if op == and_:
                high[out] = high[a] & high[b]
            elif op == or_:
                high[out] = high[a] | high[b]
            else:
                high[out] = (high[a] | high[b]) & rise[out]
        return high

    def times(self, masks: dict[str, int]) -> tuple[list[int], list[list], list[list]]:
        """`run`'s times for a block of vectors at once.  `masks` is as
        for `rises`; an input rises at 0 in its vectors and falls at 0, the
        spacer wave's start.  Returns (rose, rise, high): rose[i] is the
        mask of the vectors in which slot i rises, as `rises` gives it,
        and rise and high hold a step function per slot, a list of
        (t, mask) with t increasing.  Bit v of rise[i]'s mask is set when
        slot i has risen by t in vector v, from 0 before its first step.
        high[i] is the dual over offsets from the spacer wave's start: bit
        v is set while slot i is still high in vector v, from rose[i]
        before its first step, so a slot that never rose is never high and
        needs no case of its own.

        Each node combines its inputs over the union of their steps,
        shifted by its delay: AND and C nodes rise on `&` and OR nodes on
        `|`; an AND node stays high on `&` (falls at its earlier input),
        OR and C nodes on `|`, a C node only where it rose."""
        rise: list[list] = [[] for _ in range(self.slots)]
        high: list[list] = [[] for _ in range(self.slots)]
        rose = [0] * self.slots
        for net, mask in masks.items():
            nid = self.inputs[net]
            rose[nid] = mask
            rise[nid], high[nid] = ([(0, mask)], [(0, 0)]) if mask else ([], [])
        and_, or_ = _AND, _OR
        for op, a, b, out, delay in self.nodes:
            rise[out] = r = _steps(rise[a], 0, rise[b], 0, op != or_, delay)
            rose[out] = last = r[-1][1] if r else 0
            if op == and_:
                high[out] = _steps(high[a], rose[a], high[b], rose[b], True, delay)
            else:  # an OR node is high only where it rose anyway
                high[out] = _steps(high[a], rose[a], high[b], rose[b], False, delay, last)
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
