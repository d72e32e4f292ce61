"""A reference event engine: the simulator's semantics over one heap of
(time, sequence, net, value) events.

Every scheduled event gets the next sequence number, and a net's pending
event is the one whose number it records; an older entry for the net is
stale and skipped when it pops.  Events commit in (time, sequence) order.
Gates are evaluated from `GATE_TERMS` and `STATEFUL_KINDS` (INV aside),
by net name, so the engine shares no compiled form with `Simulation`.
"""
import random
from heapq import heappop, heappush

from qdisim.netlist import GATE_TERMS, STATEFUL_KINDS, GateKind
from qdisim.sim import OscillationError, SimulationError


class ReferenceSim:
    def __init__(self, netlist, delay_table, event_cap=1_000_000, jitter=0, jitter_seed=1):
        rng = random.Random(jitter_seed) if jitter else None
        self.gates = []  # (kind, inputs, output, delay), jitter drawn in gate order
        self.users: dict[str, list[int]] = {}  # each net's gates, in gate order, once per gate
        for gi, g in enumerate(netlist.gates):
            delay = delay_table[g.kind] + (rng.randint(0, jitter) if rng else 0)
            self.gates.append((g.kind, g.inputs, g.output, delay))
            for net in dict.fromkeys(g.inputs):
                self.users.setdefault(net, []).append(gi)
        self.inputs = set(netlist.primary_inputs)
        self.event_cap = event_cap
        self.values: dict[str, int] = {}
        self.pending: dict[str, tuple[int, int]] = {}  # net -> (sequence, value)
        self.heap: list[tuple[int, int, str, int]] = []
        self.seq = 0
        self.trace: list[tuple[int, str, int]] = []
        self.now = 0
        self.replacements = 0

    def net_value(self, net):
        return self.values.get(net, 0)

    def _effective(self, net):
        pending = self.pending.get(net)
        return self.net_value(net) if pending is None else pending[1]

    def _schedule(self, net, value, when):
        if net in self.pending:
            self.replacements += 1
        self.seq += 1
        self.pending[net] = (self.seq, value)
        heappush(self.heap, (when, self.seq, net, value))

    def apply_inputs(self, assignments, at_time=None):
        t = self.now if at_time is None else at_time
        if t < self.now:
            raise SimulationError(f"cannot apply inputs at {t}, already settled at {self.now}")
        for net, value in assignments:
            if net not in self.inputs:
                raise SimulationError(f"{net!r} is not a primary input")
            if value != self._effective(net):
                self._schedule(net, value, t)

    def _evaluate(self, gi):
        kind, ins, out, _ = self.gates[gi]
        values = [self.net_value(net) for net in ins]
        if kind is GateKind.INV:
            return 1 - values[0]
        if kind in STATEFUL_KINDS:
            (term,) = GATE_TERMS[kind]
            agreed = {values[i] for i in term}
            return agreed.pop() if len(agreed) == 1 else self._effective(out)
        return int(any(all(values[i] for i in term) for term in GATE_TERMS[kind]))

    def settle_power_on(self):
        return self._run(range(len(self.gates)))

    def run_until_quiescent(self):
        return self._run(())

    def _run(self, users):
        self.trace = []
        t = settle = self.now
        commits = 0
        while True:
            for gi in users:
                _, _, out, delay = self.gates[gi]
                new = self._evaluate(gi)
                if new != self._effective(out):
                    self._schedule(out, new, t + delay)
            users = ()
            while self.heap:
                when, seq, net, value = heappop(self.heap)
                pending = self.pending.get(net)
                if pending is None or pending[0] != seq:
                    continue  # stale: the net was rescheduled
                del self.pending[net]
                t = when
                if self.net_value(net) == value:
                    continue
                self.values[net] = value
                self.trace.append((t, net, value))
                settle = t
                commits += 1
                if commits > self.event_cap:
                    self.now = t
                    raise OscillationError(f"no quiescence after {self.event_cap} transitions (last: {net} at {t})")
                users = self.users.get(net, ())
                break
            else:
                break
        self.now = settle
        return list(self.trace), settle
