"""How fast the host runs the simulator's kind of code right now.

The benchmark runs on virtual machines that share their host with other
tenants.  There the same code can take up to 1.8x longer for seconds or
minutes at a time, in CPU time as much as in wall time, so it is not
the scheduler: the host runs Python more slowly.  A fixed probe, run
between the workload's operations, slows down with it.  Dividing an
operation's host time by the probe's time around that moment, and
multiplying by the probe's time on a quiet reference host, gives the
operation's time at the reference host's speed.  qdisim never runs
inside the probe, so a change to qdisim moves the scaled times exactly
as it moves the raw ones.

The probe is a small event-driven gate simulation written here, of the
same kind as qdisim's engine: a heap of event tuples, a dictionary of
pending events, and net values read through a fan-out table spread over
a few megabytes.  A tiny, cache-resident loop tracked the workloads'
slow spells much worse.  The probe's netlist is held in arrays, which
the garbage collector does not track; the probe runs with the collector
paused and frees all it allocates, so it neither absorbs nor shifts the
workload's collections.  Each probe does exactly the same work.
"""
from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from array import array

PROBE_EVENTS = 1000   # value changes committed by one probe
REFERENCE_MS = 3.4    # the probe's median time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11)
GAP_S = 0.2           # least host time between two probes during a pass
WINDOW = 2            # an operation is scaled by the median of this many probes on each side of it

_INPUTS = 256
_GATES = 30_000


def _netlist():
    """A fixed random netlist of 2-input OR/AND/XOR gates, as flat arrays."""
    rng = random.Random(7)
    nets = _INPUTS + _GATES
    code, in0, in1, delay = array("b"), array("l"), array("l"), array("b")
    fans: list[list[int]] = [[] for _ in range(nets)]
    for g in range(_GATES):
        out = _INPUTS + g
        a, b = rng.randrange(out), rng.randrange(max(0, out - 2000), out)
        code.append(rng.randrange(3))
        in0.append(a)
        in1.append(b)
        delay.append(1 + rng.randrange(4))
        fans[a].append(g)
        fans[b].append(g)
    # fan-out in compressed rows: the gates driven by net n are fan[start[n]:start[n + 1]]
    start, fan = array("l", [0]), array("l")
    for gates in fans:
        fan.extend(gates)
        start.append(len(fan))
    return code, in0, in1, delay, start, fan


_net = None  # built on the first probe, outside any timed set-up


def probe() -> float:
    """Run the probe once; returns its host time in ms."""
    global _net
    if _net is None:
        _net = _netlist()
    code, in0, in1, delay, start, fan = _net
    values = bytearray(_INPUTS + _GATES)
    heap: list = []
    pending: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seq = 0
        for net in range(0, _INPUTS, 2):
            seq += 1
            pending[net] = (seq, 1)
            push(heap, (0, seq, net, 1))
        commits = 0
        while heap and commits < PROBE_EVENTS:
            t, s, net, val = pop(heap)
            p = pending.get(net)
            if p is None or p[0] != s:
                continue
            del pending[net]
            if values[net] == val:
                continue
            values[net] = val
            commits += 1
            for i in range(start[net], start[net + 1]):
                g = fan[i]
                out = _INPUTS + g
                c = code[g]
                if c == 0:
                    new = values[in0[g]] | values[in1[g]]
                elif c == 1:
                    new = values[in0[g]] & values[in1[g]]
                else:
                    new = values[in0[g]] ^ values[in1[g]]
                pout = pending.get(out)
                if new != (pout[1] if pout is not None else values[out]):
                    seq += 1
                    pending[out] = (seq, new)
                    push(heap, (t + delay[g], seq, out, new))
        elapsed = time.perf_counter() - t0
        heap.clear()
        pending.clear()
    finally:
        if enabled:
            gc.enable()
    return elapsed * 1e3


def level() -> float:
    """Median time of five back-to-back probes, in ms."""
    return statistics.median(probe() for _ in range(5))


class Meter:
    """Probes the host between a pass's operations and scales their times.

    Call `begin_pass` before a pass and `between` before each operation;
    `between` probes when at least GAP_S has passed since the last probe,
    outside the operation's own timing.  `scale(pass_index, op_ms)` then
    gives each operation's time at the reference host's speed.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.last = 0.0
        self.op_probe: list[list[int]] = []  # per pass: index of the last probe before each op

    def _probe(self):
        self.probes.append(probe())
        self.last = time.perf_counter()

    def begin_pass(self):
        self._probe()
        self.op_probe.append([])

    def between(self):
        if time.perf_counter() - self.last >= GAP_S:
            self._probe()
        self.op_probe[-1].append(len(self.probes) - 1)

    def end_pass(self):
        # the probe after the pass's last operation
        self._probe()

    def factor(self, probe_index: int) -> float:
        lo = max(0, probe_index - WINDOW + 1)
        return REFERENCE_MS / statistics.median(self.probes[lo:probe_index + WINDOW + 1])

    def scale(self, pass_index: int, op_ms: list[float]) -> list[float]:
        return [ms * self.factor(k) for ms, k in zip(op_ms, self.op_probe[pass_index])]
