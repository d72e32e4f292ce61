"""Carry-chain stimuli, closed-form latency models, sweeps, and the
input-output indication classifier.

The canonical stimulus for carry-propagation length m sets cin=1 and
makes stages 0..m propagate (a_i=1, b_i=0) with a kill stage at m+1, so
the carry born at the carry input travels exactly m+1 stages and dies.
With the calibrated delay table the simulated latencies of the two
reference architectures match the closed forms below exactly, integer
for integer.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations

from .adders import AdderVariant
from .cells import (
    DelayTable, default_delay_table, global_datapath, global_datapath_cycle,
    local_cycle, local_path, path_delay, sync_path,
)
from .dualrail import RailState, rail_assignments
from .netlist import GateKind, Netlist
from .sim import Phase, Simulation
from .stage import Architecture, StageDescriptor, build_stage, run_transaction


@dataclass(frozen=True)
class ChainSpec:
    """Width n and carry-propagation length m; the kill stage at m+1 must
    exist, hence m <= n-2."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.m <= self.n - 2:
            raise ValueError(f"m must be in 0..{self.n - 2}, got {self.m}")


def gen_carry_chain_vector(spec: ChainSpec) -> tuple[int, int, int]:
    """Operands whose carry chain starts at the carry input and spans
    stages 0..m: a has bits 0..m set, b is zero, cin is 1."""
    a = (1 << (spec.m + 1)) - 1
    return a, 0, 1


# -- closed-form latencies ---------------------------------------------


def local_cycle_formula(m: int, table: DelayTable) -> int:
    """Both waves of the LOCAL path: 6*C2 + 4*OR2 + (m+2)*AO21."""
    return path_delay(local_cycle(m), table)


def global_datapath_cycle_formula(m: int, table: DelayTable) -> int:
    """Datapath-forward plus synchronizing-reverse cycle:
    11*C2 + 2*OR2 + (m+2)*AO22."""
    return path_delay(global_datapath_cycle(m), table)


def synchronizing_delay(table: DelayTable, n: int = 32) -> int:
    """Delay of `cells.sync_path(n)`; at n=32 the detector tree is 7 C2
    levels deep, so this is 9*C2 + OR2."""
    return path_delay(sync_path(n), table)


def theory_local(m: int, table: DelayTable) -> tuple[int, int, int]:
    """(forward, reverse, cycle) for the LOCAL architecture.  The reverse
    latency is the steady-state constant: the and-or carry rail resets
    without waiting for the incoming carry.  Chains shorter than three
    stages reset faster than this bound; the closed form is exact for
    m >= 3."""
    if m < 0:
        raise ValueError("m must be >= 0")
    fl = path_delay(local_path(m), table)
    rl = path_delay(local_path(0), table)
    return fl, rl, fl + rl


def theory_global(m: int, table: DelayTable, n: int = 32) -> tuple[int, int, int]:
    """(forward, reverse, cycle) for the GLOBAL architecture: each wave is
    bounded by the slower of the datapath and the synchronizing path."""
    if m < 0:
        raise ValueError("m must be >= 0")
    sync = synchronizing_delay(table, n)
    fl = max(path_delay(global_datapath(m), table), sync)
    rl = max(path_delay(global_datapath(0), table), sync)
    return fl, rl, fl + rl


def crossover_m(table: DelayTable, n: int = 32) -> int:
    """Largest m whose valid-wave datapath delay stays within the
    synchronizing delay; -1 when even m=0 exceeds it."""
    slack = synchronizing_delay(table, n) - path_delay(global_datapath(0), table)
    return slack // table[GateKind.AO22] if slack >= 0 else -1


class TransactionError(RuntimeError):
    """A measured transaction broke the handshake or did not decode."""


def measure(
    stage: StageDescriptor,
    spec: ChainSpec,
    table: DelayTable | None = None,
    sim: Simulation | None = None,
) -> tuple[int, int, int]:
    """Simulated (forward, reverse, cycle) for the canonical chain vector.
    A given `sim` of the stage's netlist is reset first, so repeated calls
    reuse one compiled simulation."""
    if stage.n != spec.n:
        raise ValueError(f"stage width {stage.n} != spec width {spec.n}")
    a, b, cin = gen_carry_chain_vector(spec)
    if sim is not None:
        if sim.netlist is not stage.netlist:
            raise ValueError("sim was built for another netlist than the stage's")
        sim.reset()
    rec = run_transaction(stage, a, b, cin, table or default_delay_table(), sim=sim)
    if not rec.ok:
        raise TransactionError(
            f"transaction failed for m={spec.m}: set={rec.set_report.ok} "
            f"rtz={rec.rtz_report.ok} spacer={rec.spacer_restored}"
        )
    return rec.forward_latency, rec.reverse_latency, rec.cycle_time


# -- sweep --------------------------------------------------------------


class SweepMismatch(RuntimeError):
    def __init__(self, m: int, what: str, simulated: int, theoretical: int):
        super().__init__(f"m={m}: simulated {what} {simulated} != theoretical {theoretical}")
        self.m = m


@dataclass
class SweepRow:
    m: int
    local_sim: tuple[int, int, int]
    local_theory: tuple[int, int, int]
    global_sim: tuple[int, int, int]
    global_theory: tuple[int, int, int]

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.local_sim[2] / self.global_sim[2])


@dataclass
class TimingReport:
    n: int
    rows: list[SweepRow]

    @property
    def average_reduction_pct(self) -> float:
        return sum(r.reduction_pct for r in self.rows) / len(self.rows)


def sweep(
    n: int = 32,
    m_values=range(4, 29),
    table: DelayTable | None = None,
) -> TimingReport:
    """Measure both architectures over the carry-chain lengths and check
    every row against the closed forms; a mismatch aborts the sweep."""
    table = table or default_delay_table()
    local = build_stage(Architecture.LOCAL, n=n)
    glob = build_stage(Architecture.GLOBAL, n=n)
    local_sim = Simulation(local.netlist, table)
    glob_sim = Simulation(glob.netlist, table)
    rows = []
    for m in m_values:
        spec = ChainSpec(n, m)
        lsim = measure(local, spec, table, local_sim)
        lth = theory_local(m, table)
        gsim = measure(glob, spec, table, glob_sim)
        gth = theory_global(m, table, n)
        if lsim[2] != lth[2]:
            raise SweepMismatch(m, "local cycle", lsim[2], lth[2])
        if gsim[2] != gth[2]:
            raise SweepMismatch(m, "global cycle", gsim[2], gth[2])
        rows.append(SweepRow(m, lsim, lth, gsim, gth))
    if not rows:
        raise ValueError("sweep needs at least one m value")
    return TimingReport(n, rows)


SWEEP_CSV_HEADER = "m,cycle_local_sim,cycle_local_theory,cycle_global_sim,cycle_global_theory,reduction_pct"


def sweep_csv(report: TimingReport) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.m},{r.local_sim[2]},{r.local_theory[2]},"
            f"{r.global_sim[2]},{r.global_theory[2]},{r.reduction_pct:.2f}"
        )
    lines.append(f"average,,,,,{report.average_reduction_pct:.2f}")
    return "".join(line + "\n" for line in lines)


# -- indication classification ------------------------------------------


class Indication(enum.Enum):
    STRONG = "STRONG"
    WEAK = "WEAK"
    EARLY = "EARLY"


@dataclass(frozen=True)
class IndicationClass:
    set_phase: Indication
    rtz_phase: Indication


def _io_pairs(netlist: Netlist) -> tuple[list[str], list[str]]:
    pis = set(netlist.primary_inputs)
    pos = set(netlist.primary_outputs)
    ins, outs = [], []
    for port, (r1, r0) in netlist.port_map.items():
        if r1 in pis and r0 in pis:
            ins.append(port)
        elif r1 in pos and r0 in pos:
            outs.append(port)
    return ins, outs


def classify_indication(
    netlist: Netlist, phase, table: DelayTable | None = None
) -> Indication:
    """Classify a small block by exhaustive codeword and arrival-order
    enumeration, one input-rail event at a time with full settling between
    events:

    STRONG  no output rail moves before the final input event, ever;
    EARLY   some codeword/order completes every output pair early;
    WEAK    anything in between.

    For the valid wave, 'complete' means the pair is valid; for the
    return-to-zero wave it means the pair is back to spacer, starting from
    each reachable valid state.
    """
    table = table or default_delay_table()
    in_ports, out_ports = _io_pairs(netlist)
    if len(in_ports) > 4:
        raise ValueError(f"block too wide to enumerate: {len(in_ports)} input pairs")
    out_rails = set()
    for p in out_ports:
        out_rails.update(netlist.port_map[p])

    is_set = phase is Phase.SET
    any_transition_early = False
    all_complete_early = False
    k = len(in_ports)
    in_rails = [netlist.port_map[p] for p in in_ports]
    sim = Simulation(netlist, table)

    for codeword in range(1 << k):
        # the rail each input pair raises for this codeword, in port order
        active = [net for net, v in rail_assignments(in_rails, codeword) if v]
        for order in permutations(range(k)):
            sim.reset()
            if not is_set:
                sim.apply_inputs([(net, 1) for net in active])
                sim.run_until_quiescent()
            for step, idx in enumerate(order):
                sim.apply_inputs([(active[idx], 1 if is_set else 0)])
                seg, _ = sim.run_until_quiescent()
                if step == k - 1:
                    break
                if any(net in out_rails for _, net, _ in seg):
                    any_transition_early = True
                complete = all(_pair_complete(sim, p, is_set) for p in out_ports)
                if complete:
                    all_complete_early = True
    if all_complete_early:
        return Indication.EARLY
    if any_transition_early:
        return Indication.WEAK
    return Indication.STRONG


def _pair_complete(sim: Simulation, port: str, is_set: bool) -> bool:
    state = sim.pair_value(port)
    if is_set:
        return state in (RailState.ZERO, RailState.ONE)
    return state is RailState.SPACER


def classify_both(netlist: Netlist, table: DelayTable | None = None) -> IndicationClass:
    return IndicationClass(
        set_phase=classify_indication(netlist, Phase.SET, table),
        rtz_phase=classify_indication(netlist, Phase.RTZ, table),
    )


# expected classes per variant, confirmed by the enumerator in the tests
EXPECTED_CLASSES = {
    AdderVariant.DIMS_STRONG: IndicationClass(Indication.STRONG, Indication.STRONG),
    AdderVariant.DIMS_WEAK: IndicationClass(Indication.WEAK, Indication.WEAK),
    AdderVariant.DISTRIBUTIVE: IndicationClass(Indication.WEAK, Indication.WEAK),
    AdderVariant.BIASED_AO222: IndicationClass(Indication.WEAK, Indication.WEAK),
    AdderVariant.LATENCY_OPT_BIASED: IndicationClass(Indication.WEAK, Indication.WEAK),
    AdderVariant.EARLY_OUTPUT: IndicationClass(Indication.WEAK, Indication.EARLY),
}


# -- asymptotic shape over m ---------------------------------------------


@dataclass
class AsymptoticReport:
    variant: AdderVariant
    architecture: Architecture
    m_values: tuple[int, ...]
    fl: tuple[int, ...]
    rl: tuple[int, ...]

    @property
    def fl_deltas(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.fl, self.fl[1:]))

    @property
    def rl_deltas(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.rl, self.rl[1:]))

    @property
    def shape(self) -> str:
        """Latency growth class: both latencies flat, both growing, or
        forward-only growth with a constant reset."""
        fl_flat = all(d == 0 for d in self.fl_deltas)
        rl_flat = all(d == 0 for d in self.rl_deltas)
        if fl_flat and rl_flat:
            return "O(n)+O(n)"
        if not fl_flat and rl_flat:
            return "O(m)+O(2)"
        if not fl_flat and not rl_flat:
            return "O(m)+O(m)"
        return "irregular"


def asymptotic_check(
    variant: AdderVariant,
    architecture: Architecture = Architecture.LOCAL,
    m_values: tuple[int, ...] = (4, 12, 20, 28),
    n: int = 32,
    table: DelayTable | None = None,
) -> AsymptoticReport:
    """Measure forward/reverse latency growth over carry-chain lengths for
    any adder style.  Non-paired combinations are built with force=True so
    the data path of every variant can be profiled."""
    table = table or default_delay_table()
    stage = build_stage(architecture, variant, n, force=True)
    sim = Simulation(stage.netlist, table)
    fls, rls = [], []
    for m in m_values:
        fl, rl, _ = measure(stage, ChainSpec(n, m), table, sim)
        fls.append(fl)
        rls.append(rl)
    return AsymptoticReport(variant, architecture, tuple(m_values), tuple(fls), tuple(rls))
