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

from .adders import AdderVariant, pack_operands
from .cells import (
    DelayTable, default_delay_table, global_datapath,
    local_chain_reset, local_kill_resets, local_path, path_delay, sync_path,
)
from .dualrail import DecodeIssue, bit_columns, rail_masks
from .netlist import GateKind, Netlist
from .sim import Phase, Simulation, _wave_plan
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


def theory_local(m: int, table: DelayTable, n: int = 32) -> tuple[int, int, int]:
    """(forward, reverse, cycle) for the LOCAL architecture.  The spacer
    wave ends at the kill stage m+1 or after it.  The carry into the kill
    stage falls with the earlier of the chain from cin (`local_chain_reset`)
    and the last propagate stage's detector (the steady-state constant
    `local_path(0)`: the and-or carry rail resets without waiting for the
    incoming carry); `local_kill_resets` wait for no carry.  From m = 3 on
    the steady state sets the reverse latency with the default table."""
    if m < 0:
        raise ValueError("m must be >= 0")
    fl = path_delay(local_path(m), table)
    carry = min(path_delay(local_path(0), table), path_delay(local_chain_reset(m), table))
    rl = max(carry, *(path_delay(path, table) for path in local_kill_resets(m + 2 < n)))
    return fl, rl, fl + rl


def theory_global(m: int, table: DelayTable, n: int = 32) -> tuple[int, int, int]:
    """(forward, reverse, cycle) for the GLOBAL architecture: each wave is
    bounded by the slower of the datapath and the synchronizing path."""
    if m < 0:
        raise ValueError("m must be >= 0")
    sync = path_delay(sync_path(n), table)
    fl = max(path_delay(global_datapath(m), table), sync)
    rl = max(path_delay(global_datapath(0), table), sync)
    return fl, rl, fl + rl


def crossover_m(table: DelayTable, n: int = 32) -> int:
    """Largest m whose valid-wave datapath delay stays within the
    synchronizing delay; -1 when even m=0 exceeds it."""
    slack = path_delay(sync_path(n), table) - path_delay(global_datapath(0), table)
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
        detail = f"set={rec.set_report.ok} rtz={rec.rtz_report.ok} spacer={rec.spacer_restored}"
        for word, value in (("sum", rec.sum_value), ("carry", rec.carry_value)):
            if isinstance(value, DecodeIssue):  # the first pair that did not decode
                detail += f", {word} pair {value.index} is {value.state.value}"
                break
        raise TransactionError(f"transaction failed for m={spec.m}: {detail}")
    return rec.forward_latency, rec.reverse_latency, rec.cycle_time


def measure_chains(
    stage: StageDescriptor,
    specs: list[ChainSpec],
    table: DelayTable | None = None,
) -> list[tuple[int, int, int]]:
    """`measure` for every spec, in one timed pass of the wave plan
    (`_WavePlan.times`) over all the chain vectors at once.

    A vector fails as `measure` fails it: some port pair has both rails
    high, or a forward pair does not have exactly one.  From the first
    failing spec on, and when the netlist admits no plan, every spec runs
    `measure`, which raises the TransactionError that names it."""
    sim = Simulation(stage.netlist, table or default_delay_table())
    for spec in specs:
        if stage.n != spec.n:
            raise ValueError(f"stage width {stage.n} != spec width {spec.n}")
    plan = _wave_plan(sim)
    done: list[tuple[int, int, int]] = []
    if plan is not None and specs:
        words = [pack_operands(stage.n, *gen_carry_chain_vector(spec)) for spec in specs]
        masks = rail_masks(stage.operand_rails, words)
        masks[stage.ackin] = full = (1 << len(specs)) - 1
        rose, rise, high = plan.times(sim, masks)
        out = [plan.rails[port] for port in stage.forward_ports]
        fails = plan.illegal(rose)
        for i1, i0 in out:
            fails |= full & ~(rose[i1] ^ rose[i0])
        outs = [i for pair in out for i in pair]
        fl = _latest([(0, rise[i]) for i in outs], len(specs))
        rl = _latest([(rose[i], high[i]) for i in outs], len(specs))
        good = len(specs) if not fails else (fails & -fails).bit_length() - 1
        done = [(f, r, f + r) for f, r in zip(fl[:good], rl[:good])]
    return done + [measure(stage, spec, table, sim) for spec in specs[len(done):]]


def _latest(functions: list[tuple[int, list]], count: int) -> list[int]:
    """Per vector v < count, the time of the last step that changes bit v
    of any of the step functions, each given as (value before its first
    step, steps); 0 if none does."""
    changed: dict[int, int] = {}
    for before, steps in functions:
        for t, now in steps:
            changed[t] = changed.get(t, 0) | (before ^ now)
            before = now
    latest = [0] * count
    left = (1 << count) - 1
    for t in sorted(changed, reverse=True):
        hit = changed[t] & left
        left ^= hit
        while hit:
            low = hit & -hit
            latest[low.bit_length() - 1] = t
            hit ^= low
    return latest


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
    specs = [ChainSpec(n, m) for m in m_values]
    if not specs:
        raise ValueError("sweep needs at least one m value")
    local_sims = measure_chains(local, specs, table)
    glob_sims = measure_chains(glob, specs, table)
    rows = []
    for spec, lsim, gsim in zip(specs, local_sims, glob_sims):
        m = spec.m
        lth = theory_local(m, table, n)
        gth = theory_global(m, table, n)
        if lsim[2] != lth[2]:
            raise SweepMismatch(m, "local cycle", lsim[2], lth[2])
        if gsim[2] != gth[2]:
            raise SweepMismatch(m, "global cycle", gsim[2], gth[2])
        rows.append(SweepRow(m, lsim, lth, gsim, gth))
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


# widest block classified: an n = 4 ripple-carry adder, 2^9 codewords
# times 2^9 - 2 subsets of its input pairs
CLASSIFY_MAX_PAIRS = 9


def classify_indication(
    netlist: Netlist, phase, table: DelayTable | None = None
) -> Indication:
    """Classify a block over every input codeword and every order of its
    input pairs' events, with full settling between events:

    STRONG  no output rail moves before the final input event, ever;
    EARLY   some codeword/order completes every output pair early;
    WEAK    anything in between.

    For the valid wave, 'complete' means the pair is valid; for the
    return-to-zero wave it means the pair is back to spacer, starting from
    each codeword's valid state.  A monotone wave settles to a state that
    depends only on which inputs have moved, so the early steps of all
    orders are the proper non-empty subsets of the input pairs: one bit
    per codeword and subset in boolean passes of the wave plan.  Raises
    ValueError for more than CLASSIFY_MAX_PAIRS input pairs, a primary
    input on no input pair, or a netlist the plan does not cover.
    """
    (indication,) = _classify(netlist, table, (phase,))
    return indication


def classify_both(netlist: Netlist, table: DelayTable | None = None) -> IndicationClass:
    return IndicationClass(*_classify(netlist, table, (Phase.SET, Phase.RTZ)))


def _classify(netlist: Netlist, table: DelayTable | None, phases) -> list[Indication]:
    """Bit c*w + s-1 of every mask, w = 2^k - 2, stands for codeword c
    with the k input pairs in subset s (1 <= s <= w) moved; an input
    rail's mask is its pair's subset pattern times its codeword comb."""
    pis, pos = set(netlist.primary_inputs), set(netlist.primary_outputs)
    in_rails = [pair for pair in netlist.port_map.values() if pis.issuperset(pair)]
    out_ports = [port for port, pair in netlist.port_map.items() if pos.issuperset(pair) and pair not in in_rails]
    k = len(in_rails)
    if k > CLASSIFY_MAX_PAIRS:
        raise ValueError(f"block too wide to classify: {k} input pairs, at most {CLASSIFY_MAX_PAIRS}")
    loose = pis.difference(*in_rails)
    if loose:
        raise ValueError(f"primary input {min(loose)!r} is on no input pair")
    sim = Simulation(netlist, table or default_delay_table())
    plan = _wave_plan(sim)
    if plan is None:
        raise ValueError("the wave plan does not cover this block: an INV, a cycle or a bad port map")
    codewords, width = 1 << k, max((1 << k) - 2, 0)
    arrived, valid = {}, {}
    raised = rail_masks(in_rails, range(codewords))
    for pair, subset in zip(in_rails, bit_columns(range(1, width + 1), k)):
        for rail in pair:
            comb = _spread(raised[rail], codewords, width)
            arrived[rail], valid[rail] = subset * comb, ((1 << width) - 1) * comb
    outs = [plan.rails[port] for port in out_ports]
    found = []
    for phase in phases:
        if phase is Phase.SET:
            start, now = [0] * plan.slots, plan.rises(sim, arrived)
        else:
            start = plan.rises(sim, valid)
            now = plan.falls(sim, start, arrived)
        moved, complete = 0, (1 << codewords * width) - 1
        for i1, i0 in outs:
            moved |= (start[i1] ^ now[i1]) | (start[i0] ^ now[i0])
            complete &= now[i1] ^ now[i0] if phase is Phase.SET else ~(now[i1] | now[i0])
        found.append(Indication.EARLY if complete else Indication.WEAK if moved else Indication.STRONG)
    return found


def _spread(column: int, count: int, width: int) -> int:
    """Bit c of `column` moved to bit c * width; `column` fits `count` bits."""
    return int(("0" * (width - 1)).join(format(column, f"0{count}b")), 2)


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
    measured = measure_chains(stage, [ChainSpec(n, m) for m in m_values], table)
    fls = tuple(fl for fl, _, _ in measured)
    rls = tuple(rl for _, rl, _ in measured)
    return AsymptoticReport(variant, architecture, tuple(m_values), fls, rls)
