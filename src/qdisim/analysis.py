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
    DelayTable, default_delay_table, global_datapath, global_datapath_reset,
    local_chain_reset, local_kill_resets, local_path, path_delay, sync_path,
)
from .dualrail import DecodeIssue, bit_columns, decode_word, rail_assignments, rail_masks
from .netlist import GateKind, Netlist
from .sim import Phase, WaveResult, _WavePlan
from .stage import Architecture, StageDescriptor, build_stage


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
    rl = max(path_delay(global_datapath_reset(m), table), sync)
    return fl, rl, fl + rl


def crossover_m(table: DelayTable, n: int = 32) -> int:
    """Largest m whose valid-wave datapath delay stays within the
    synchronizing delay; -1 when even m=0 exceeds it."""
    slack = path_delay(sync_path(n), table) - path_delay(global_datapath(0), table)
    return slack // table[GateKind.AO22] if slack >= 0 else -1


class TransactionError(RuntimeError):
    """A measured transaction broke the handshake or did not decode."""


def _failure(spec: ChainSpec, waves: WaveResult) -> TransactionError:
    """The error for the failed transaction of `spec`, naming its first
    illegal pair with its time, a spacer that was not restored, and the
    first forwarded pair of the sum, then of the carry, that did not
    decode."""
    faults = [f"illegal pair {port} at {t}" for t, port in waves.illegal_pairs[:1]]
    if not waves.spacer_restored:
        faults.append("spacer not restored")
    for word, pairs in (("sum", waves.valid_word[:-1]), ("carry", waves.valid_word[-1:])):
        value = decode_word(pairs)
        if isinstance(value, DecodeIssue):
            faults.append(f"{word} pair {value.index} is {value.state.value}")
            break
    return TransactionError(f"transaction failed for m={spec.m}: {', '.join(faults)}")


def measure_chains(
    stage: StageDescriptor,
    specs: list[ChainSpec],
    table: DelayTable | None = None,
) -> list[tuple[int, int, int]]:
    """Simulated (forward, reverse, cycle) for the canonical chain vector
    of every spec, on the wave plan compiled once from the stage's
    netlist.  A spec of another width than the stage's, or a netlist the
    plan does not cover, raises ValueError.

    One spec runs both its waves (`_WavePlan.run`, cheaper than `times`
    for one vector) and fails unless the record is `ok`.  More specs take
    one timed pass over all their chain vectors at once
    (`_WavePlan.times`), where a vector fails as `_WavePlan.faults` flags
    it; the first failing spec then runs alone, as one spec does.  A
    failing spec raises the TransactionError that names its faults."""
    table = table or default_delay_table()
    for spec in specs:
        if stage.n != spec.n:
            raise ValueError(f"stage width {stage.n} != spec width {spec.n}")
    plan = _WavePlan.build(stage.netlist, table)
    words = [pack_operands(stage.n, *gen_carry_chain_vector(spec)) for spec in specs]

    def run(v: int) -> WaveResult:
        assignments = [(stage.ackin, 1)] + rail_assignments(stage.operand_rails, words[v])
        return plan.run(assignments, stage.forward_ports)[0]

    if len(specs) == 1:
        waves = run(0)
        if not waves.ok:
            raise _failure(specs[0], waves)
        return [(waves.forward_latency, waves.reverse_latency, waves.cycle_time)]
    masks = rail_masks(stage.operand_rails, words)
    masks[stage.ackin] = (1 << len(specs)) - 1
    rose, rise, high = plan.times(masks)
    fails = plan.faults(rose, stage.forward_ports)
    if fails:
        first = (fails & -fails).bit_length() - 1
        raise _failure(specs[first], run(first))
    outs = [i for port in stage.forward_ports for i in plan.rails[port]]
    fl = _latest([(0, rise[i]) for i in outs], len(specs))
    rl = _latest([(rose[i], high[i]) for i in outs], len(specs))
    return [(f, r, f + r) for f, r in zip(fl, rl)]


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


def default_m_values(n: int) -> range:
    """The carry-chain lengths a width-n sweep measures unless given others:
    the paper's m = 4..28 up to n - 2, whose kill stage fits (`ChainSpec`)."""
    return range(4, min(28, n - 2) + 1)


_PAPER_M = default_m_values(30)
DEFAULT_M_RANGE = f"{_PAPER_M.start} to min({_PAPER_M[-1]}, n - 2)"  # default_m_values in words


def sweep(
    n: int = 32,
    m_values=None,
    table: DelayTable | None = None,
) -> TimingReport:
    """Measure both architectures over `m_values`, by default `default_m_values(n)`,
    and check each row's cycle, forward latency and reverse latency against
    the closed forms; the first mismatch aborts the sweep.  The chain specs
    are made before any stage is built, so a bad n or m is refused as
    `ChainSpec` refuses it."""
    table = table or default_delay_table()
    specs = [ChainSpec(n, m) for m in (default_m_values(n) if m_values is None else m_values)]
    if not specs:
        raise ValueError("sweep needs at least one m value")
    local_sims = measure_chains(build_stage(Architecture.LOCAL, n=n), specs, table)
    glob_sims = measure_chains(build_stage(Architecture.GLOBAL, n=n), specs, table)
    rows = []
    for spec, lsim, gsim in zip(specs, local_sims, glob_sims):
        m = spec.m
        lth = theory_local(m, table, n)
        gth = theory_global(m, table, n)
        for arch, sim, theory in (("local", lsim, lth), ("global", gsim, gth)):
            for what, k in (("cycle", 2), ("forward latency", 0), ("reverse latency", 1)):
                if sim[k] != theory[k]:
                    raise SweepMismatch(m, f"{arch} {what}", sim[k], theory[k])
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
# times 2^9 subsets of its input pairs, a block of 2^18 vectors
CLASSIFY_MAX_PAIRS = 9


def classify_both(netlist: Netlist) -> IndicationClass:
    """Classify a block, per phase, over every input codeword and every
    order of its input pairs' events, with full settling between events:

    STRONG  no output rail moves before the final input event, ever;
    EARLY   some codeword/order completes every output pair early;
    WEAK    anything in between.

    For the valid wave, 'complete' means the pair is valid; for the
    return-to-zero wave it means the pair is back to spacer, starting from
    each codeword's valid state.  A monotone wave settles to a state that
    depends only on which inputs have moved, so the early steps of all
    orders are the proper non-empty subsets of the input pairs: one bit
    per codeword and subset in `levels` passes of the wave plan, which read
    no gate delay (the plan takes the default table).  Raises ValueError
    for more than CLASSIFY_MAX_PAIRS input pairs, a primary input on no
    input pair, or a netlist the plan does not cover.

    Bit v of every mask, 0 <= v < 4^k, stands for codeword v >> k with
    the input pairs in subset v & (2^k - 1) moved, so one `bit_columns`
    call on that range gives subset bit j in column j and codeword bit j
    in column k + j.  Pair j's rail1 arrives where both bits are set and
    its rail0 where the subset bit is set and the codeword bit clear; the
    valid masks are the codeword columns and their complements.  The block
    also holds the empty and the full subset, which `proper` masks out.
    """
    pis, pos = set(netlist.primary_inputs), set(netlist.primary_outputs)
    in_rails = [pair for pair in netlist.port_map.values() if pis.issuperset(pair)]
    out_ports = [port for port, pair in netlist.port_map.items() if pos.issuperset(pair) and pair not in in_rails]
    k = len(in_rails)
    if k > CLASSIFY_MAX_PAIRS:
        raise ValueError(f"block too wide to classify: {k} input pairs, at most {CLASSIFY_MAX_PAIRS}")
    loose = pis.difference(*in_rails)
    if loose:
        raise ValueError(f"primary input {min(loose)!r} is on no input pair")
    plan = _WavePlan.build(netlist, default_delay_table())
    columns, full = bit_columns(range(1 << 2 * k), 2 * k), (1 << (1 << 2 * k)) - 1
    arrived, valid, some, every = {}, {}, 0, full
    for (r1, r0), subset, code in zip(in_rails, columns, columns[k:]):
        arrived[r1], arrived[r0] = subset & code, subset & ~code
        valid[r1], valid[r0] = code, full ^ code
        some, every = some | subset, every & subset
    proper = some & ~every  # neither the empty nor the full subset
    outs = [plan.rails[port] for port in out_ports]
    found, spacer = [], [0] * plan.slots
    for phase in (Phase.SET, Phase.RTZ):
        start = spacer if phase is Phase.SET else plan.levels(spacer, valid)
        # the subset's rails move: up from spacer, down from the valid codeword
        now = plan.levels(start, {rail: start[plan.inputs[rail]] ^ mask for rail, mask in arrived.items()})
        moved, complete = 0, proper
        for i1, i0 in outs:
            moved |= (start[i1] ^ now[i1]) | (start[i0] ^ now[i0])
            complete &= now[i1] ^ now[i0] if phase is Phase.SET else ~(now[i1] | now[i0])
        found.append(Indication.EARLY if complete else Indication.WEAK if moved & proper else Indication.STRONG)
    return IndicationClass(*found)


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
    stage = build_stage(architecture, variant, n, force=True)
    measured = measure_chains(stage, [ChainSpec(n, m) for m in m_values], table)
    fls = tuple(fl for fl, _, _ in measured)
    rls = tuple(rl for _, rl, _ in measured)
    return AsymptoticReport(variant, architecture, tuple(m_values), fls, rls)
