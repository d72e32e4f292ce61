"""Generators for the dual-rail full-adder variants and ripple-carry chains.

Each variant is one gate-level template over the dual-rail operand pairs
a, b, cin and result pairs sum, cout.  Naming convention inside a stage
(x1/x0 denote the two rails of pair x):

    kg = C2(a0, b0)   carry-kill detector        (a = b = 0)
    g  = C2(a1, b1)   carry-generate detector    (a = b = 1)
    p0 = C2(a0, b1), p1 = C2(a1, b0)  the two propagate cases
    e  = OR2(kg, g)   operands equal
    d  = OR2(p0, p1)  operands differ

Ripple chains flatten the stages into one netlist, prefixing stage i's
nets with `fa<i>.` and feeding its cout rails to stage i+1's cin rails.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import chain, islice

from .cells import DelayTable, default_delay_table
from .dualrail import decode_word, rail_assignments, rail_masks
from .netlist import GateKind, Netlist, NetlistBuilder
from .sim import Simulation, _WavePlan, _wave_plan, drive_transaction


class AdderVariant(enum.Enum):
    DIMS_STRONG = "dims-strong"
    DIMS_WEAK = "dims-weak"
    DISTRIBUTIVE = "distributive"
    BIASED_AO222 = "biased-ao222"
    LATENCY_OPT_BIASED = "latency-opt-biased"
    EARLY_OUTPUT = "early-output"


@dataclass
class RcaDescriptor:
    variant: AdderVariant
    n: int
    netlist: Netlist
    operand_rails: tuple[tuple[str, str], ...]  # a0.., b0.., cin input rail pairs
    forward_ports: tuple[str, ...]  # sum0.., cout: the output word


def pack_operands(n: int, a: int, b: int, cin: int) -> int:
    """`a | b << n | cin << 2n`, the bit order of `operand_rails`; raises
    ValueError unless a and b are ints that fit n bits and cin is a bit."""
    if (
        not all(isinstance(x, int) for x in (a, b, cin))
        or not 0 <= a < (1 << n)
        or not 0 <= b < (1 << n)
        or cin not in (0, 1)
    ):
        raise ValueError(f"operands a={a} b={b} cin={cin} do not fit width {n}")
    return _pack(n, a, b, cin)


def _pack(n: int, a: int, b: int, cin: int) -> int:
    """`pack_operands` for operands known to fit."""
    return a | b << n | cin << 2 * n


def _emit_minterms(nb: NetlistBuilder, p: str, rails: dict[str, str]) -> dict[str, str]:
    """One C3 per input-combination product term, shared across outputs.

    Key 'xyz' means the product of rails a<x>, b<y>, cin<z>.
    """
    out = {}
    for xa in "01":
        for xb in "01":
            for xc in "01":
                net = nb.add_gate(
                    GateKind.C3,
                    (rails[f"a{xa}"], rails[f"b{xb}"], rails[f"c{xc}"]),
                    f"{p}m{xa}{xb}{xc}",
                )
                out[xa + xb + xc] = net
    return out


_SUM1_MINTERMS = ("001", "010", "100", "111")
_SUM0_MINTERMS = ("000", "011", "101", "110")


def _emit_pair_detectors(nb: NetlistBuilder, p: str, r: dict[str, str]) -> dict[str, str]:
    kg = nb.add_gate(GateKind.C2, (r["a0"], r["b0"]), f"{p}kg")
    g = nb.add_gate(GateKind.C2, (r["a1"], r["b1"]), f"{p}g")
    p0 = nb.add_gate(GateKind.C2, (r["a0"], r["b1"]), f"{p}p0")
    p1 = nb.add_gate(GateKind.C2, (r["a1"], r["b0"]), f"{p}p1")
    e = nb.add_gate(GateKind.OR2, (kg, g), f"{p}e")
    d = nb.add_gate(GateKind.OR2, (p0, p1), f"{p}d")
    return {"kg": kg, "g": g, "e": e, "d": d}


def _emit_joined_sum(nb: NetlistBuilder, p: str, r: dict[str, str], det: dict[str, str]) -> dict[str, str]:
    """sum1 = e*cin1 + d*cin0, sum0 = e*cin0 + d*cin1, each product a C2."""
    s1a = nb.add_gate(GateKind.C2, (det["e"], r["c1"]), f"{p}s1a")
    s1b = nb.add_gate(GateKind.C2, (det["d"], r["c0"]), f"{p}s1b")
    s0a = nb.add_gate(GateKind.C2, (det["e"], r["c0"]), f"{p}s0a")
    s0b = nb.add_gate(GateKind.C2, (det["d"], r["c1"]), f"{p}s0b")
    nb.add_gate(GateKind.OR2, (s1a, s1b), r["s1"])
    nb.add_gate(GateKind.OR2, (s0a, s0b), r["s0"])
    return {"s1b": s1b, "s0b": s0b}


def _emit_stage(nb: NetlistBuilder, variant: AdderVariant, p: str, r: dict[str, str]):
    """Emit one full-adder stage.  `r` maps the rail roles a1,a0,b1,b0,c1,c0
    (inputs) and s1,s0,k1,k0 (sum/cout outputs) to net names; `p` prefixes
    every internal net."""
    if variant in (AdderVariant.DIMS_STRONG, AdderVariant.DIMS_WEAK):
        m = _emit_minterms(nb, p, r)
        for rail, keys in (("s1", _SUM1_MINTERMS), ("s0", _SUM0_MINTERMS)):
            nb.tree(GateKind.OR2, [m[k] for k in keys], r[rail], f"{r[rail]}.t")
        if variant is AdderVariant.DIMS_STRONG:
            k1 = [m["011"], m["101"], m["110"], m["111"]]
            k0 = [m["000"], m["001"], m["010"], m["100"]]
        else:
            # generate and kill need only a and b, so the carry need not wait for cin
            k1 = [m["011"], m["101"], nb.add_gate(GateKind.C2, (r["a1"], r["b1"]), f"{p}g")]
            k0 = [m["010"], m["100"], nb.add_gate(GateKind.C2, (r["a0"], r["b0"]), f"{p}kg")]
        for rail, nets in (("k1", k1), ("k0", k0)):
            nb.tree(GateKind.OR2, nets, r[rail], f"{r[rail]}.t")
    elif variant is AdderVariant.DISTRIBUTIVE:
        det = _emit_pair_detectors(nb, p, r)
        joins = _emit_joined_sum(nb, p, r, det)
        # carry reuses the sum's C2 joins: cout1 = d*cin1 + g, cout0 = d*cin0 + kg
        nb.add_gate(GateKind.OR2, (joins["s0b"], det["g"]), r["k1"])
        nb.add_gate(GateKind.OR2, (joins["s1b"], det["kg"]), r["k0"])
    elif variant is AdderVariant.BIASED_AO222:
        det = _emit_pair_detectors(nb, p, r)
        _emit_joined_sum(nb, p, r, det)
        # majority carry in one input-incomplete cell: a*b + b*cin + a*cin
        nb.add_gate(GateKind.AO222, (r["a1"], r["b1"], r["b1"], r["c1"], r["a1"], r["c1"]), r["k1"])
        nb.add_gate(GateKind.AO222, (r["a0"], r["b0"], r["b0"], r["c0"], r["a0"], r["c0"]), r["k0"])
    elif variant is AdderVariant.LATENCY_OPT_BIASED:
        det = _emit_pair_detectors(nb, p, r)
        _emit_joined_sum(nb, p, r, det)
        # single and-or cell per carry rail: cout1 = d*cin1 + g, cout0 = d*cin0 + kg
        nb.add_gate(GateKind.AO21, (det["d"], r["c1"], det["g"]), r["k1"])
        nb.add_gate(GateKind.AO21, (det["d"], r["c0"], det["kg"]), r["k0"])
    elif variant is AdderVariant.EARLY_OUTPUT:
        cg1 = nb.add_gate(GateKind.AO22, (r["a0"], r["b0"], r["a1"], r["b1"]), f"{p}cg1")
        cg2 = nb.add_gate(GateKind.AO22, (r["a0"], r["b1"], r["a1"], r["b0"]), f"{p}cg2")
        c1 = nb.add_gate(GateKind.C2, (cg1, r["c1"]), f"{p}c1")
        c2 = nb.add_gate(GateKind.C2, (cg1, r["c0"]), f"{p}c2")
        c3 = nb.add_gate(GateKind.C2, (cg2, r["c1"]), f"{p}c3")
        c4 = nb.add_gate(GateKind.C2, (cg2, r["c0"]), f"{p}c4")
        nb.add_gate(GateKind.OR2, (c1, c4), r["s1"])
        nb.add_gate(GateKind.OR2, (c2, c3), r["s0"])
        nb.add_gate(GateKind.AO22, (cg2, r["c1"], r["a1"], r["b1"]), r["k1"])
        nb.add_gate(GateKind.AO22, (cg2, r["c0"], r["a0"], r["b0"]), r["k0"])
    else:
        raise ValueError(f"unknown variant {variant}")


def emit_rca(
    nb: NetlistBuilder,
    variant: AdderVariant,
    n: int,
    a_rails: list[tuple[str, str]],
    b_rails: list[tuple[str, str]],
    cin_rails: tuple[str, str],
) -> tuple[list[tuple[str, str]], tuple[str, str]]:
    """Emit an n-stage ripple chain reading the given operand rail nets.

    Returns (sum rail pairs, overflow cout rail pair).  Used both for
    standalone chains and embedded inside a pipeline stage.
    """
    sums = []
    carry = cin_rails
    for i in range(n):
        sp = f"fa{i}."
        s1, s0 = f"{sp}s1", f"{sp}s0"
        k1, k0 = f"{sp}k1", f"{sp}k0"
        rails = {
            "a1": a_rails[i][0], "a0": a_rails[i][1],
            "b1": b_rails[i][0], "b0": b_rails[i][1],
            "c1": carry[0], "c0": carry[1],
            "s1": s1, "s0": s0, "k1": k1, "k0": k0,
        }
        _emit_stage(nb, variant, sp, rails)
        sums.append((s1, s0))
        carry = (k1, k0)
    return sums, carry


def build_rca(variant: AdderVariant, n: int) -> RcaDescriptor:
    """Flattened n-bit ripple-carry adder with external dual-rail ports
    a0..a(n-1), b0..b(n-1), cin, sum0..sum(n-1), cout."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nb = NetlistBuilder()
    a_rails = [nb.add_input_pair(f"a{i}") for i in range(n)]
    b_rails = [nb.add_input_pair(f"b{i}") for i in range(n)]
    cin = nb.add_input_pair("cin")
    sums, cout = emit_rca(nb, variant, n, a_rails, b_rails, cin)
    forward_ports = tuple(f"sum{i}" for i in range(n)) + ("cout",)
    for port, rails in zip(forward_ports, [*sums, cout]):
        nb.add_output_pair(port, *rails)
    return RcaDescriptor(
        variant=variant,
        n=n,
        netlist=nb.build(),
        operand_rails=(*a_rails, *b_rails, cin),
        forward_ports=forward_ports,
    )


def build_full_adder(variant: AdderVariant) -> Netlist:
    """Single full adder with ports a, b, cin, sum, cout."""
    nb = NetlistBuilder()
    (a1, a0), (b1, b0), (c1, c0) = (nb.add_input_pair(port) for port in ("a", "b", "cin"))
    r = {
        "a1": a1, "a0": a0, "b1": b1, "b0": b0, "c1": c1, "c0": c0,
        "s1": "sum.r1", "s0": "sum.r0", "k1": "cout.r1", "k0": "cout.r0",
    }
    _emit_stage(nb, variant, "", r)
    nb.add_output_pair("sum", "sum.r1", "sum.r0")
    nb.add_output_pair("cout", "cout.r1", "cout.r0")
    return nb.build()


# -- functional verification ------------------------------------------


@dataclass
class FunctionalCheckResult:
    passed: bool
    trials: int
    counterexample: tuple[int, int, int] | None = None
    detail: str = ""


def rca_transaction(sim: Simulation, rca: RcaDescriptor, a: int, b: int, cin: int):
    """Drive one valid wave then one spacer wave through a bare ripple
    chain; returns (decoded result or DecodeIssue, set report, rtz report).
    The result covers n+1 bits: sum plus overflow carry.  Raises
    ValueError when an operand does not fit."""
    assignments = rail_assignments(rca.operand_rails, pack_operands(rca.n, a, b, cin))
    waves = drive_transaction(sim, assignments, rca.forward_ports)
    return decode_word(waves.valid_word), waves.set_report, waves.rtz_report, waves.spacer_restored


EXHAUSTIVE_MAX_N = 8  # 2^17 vectors
CHECK_BLOCK = 4096  # vectors per boolean pass of the wave plan


def _block_failures(plan: _WavePlan, sim: Simulation, rca: RcaDescriptor, block) -> int:
    """Bit v set when vector v of `block` fails: an output pair is not its
    expected rail, or some port pair has both rails high."""
    # functional_check generates these operands itself, so they fit
    rise = plan.rises(sim, rail_masks(rca.operand_rails, [_pack(rca.n, a, b, c) for a, b, c in block]))
    outputs = [plan.rails[port] for port in rca.forward_ports]
    fails = plan.illegal(rise)
    for slot, want in rail_masks(outputs, [a + b + c for a, b, c in block]).items():
        fails |= rise[slot] ^ want
    return fails


def functional_check(
    rca: RcaDescriptor,
    trials: int,
    seed: int = 1,
    delay_table: DelayTable | None = None,
    exhaustive: bool = False,
) -> FunctionalCheckResult:
    """Compare full valid/spacer transactions against integer addition.

    Random operands come from a seeded generator so runs are reproducible;
    exhaustive mode sweeps the whole operand space instead, 2^(2n+1)
    vectors, and refuses widths above EXHAUSTIVE_MAX_N.

    When the netlist admits a wave plan, vectors are read CHECK_BLOCK at a
    time and each block is one boolean pass of the plan (`rises`): which
    rails rise decides the valid word and the illegal pairs, and the plan
    always restores the spacer with monotone waves.  From the lowest
    failing vector on, and without a plan, every vector runs a full
    transaction (`rca_transaction`), which explains the failure.
    """
    if exhaustive and rca.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive check takes n <= {EXHAUSTIVE_MAX_N}, got {rca.n}")
    if not exhaustive and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table = delay_table or default_delay_table()
    sim = Simulation(rca.netlist, table)
    n = rca.n
    if exhaustive:
        cases = (
            (a, b, c)
            for a in range(1 << n)
            for b in range(1 << n)
            for c in (0, 1)
        )
        total = (1 << n) * (1 << n) * 2
    else:
        rng = random.Random(seed)
        cases = ((rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)) for _ in range(trials))
        total = trials
    ran = 0
    plan = _wave_plan(sim)
    if plan is not None:
        while block := list(islice(cases, CHECK_BLOCK)):
            fails = _block_failures(plan, sim, rca, block)
            if fails:
                first = (fails & -fails).bit_length() - 1
                ran += first
                cases = chain(block[first:], cases)
                break
            ran += len(block)
    for a, b, c in cases:
        decoded, set_report, rtz_report, spacer = rca_transaction(sim, rca, a, b, c)
        ran += 1
        expected = a + b + c
        if decoded != expected:
            return FunctionalCheckResult(False, ran, (a, b, c), f"decoded {decoded!r}, expected {expected}")
        if not set_report.ok or not rtz_report.ok:
            return FunctionalCheckResult(False, ran, (a, b, c), "phase-check violation")
        if not spacer:
            return FunctionalCheckResult(False, ran, (a, b, c), "outputs did not return to spacer")
    return FunctionalCheckResult(True, total)
