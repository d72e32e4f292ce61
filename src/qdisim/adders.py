"""The generator of dual-rail ripple-carry adders, `build_rca`, in six
full-adder variants; a full adder is the one-stage chain, `build_rca(v, 1)`.

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

from .cells import default_delay_table
from .dualrail import PAIR_STATE, decode_word, rail_masks
from .netlist import GateKind, Netlist, NetlistBuilder
from .sim import _WavePlan


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
    ValueError unless a and b are ints that fit n bits and cin is a bit,
    each of type int exactly (a bool is not an operand)."""
    if (
        type(a) is not int
        or type(b) is not int
        or type(cin) is not int
        or not 0 <= a < (1 << n)
        or not 0 <= b < (1 << n)
        or cin not in (0, 1)
    ):
        raise ValueError(f"operands a={a} b={b} cin={cin} do not fit width {n}")
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
    prefix: str,
    variant: AdderVariant,
    n: int,
    a_rails: list[tuple[str, str]],
    b_rails: list[tuple[str, str]],
    cin_rails: tuple[str, str],
) -> tuple[list[tuple[str, str]], tuple[str, str]]:
    """Emit an n-stage ripple chain reading the given operand rail nets,
    full adder i's nets named `{prefix}fa<i>.`: a standalone chain with
    prefix "" (`build_rca`) or one inside a stage (`stage.emit_stage`).
    Returns (sum rail pairs, overflow cout rail pair).
    """
    sums = []
    carry = cin_rails
    for i in range(n):
        sp = f"{prefix}fa{i}."
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
    sums, cout = emit_rca(nb, "", variant, n, a_rails, b_rails, cin)
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


# -- functional verification ------------------------------------------


@dataclass
class FunctionalCheckResult:
    passed: bool
    trials: int
    counterexample: tuple[int, int, int] | None = None
    detail: str = ""


EXHAUSTIVE_MAX_N = 8  # 2^17 vectors
CHECK_BLOCK = 4096  # vectors per boolean pass of the wave plan


def _sliced_sum(n: int, columns: list[int]) -> list[int]:
    """The n + 1 bit columns of `a + b + cin` over a block of vectors, from
    the 2n + 1 operand columns in the bit order of `operand_rails`: one
    ripple-carry addition, bit-sliced across the block."""
    carry, out = columns[2 * n], []
    for a, b in zip(columns[:n], columns[n:2 * n]):
        out.append(a ^ b ^ carry)
        carry = a & b | carry & (a ^ b)
    return out + [carry]


def functional_check(rca: RcaDescriptor, trials: int | None, seed: int = 1) -> FunctionalCheckResult:
    """Compare full valid/spacer transactions against integer addition.

    `trials` random operand triples come from `random.Random(seed)`, drawn
    a, b, cin per vector, so runs are reproducible; `trials=None` sweeps
    the whole operand space instead, 2^(2n+1) vectors in the order of
    `itertools.product(range(2^n), range(2^n), (0, 1))`, and refuses
    widths above EXHAUSTIVE_MAX_N.  Any other `trials`, a bool included,
    must be an int >= 1 (ValueError).

    Each vector is one word in the bit order of that enumeration: cin in
    bit 0, b in bits 1..n, a in bits n+1..2n.  The exhaustive words are
    then just `range(2^(2n+1))`, so each block is a range whose operand
    masks `rail_masks` builds in closed form, with no vector packed;
    random vectors are packed into the same layout.  Vectors are read
    CHECK_BLOCK at a time and each block is one boolean pass of the wave
    plan (`levels` from spacer): which rails rise decides the valid word
    and the illegal pairs, and the plan always restores the spacer with
    monotone waves.  A vector fails when `_WavePlan.faults` flags it or an
    output's rail1 is not its bit of the sum, added bit-sliced over the
    block (`_sliced_sum`).  None of this depends on gate delays, so the
    plan takes the default table.  The lowest failing vector is
    explained from the same pass: its valid word, decoded against the
    sum, or, when that is right, `illegal pair <port>` for the first port
    in port-map order with both rails high.  A netlist the plan does not
    cover raises ValueError.
    """
    n = rca.n
    if trials is None:
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive check takes n <= {EXHAUSTIVE_MAX_N}, got {n}")
        vectors = 1 << 2 * n + 1
    else:
        if isinstance(trials, bool) or not isinstance(trials, int):
            raise ValueError(f"trials must be an integer or None, got {trials!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        vectors, draw = trials, random.Random(seed).getrandbits
    plan = _WavePlan.build(rca.netlist, default_delay_table())
    word_rails = (rca.operand_rails[2 * n], *rca.operand_rails[n:2 * n], *rca.operand_rails[:n])
    for ran in range(0, vectors, CHECK_BLOCK):
        size = min(CHECK_BLOCK, vectors - ran)
        if trials is None:
            block = range(ran, ran + size)
        else:  # the terms are evaluated left to right: a, then b, then cin
            block = [draw(n) << n + 1 | draw(n) << 1 | draw(1) for _ in range(size)]
        masks = rail_masks(word_rails, block)
        rose = plan.levels([0] * plan.slots, masks)
        fails = plan.faults(rose, rca.forward_ports)
        # where faults is clear each output has one rail, so its rail1 decides
        for port, want in zip(rca.forward_ports, _sliced_sum(n, [masks[r1] for r1, _ in rca.operand_rails])):
            fails |= rose[plan.rails[port][0]] ^ want
        if fails:
            first = (fails & -fails).bit_length() - 1
            word = block[first]
            a, b, c = word >> n + 1, word >> 1 & (1 << n) - 1, word & 1
            rails = {port: (rose[i1] >> first & 1, rose[i0] >> first & 1) for port, (i1, i0) in plan.rails.items()}
            decoded, expected = decode_word([PAIR_STATE[rails[port]] for port in rca.forward_ports]), a + b + c
            detail = f"decoded {decoded!r}, expected {expected}"
            if decoded == expected:  # a right sum on a flagged vector leaves an illegal pair
                detail = "illegal pair " + next(port for port, pair in rails.items() if pair == (1, 1))
            return FunctionalCheckResult(False, ran + first + 1, (a, b, c), detail)
    return FunctionalCheckResult(True, vectors)
