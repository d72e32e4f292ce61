"""Command-line interface.

Exit codes: 0 success / values match, 1 a checked comparison or a
simulation failed, 2 usage or configuration error.  All numeric output
is in integer time units; files are UTF-8 with LF line endings.
"""
from __future__ import annotations

import argparse
import random
import sys

from .adders import AdderVariant, build_full_adder, build_rca, functional_check
from .analysis import (
    ChainSpec,
    EXPECTED_CLASSES,
    SweepMismatch,
    TransactionError,
    classify_both,
    measure,
    sweep,
    sweep_csv,
    theory_global,
    theory_local,
)
from .cells import default_delay_table, dump_delay_table, load_delay_table
from .netlist import serialize_netlist
from .sim import OscillationError, SimulationError
from .stage import Architecture, DeadlockError, PAIRED_VARIANT, build_stage, run_closed_loop

USAGE_ERROR = 2
CHECK_FAILED = 1


def _variant(name: str) -> AdderVariant:
    try:
        return AdderVariant(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown variant {name!r}; choose from " + ", ".join(v.value for v in AdderVariant)
        ) from None


def _architecture(name: str) -> Architecture:
    try:
        return Architecture(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown architecture {name!r}; choose local or global") from None


def _m_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("m-range must be start:stop[:stride]")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("m-range must be integers") from None
    start, stop = nums[0], nums[1]
    stride = nums[2] if len(nums) == 3 else 1
    if stride < 1 or stop < start:
        raise argparse.ArgumentTypeError("m-range must be increasing")
    return range(start, stop + 1, stride)


def _trials(text: str) -> int | None:
    """A vector count >= 1, or None for 'exhaustive'."""
    if text == "exhaustive":
        return None
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trials must be an integer or 'exhaustive', got {text!r}") from None
    if trials < 1:
        raise argparse.ArgumentTypeError(f"trials must be >= 1, got {trials}")
    return trials


def _load_table(args):
    if args.delay_table:
        with open(args.delay_table, encoding="utf-8") as fp:
            return load_delay_table(fp.read())
    return default_delay_table()


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    if args.n == 1:
        net = build_full_adder(args.variant)
    else:
        net = build_rca(args.variant, args.n).netlist
    _write_out(args, serialize_netlist(net))
    return 0


def cmd_measure(args) -> int:
    table = _load_table(args)
    variant = PAIRED_VARIANT[args.arch]
    spec = ChainSpec(args.n, args.m)
    stage = build_stage(args.arch, variant, args.n)
    sim_vals = measure(stage, spec, table)
    if args.arch is Architecture.LOCAL:
        theory = theory_local(args.m, table, args.n)
    else:
        theory = theory_global(args.m, table, args.n)
    row = (
        f"{args.arch.value},{variant.value},{args.n},{args.m},"
        f"{sim_vals[0]},{sim_vals[1]},{sim_vals[2]},"
        f"{theory[0]},{theory[1]},{theory[2]}\n"
    )
    sys.stdout.write(row)
    if sim_vals != theory:
        sys.stderr.write(f"mismatch: simulated {sim_vals}, theoretical {theory}\n")
        return CHECK_FAILED
    return 0


def cmd_sweep(args) -> int:
    table = _load_table(args)
    try:
        report = sweep(n=args.n, m_values=args.m_range, table=table)
    except SweepMismatch as exc:
        sys.stderr.write(f"{exc}\n")
        return CHECK_FAILED
    _write_out(args, sweep_csv(report))
    return 0


def cmd_classify(args) -> int:
    net = build_full_adder(args.variant) if args.n == 1 else build_rca(args.variant, args.n).netlist
    table = _load_table(args)
    cls = classify_both(net, table)
    sys.stdout.write(f"SET: {cls.set_phase.value}, RTZ: {cls.rtz_phase.value}\n")
    if args.no_expect or args.n != 1:
        return 0
    expected = EXPECTED_CLASSES[args.variant]
    if cls != expected:
        sys.stderr.write(
            f"unexpected class for {args.variant.value}: expected "
            f"SET {expected.set_phase.value}, RTZ {expected.rtz_phase.value}\n"
        )
        return CHECK_FAILED
    return 0


def cmd_check(args) -> int:
    table = _load_table(args)
    rca = build_rca(args.variant, args.n)
    result = functional_check(
        rca, args.trials or 0, seed=args.seed, delay_table=table, exhaustive=args.trials is None
    )
    if result.passed:
        sys.stdout.write(f"pass: {result.trials} vectors, {args.variant.value} n={args.n}\n")
        return 0
    a, b, c = result.counterexample
    sys.stdout.write(f"FAIL at a={a} b={b} cin={c}: {result.detail}\n")
    return CHECK_FAILED


def cmd_ring(args) -> int:
    if args.transactions < 1:
        raise ValueError(f"transactions must be >= 1, got {args.transactions}")
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    rng = random.Random(args.seed)
    ops = [
        (rng.getrandbits(args.n), rng.getrandbits(args.n), rng.getrandbits(1))
        for _ in range(args.transactions)
    ]
    report = run_closed_loop(args.stages, PAIRED_VARIANT[args.arch], args.arch, args.n, ops)
    rows = "".join(
        f"{t},{a},{b},{c},{value},{carry}\n" for (t, value, carry), (a, b, c) in zip(report.deliveries, ops)
    )
    _write_out(args, "t,a,b,cin,sum,carry\n" + rows)
    return 0


def cmd_delays(args) -> int:
    sys.stdout.write(dump_delay_table(_load_table(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisim",
        description="Dual-rail self-timed adder simulator and timing toolkit",
    )
    parser.add_argument("--delay-table", metavar="PATH", help="delay override file")
    parser.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    parser.add_argument("--seed", type=int, default=1, help="seed for random vectors (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit an adder netlist in text form")
    p.add_argument("--variant", type=_variant, required=True)
    p.add_argument("--n", type=int, default=32)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("measure", help="simulate one carry-chain point against the closed form")
    p.add_argument("--arch", type=_architecture, required=True)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="cycle-time sweep over carry-chain lengths, CSV output")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--m-range", type=_m_range, default=range(4, 29))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", help="report the indication classes of a full adder or ripple-carry block")
    p.add_argument("variant", type=_variant)
    p.add_argument("--n", type=int, default=1, help="ripple-carry width, at most 4 (default 1, one full adder)")
    p.add_argument("--no-expect", action="store_true", help="print only, skip the expected-class check")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="functional verification against integer addition")
    p.add_argument("--variant", type=_variant, default=AdderVariant.LATENCY_OPT_BIASED)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--trials", type=_trials, default=1000, help="vector count or 'exhaustive'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ring", help="closed handshake ring of paired stages, one CSV row per delivery")
    p.add_argument("--arch", type=_architecture, required=True)
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--transactions", type=int, default=10)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("delays", help="print the active delay table")
    p.set_defaults(func=cmd_delays)
    return parser


_parser = None  # built by the first `main` call; parse_args leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (OscillationError, SimulationError, DeadlockError, TransactionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
