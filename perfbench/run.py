"""Host-time benchmark of qdisim.

    python3 perfbench/run.py --workload stage-random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qdisim is imported from its
`src/`.  Workloads are described in `workloads.py` and BENCHMARK.json.

Each workload runs as a closed loop with one caller, in its own fresh
process, one workload at a time, without threads.

--trace 0  prints the end-to-end metrics.  Set-up is timed in several
           fresh processes, from just before each starts to just before
           its first timed call, and `setup_s` is their median.  The last
           of them runs timed passes for --seconds and reports `wall_s`,
           `tx_per_s`, `tx_p50_ms`, `tx_p99_ms` (see `timing`) and the
           `peak_rss_mb` of its own process.
--trace 1  prints the per-layer metrics: an untraced process runs for
           half of --seconds, then a traced process sets up and runs one
           pass with every public entry point wrapped (see `tracer.py`).

Every timing of --trace 0 is scaled to a reference host's speed by a
probe run around it (see `hostspeed.py`); the per-layer times of
--trace 1 are not.

Outputs are checked in every pass: simulated results must match the
ones recorded in `expected.json` (for the seeds recorded there) and the
checks that need no recording must hold.  A failed check counts the
operations it covers as failed; so does an exception or a nonzero CLI
exit.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
a readable report with the run's metadata.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 15       # fresh processes timed for setup_s, the last one also runs the passes
RUN_BUDGET_S = 170       # the whole benchmark must end within 180 s


def load_qdisim():
    """Import qdisim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qdisim" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdisim sources under {src}")
    sys.path.insert(0, str(src))
    import qdisim
    if Path(qdisim.__file__).resolve().parent != (src / "qdisim").resolve():
        raise SystemExit(f"error: imported qdisim from {qdisim.__file__}, not from {src}")
    return qdisim


def nearest_rank(count: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile of `count` samples."""
    return max(1, -(-count * pct // 100))


def timing(passes, meter) -> dict:
    """End-to-end timings from passes that repeat the same operations.

    Each operation's host time is first scaled to the reference host's
    speed by the probes around it (see `hostspeed.py`), which removes
    the host's slow spells, whether they last a second or a whole run.
    Then each operation's time is its median over the passes, which
    drops what is left of short bursts but keeps costs that recur at
    the same operation in every pass, such as garbage-collector pauses.
    `wall_s` is one pass made of these medians.  The latency percentiles
    are over the operations' medians, each divided by the transactions
    the operation carries and counted once for each of them.  Every pass
    has the same operations, so each percentile is a fixed rank, whatever
    the number of passes.
    """
    scaled = [meter.scale(k, p.op_ms) for k, p in enumerate(passes)]
    op_ms = [statistics.median(s[i] for s in scaled) for i in range(len(passes[0].op_ms))]
    raw_op_ms = [statistics.median(p.op_ms[i] for p in passes) for i in range(len(passes[0].op_ms))]
    wall_s = sum(op_ms) / 1e3
    per_tx = sorted(ms / tx for ms, tx in zip(op_ms, passes[0].op_tx) for _ in range(tx))
    count = len(per_tx)
    r50, r99 = nearest_rank(count, 50), nearest_rank(count, 99)
    return {
        "wall_s": wall_s,
        "tx_per_s": statistics.median(p.tx for p in passes) / wall_s,
        "tx_p50_ms": per_tx[r50 - 1],
        "tx_p99_ms": per_tx[r99 - 1],
        "raw_wall_s": sum(raw_op_ms) / 1e3,
        "probe_ms": statistics.median(meter.probes),
        "tail_note": f"rank {r99} of {count} transactions ({count - r99} beyond it), "
                     f"{len(op_ms)} operations, each the median of {len(passes)} passes",
    }


# -- the workload process ---------------------------------------------------


def child_main(args) -> dict:
    qd = load_qdisim()
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = None
    if args.role == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload](qd, args.seed, args.size, workdir)
    ready = time.monotonic()
    if args.role == "setup":
        workdir.rmdir()
        return {"ready": ready}
    meter = hostspeed.Meter()

    def between(tx):
        if tracer:
            tracer.mark(tx)
        meter.between()

    recorded = None
    if not args.record:
        expected = json.loads(Path(args.expected).read_text(encoding="utf-8")).get(args.workload, {})
        if workload.seeded_outputs:
            recorded = expected.get(args.size, {}).get(str(args.seed))
        else:
            recorded = expected or None

    passes = []
    first_outputs = None
    mismatched: set[str] = set()
    failed_ops: set[tuple[int, str, int]] = set()
    attempted = 0
    t_start = time.perf_counter()
    # start another pass only if it should end within --seconds
    while not passes or (
        tracer is None and time.perf_counter() - t_start + passes[-1].seconds <= args.seconds
    ):
        index = len(passes)
        workload.begin_pass(index)
        gc.collect()
        meter.begin_pass()
        if tracer:
            tracer.start_gc_watch()
        result = workload.run_pass(between)
        if tracer:
            tracer.stop_gc_watch()
        meter.end_pass()
        passes.append(result)
        if first_outputs is None:
            first_outputs = result.outputs
        attempted += sum(result.group_ops.values())
        failed_ops.update((index, group, op) for group, op in result.failed_ops)
        for group, ops in result.group_ops.items():
            # every pass must repeat the first exactly and match the record
            same = result.outputs.get(group) == first_outputs.get(group)
            if recorded is not None:
                same = same and recorded.get(group) == workload.fingerprint(result.outputs[group])
            if not same:
                mismatched.add(group)
                failed_ops.update((index, group, op) for op in range(ops))

    out = {
        "ready": ready,
        "pass_s": [p.seconds for p in passes],
        "timing": timing(passes, meter),
        "attempted": attempted,
        "failed": len(failed_ops),
        "recorded": recorded is not None,
        "mismatched": sorted(mismatched),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.record:
        out["fingerprints"] = {g: workload.fingerprint(t) for g, t in first_outputs.items()}
    if tracer:
        tracer.uninstall()
        sims = {id(s): s for s in workload.retained_sims()}
        if tracer.last_sim is not None:
            sims[id(tracer.last_sim)] = tracer.last_sim
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        out["layers"] = layer_metrics(tracer, out["timing"]["raw_wall_s"], sum(len(s.trace) for s in sims.values()))
        out["trace_notes"] = {
            "missing": tracer.missing,
            "never_called": tracer.never_called(),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    for leftover in workdir.iterdir():
        leftover.unlink()
    workdir.rmdir()
    return out


def layer_metrics(tracer, traced_wall_s: float, trace_retained: int) -> dict:
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    return {
        "sim.engine_s": inc["sim.engine"],
        "sim.engine_calls": calls["sim.engine"],
        "sim.events": counts.get("events", 0),
        "sim.events_per_s": rate(counts.get("events", 0), inc["sim.engine"]),
        "sim.check_phase_s": inc["sim.check_phase"],
        "sim.check_phase_entries": counts.get("check_phase_entries", 0),
        "sim.construct_s": inc["sim.construct"],
        "sim.construct_calls": calls["sim.construct"],
        "sim.construct_gates_per_s": rate(counts.get("construct_gates", 0), inc["sim.construct"]),
        "sim.apply_inputs_s": inc["sim.apply_inputs"],
        "sim.read_s": inc["sim.read"],
        "sim.power_on_s": inc["sim.power_on"],
        "dualrail.decode_s": inc["dualrail.decode"],
        "dualrail.decode_calls": calls["dualrail.decode"],
        "adders.build_s": inc["adders.build"],
        "stage.build_s": inc["stage.build"],
        "netlist.gates_built": counts.get("gates_built", 0),
        "stage.build_calls": calls["stage.build"],
        "adders.build_calls": calls["adders.build"],
        "stage.transaction_self_s": own["stage.transaction"],
        "stage.ring_self_s": own["stage.ring"],
        "adders.functional_self_s": own["adders.functional"],
        "analysis.sweep_self_s": own["analysis.sweep"],
        "analysis.classify_self_s": own["analysis.classify"],
        "cli.self_s": own["cli"],
        "sim.trace_retained": trace_retained,
        "runtime.gc_gen2_collections": tracer.gc_gen2_collections,
        "runtime.gc_pause_s": tracer.gc_pause_s,
        "bench.traced_wall_s": traced_wall_s,
    }


# -- the orchestrating process ----------------------------------------------


def spawn(args, role: str, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one fresh workload process; returns its report and its spawn time."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--size", args.size, "--expected", str(args.expected), "--role", role,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {role} process for {args.workload} ran out of time") from None
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few transactions per pass, for the smoke test")
    parser.add_argument("--expected", default=str(DEFAULT_EXPECTED), help="recorded outputs (JSON)")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--role", choices=("setup", "run", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role:
        print(json.dumps(child_main(args)))
        return 0

    load_qdisim()  # fail fast, before any process starts, without sources
    deadline = time.monotonic() + RUN_BUDGET_S
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "loadavg_start": loadavg(),
    }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        run, _ = spawn(args, "run", args.seconds / 2, deadline)
        traced, _ = spawn(args, "traced", 0, deadline)
        reports = [run, traced]
        values = dict(traced["layers"])
        # both at the reference host's speed, since the two processes ran at different moments
        values["bench.trace_overhead_s"] = traced["timing"]["wall_s"] - run["timing"]["wall_s"]
    else:
        setups = []
        for role in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
            # the set-up is scaled to the reference host's speed by probes just before it
            factor = hostspeed.REFERENCE_MS / hostspeed.level()
            report, spawned = spawn(args, role, args.seconds if role == "run" else 0, deadline)
            setups.append((report["ready"] - spawned) * factor)
        run = report
        reports = [run]
        values = dict(run["timing"], setup_s=statistics.median(setups), peak_rss_mb=run["peak_rss_mb"])
        meta["raw_wall_s"] = round(values["raw_wall_s"], 4)
        meta["probe_ms"] = round(values["probe_ms"], 4)
        meta["tx_p99_ms"] = values["tail_note"]
        meta["pass_s"] = [round(s, 4) for s in run["pass_s"]]
        meta["setup_samples_s"] = [round(s, 4) for s in setups]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    meta["loadavg_end"] = loadavg()
    meta["outputs_recorded_for_seed"] = run["recorded"]
    meta["mismatched_groups"] = sorted({g for r in reports for g in r["mismatched"]})
    if args.trace:
        meta.update(traced["trace_notes"])

    metrics = {name: values[name] for name in units}
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':32s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
