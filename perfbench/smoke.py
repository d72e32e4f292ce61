"""Smoke test of the benchmark itself, at tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that:
  - `--trace 0` prints every end-to-end metric and `--trace 1` every
    per-layer metric of BENCHMARK.json, by name and with its unit, and the
    run is correct;
  - a run against an expected-output file with one altered fingerprint
    fails, so the output gate is live;
  - a seed with no recorded outputs still runs the checks that need none
    and passes them.
Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_EXPECTED, HERE, ROOT, WORKDIR
from workloads import WORKLOADS

UNRECORDED_SEED = 900_001


def bench(workload: str, trace: int, seed: int = 1, expected=DEFAULT_EXPECTED) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--expected", str(expected),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads(DEFAULT_EXPECTED.read_text(encoding="utf-8"))
    WORKDIR.mkdir(exist_ok=True)
    problems = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: every {kind} metric with its unit")
            check(result["correct"] and result["failed"] == 0, f"{workload} --trace {trace}: correct")

        tampered = json.loads(json.dumps(expected))
        entry = tampered[workload]
        if WORKLOADS[workload].seeded_outputs:
            entry = entry["tiny"]["1"]
        group = sorted(entry)[0]
        entry[group] = "altered " + entry[group]
        path = WORKDIR / f"tampered-{workload}.json"
        path.write_text(json.dumps(tampered), encoding="utf-8")
        result, out = bench(workload, 0, expected=path)
        path.unlink()
        check(not result["correct"] and result["failed"] > 0,
              f"{workload}: an altered fingerprint for {group!r} fails the run")

        result, out = bench(workload, 0, seed=UNRECORDED_SEED)
        seeded = "outputs_recorded_for_seed: False" in out
        check(result["correct"] and (seeded or workload == "paper-repro"),
              f"{workload}: an unrecorded seed passes the checks that need no recording")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
