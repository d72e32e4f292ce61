"""Record the simulated outputs that the benchmark checks every run against.

    python3 perfbench/record.py

Runs one pass of every workload per seed and size in a fresh process and
writes the output fingerprints to perfbench/expected.json.  A workload
whose outputs depend on neither seed nor size (paper-repro) is recorded
once, with no seed or size key.  Re-record only when a change is meant to alter simulated
results; a speed-up must leave this file unchanged.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_EXPECTED, HERE, ROOT
from workloads import WORKLOADS

SEEDS = range(64)  # seeds whose outputs are recorded; others get only the checks that need no record


def fingerprints(workload: str, seed: int, size: str) -> dict[str, str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--size", size, "--role", "run", "--record",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["failed"]:
        raise SystemExit(f"{workload} seed {seed} ({size}): {report['failed']} ops failed; not recording")
    return report["fingerprints"]


def main() -> int:
    expected: dict = {}
    for name, workload in WORKLOADS.items():
        if workload.seeded_outputs:
            expected[name] = {
                size: {str(seed): fingerprints(name, seed, size) for seed in SEEDS} for size in workload.sizes
            }
        else:
            expected[name] = fingerprints(name, 0, "full")
        print(f"recorded {name}", file=sys.stderr)
    DEFAULT_EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
