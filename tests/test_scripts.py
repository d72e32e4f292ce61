"""Smoke runs of the command-line scripts under scripts/."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_run_sweep_writes_the_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run("run_sweep.py", "--n", "8", "--m-start", "4", "--m-stop", "6", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "all 3 points match the closed forms exactly" in proc.stdout
    assert out.read_text(encoding="utf-8").startswith("m,cycle_local_sim,")


def test_closed_loop_demo_delivers_every_transaction():
    proc = _run("closed_loop_demo.py", "--n", "4", "--transactions", "3")
    assert proc.returncode == 0, proc.stderr
    assert "2-stage local ring, n=4, 3 transactions" in proc.stdout
