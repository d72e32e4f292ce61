"""The benchmark's recorded outputs as a tier-1 check: one pass of each
workload in `perfbench/workloads.py`, at size `tiny` and seed 1, must give
the fingerprints `perfbench/expected.json` records, group for group, and
fail no operation.  Nothing under `perfbench/` is written."""
import importlib
import json
import sys
from pathlib import Path

import pytest

import qdisim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
SIZE, SEED = "tiny", 1


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_every_workload_has_a_record(workloads):
    assert set(workloads.WORKLOADS) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_one_pass_matches_the_record(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name](qdisim, SEED, SIZE, tmp_path)
    # as the runner reads the record: per size and seed, or one for all
    recorded = EXPECTED[name][SIZE][str(SEED)] if workload.seeded_outputs else EXPECTED[name]
    workload.begin_pass(0)
    result = workload.run_pass(lambda op: None)
    assert result.failed_ops == set()
    assert {group: workload.fingerprint(text) for group, text in result.outputs.items()} == recorded
