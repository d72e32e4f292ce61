import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdisim
import qdisim.adders
import qdisim.analysis
import qdisim.cli
from qdisim.cli import main
from qdisim.netlist import gate_census, parse_netlist
from qdisim.sim import OscillationError, SimulationError
from qdisim.stage import DeadlockError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_early_output_single(tmp_path, capsys):
    out = tmp_path / "fa.net"
    code, _, _ = run(capsys, "--out", str(out), "build", "--variant", "early-output", "--n", "1")
    assert code == 0
    netlist = parse_netlist(out.read_text())
    assert gate_census(netlist).total == 10


def test_build_dims_strong_single(tmp_path, capsys):
    out = tmp_path / "fa.net"
    code, _, _ = run(capsys, "--out", str(out), "build", "--variant", "dims-strong", "--n", "1")
    assert code == 0
    assert gate_census(parse_netlist(out.read_text())).total == 20


def test_build_rca_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "--variant", "latency-opt-biased", "--n", "4")
    assert code == 0
    assert gate_census(parse_netlist(out)).total == 4 * 14


def test_build_unknown_variant(capsys):
    assert run(capsys, "build", "--variant", "nope", "--n", "1")[0] == 2


def test_measure_local_m4(capsys):
    code, out, _ = run(capsys, "measure", "--arch", "local", "--m", "4")
    assert code == 0
    fields = out.strip().split(",")
    assert fields[0] == "local" and fields[3] == "4"
    assert fields[4:7] == ["753", "501", "1254"]
    assert fields[7:10] == ["753", "501", "1254"]


def test_measure_global_m8(capsys):
    code, out, _ = run(capsys, "measure", "--arch", "global", "--m", "8")
    assert code == 0
    assert out.strip().split(",")[6] == "2028"


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("arch", ["local", "global"])
def test_measure_short_chains_match_the_closed_form(arch, m, capsys):
    code, out, err = run(capsys, "measure", "--arch", arch, "--m", str(m))
    assert (code, err) == (0, "")
    fields = out.strip().split(",")
    assert fields[4:7] == fields[7:10]


def test_measure_m_out_of_range(capsys):
    code, _, err = run(capsys, "measure", "--arch", "local", "--m", "31")
    assert code == 2
    assert "m must be" in err


def test_sweep_default(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "--out", str(out), "sweep")
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 25 + 1
    assert lines[-1].startswith("average,,,,,")


def test_sweep_strided_range(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "--out", str(out), "sweep", "--m-range", "4:28:4")
    assert code == 0
    rows = out.read_text().splitlines()[1:-1]
    assert [r.split(",")[0] for r in rows] == ["4", "8", "12", "16", "20", "24", "28"]


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, "--out", str(a), "sweep", "--m-range", "4:8")[0] == 0
    assert run(capsys, "--out", str(b), "sweep", "--m-range", "4:8")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_strong(capsys):
    code, out, _ = run(capsys, "classify", "dims-strong")
    assert code == 0
    assert out.strip() == "SET: STRONG, RTZ: STRONG"


def test_classify_early_output(capsys):
    code, out, _ = run(capsys, "classify", "early-output")
    assert code == 0
    assert out.strip() == "SET: WEAK, RTZ: EARLY"


def test_classify_distributive(capsys):
    code, out, _ = run(capsys, "classify", "distributive")
    assert code == 0
    assert out.startswith("SET: WEAK")


@pytest.mark.parametrize("n,expected", [("2", "SET: WEAK, RTZ: EARLY"), ("4", "SET: WEAK, RTZ: EARLY")])
def test_classify_ripple_carry_blocks(n, expected, capsys):
    assert run(capsys, "classify", "early-output", "--n", n) == (0, expected + "\n", "")


def test_classify_blocks_print_without_the_expected_class_check(capsys):
    # a ripple-carry dims-strong adder indicates weakly: its low sum bit
    # completes before the high operands arrive
    assert run(capsys, "classify", "dims-strong", "--n", "2") == (0, "SET: WEAK, RTZ: WEAK\n", "")


@pytest.mark.parametrize("n,message", [("5", "too wide"), ("0", "n must be >= 1")])
def test_classify_rejects_widths_outside_the_bound(n, message, capsys):
    code, out, err = run(capsys, "classify", "early-output", "--n", n)
    assert (code, out) == (2, "") and message in err and err.count("\n") == 1


def test_check_exhaustive_n4(capsys):
    code, out, _ = run(capsys, "check", "--variant", "early-output", "--n", "4",
                       "--trials", "exhaustive")
    assert code == 0
    assert "512 vectors" in out


def test_check_seeded(capsys):
    code, out, _ = run(capsys, "check", "--variant", "latency-opt-biased", "--n", "8",
                       "--trials", "20")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("trials,message", [
    ("0", "trials must be >= 1, got 0"),
    ("-3", "trials must be >= 1, got -3"),
    ("many", "trials must be an integer or 'exhaustive', got 'many'"),
])
def test_check_bad_trials_is_a_usage_error(trials, message, capsys):
    code, out, err = run(capsys, "check", "--trials", trials, "--n", "2")
    assert code == 2 and out == ""
    assert f"argument --trials: {message}" in err


def test_check_exhaustive_refuses_wide_adders_before_driving(monkeypatch, capsys):
    def no_transaction(*args, **kwargs):
        raise AssertionError("a vector was driven before the width was checked")

    monkeypatch.setattr(qdisim.adders, "drive_transaction", no_transaction)
    code, out, err = run(capsys, "check", "--n", "16", "--trials", "exhaustive")
    assert code == 2 and out == ""
    assert err == "error: exhaustive check takes n <= 8, got 16\n"


@pytest.mark.parametrize("arch,first", [
    ("local", ["1323,34,145,1,180,0", "3906,205,195,0,144,0", "6612,65,30,0,95,0"]),
    ("global", ["1320,34,145,1,180,0", "3900,205,195,0,144,0", "6624,65,30,0,95,0"]),
])
def test_ring_writes_one_seeded_row_per_delivery(arch, first, tmp_path, capsys):
    argv = ["--seed", "1", "ring", "--arch", arch, "--stages", "2", "--n", "8", "--transactions", "10"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "t,a,b,cin,sum,carry"
    assert len(rows) == 10 and rows[:3] == first
    for row in rows:
        _, a, b, cin, value, carry = map(int, row.split(","))
        assert value == (a + b + cin) % 256 and carry == 0
    path = tmp_path / "ring.csv"
    assert run(capsys, "--out", str(path), *argv)[0] == 0
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("option,value,message", [
    ("--stages", "1", "stage_count must be >= 2, got 1"),
    ("--transactions", "0", "transactions must be >= 1, got 0"),
    ("--n", "-1", "n must be >= 1, got -1"),
    ("--n", "0", "n must be >= 1, got 0"),
])
def test_ring_bad_size_is_a_usage_error(option, value, message, capsys):
    code, out, err = run(capsys, "ring", "--arch", "local", option, value)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_build_long_chain_validates(capsys):
    code, out, _ = run(capsys, "build", "--variant", "latency-opt-biased", "--n", "1200")
    assert code == 0
    assert out.startswith("input a0.r1\n")


def test_delays_output_is_loadable(capsys):
    from qdisim.cells import load_delay_table
    from qdisim.netlist import GateKind

    code, out, _ = run(capsys, "delays")
    assert code == 0
    table = load_delay_table(out)
    assert table[GateKind.C2] == 106
    assert table[GateKind.AO21] == 63


def test_delay_table_override_flows_through(tmp_path, capsys):
    path = tmp_path / "delays.txt"
    path.write_text("C2 100\n")
    code, out, _ = run(capsys, "--delay-table", str(path), "delays")
    assert code == 0
    assert "C2 100" in out


def test_duplicate_delay_line_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "delays.txt"
    path.write_text("C2 100\nC2 7\n")
    assert run(capsys, "--delay-table", str(path), "delays") == (2, "", "error: line 2: duplicate delay for C2\n")


def test_calls_in_one_process_share_no_state(tmp_path, monkeypatch, capsys):
    path = tmp_path / "delays.txt"
    path.write_text("C2 107\n")
    measure = ("measure", "--arch", "local", "--m", "4")
    assert run(capsys, "--delay-table", str(path), *measure) == (
        0, "local,latency-opt-biased,32,4,756,504,1260,756,504,1260\n", "")
    assert run(capsys, *measure) == (0, "local,latency-opt-biased,32,4,753,501,1254,753,501,1254\n", "")

    assert run(capsys, "check", "--trials", "0")[0] == 2
    expected = (0, "pass: 3 vectors, latency-opt-biased n=2\n", "")
    assert run(capsys, "check", "--n", "2", "--trials", "3") == expected

    real, seeds = qdisim.cli.functional_check, []

    def record_seed(*args, seed, **kwargs):
        seeds.append(seed)
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(qdisim.cli, "functional_check", record_seed)
    assert run(capsys, "--seed", "9", "check", "--n", "2", "--trials", "3") == expected
    assert run(capsys, "check", "--n", "2", "--trials", "3") == expected
    assert seeds == [9, 1]


def test_main_builds_its_parser_at_most_once(monkeypatch, capsys):
    real, built = qdisim.cli.build_parser, []

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(qdisim.cli, "build_parser", spy)
    for argv in (["delays"], ["check", "--trials", "0"], ["build", "--variant", "early-output", "--n", "1"]):
        main(argv)
    capsys.readouterr()
    assert len(built) <= 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(qdisim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qdisim", "delays"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "C2 106\n" in proc.stdout and "AO21 63\n" in proc.stdout


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("callee,argv,exc", [
    ("sweep", ["sweep", "--m-range", "4:5"], OscillationError("no quiescence after 9 transitions")),
    ("functional_check", ["check", "--n", "2", "--trials", "3"], SimulationError("'x' is not a primary input")),
    ("classify_both", ["classify", "dims-strong"], DeadlockError("ring stalled at t=0")),
    ("run_closed_loop", ["ring", "--arch", "global", "--n", "2"], DeadlockError("ring stalled at t=0")),
])
def test_simulation_failures_exit_one_with_one_line(monkeypatch, capsys, callee, argv, exc):
    monkeypatch.setattr(qdisim.cli, callee, _raise(exc))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {exc}\n"


def test_measure_failed_transaction_exits_one(monkeypatch, capsys):
    real = qdisim.analysis.run_transaction

    def spacer_lost(*args, **kwargs):
        rec = real(*args, **kwargs)
        rec.spacer_restored = False
        return rec

    monkeypatch.setattr(qdisim.analysis, "run_transaction", spacer_lost)
    code, out, err = run(capsys, "measure", "--arch", "local", "--n", "8", "--m", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: transaction failed for m=4") and err.count("\n") == 1
