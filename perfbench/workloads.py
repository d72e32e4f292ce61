"""The benchmark's three workloads, each a closed loop with one caller.

Every workload sets up once (`__init__`, counted in `setup_s`), then
runs timed passes.  A pass is a fixed list of operations, the same in
every pass, so the runner can take each operation's median host time
over the passes, and the process's peak memory does not depend on how
many passes fit in a run.  Each pass returns the simulated outputs as
text per group of operations; the runner compares their fingerprints
with the recorded ones, and `run_pass` itself applies the checks that
need no recording (integer addition, `rec.ok`, closed forms, expected
classes).

A transaction ("tx") is the workload's unit of work:
  stage-random  one `run_transaction` call (valid plus spacer wave);
  paper-repro   one `qdisim.cli.main` command;
  ring          one value delivered by the closed handshake ring.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import time
from dataclasses import dataclass, field

WIDTH = 32
MASK = (1 << WIDTH) - 1
RING_STAGES = 4


@dataclass
class PassResult:
    seconds: float                      # host time of the whole pass
    op_ms: list[float]                  # host time of each operation, in pass order
    op_tx: list[int]                    # transactions each operation carries
    tx: int                             # transactions completed
    outputs: dict[str, str]             # simulated results as text, per group
    group_ops: dict[str, int]           # operations covered by each group
    failed_ops: set[tuple[str, int]] = field(default_factory=set)  # (group, op)


def _operands(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    return [(rng.getrandbits(WIDTH), rng.getrandbits(WIDTH), rng.getrandbits(1)) for _ in range(count)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class StageRandom:
    """Random 32-bit operands through both paired stages, each on one
    reused Simulation whose trace grows over the pass."""

    name = "stage-random"
    sizes = {"full": 500, "tiny": 20}  # transactions per architecture
    seeded_outputs = True

    def __init__(self, qd, seed: int, size: str, workdir):
        self.qd = qd
        self.operands = _operands(random.Random(seed), self.sizes[size])
        self.table = qd.default_delay_table()
        arch, variant = qd.Architecture, qd.AdderVariant
        self.stages = [
            qd.build_stage(arch.LOCAL, variant.LATENCY_OPT_BIASED, WIDTH),
            qd.build_stage(arch.GLOBAL, variant.EARLY_OUTPUT, WIDTH),
        ]
        self.sims = self._new_sims()

    def _new_sims(self):
        return [self.qd.Simulation(st.netlist, self.table) for st in self.stages]

    def begin_pass(self, index: int):
        """Give every pass but the first fresh simulations (untimed)."""
        if index:
            self.sims = None
            gc.collect()
            self.sims = self._new_sims()

    def retained_sims(self):
        return list(self.sims)

    def fingerprint(self, text: str) -> str:
        return sha256(text)

    def run_pass(self, before_op) -> PassResult:
        run_transaction = self.qd.run_transaction
        perf = time.perf_counter
        table = self.table
        samples = []
        records = []
        t0 = perf()
        for stage, sim in zip(self.stages, self.sims):
            for i, (a, b, c) in enumerate(self.operands):
                before_op(i)
                start = perf()
                try:
                    rec = run_transaction(stage, a, b, c, table, sim=sim, keep_traces=False)
                except Exception:  # an op that raises counts as failed
                    rec = None
                samples.append(perf() - start)
                records.append(rec)
        seconds = perf() - t0

        result = PassResult(seconds, [s * 1e3 for s in samples], [1] * len(samples), 0, {}, {})
        count = len(self.operands)
        for k, stage in enumerate(self.stages):
            group = stage.architecture.value
            rows = []
            for i, (a, b, c) in enumerate(self.operands):
                rec = records[k * count + i]
                total = a + b + c
                if (
                    rec is None
                    or not rec.ok
                    or rec.sum_value != total & MASK
                    or rec.carry_value != total >> WIDTH
                ):
                    result.failed_ops.add((group, i))
                rows.append("error" if rec is None else rec.csv_row())
            result.outputs[group] = "\n".join(rows) + "\n"
            result.group_ops[group] = count
        result.tx = 2 * count - len(result.failed_ops)
        return result


class Ring:
    """`run_closed_loop` with four 32-bit stages, once per architecture
    pairing.  Each call builds its own ring and drives it to completion."""

    name = "ring"
    sizes = {"full": 32, "tiny": 4}
    seeded_outputs = True

    def __init__(self, qd, seed: int, size: str, workdir):
        self.qd = qd
        self.operands = _operands(random.Random(seed), self.sizes[size])
        arch, variant = qd.Architecture, qd.AdderVariant
        self.pairings = [(arch.LOCAL, variant.LATENCY_OPT_BIASED), (arch.GLOBAL, variant.EARLY_OUTPUT)]

    def begin_pass(self, index: int):
        pass

    def retained_sims(self):
        return []

    def fingerprint(self, text: str) -> str:
        return sha256(text)

    def run_pass(self, before_op) -> PassResult:
        run_closed_loop = self.qd.run_closed_loop
        perf = time.perf_counter
        reports = []
        samples = []
        t0 = perf()
        for k, (arch, variant) in enumerate(self.pairings):
            before_op(k)
            start = perf()
            try:
                rep = run_closed_loop(RING_STAGES, variant, arch, WIDTH, self.operands)
            except Exception:  # an op that raises counts as failed
                rep = None
            samples.append(perf() - start)
            reports.append(rep)
        seconds = perf() - t0

        count = len(self.operands)
        # one call delivers `count` values; their individual host times
        # are not visible from outside the call
        result = PassResult(seconds, [s * 1e3 for s in samples], [count] * len(samples), 0, {}, {})
        for (arch, _), rep in zip(self.pairings, reports):
            group = arch.value
            lines = []
            deliveries = rep.deliveries if rep is not None else []
            last_time = None
            for i, (a, b, c) in enumerate(self.operands):
                if i >= len(deliveries):
                    result.failed_ops.add((group, i))
                    continue
                t, value, carry = deliveries[i]
                # stage k+1 adds zero operands, so the first stage's sum
                # arrives unchanged and the final carry is 0
                if value != (a + b + c) & MASK or carry != 0 or (last_time is not None and t <= last_time):
                    result.failed_ops.add((group, i))
                last_time = t
                lines.append(f"{t},{value},{carry}")
            steady = rep.steady_interval if rep is not None else None
            lines.append(f"steady,{steady}")
            result.outputs[group] = "\n".join(lines) + "\n"
            result.group_ops[group] = count
        result.tx = count * len(self.pairings) - len(result.failed_ops)
        return result


class PaperRepro:
    """The README's reproduction commands through `qdisim.cli.main`: the
    m=4..28 sweep to a CSV file, exhaustive n=4 checks and `classify` for
    all six variants, and `measure` for both architectures at m=4, 28.
    These inputs are fixed, so the seed changes nothing here."""

    name = "paper-repro"
    seeded_outputs = False

    def __init__(self, qd, seed: int, size: str, workdir):
        import qdisim.cli
        self.cli = qdisim.cli
        self.expected_classes = qd.analysis.EXPECTED_CLASSES
        self.variant = qd.AdderVariant
        self.csv_path = workdir / "sweep.csv"
        commands = [("sweep", ["--out", str(self.csv_path), "sweep"])]
        for v in qd.AdderVariant:
            commands.append((f"check:{v.value}", ["check", "--variant", v.value, "--n", "4", "--trials", "exhaustive"]))
        for v in qd.AdderVariant:
            commands.append((f"classify:{v.value}", ["classify", v.value]))
        for arch in ("local", "global"):
            for m in (4, 28):
                commands.append((f"measure:{arch}:{m}", ["measure", "--arch", arch, "--m", str(m)]))
        self.commands = commands

    def begin_pass(self, index: int):
        self.csv_path.unlink(missing_ok=True)

    def retained_sims(self):
        return []

    def fingerprint(self, text: str) -> str:
        return text

    def run_pass(self, before_op) -> PassResult:
        perf = time.perf_counter
        samples = []
        runs = []
        t0 = perf()
        for i, (key, argv) in enumerate(self.commands):
            before_op(i)
            out = io.StringIO()
            start = perf()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception:  # an op that raises counts as failed
                code = None
            samples.append(perf() - start)
            runs.append((key, code, out.getvalue()))
        seconds = perf() - t0

        result = PassResult(seconds, [s * 1e3 for s in samples], [1] * len(samples), 0, {}, {})
        for key, code, text in runs:
            if key == "sweep":
                text = self.csv_path.read_text(encoding="utf-8") if self.csv_path.exists() else ""
            result.outputs[key] = text
            result.group_ops[key] = 1
            if code != 0 or not self._plausible(key, text):
                result.failed_ops.add((key, 0))
        result.tx = len(self.commands) - len(result.failed_ops)
        return result

    def _plausible(self, key: str, text: str) -> bool:
        """Checks that need no recorded output."""
        kind, _, rest = key.partition(":")
        if kind == "check":
            return text == f"pass: 512 vectors, {rest} n=4\n"
        if kind == "classify":
            cls = self.expected_classes[self.variant(rest)]
            return text == f"SET: {cls.set_phase.value}, RTZ: {cls.rtz_phase.value}\n"
        if kind == "measure":
            fields = text.strip().split(",")
            return len(fields) == 10 and fields[4:7] == fields[7:10]
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if len(rows) != 26 or rows[-1][0] != "average":
            return False
        if [int(r[0]) for r in rows[:-1]] != list(range(4, 29)):
            return False
        return all(r[1] == r[2] and r[3] == r[4] for r in rows[:-1]) and 19.0 <= float(rows[-1][5]) <= 26.0


WORKLOADS = {w.name: w for w in (StageRandom, PaperRepro, Ring)}
