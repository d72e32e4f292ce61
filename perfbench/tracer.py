"""Span recorder for the traced benchmark run.

The tracer wraps qdisim's public entry points from the outside: it
replaces each function in every qdisim module that binds it (so
`qdisim.stage.check_phase` and `qdisim.sim.check_phase` are both
covered) and each method on its class.  Every wrapped call records a
span (name, start, end, parent span, transaction id).  Per span name it
keeps:

  - inclusive time and call count of the outermost spans of that name
    (a `read_word` that calls `pair_value` counts once);
  - self time: each span's duration minus the time its child spans cover.

Per-net hot methods such as `Simulation.net_value` are deliberately not
wrapped.  An entry point that does not exist is listed in `missing` and
reported as 0, never an error.
"""
from __future__ import annotations

import functools
import gc
import importlib
import sys
import time

SPAN_CAP = 50_000  # spans kept for export; totals cover every call


def _construct_count(counts, args, kwargs, result):
    netlist = args[1] if len(args) > 1 else kwargs["netlist"]
    counts["construct_gates"] = counts.get("construct_gates", 0) + len(netlist.gates)


def _engine_count(counts, args, kwargs, result):
    counts["events"] = counts.get("events", 0) + len(result[0])


def _check_phase_count(counts, args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    counts["check_phase_entries"] = counts.get("check_phase_entries", 0) + len(trace)


def _netlist_count(counts, args, kwargs, result):
    counts["gates_built"] = counts.get("gates_built", 0) + len(result.gates)


# (module, attribute path, span name, counter).  A dotted attribute path
# names a method on a class; a plain name is a module-level function.
ENTRY_POINTS = (
    ("qdisim.sim", "Simulation.__init__", "sim.construct", _construct_count),
    ("qdisim.sim", "Simulation.run_until_quiescent", "sim.engine", _engine_count),
    ("qdisim.sim", "Simulation.apply_inputs", "sim.apply_inputs", None),
    ("qdisim.sim", "Simulation.read_word", "sim.read", None),
    ("qdisim.sim", "Simulation.pair_value", "sim.read", None),
    ("qdisim.sim", "Simulation.settle_power_on", "sim.power_on", None),
    ("qdisim.sim", "check_phase", "sim.check_phase", _check_phase_count),
    ("qdisim.netlist", "NetlistBuilder.build", "netlist.build", _netlist_count),
    ("qdisim.dualrail", "decode_word", "dualrail.decode", None),
    ("qdisim.dualrail", "decode_pair", "dualrail.decode", None),
    ("qdisim.adders", "emit_rca", "adders.build", None),
    ("qdisim.adders", "build_rca", "adders.build", None),
    ("qdisim.adders", "build_full_adder", "adders.build", None),
    ("qdisim.adders", "functional_check", "adders.functional", None),
    ("qdisim.adders", "rca_transaction", "adders.functional", None),
    ("qdisim.stage", "build_stage", "stage.build", None),
    ("qdisim.stage", "build_completion_detector", "stage.build", None),
    ("qdisim.stage", "run_transaction", "stage.transaction", None),
    ("qdisim.stage", "run_closed_loop", "stage.ring", None),
    ("qdisim.analysis", "sweep", "analysis.sweep", None),
    ("qdisim.analysis", "classify_both", "analysis.classify", None),
    ("qdisim.analysis", "classify_indication", "analysis.classify", None),
    ("qdisim.cli", "main", "cli", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tx]
        self.dropped = 0
        self.tx = -1
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.last_sim = None
        self.gc_gen2_collections = 0
        self.gc_pause_s = 0.0
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def mark(self, tx: int):
        """Tag the spans that follow with the benchmark's transaction id."""
        self.tx = tx

    # -- installation --------------------------------------------------

    def install(self):
        for modname in {modname for modname, _, _, _ in ENTRY_POINTS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qdisim" or name.startswith("qdisim."))]
        for modname, path, span, count in ENTRY_POINTS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(original, span, count, is_init=(path == "Simulation.__init__"))
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
        for span in {span for _, _, span, _ in ENTRY_POINTS}:
            self.inclusive.setdefault(span, 0.0)
            self.self_time.setdefault(span, 0.0)
            self.calls.setdefault(span, 0)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def never_called(self) -> list[str]:
        return sorted(name for name, n in self.calls.items() if n == 0)

    # -- garbage-collector pauses ---------------------------------------

    def start_gc_watch(self):
        gc.callbacks.append(self._on_gc)

    def stop_gc_watch(self):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2_collections += 1

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, name, count, is_init):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        depth = self._depth
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            index = -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                parent = stack[-1][3] if stack else -1
                spans.append([name, start, start, parent, tracer.tx])
            else:
                tracer.dropped += 1
            frame = [name, start, 0.0, index]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                level = depth[name] - 1
                depth[name] = level
                if level == 0:
                    tracer.inclusive[name] += duration
                    tracer.calls[name] += 1
                if index >= 0:
                    spans[index][2] = end
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            if is_init:
                tracer.last_sim = args[0]
            return result

        return wrapper

    def write_spans(self, path):
        """Write the kept spans as CSV: name,start_s,end_s,parent,tx."""
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write("name,start_s,end_s,parent,tx\n")
            for name, start, end, parent, tx in self.spans:
                fp.write(f"{name},{start:.9f},{end:.9f},{parent},{tx}\n")
