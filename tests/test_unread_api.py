"""Every definition in `src/qdisim` has a reader in `src/qdisim`.

A function, class, module-level name or dataclass field that no `src/`
line reads (a `Name` or `Attribute` load; `__init__.py`'s re-exports do
not count) is API that only the tests use, and the tests should not keep
it alive.  A class member (method, property or dataclass field) is read
only by an `Attribute` load: a local of the same name does not keep it.
The few that wait for a caller are listed in `KEPT`, each with what
keeps it.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qdisim"

# definition -> what keeps it while nothing in src/ reads it
KEPT = {
    "analysis.crossover_m": "ROADMAP item 10 generalises it",
    "analysis.asymptotic_check": "ROADMAP item 10 checks every variant's law against it",
    "analysis.AsymptoticReport.shape": "ROADMAP item 10 reads it off each law's slopes",
    "netlist.parse_netlist": "ROADMAP item 2 gives it a command (`classify --netlist`)",
    "netlist.gate_census": "ROADMAP item 8 makes it the area column",
    "netlist.GateCensus.total": "ROADMAP item 8, with gate_census",
    "netlist.GateCensus.complex_total": "ROADMAP item 8, with gate_census",
    "stage.run_transaction": "perfbench/workloads.py runs every stage-random transaction through it",
    "stage.TransactionRecord.sum_value": "perfbench/workloads.py checks every stage-random sum",
    "stage.TransactionRecord.carry_value": "perfbench/workloads.py checks every stage-random carry",
    "stage.TransactionRecord.csv_row": "perfbench/workloads.py fingerprints stage-random; ROADMAP item 12 moves it there",
    "stage.ThroughputReport.steady_interval": "perfbench/workloads.py reads it per ring pass; ROADMAP item 15",
    "analysis.AsymptoticReport.m_values": "ROADMAP item 10, with asymptotic_check",
    "netlist.GateCensus.counts": "ROADMAP item 8, with gate_census",
    "sim.Simulation.trace": "perfbench/run.py's traced runs read len(sim.trace)",
    "sim.WaveResult.set_trace": "the reference engine's trace, which the tests compare; ROADMAP item 9's VCD export",
    "sim.WaveResult.rtz_trace": "the reference engine's trace, which the tests compare; ROADMAP item 9's VCD export",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _targets(node):
    """The names an assignment target binds, unpacking included."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _targets(element)


def _definitions(module: str, body, prefix: str = "", fields: bool = False):
    """(qualified name, bare name, whether a class member) of each function
    and class, each module-level assignment target and, in a dataclass
    body, each annotated field; dunder names are read by the language, not
    by code."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign) and not prefix:
            names = [name for target in node.targets for name in _targets(target)]
        elif isinstance(node, ast.AnnAssign) and (fields or not prefix):
            names = list(_targets(node.target))
        else:
            continue
        names = [name for name in names if not (name.startswith("__") and name.endswith("__"))]
        yield from ((f"{module}.{prefix}{name}", name, bool(prefix)) for name in names)
        if isinstance(node, ast.ClassDef) and names:
            yield from _definitions(module, node.body, f"{prefix}{node.name}.", _is_dataclass(node))


def _sources() -> dict[str, str]:
    """Each module of `src/qdisim` but `__init__.py`, by name."""
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _unread(sources: dict[str, str]) -> list[str]:
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += _definitions(module, tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return [
        qualified for qualified, name, member in defined
        if name not in attributes and (member or name not in names)
    ]


def test_every_definition_in_src_has_a_reader_in_src():
    assert [name for name in _unread(_sources()) if name not in KEPT] == []


def test_every_kept_definition_still_waits_for_a_reader():
    """An entry whose definition gained a reader, or is gone, leaves `KEPT`."""
    assert sorted(set(KEPT) - set(_unread(_sources()))) == []


@pytest.mark.parametrize("ret, unread", [
    ("Tally(total)", ["probe.Tally.total", "probe.count"]),
    ("Tally(total).total", ["probe.count"]),
])
def test_a_local_keeps_no_member_of_its_name_alive(ret, unread):
    """Only an attribute load reads the field `total`; the local beside it does not."""
    source = (
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Tally:\n    total: int\n\n\n"
        f"def count(items):\n    total = len(items)\n    return {ret}\n"
    )
    assert _unread({"probe": source}) == unread
