"""Only `netlist.py` makes a `Gate` or a `Netlist` in `src/qdisim`.

Every generated circuit goes through `NetlistBuilder`, whose gate id is
its output net: the adders, the stage and the closed ring are all written
by emitters into a builder.  A module that built gates or netlists itself
(a call of the class or of one of its methods, or `tuple.__new__(Gate,
...)`) would be a second way to make a circuit, such as a renamed copy of
a built one, and fails this check.
"""
import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdisim"

_CLASSES = {"Gate", "Netlist"}


def _constructions(module: str, source: str) -> list[str]:
    """`module:line` of each expression that makes a `Gate` or a `Netlist`
    of `qdisim.netlist`, however the module imports them."""
    tree = ast.parse(source)
    classes, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("netlist", "qdisim.netlist"):
                classes |= {alias.asname or alias.name for alias in node.names if alias.name in _CLASSES}
            elif node.module in (None, "qdisim"):
                modules |= {alias.asname or alias.name for alias in node.names if alias.name == "netlist"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == "qdisim.netlist" and alias.asname}

    def is_class(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in classes
        return (isinstance(node, ast.Attribute) and node.attr in _CLASSES
                and (isinstance(node.value, ast.Name) and node.value.id in modules
                     or ast.unparse(node.value) == "qdisim.netlist"))

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (is_class(func)  # Gate(...)
                or isinstance(func, ast.Attribute) and is_class(func.value)  # Gate._make(...)
                or isinstance(func, ast.Attribute) and func.attr == "__new__"
                and node.args and is_class(node.args[0])):  # tuple.__new__(Gate, ...)
            found.append(f"{module}:{node.lineno}")
    return found


def test_only_the_netlist_module_makes_gates_and_netlists():
    found = [
        place for path in sorted(SRC.glob("*.py")) if path.name != "netlist.py"
        for place in _constructions(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_each_spelling_of_a_construction_is_found():
    source = textwrap.dedent("""\
        import qdisim.netlist
        import qdisim.netlist as nl
        from . import netlist
        from .netlist import Gate, GateKind, Netlist as N, NetlistBuilder

        a = Gate("g", GateKind.INV, ("x",), "g")
        b = tuple.__new__(Gate, ("g", GateKind.INV, ("x",), "g"))
        c = N((), (), (), {})
        d = netlist.Netlist()
        e = nl.Gate._make(("g", GateKind.INV, ("x",), "g"))
        f = qdisim.netlist.Netlist()

        def g(gate: Gate, n: N) -> N:
            isinstance(gate, Gate)
            return NetlistBuilder().build()
    """)
    assert _constructions("m", source) == ["m:6", "m:7", "m:8", "m:9", "m:10", "m:11"]
