"""Every process-wide cache in `src/qdisim` is listed with its traffic.

A `functools.cache` or `lru_cache` keeps what it returns for the life of
the process, whether or not the key ever comes again, and it saves time
only when one process asks for the same key again.  Each one is listed
in `CACHES` with the caller that repeats its key, so a new one fails
this check until its traffic is written down.
"""
import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdisim"

# cached definition -> the caller that repeats its key
CACHES = {
    "cells.default_delay_table": (
        "its one key is (), so every call after a process's first reuses it: `load_delay_table`, "
        "the command line's default table, `functional_check`, `classify_both` and every table-less "
        "`measure_chains`, `sweep`, `run_transaction` and `run_closed_loop` call ask for it"
    ),
}

_NAMES = {"cache", "lru_cache"}


def _caches(module: str, source: str) -> list[str]:
    """`module.qualified.name` of each definition a functools cache
    decorates, and `module:line` of any other use of one."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names if alias.name in _NAMES
    }
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "functools"
    }

    def is_cache(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in imported
        return (isinstance(node, ast.Attribute) and node.attr in _NAMES
                and isinstance(node.value, ast.Name) and node.value.id in modules)

    found, decorating = [], set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if is_cache(target):
                        decorating.add(target)
                        found.append(f"{module}.{prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    found += [f"{module}:{node.lineno}" for node in ast.walk(tree) if is_cache(node) and node not in decorating]
    return found


def test_every_process_wide_cache_is_listed_with_the_caller_that_repeats_its_key():
    found = [name for path in sorted(SRC.glob("*.py")) for name in _caches(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(CACHES)


def test_each_spelling_of_a_cache_is_found():
    source = textwrap.dedent("""\
        import functools
        from functools import cache, cached_property, lru_cache as keep

        @cache
        def a(): pass

        @keep(maxsize=2, typed=True)
        def b(x): pass

        class C:
            @functools.lru_cache
            def d(self): pass

            @cached_property
            def e(self): pass

        f = functools.cache(len)
    """)
    assert _caches("m", source) == ["m.a", "m.b", "m.C.d", "m:17"]
