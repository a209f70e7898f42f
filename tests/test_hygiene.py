"""Source hygiene: no package module imports a name it never uses, and
every entry point the benchmark wraps by name still exists.

Neither ruff nor pyflakes is a dependency, so the import check is a small
AST check.  A name counts as used when it appears anywhere in the module as
a bare name (attribute chains start with one); `__init__` re-exports and is
skipped.
"""

import ast
import importlib
import os
from pathlib import Path

import rotstar

PACKAGE = Path(rotstar.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_name():
    src = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(src) == [(1, "math"), (2, "sep")]


def test_no_unused_imports():
    hits = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert hits == []


def test_bench_entry_points_exist(monkeypatch):
    # bench/worker.py wraps rotstar's entry points by attribute name; a
    # renamed or deleted one raises KeyError or AttributeError here
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    for var in worker.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    modules = worker.import_rotstar()
    solver_cls = modules["pn"].PNSolver
    original = solver_cls.__dict__["ktilde_arrays"]
    tracer = worker.Tracer()
    try:
        worker.install_spans(tracer, modules)
        assert solver_cls.__dict__["ktilde_arrays"] is not original
    finally:
        tracer.restore()
    assert solver_cls.__dict__["ktilde_arrays"] is original
