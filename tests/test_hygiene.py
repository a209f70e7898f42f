"""Source hygiene: no package module imports a name it never uses, every
module-level constant is read somewhere in the package, and every entry
point the benchmark wraps by name still exists.

Neither ruff nor pyflakes is a dependency, so the import check is a small
AST check.  A name counts as used when it appears anywhere in the module as
a bare name (attribute chains start with one); `__init__` re-exports and is
skipped.  A constant is an UPPER_CASE name (a leading underscore allowed)
bound at module level; it counts as read when any package module loads it
as a bare name or as an attribute, so a retired knob cannot linger.
"""

import ast
import importlib
import os
import re
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


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(sources):
    """(module, line, name) of each module-level constant of the sources (a
    mapping from module name to source) that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                        defined.append((module, node.lineno, name.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_checker_flags_an_unread_constant():
    sources = {
        "a": "LIMIT = 3\n_CACHE = {}\nA, OLD_KNOB = 1, 2\nlower = 4\n_CACHE[0] = A\n",
        "b": "from . import a\nprint(a.LIMIT)\nOLD_KNOB = 5\n",
    }
    assert unread_constants(sources) == [("a", 3, "OLD_KNOB"), ("b", 3, "OLD_KNOB")]


def test_every_constant_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources) == []


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
