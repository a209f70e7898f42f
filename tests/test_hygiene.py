"""Source hygiene: no package module imports a name it never uses, every
module-level constant is read somewhere in the package, every function,
method and class of the package is referenced somewhere, every parameter of
a package function or method is read by its body, every dataclass field is
loaded as an attribute somewhere, every config key is read, and every entry
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
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


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


def loaded_names(source):
    """Names a source loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unreferenced_definitions(package, readers, wrapped):
    """(module, line, name) of each function, method and class of the package
    sources (a mapping from module name to source) that no reader source
    loads as a name or an attribute and that is not in `wrapped`, the
    strings the benchmark looks entry points up by.  Special methods are
    called by the language and are skipped."""
    used = set(wrapped)
    for source in readers:
        used |= loaded_names(source)
    found = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                found.append((module, node.lineno, node.name))
    return sorted(found)


def test_checker_flags_an_unreferenced_definition():
    package = {"a": "class Box:\n    def __len__(self):\n        return 0\n\n"
                    "    def wrapped(self):\n        pass\n\n"
                    "def used():\n    pass\n\ndef dead():\n    used()\n"}
    assert unreferenced_definitions(package, package.values(), {"wrapped"}) == [
        ("a", 1, "Box"), ("a", 11, "dead")]


def test_every_definition_is_referenced():
    readers = [path.read_text() for root in (PACKAGE, TESTS, BENCH)
               for path in sorted(root.glob("*.py"))]
    wrapped = {node.value for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(package, readers, wrapped) == []


def unread_dataclass_fields(package, readers):
    """(module, line, class, field) of each field of a dataclass of the
    package sources (a mapping from module name to source) that no reader
    source loads as an attribute.  The check is by name, so a field whose
    name another object's attribute shares passes unseen."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
                    for dec in cls.decorator_list):
                found += [(module, item.lineno, cls.name, item.target.id) for item in cls.body
                          if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    return sorted(found)


def test_checker_flags_an_unread_field():
    package = {"a": "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n\n"
                    "@dataclass\nclass Q:\n    z: int\n\nclass R:\n    w: int\n"}
    assert unread_dataclass_fields(package, ["print(P(1).x)"]) == [
        ("a", 4, "P", "y"), ("a", 8, "Q", "z")]


def test_every_dataclass_field_is_read():
    readers = [path.read_text() for root in (PACKAGE, TESTS, BENCH)
               for path in sorted(root.glob("*.py"))]
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_dataclass_fields(package, readers) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a module-level
    function or a method that the body never loads.  self and cls are
    skipped, and so are functions nested in functions: callbacks such as
    solve_ivp events take the signature their caller fixes."""
    tree = ast.parse(source)
    defs = [node for node in tree.body if isinstance(node, FUNCTIONS)]
    defs += [item for node in tree.body if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, FUNCTIONS)]
    found = []
    for fn in defs:
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(fn.lineno, fn.name, p) for p in params if p not in ("self", "cls", *loaded)]
    return sorted(found)


def test_checker_flags_an_unread_parameter():
    src = ("def f(a, b=1, *args, c, **kw):\n    def event(t, y):\n        return y\n"
           "    return a + kw['x']\n\n"
           "class C:\n    def m(self, x, y):\n        return x\n\n"
           "    @classmethod\n    def k(cls, z):\n        return z\n")
    assert unread_parameters(src) == [(1, "f", "args"), (1, "f", "b"), (1, "f", "c"),
                                      (7, "m", "y")]


def test_every_parameter_is_read():
    hits = [f"{path.name}:{line}: {fn}({name})"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, fn, name in unread_parameters(path.read_text())]
    assert hits == []


def unread_config_keys(defaults, sources, whole=()):
    """`section.key` of each config key (defaults maps section to its keys)
    that no source reads by its string literal as a subscript, such as
    cfg.kerr["window"]; the sections in `whole` are read whole."""
    read = {node.slice.value for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)}
    return sorted(f"{section}.{key}" for section, keys in defaults.items() if section not in whole
                  for key in keys if key not in read)


def test_checker_flags_an_unread_config_key():
    defaults = {"kerr": {"window": 1.0, "margin": 2.6}, "solver": {"tol": 1.0}}
    sources = ['k = cfg.kerr\nprint(k["window"])\ncfg.kerr["margin"] = 3.0\n']
    assert unread_config_keys(defaults, sources, whole=("solver",)) == ["kerr.margin"]


def test_every_config_key_is_read():
    # the solver section goes to SolverOptions whole, which
    # test_solver_section_is_solver_options pins; every other key is read by name
    from rotstar.config import _DEFAULTS

    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_config_keys(_DEFAULTS, sources, whole=("solver",)) == []


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


def test_bench_spans_trace_and_restore(monkeypatch):
    # the benchmark's traced pass: every wrapped entry point still takes its
    # callers' calls, records its span and counts, and restore() puts every
    # original back, so a moved entry point fails here and not mid-benchmark
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    for var in worker.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    modules = worker.import_rotstar()
    fields, greens = modules["fields"], modules["greens"]
    tracer = worker.Tracer()
    try:
        worker.install_spans(tracer, modules)
        patched = list(tracer._patches)
        wrapped = {(owner.__name__, attr) for owner, attr, _ in patched}
        assert {("AxiField", "eval"), ("KernelTable", "eval_at"), ("KernelTable", "apply"),
                ("GreenOps", "k_n_global"), ("PNSolver", "v_map")} <= wrapped
        g = fields.AxiGrid(2.0, 17, 13)
        zero = fields.AxiField.zeros(g, 3)
        assert list(zero.eval([0.5, 3.0, 9.0], 0.1)) == [0.0, 0.0, 0.0]
        greens.GreenOps(g).k_n_global(zero, 3)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == ["fields.eval", "greens.k_n_global"]
    assert tracer.counts["fields.eval_points"] == 3
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} not restored"
