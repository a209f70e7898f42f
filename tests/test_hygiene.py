"""Source hygiene: no package module imports a name it never uses, every
module-level constant is read somewhere in the package, every function,
method and class of the package is reachable from `rotstar.cli.main`, the
package's module-level code or the benchmark, not by tests alone (bar a
named few), every parameter of a package function or method is read by its
body, every defaulted one is passed by some package or benchmark call (bar
main's argv), every dataclass field is loaded as an attribute by the
package or the benchmark (bar a named few), every config key is read, no
module filters a numerical warning, and every entry point the benchmark
wraps by name still exists.

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


WARNING_FILTERS = {"errstate", "seterr", "filterwarnings", "simplefilter", "catch_warnings"}


def warning_filters(source):
    """(line, name) of each call to a numpy or warnings filter, bare or as an
    attribute: a numerical warning is fixed where it arises, not filtered."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in WARNING_FILTERS:
                hits.append((node.lineno, name))
    return sorted(hits)


def test_checker_flags_a_warning_filter():
    src = ("import warnings\nimport numpy as np\nfrom numpy import seterr\n"
           "with np.errstate(divide='ignore'):\n    x = 1.0 / np.zeros(1)\n"
           "seterr(all='ignore')\nwarnings.simplefilter('ignore')\n"
           "with warnings.catch_warnings():\n    warnings.filterwarnings('ignore')\n"
           "np.exp(np.errstate)\n")
    assert warning_filters(src) == [(4, "errstate"), (6, "seterr"), (7, "simplefilter"),
                                    (8, "catch_warnings"), (9, "filterwarnings")]


def test_no_warning_filters():
    hits = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in warning_filters(path.read_text())
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


def _loads(nodes):
    """Names the nodes load, bare or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}


def loaded_names(source):
    """Names a source loads, bare or as an attribute."""
    return _loads([ast.parse(source)])


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_special(name):
    return name.startswith("__") and name.endswith("__")


def _own_nodes(node):
    """The nodes a definition runs as its own: a function's whole body, and
    for a class its decorators, bases and body bar the methods, except the
    special ones, which the language calls once the class is in use."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(item for item in node.body
              if not isinstance(item, DEFINITIONS[:2]) or _is_special(item.name))]


def unreferenced_definitions(package, readers, wrapped):
    """(module, line, name) of each function, method and class of the package
    sources (a mapping from module name to source) that cannot be reached
    from `main`, the package's module-level code, the names the reader
    sources load and `wrapped`, the strings the benchmark looks entry
    points up by.  A definition reached by name reaches every name it loads
    in turn, so a chain of dead definitions is found whole.  The closure is
    by name: a definition counts as reached when anything reached loads its
    name.  Special methods are called by the language and are skipped."""
    defs, reached = {}, {"main", *wrapped}
    for source in readers:
        reached |= loaded_names(source)
    for module, source in package.items():
        tree = ast.parse(source)
        reached |= _loads(node for node in tree.body if not isinstance(node, DEFINITIONS))
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                entry = (module, node.lineno, _loads(_own_nodes(node)))
                defs.setdefault(node.name, []).append(entry)
    todo = list(reached)
    while todo:
        for _, _, loads in defs.get(todo.pop(), ()):
            todo += loads - reached
            reached |= loads
    return sorted((module, line, name) for name, entries in defs.items()
                  for module, line, _ in entries if name not in reached and not _is_special(name))


def test_checker_flags_an_unreferenced_definition():
    package = {"a": "class Box:\n    def __len__(self):\n        return 0\n\n"
                    "    def wrapped(self):\n        pass\n\n"
                    "def used():\n    pass\n\ndef dead():\n    used()\n"}
    assert unreferenced_definitions(package, package.values(), {"wrapped"}) == [
        ("a", 1, "Box"), ("a", 11, "dead")]


def test_checker_flags_a_test_only_definition():
    package = {"a": "def run():\n    step()\n\ndef step():\n    pass\n\ndef oracle():\n    pass\n"}
    tests = ["from a import oracle\nassert oracle() is None\n"]
    assert unreferenced_definitions(package, [*package.values(), *tests], {"run"}) == []
    assert unreferenced_definitions(package, package.values(), {"run"}) == [("a", 7, "oracle")]


def test_checker_flags_a_dead_chain():
    # dead() is the only caller of helper(), so both go; a class reached
    # through module-level code reaches its special methods but not its
    # other methods, and main needs no caller
    package = {"a": "def main():\n    Box()\n\ndef dead():\n    helper()\n\n"
                    "def helper():\n    pass\n\n"
                    "class Box:\n    def __init__(self):\n        setup()\n\n"
                    "    def unused(self):\n        helper()\n\n"
                    "def setup():\n    pass\n"}
    assert unreferenced_definitions(package, [], set()) == [
        ("a", 4, "dead"), ("a", 7, "helper"), ("a", 14, "unused")]


# package definitions that only tests reach, each kept on purpose
TEST_ONLY_KEPT = {
    "path_independence_gap": "the path-independence gate of ROADMAP item 3(d) reads it",
}


def test_every_definition_is_referenced():
    # tests do not count as references: a definition that only tests reach
    # is an oracle for tests/oracles.py or a feature no command runs;
    # KernelTable.eval_at and the other entry points bench/ wraps by name
    # count as reached
    readers = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    wrapped = {node.value for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(package, readers, wrapped | set(TEST_ONLY_KEPT)) == []


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


# dataclass fields that only tests read, each kept on purpose
TEST_READ_FIELDS = {
    ("DistortedLaneEmden", "s"): "the converged grid's radial nodes, where tests check theta_at",
    ("DistortedLaneEmden", "zeta"): "the converged grid's zeta nodes, where tests check theta_at",
    ("DistortedLaneEmden", "Theta"): "the converged profile, which tests check against the "
                                     "centre value, the surface sign and theta_at",
    ("TovSolution", "ell"): "the isotropic radius grid, whose end tests read as the surface",
}


def test_every_dataclass_field_is_read():
    # tests do not count as readers, as for definitions: a field only tests
    # read is a stored copy of something else or output no command uses
    readers = [path.read_text() for root in (PACKAGE, BENCH) for path in sorted(root.glob("*.py"))]
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = {(cls, name) for _, _, cls, name in unread_dataclass_fields(package, readers)}
    assert unread == set(TEST_READ_FIELDS)


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


def unpassed_defaults(package, callers):
    """(module, line, function, parameter) of each defaulted parameter of a
    module-level function or a method of the package sources (a mapping
    from module name to source) that no call in the caller sources passes,
    by keyword or by position.  Calls match by name: f(...) and x.f(...)
    count for every definition named f, and C(...) for the __init__ of
    class C.  A call with *args passes every positional parameter and one
    with **kwargs every parameter; self and cls take no argument."""
    calls = {}
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                keywords = {kw.arg for kw in call.keywords}
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(call.args), keywords))
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        defs = [(node.name, node) for node in tree.body if isinstance(node, FUNCTIONS)]
        defs += [(cls.name if item.name == "__init__" else item.name, item)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, FUNCTIONS)]
        for name, fn in defs:
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            skip = int(positional[:1] in (["self"], ["cls"]))
            defaulted = [(k - skip, p) for k, p in enumerate(positional)
                         if k >= len(positional) - len(a.defaults)]
            defaulted += [(float("inf"), p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            found += [(module, fn.lineno, fn.name, p) for k, p in defaulted
                      if not any(n > k or p in kws or None in kws for n, kws in calls.get(name, ()))]
    return sorted(found)


def test_checker_flags_an_unpassed_default():
    package = {"a": "def f(x, y=1, *, z=2):\n    pass\n\n"
                    "class C:\n    def __init__(self, u, v=0):\n        pass\n\n"
                    "    def m(self, w=1, k=2):\n        pass\n\n"
                    "def g(p=1, *, q=2):\n    pass\n\n"
                    "def h(r=1):\n    pass\n"}
    callers = ["f(1, z=3)\nC(1, 2)\nobj.m(5)\ng(**opts)\nh(*rs)\n"]
    assert unpassed_defaults(package, callers) == [("a", 1, "f", "y"), ("a", 8, "m", "k")]


# defaulted parameters that no package or benchmark call passes, each kept on purpose
UNPASSED_KEPT = {
    ("main", "argv"): "the console script calls main() to read sys.argv; tests pass argv",
}


def test_every_default_is_passed():
    # a default that no pipeline overrides is a setting only tests use:
    # the value belongs in the body, and a test that needs another value
    # builds its input another way
    callers = [path.read_text() for root in (PACKAGE, BENCH) for path in sorted(root.glob("*.py"))]
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unpassed = {(fn, name) for _, _, fn, name in unpassed_defaults(package, callers)}
    assert unpassed == set(UNPASSED_KEPT)


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
