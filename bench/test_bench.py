"""Self-test of the benchmark's own plumbing (about half a minute):

    python3 -m pytest -q bench
"""

import json

import run
from spans import Tracer, self_times

# a rotating star at N = 33/25 converges in a few seconds
SMALL = {"grid": [33, 25], "prebuild": False, "stars": [(1e-3, 1e-3)]}


def quiet(*args):
    pass


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_self_time_subtracts_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("late", 11.0, 12.0, -1),
    ]
    table, remainder = self_times(spans, 0.0, 13.0)
    assert table == {"root": [1, 3.0], "a": [1, 2.0], "a.inner": [1, 1.0], "b": [1, 4.0],
                     "late": [1, 1.0]}
    assert remainder == 2.0
    assert sum(s for _, s in table.values()) + remainder == 13.0


def test_tracer_records_nesting_counts_and_restores():
    class Box:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return 2 * n

    original = Box.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Box, "outer", "box.outer")
    tracer.wrap(Box, "inner", "box.inner", lambda args, kwargs, out: {"box.items": out})
    with tracer.span("bench"):
        assert Box().outer(3) == 7
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("bench", -1), ("box.outer", 0), ("box.inner", 1)]
    assert tracer.counts["box.items"] == 6
    tracer.restore()
    assert Box.__dict__["outer"] is original


def test_small_star_prints_the_declared_metrics(tmp_path):
    result = run.run_benchmark("small", SMALL, 7, 0.0, 0, tmp_path, say=quiet)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")

    traced = run.run_benchmark("small", SMALL, 7, 0.0, 1, tmp_path, say=quiet)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared("per_layer")


def test_convergence_error_is_a_failed_operation(tmp_path):
    workload = {**SMALL, "options": {"max_outer": 1}}
    result = run.run_benchmark("small-max-outer-1", workload, 0, 0.0, 0, tmp_path, say=quiet)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    report = json.loads((tmp_path / "report-small-max-outer-1-seed0-trace0.json").read_text())
    assert "ConvergenceError" in report["passes"][0]["stars"][0]["errors"][0]
