"""rotstar benchmark: time to a converged, verified star.

    python3 bench/run.py --workload rotating-97-cold --seed 0 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  rotating-97-cold      one rotating star (u_O = b_rot = 1e-3) at N = 97/65,
                        kernel tables built lazily by the solver
  static-sweep-65-warm  Omega = 0 stars at u_O in {1e-3, 5e-4, 2.5e-4}, N = 65/49,
                        every kernel table pre-built during set-up

Each pass of a workload runs in a fresh worker process (bench/worker.py),
single-threaded: set-up, `PNSolver.solve()`, a dump and read-back of the 15
fields `rotstar solve` writes, `rotstar verify`'s three evaluators on the
read-back fields, and a TOV comparison on criterion 10's rays.  Passes
repeat until --seconds of pass time is measured (one pass is longer than
10 s on both workloads).  setup_s is the median of the passes' cold
set-ups, with a set-up-only process added when a run has only one pass.

The end-to-end times are CPU seconds of the worker process (user + system),
which for a single-threaded solve equal its wall time on an idle core.  On a
shared host, wall time also counts the time the process waits for a core:
on a 2-vCPU Xeon VM with two busy processes beside it, a static pass measured
45 % more wall time but the same CPU time.  setup_s, solve_cpu_s (summed
over the stars) and total_cpu_s (the whole process, interpreter start-up to
the last check) are CPU times; the wall times are printed and kept in the
report.  Span times in a traced run stay wall times.

Seed 0 runs the reference stars and checks their fingerprint (M, J and the
sups of W, Y, X, V) against bench/fingerprint.json to 1e-12 relative; any
other seed jitters u_O and b_rot by up to 10 %.  Every run checks the
physics: first-integral spread within criterion 8's envelope, every inner
and outer contraction ratio below 1, finite TOV gap.  A star that raises or
fails a check is a failed operation.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass with every
layer's entry points wrapped (bench/spans.py) and prints the per-layer
metrics.  trace.overhead_s is the traced wall_s minus the median wall_s of
the untraced passes recorded in this checkout (or, before any, the span
count times the measured cost of one wrapped call).  The last line of
output is one JSON object.  Spans, untraced wall times and reports are
written under .bench_out/ in the checkout.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
JITTER = 0.10
# at least two cold set-ups per run; a run with one pass adds a set-up-only
# process, and each further one would add 7-10 s to every run
SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0
FINGERPRINT_RTOL = 1e-12

WORKLOADS = {
    "rotating-97-cold": {
        "grid": [97, 65], "prebuild": False, "stars": [(1e-3, 1e-3)],
    },
    "static-sweep-65-warm": {
        "grid": [65, 49], "prebuild": True, "stars": [(1e-3, 0.0), (5e-4, 0.0), (2.5e-4, 0.0)],
    },
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_gap")):
        return "ratio"
    return "count"


def star_params(stars, seed):
    """The workload's stars; any seed but the default jitters u_O and b_rot."""
    rng = random.Random(seed)
    out = []
    for u_O, b_rot in stars:
        if seed != DEFAULT_SEED:
            u_O *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
            b_rot *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
        out.append({"u_O": u_O, "b_rot": b_rot})
    return out


def run_worker(spec, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("time limit reached before a worker could start")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "rotstar").glob("*.py"))


def fingerprint_check(name, stars):
    """None when nothing is recorded for this workload; else the per-star
    mismatches beyond FINGERPRINT_RTOL and whether every value is bit-identical."""
    reference = json.loads((HERE / "fingerprint.json").read_text()).get(name)
    if reference is None:
        return None
    errors, identical = [], True
    for k, (star, ref) in enumerate(zip(stars, reference)):
        got = star.get("fingerprint")
        if got is None:
            errors.append((k, "no fingerprint"))
            identical = False
            continue
        for key, want in ref.items():
            identical = identical and got[key] == want
            if not abs(got[key] - want) <= FINGERPRINT_RTOL * abs(want):
                errors.append((k, f"{key} = {got[key]!r}, recorded {want!r}"))
    return errors, identical


def run_benchmark(name, workload, seed, seconds, trace, out_dir, say=print):
    """Run one benchmark invocation; returns the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "name": name, "seed": seed, "grid": workload["grid"], "prebuild": workload["prebuild"],
        "options": workload.get("options", {}), "stars": star_params(workload["stars"], seed),
        "out_dir": str(out_dir),
    }
    trace = int(trace)
    say(f"workload {name}: seed {seed}, trace {trace}, grid {spec['grid']}, "
        f"stars {[(s['u_O'], s['b_rot']) for s in spec['stars']]}")

    setup_samples, passes = [], []
    while True:
        p = run_worker({**spec, "mode": "pass", "trace": bool(trace)}, deadline)
        passes.append(p)
        setup_samples.append(p["setup_s"])
        elapsed = sum(q["wall_s"] for q in passes)
        left = deadline - time.monotonic()
        if trace or elapsed >= seconds or left < 2.0 * p["wall_s"]:
            break
    while not trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(run_worker({**spec, "mode": "setup"}, deadline)["setup_s"])

    history = out_dir / f"untraced-{name}.jsonl"
    if not trace:
        with open(history, "a") as fh:
            for p in passes:
                fh.write(json.dumps({"seed": seed, "wall_s": p["wall_s"]}) + "\n")

    stars = [s for p in passes for s in p["stars"]]
    failed = 0
    for k, s in enumerate(stars):
        for err in s["errors"]:
            say(f"star {k} failed: {err.strip().splitlines()[-1]}")
        failed += bool(s["errors"])
    check = fingerprint_check(name, passes[0]["stars"]) if seed == DEFAULT_SEED else None
    if check is None:
        say("fingerprint: not checked (only the default seed runs the recorded stars)")
    elif check[0]:
        for k, msg in check[0]:
            say(f"fingerprint: star {k}: {msg}")
        failed += sum(1 for k in {k for k, _ in check[0]} if not passes[0]["stars"][k]["errors"])
    else:
        say("fingerprint: " + ("bit-identical to" if check[1] else
                               f"within {FINGERPRINT_RTOL:g} relative of") + " bench/fingerprint.json")
    for k, s in enumerate(passes[0]["stars"]):
        if not s["errors"]:
            fp = s["fingerprint"]
            say(f"star {k}: u_O={s['u_O']:.6g} b_rot={s['b_rot']:.6g} outer={s['outer_iterations']} "
                f"inner={s['inner_iterations']} max ratio={s['max_contraction_ratio']:.3g} "
                f"first-integral={s['first_integral_spread']:.3e} "
                f"TOV gap={s['tov_rel_gap']:.6e} M={fp['M']!r} J={fp['J']!r}")

    report = {
        "workload": name, "seed": seed, "trace": trace,
        "environment": {**passes[0]["environment"], "nproc": os.cpu_count(),
                        "git_sha": git_sha(), "src_lines": src_lines()},
        "setup_samples_s": setup_samples, "passes": passes,
    }
    say(f"environment: {json.dumps(report['environment'])}")
    correct = failed == 0

    if trace:
        tr = passes[0]["trace"]
        metrics = dict(tr["metrics"])
        untraced = [json.loads(line)["wall_s"] for line in history.read_text().splitlines()] \
            if history.exists() else []
        if untraced:
            metrics["trace.overhead_s"] = passes[0]["wall_s"] - statistics.median(untraced)
            say(f"trace overhead: against the median of {len(untraced)} untraced passes")
        else:
            metrics["trace.overhead_s"] = tr["spans"] * tr["span_cost_s"]
            say("trace overhead: no untraced pass recorded here yet; spans x measured cost per span")
        total = sum(s for _, s in tr["self_times"].values()) + tr["unwrapped_s"]
        consistent = abs(total - passes[0]["wall_s"]) <= 1e-6 * passes[0]["wall_s"]
        correct = correct and consistent
        say(f"trace: {tr['spans']} spans; self times {total - tr['unwrapped_s']:.4f} s "
            f"+ unwrapped {tr['unwrapped_s']:.4f} s = {total:.4f} s vs wall "
            f"{passes[0]['wall_s']:.4f} s ({'consistent' if consistent else 'INCONSISTENT'})")
        top = sorted(tr["self_times"].items(), key=lambda kv: -kv[1][1])[:5]
        for layer, (calls, s) in top:
            say(f"  top self time: {layer:<28} {s:9.3f} s  {calls} calls")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "solve_cpu_s": statistics.median(p["solve_cpu_s"] for p in passes),
            "total_cpu_s": statistics.median(p["total_cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "tov_rel_gap": max((s["tov_rel_gap"] for s in stars if "tov_rel_gap" in s),
                               default=None),
        }
    result = {
        "correct": correct,
        "attempted": len(stars),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    for k, v in result["metrics"].items():
        say(f"{k:<40} {v['value']} {v['unit']}")
    for p in passes:
        say(f"pass wall times: set-up {p['setup_wall_s']:.3f} s, solve {p['solve_wall_s']:.3f} s, "
            f"whole {p['wall_s']:.3f} s")
    say(f"operations: failed {failed} / attempted {len(stars)}; correct: {correct}")
    report["result"] = result
    (out_dir / f"report-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rotstar" / "__init__.py").is_file():
        print(f"error: no rotstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace, ROOT / ".bench_out")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
