"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py '<spec json>'

prints one JSON line: the pass's timings (CPU seconds of this process and
wall seconds), peak RSS, one record per star and, for a traced pass, the
per-layer table.  The spec holds only the generated star parameters, the
grid and the mode ("setup" stops after the set-up).  rotstar is imported
from the `src/` tree next to this directory and driven through its public
API in the order `rotstar solve` and then `rotstar verify` use it.
"""

import contextlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, self_times, span_cost

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# reference EOS and solver tolerances of tests/conftest.py
GAMMA, A_CONST, C_LIGHT, G_GRAV = 5.0 / 3.0, 1.0, 1.0, 1.0
NU = 1.0 / (GAMMA - 1.0)
TOL_INNER, TOL_OUTER = 1e-10, 1e-9
FIT_WINDOW_R0 = (5.0, 18.0)
PN_METHODS = ("inner_fixed_point", "w_from_WYX", "state_fluid", "remainders_abc",
              "ktilde_arrays", "v_map", "remainders_de", "solve")
VERIFY_FNS = ("residual_reduced_system", "consistency_K", "asymptotic_fit")


def import_rotstar():
    """Import the rotstar modules of this checkout with BLAS pinned to one thread."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "rotstar" / "__init__.py").is_file():
        raise SystemExit(f"no rotstar sources under {src}")
    sys.path.insert(0, str(src))
    import rotstar
    from rotstar import eos, fields, greens, gridio, lane_emden, metric, pn, tov, verify

    if Path(rotstar.__file__).resolve().parent != (src / "rotstar").resolve():
        raise SystemExit(f"imported rotstar from {rotstar.__file__}, not {src}")
    return dict(eos=eos, fields=fields, greens=greens, gridio=gridio,
                lane_emden=lane_emden, metric=metric, pn=pn, tov=tov, verify=verify)


def install_spans(tracer, m):
    """Wrap each layer's public entry points where their callers look them up."""
    import numpy as np

    wrap = tracer.wrap
    greens, pn = m["greens"], m["pn"]

    def le_iterations(args, kwargs, dle):
        return {"lane_emden.distorted_iterations": dle.iterations}

    def eval_at_pairs(args, kwargs, out):
        gvals = args[1]
        mask = args[4] if len(args) > 4 else kwargs.get("support_mask")
        support = np.count_nonzero(np.abs(gvals) > 0 if mask is None else mask)
        return {"greens.eval_at_pairs": np.size(out) * support}

    wrap(m["lane_emden"], "solve_distorted", "lane_emden.solve_distorted", le_iterations)
    wrap(pn, "solve_distorted", "lane_emden.solve_distorted", le_iterations)
    wrap(greens, "get_table", "greens.get_table")
    wrap(greens.KernelTable, "__init__", "greens.table_build")
    wrap(greens, "ring_kernel", "greens.ring_kernel",
         lambda a, k, out: {"greens.ring_kernel_evals": np.size(out)})
    wrap(greens.KernelTable, "eval_at", "greens.eval_at", eval_at_pairs)
    wrap(greens.KernelTable, "apply", "greens.apply")
    wrap(greens.GreenOps, "k_n_global", "greens.k_n_global")
    wrap(greens.LOpSolver, "__init__", "greens.lop_factor")
    wrap(greens.LOpSolver, "solve", "greens.lop_solve")
    wrap(pn, "newtonian_fields", "pn.newtonian_fields")
    wrap(pn.PNSolver, "__init__", "pn.solver_init")
    for meth in PN_METHODS:
        wrap(pn.PNSolver, meth, f"pn.{meth}")
    wrap(m["fields"].AxiField, "eval", "fields.eval",
         lambda a, k, out: {"fields.eval_points": np.size(out)})
    wrap(m["fields"].AxiField, "derivative", "fields.derivative")
    wrap(pn, "compact_map", "fields.compact_map")
    wrap(pn, "assemble", "metric.assemble")
    for meth in ("density_from_enthalpy", "pressure_from_enthalpy", "h_rho"):
        wrap(m["eos"].EquationOfState, meth, "eos.enthalpy")
    wrap(m["tov"], "solve_tov", "tov.solve_tov")
    for fn in VERIFY_FNS:
        wrap(m["verify"], fn, f"verify.{fn}")
    wrap(m["gridio"], "write_field", "gridio.write",
         lambda a, k, out: {"gridio.bytes_written": os.path.getsize(a[0])})
    wrap(m["gridio"], "read_field", "gridio.read")


def set_up(spec, m):
    """Lane-Emden profiles, optional table pre-build, one PNSolver per star.

    A star whose set-up raises gets its traceback in place of a solver.
    """
    pn, lane_emden = m["pn"], m["lane_emden"]
    cls = lane_emden.solve_classical(NU)
    eos = m["eos"].EquationOfState.gamma_law(GAMMA, A_CONST, C_LIGHT)
    n_int, n_ext = spec["grid"]
    opts = pn.SolverOptions(n_interior=n_int, n_exterior=n_ext, tol_inner=TOL_INNER,
                            tol_outer=TOL_OUTER, **spec.get("options", {}))
    if spec["prebuild"]:
        for P in (n_int, n_ext):
            for n in (3, 4, 5):
                m["greens"].get_table(P, n)
    profiles, solvers = {}, []
    for star in spec["stars"]:
        try:
            b = star["b_rot"]
            if b not in profiles:
                profiles[b] = lane_emden.solve_distorted(NU, b, classical=cls)
            params = pn.StarParams.build(GAMMA, A_CONST, C_LIGHT, G_GRAV, u_O=star["u_O"],
                                         b_rot=b, classical=cls)
            solvers.append(pn.PNSolver(params, eos, opts, dle=profiles[b], classical=cls))
        except Exception:
            solvers.append(traceback.format_exc(limit=3))
    return eos, solvers


def _ratios(changes):
    return [b / a for a, b in zip(changes[:-1], changes[1:]) if a > 0]


def check_star(res, eos, dump_dir, m, span):
    """Dump, read back, verify and compare with TOV; returns the star record."""
    import numpy as np

    pn, gridio, verify = m["pn"], m["gridio"], m["verify"]
    params, diag = res.params, res.diagnostics
    errors = []
    ratios = _ratios(diag["outer_changes"])
    for rec in diag["inner_history"]:
        ratios += _ratios(rec["changes"])
    if not all(r < 1.0 for r in ratios):
        errors.append(f"contraction ratio reached {max(ratios):.3g}")

    pot, met, nf = res.potentials, res.metric, res.newtonian
    # the fields `rotstar solve` dumps, in its order
    fields = {"W": pot.W, "Y": pot.Y, "X": pot.X, "V": pot.V, "w_corr": pot.w, "F": met.F,
              "A": met.A_pot, "Pi_over_w": met.Pi_over_w, "K": met.K, "u_N": nf.u_N,
              "rho_N": nf.rho_N, "Phi_N": nf.Phi_N, "rho": res.fluid["rho"],
              "P": res.fluid["P"], "u": res.fluid["u"]}
    with span("bench.dump"):
        for name, fld in fields.items():
            gridio.write_field(dump_dir / f"{name}.axfd", fld, name=name)
        loaded, grid = {}, None
        for name in fields:
            loaded[name], _ = gridio.read_field(dump_dir / f"{name}.axfd", grid)
            grid = loaded[name].grid
    for name, a in fields.items():
        b = loaded[name]
        if not (np.array_equal(a.int_vals, b.int_vals) and np.array_equal(a.star_vals, b.star_vals)
                and a.offset == b.offset):
            errors.append(f"dump round trip changed {name}")

    with span("bench.verify"):
        back = pn.SolveResult(
            params=params, grid=grid,
            potentials=pn.PotentialSet(W=loaded["W"], Y=loaded["Y"], X=loaded["X"],
                                       V=loaded["V"], w=loaded["w_corr"]),
            metric=m["metric"].MetricLanczos(F=loaded["F"], A_pot=loaded["A"],
                                             Pi_over_w=loaded["Pi_over_w"], K=loaded["K"],
                                             c_light=params.c_light),
            newtonian=None,
            fluid={"rho": loaded["rho"], "P": loaded["P"], "u": loaded["u"]},
            diagnostics=diag,
        )
        win = back.verify_window()
        rep = verify.residual_reduced_system(win, params, bands_R0=params.R0)
        ck = verify.consistency_K(win, params)
        lo, hi = FIT_WINDOW_R0
        fit = verify.asymptotic_fit(back.eval_fns(), params, (lo * params.R0, hi * params.R0))
    spread = float(rep.first_integral_spread)
    envelope = max(10.0 * TOL_OUTER * params.epsilon**2, 1e-14)  # criterion 8
    if not spread <= envelope:
        errors.append(f"first-integral spread {spread:.3e} above {envelope:.1e}")

    with span("bench.tov"):
        ref = m["tov"].solve_tov(eos, params.u_O, params.G_grav, params.c_light)
        # criterion 10's rays
        rr = np.linspace(0.1 * params.R0, 1.8 * params.R0, 60)
        F = back.metric.F
        Ft = ref.F_isotropic(rr)
        gap = sup_F = 0.0
        for th in (0.3, 0.8, 1.3):
            Fs = F.eval(rr * np.sin(th), rr * np.cos(th)) - F.offset
            gap = max(gap, float(np.max(np.abs(Fs - Ft))))
            sup_F = max(sup_F, float(np.max(np.abs(Ft))))
    tov_rel_gap = gap / sup_F
    if not math.isfinite(tov_rel_gap):
        errors.append("TOV gap is not finite")

    return {
        "outer_iterations": diag["outer_iterations"],
        "inner_iterations": sum(rec["iterations"] for rec in diag["inner_history"]),
        "max_contraction_ratio": max(ratios, default=0.0),
        "first_integral_spread": spread,
        "consistency_sup_L": float(ck["sup_L"]),
        "tov_rel_gap": tov_rel_gap,
        "fingerprint": {
            "M": fit["M"],
            "J": fit["J"],
            **{f"{k}_sup": float(np.max(np.abs(loaded[k].int_vals))) for k in "WYXV"},
        },
        "errors": errors,
    }


def layer_metrics(tracer, stars, wall_start, wall_end):
    """Per-layer self times and counts of one traced pass."""
    table, remainder = self_times(tracer.spans, wall_start, wall_end)

    def self_s(name):
        return table.get(name, (0, 0.0))[1]

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    spans = tracer.spans
    built_on_lookup = sum(1 for name, _, _, parent in spans
                          if name == "greens.table_build" and parent >= 0
                          and spans[parent][0] == "greens.get_table")
    lookups = calls("greens.get_table")
    counts = tracer.counts
    metrics = {
        "lane_emden.solve_distorted_s": self_s("lane_emden.solve_distorted"),
        "lane_emden.distorted_iterations": counts["lane_emden.distorted_iterations"],
        "greens.table_build_s": self_s("greens.table_build"),
        "greens.table_builds": calls("greens.table_build"),
        "greens.table_hit_ratio": (lookups - built_on_lookup) / max(lookups, 1),
        "greens.ring_kernel_s": self_s("greens.ring_kernel"),
        "greens.ring_kernel_evals": counts["greens.ring_kernel_evals"],
        "greens.eval_at_s": self_s("greens.eval_at"),
        "greens.eval_at_calls": calls("greens.eval_at"),
        "greens.eval_at_pairs": counts["greens.eval_at_pairs"],
        "greens.apply_s": self_s("greens.apply"),
        "greens.apply_calls": calls("greens.apply"),
        "greens.k_n_global_s": self_s("greens.k_n_global"),
        "greens.k_n_global_calls": calls("greens.k_n_global"),
        "greens.lop_factor_s": self_s("greens.lop_factor"),
        "greens.lop_solve_s": self_s("greens.lop_solve"),
        "pn.newtonian_fields_s": self_s("pn.newtonian_fields"),
        "pn.inner_iterations": sum(s.get("inner_iterations", 0) for s in stars),
        "pn.outer_iterations": sum(s.get("outer_iterations", 0) for s in stars),
        "fields.eval_s": self_s("fields.eval"),
        "fields.eval_calls": calls("fields.eval"),
        "fields.eval_points": counts["fields.eval_points"],
        "fields.derivative_s": self_s("fields.derivative"),
        "fields.derivative_calls": calls("fields.derivative"),
        "fields.compact_map_s": self_s("fields.compact_map"),
        "metric.assemble_s": self_s("metric.assemble"),
        "eos.enthalpy_s": self_s("eos.enthalpy"),
        "tov.solve_tov_s": self_s("tov.solve_tov"),
        "gridio.write_s": self_s("gridio.write"),
        "gridio.read_s": self_s("gridio.read"),
        "gridio.bytes_written": counts["gridio.bytes_written"],
    }
    for meth in PN_METHODS[:-1]:
        metrics[f"pn.{meth}_s"] = self_s(f"pn.{meth}")
    for fn in VERIFY_FNS:
        metrics[f"verify.{fn}_s"] = self_s(f"verify.{fn}")
    return {
        "metrics": metrics,
        "self_times": table,
        "unwrapped_s": remainder,
        "spans": len(spans),
        "span_cost_s": span_cost(),
    }


def run_pass(spec):
    """Set up (and unless spec["mode"] == "setup", solve and check) every star."""
    wall_start = time.perf_counter()
    m = import_rotstar()
    tracer = Tracer() if spec.get("trace") else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    out = {}
    if tracer:
        install_spans(tracer, m)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        with span("bench.setup"):
            eos, solvers = set_up(spec, m)
        out["setup_s"] = time.process_time() - c0
        out["setup_wall_s"] = time.perf_counter() - t0
        if spec["mode"] == "setup":
            return out
        stars, solve_cpu_s, solve_wall_s = [], 0.0, 0.0
        out_dir = Path(spec["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as dump_root:
            for k, (star, solver) in enumerate(zip(spec["stars"], solvers)):
                record = {"errors": [solver]} if isinstance(solver, str) else None
                if record is None:
                    dump_dir = Path(dump_root) / f"star{k}"
                    dump_dir.mkdir()
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        with span("bench.solve"):
                            res = solver.solve()
                    except Exception:
                        record = {"errors": [traceback.format_exc(limit=3)]}
                    finally:
                        solve_cpu_s += time.process_time() - c0
                        solve_wall_s += time.perf_counter() - t0
                if record is None:
                    try:
                        record = check_star(res, eos, dump_dir, m, span)
                    except Exception:
                        record = {"errors": [traceback.format_exc(limit=3)]}
                stars.append({**star, **record})
        wall_end = time.perf_counter()
        # CPU time of the whole process, interpreter start-up included
        total_cpu_s = time.process_time()
    finally:
        if tracer:
            tracer.restore()
    out.update(
        solve_cpu_s=solve_cpu_s,
        solve_wall_s=solve_wall_s,
        total_cpu_s=total_cpu_s,
        wall_s=wall_end - wall_start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stars=stars,
        environment=environment(),
    )
    if tracer:
        out["trace"] = layer_metrics(tracer, stars, wall_start, wall_end)
        tracer.dump(Path(spec["out_dir"]) / f"trace-{spec['name']}-seed{spec['seed']}.json.gz")
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
