"""Batch pipelines: lane-emden | solve | verify | kerr-check | tov-compare |
sweep | export.

Every command is deterministic for a fixed config (no RNG anywhere in the
pipelines); manifests carry the config digest and package version.  Exit
codes: 0 pass, 1 config or command-line error, 2 convergence/regime error,
3 verification failure.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (build_eos, build_params, build_solver_options, build_star, load_config,
                     sweep_key)
from .errors import ConfigError, ConvergenceError, RegimeError, RotstarError


def _out_dir(cfg, override):
    out = Path(override) if override else Path(cfg.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out, cfg, payload):
    data = {
        "version": __version__,
        "config_digest": cfg.digest(),
        "config": cfg.to_dict(),
        "created_unix": int(time.time()),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    data.update(payload)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=float)
    return path


def cmd_lane_emden(cfg, args):
    out = _out_dir(cfg, args.out)
    cls, params, dle = build_star(cfg)
    nu, b = params.nu, params.b_rot
    n = cfg.lane_emden["report_grid"]
    s, zeta, TH = dle.report_grid(n)
    xi = np.linspace(0.0, dle.Xi0, 4 * n)
    np.savetxt(
        out / "theta_classical.dat",
        np.column_stack([xi, cls.theta(xi)]),
        header="xi theta",
        comments="# ",
    )
    S, Zt = np.meshgrid(s, zeta, indexing="ij")
    np.savetxt(
        out / "theta_distorted.dat",
        np.column_stack([S.ravel(), Zt.ravel(), TH.ravel()]),
        header="s zeta Theta",
        comments="# ",
    )
    zq = np.linspace(0.0, 1.0, 33)
    xi1c = dle.xi1_curve(zq)
    np.savetxt(out / "xi1_curve.dat", np.column_stack([zq, xi1c]), header="zeta Xi1", comments="# ")

    TH_cls = cls.theta(s)[:, None] * np.ones((1, zeta.size))
    b0_gap = float(np.max(np.abs(TH - TH_cls))) if b == 0.0 else None
    payload = {
        "command": "lane-emden",
        "nu": nu,
        "b_rot": b,
        "xi1": cls.xi1,
        "mu1": cls.mu1,
        "iterations": dle.iterations,
        "contraction_ratio": dle.contraction_ratio,
        "Theta_inf_const": dle.Theta_inf_const,
        "xi1_equator": float(xi1c[0]),
        "xi1_pole": float(xi1c[-1]),
        "b0_matches_classical_within": b0_gap,
    }
    _manifest(out, cfg, payload)
    print(f"lane-emden: xi1 = {cls.xi1:.10f}, iterations = {dle.iterations}")
    return 0


def _run_solver(cfg):
    from .pn import PNSolver

    eos = build_eos(cfg)
    cls, params, dle = build_star(cfg)
    solver = PNSolver(params, eos, build_solver_options(cfg), dle=dle, classical=cls)
    return solver, solver.solve()


def _verify_payload(cfg, res):
    from .verify import asymptotic_fit, consistency_K, residual_reduced_system

    params = res.params
    win = res.verify_window()
    rep = residual_reduced_system(win, params, bands_R0=params.R0)
    ck = consistency_K(win, params)
    lo, hi = cfg.verify["fit_window"]
    fit = asymptotic_fit(res.eval_fns(), params, (lo * params.R0, hi * params.R0))
    return {
        "residuals": rep.to_dict(),
        "consistency_sup_L": ck["sup_L"],
        "consistency_identity": ck["sup_identity"],
        "asymptotics": fit,
    }


def cmd_solve(cfg, args):
    from .gridio import write_field

    out = _out_dir(cfg, args.out)
    _, res = _run_solver(cfg)
    for name, fld in res.dumped_fields().items():
        write_field(out / f"{name}.axfd", fld, name=name)
    ver = _verify_payload(cfg, res)
    payload = {
        "command": "solve",
        "diagnostics": res.diagnostics,
        "verify": ver,
        "M": ver["asymptotics"]["M"],
        "J": ver["asymptotics"]["J"],
        "M_N": res.diagnostics["M_N"],
    }
    _manifest(out, cfg, payload)
    print(
        f"solve: outer iterations = {res.diagnostics['outer_iterations']}, "
        f"M = {ver['asymptotics']['M']:.6e}, M_N = {res.diagnostics['M_N']:.6e}, "
        f"J = {ver['asymptotics']['J']:.6e}",
    )
    flags = res.diagnostics["regime_flags"]
    if not (flags["D1_b_small"] and flags["D2_epsilon_small"]):
        print(f"warning: regime flags {flags}", file=sys.stderr)
    return 0


def cmd_verify(cfg, args):
    from .gridio import read_field
    from .pn import SolveResult

    if not args.run:
        raise ConfigError("verify needs --run DIR")
    run = Path(args.run)
    try:
        with open(run / "manifest.json") as fh:
            man = json.load(fh)
        # only the physics sections: a manifest written by an older version
        # may carry keys this version no longer accepts elsewhere
        physics = {key: man["config"][key] for key in ("eos", "star")}
    except OSError as exc:
        raise ConfigError(f"{run}: no readable manifest.json ({exc.strerror})") from None
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{run}: manifest.json is not a run manifest ({exc!r})") from None
    params = build_params(load_config(physics))

    loaded, grid = {}, None
    for name in SolveResult.DUMPED:
        loaded[name], _ = read_field(run / f"{name}.axfd", grid)
        grid = loaded[name].grid
    res = SolveResult.from_dumped(params, loaded, man.get("diagnostics", {}))
    ver = _verify_payload(cfg, res)
    out = _out_dir(cfg, args.out)
    path = out / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(ver, fh, indent=2, sort_keys=True, default=float)
    print(f"verify: report at {path}")
    worst = max(ver["residuals"]["sups"].values())
    scale = max(ver["residuals"]["scales"].values())
    if worst > 0.2 * scale:
        print(f"verification failure: residual sup {worst:.3e} vs scale {scale:.3e}")
        return 3
    return 0


def cmd_kerr_check(cfg, args):
    from types import SimpleNamespace

    from .metric import KerrParams, kerr_eval_fns
    from .verify import asymptotic_fit, kerr_refinement, refinement_orders

    k = cfg.kerr
    kp = KerrParams(k["m_geom"], k["a_spin"])
    params = SimpleNamespace(G_grav=cfg.star["G_grav"], c_light=cfg.eos["c_light"])
    orders = refinement_orders(kerr_refinement(kp, params, k["window"], k["levels"]))
    fit = asymptotic_fit(kerr_eval_fns(kp), params, (20.0 * kp.m_geom, 50.0 * kp.m_geom))
    payload = {
        "command": "kerr-check",
        "m_geom": kp.m_geom,
        "a_spin": kp.a_spin,
        "orders": orders,
        "M_fit": fit["M"],
        "J_fit": fit["J"],
        "M_err_rel": abs(fit["M"] - kp.m_geom) / kp.m_geom,
        "J_err_rel": (abs(fit["J"] - kp.m_geom * kp.a_spin) / abs(kp.m_geom * kp.a_spin)
                      if kp.a_spin else abs(fit["J"])),
    }
    _manifest(_out_dir(cfg, args.out), cfg, payload)
    ok_orders = all(o is None or abs(o - 2.0) <= 0.2 for o in orders.values())
    ok_fit = payload["M_err_rel"] <= 0.01 and payload["J_err_rel"] <= 0.01
    print(f"kerr-check: orders {orders}")
    print(f"kerr-check: M err {payload['M_err_rel']:.2e}, J err {payload['J_err_rel']:.2e}")
    return 0 if (ok_orders and ok_fit) else 3


def cmd_tov_compare(cfg, args):
    from .tov import solve_tov
    from .verify import tov_gap

    out = _out_dir(cfg, args.out)
    if cfg.star["Omega_O"] not in (None, 0.0) or (cfg.star["b_rot"] or 0.0) != 0.0:
        # TOV is static: compare against a non-rotating copy of the star
        cfg = replace(cfg, star={**cfg.star, "Omega_O": None, "b_rot": 0.0})
    solver, res = _run_solver(cfg)
    params = res.params
    tov = solve_tov(solver.eos, params.u_O, params.G_grav, params.c_light)
    # criterion 10's rays and its split of the gap
    gap = tov_gap(res, tov, solver.classical)
    payload = {
        "command": "tov-compare",
        "M_tov": tov.M_total,
        "M_solver_from_tail": res.tail_mass(),
        "M_N": res.diagnostics["M_N"],
        "sup_F_gap": gap["total"],
        "sup_F": gap["sup_F"],
        "rel_gap": gap["total"] / gap["sup_F"],
        "newtonian_gap": gap["newtonian"],
        "post_newtonian_gap": gap["post_newtonian"],
    }
    _manifest(out, cfg, payload)
    print(f"tov-compare: rel F gap {payload['rel_gap']:.3e}, M_tov {tov.M_total:.6e}")
    return 0


def cmd_sweep(cfg, args):
    from concurrent.futures import ProcessPoolExecutor

    from .verify import refinement_order

    section, key = sweep_key(cfg.sweep["param"])
    values = cfg.sweep["values"]
    jobs = []
    for v in values:
        sub = json.loads(json.dumps(cfg.to_dict()))
        sub[section][key] = v
        jobs.append(load_config(sub))  # every swept config is valid before anything is written
    out = _out_dir(cfg, args.out)
    results = []
    # a fork pool starts all its workers at the first submit: no more than there are jobs
    with ProcessPoolExecutor(max_workers=min(cfg.sweep["workers"], len(jobs))) as pool:
        for v, r in zip(values, pool.map(_sweep_worker, jobs)):
            results.append({"value": v, **r})
    sups = {f"{key}_exponent": refinement_order(values, [r[key] for r in results])
            for key in ("W_sup", "Y_sup", "X_sup", "K_sup") if min(r[key] for r in results) > 0}
    payload = {"command": "sweep", "results": results, "fitted_exponents": sups}
    _manifest(out, cfg, payload)
    print(f"sweep: exponents {sups}")
    return 0


def _sweep_worker(cfg):
    _, res = _run_solver(cfg)
    p = res.params
    return {
        "W_sup": float(np.abs(res.potentials.W.int_vals).max()),
        "Y_sup": float(np.abs(res.potentials.Y.int_vals).max()),
        "X_sup": float(np.abs(res.potentials.X.int_vals).max()),
        "K_sup": float(np.abs(res.potentials.V.int_vals).max() / p.c_light**4),
        "M_N": res.diagnostics["M_N"],
        "C_W": float(res.potentials.W.star_vals[0, 0] * p.R0),
        "outer_iterations": res.diagnostics["outer_iterations"],
        "outer_ratio": res.diagnostics["outer_ratio"],
    }


def cmd_export(cfg, args):
    from .gridio import export_text, read_field

    if not args.dump:
        raise ConfigError("export needs --dump PATH")
    fld, _ = read_field(args.dump)
    out = _out_dir(cfg, args.out)
    target = out / (Path(args.dump).stem + f".{args.patch}.dat")
    export_text(target, fld, patch=args.patch)
    print(f"export: {target}")
    return 0


# each command takes the config and the parsed command line
COMMANDS = {"lane-emden": cmd_lane_emden, "solve": cmd_solve, "verify": cmd_verify,
            "kerr-check": cmd_kerr_check, "tov-compare": cmd_tov_compare, "sweep": cmd_sweep,
            "export": cmd_export}


def _usage_error(message):
    """argparse's error hook: a command-line error is a config error, exit 1,
    not argparse's 2, which the exit codes give to convergence and regime errors."""
    raise ConfigError(message)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rotstar", description=__doc__)
    parser.error = _usage_error
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--run", default=None, help="run directory (verify)")
    parser.add_argument("--dump", default=None, help="field dump path (export)")
    parser.add_argument("--patch", default="interior", choices=["interior", "exterior"])
    parser.add_argument("--quiet", action="store_true")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        # --quiet drops the printed summaries; the regime warning and errors still go to stderr
        with contextlib.redirect_stdout(io.StringIO()) if args.quiet else contextlib.nullcontext():
            return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 2
    except RotstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
