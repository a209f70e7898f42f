"""Batch pipelines: lane-emden | solve | verify | kerr-check | tov-compare |
sweep | export.

Every command is deterministic for a fixed config (no RNG anywhere in the
pipelines); manifests carry the config digest and package version.  Exit
codes: 0 pass, 1 config or command-line error, 2 convergence/regime error,
3 verification failure.
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (build_eos, build_params, build_profile, build_solver_options, load_config,
                     sweep_key)
from .errors import ConfigError, ConvergenceError, RegimeError, RotstarError

# the fields `solve` dumps as NAME.axfd and `verify` reads back
DUMPED_FIELDS = ("W", "Y", "X", "V", "w_corr", "F", "A", "Pi_over_w", "K", "u_N", "rho_N",
                 "Phi_N", "rho", "P", "u")


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
    }
    data.update(payload)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=float)
    return path


def _say(cfg, *msg):
    if not cfg.output["quiet"]:
        print(*msg)


def cmd_lane_emden(cfg, out_dir):
    from .lane_emden import solve_classical

    out = _out_dir(cfg, out_dir)
    nu = 1.0 / (cfg.eos["gamma"] - 1.0)
    cls = solve_classical(nu)
    params = build_params(cfg, classical=cls)
    b = params.b_rot
    dle = build_profile(cfg, params, cls)
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
    _say(cfg, f"lane-emden: xi1 = {cls.xi1:.10f}, iterations = {dle.iterations}")
    return 0


def _run_solver(cfg):
    from .lane_emden import solve_classical
    from .pn import PNSolver

    eos = build_eos(cfg)
    cls = solve_classical(1.0 / (cfg.eos["gamma"] - 1.0))
    params = build_params(cfg, classical=cls)
    dle = build_profile(cfg, params, cls)
    solver = PNSolver(params, eos, build_solver_options(cfg), dle=dle, classical=cls)
    return solver, solver.solve(), eos


def _write_state(out, res):
    from .gridio import write_field

    pot, met, nf = res.potentials, res.metric, res.newtonian
    fields = (pot.W, pot.Y, pot.X, pot.V, pot.w, met.F, met.A_pot, met.Pi_over_w, met.K,
              nf.u_N, nf.rho_N, nf.Phi_N, res.fluid["rho"], res.fluid["P"], res.fluid["u"])
    for name, fld in zip(DUMPED_FIELDS, fields, strict=True):
        write_field(out / f"{name}.axfd", fld, name=name)


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


def cmd_solve(cfg, out_dir):
    out = _out_dir(cfg, out_dir)
    solver, res, eos = _run_solver(cfg)
    _write_state(out, res)
    ver = _verify_payload(cfg, res)
    payload = {
        "command": "solve",
        "diagnostics": _json_safe(res.diagnostics),
        "verify": ver,
        "M": ver["asymptotics"]["M"],
        "J": ver["asymptotics"]["J"],
        "M_N": res.diagnostics["M_N"],
    }
    _manifest(out, cfg, payload)
    _say(
        cfg,
        f"solve: outer iterations = {res.diagnostics['outer_iterations']}, "
        f"M = {ver['asymptotics']['M']:.6e}, M_N = {res.diagnostics['M_N']:.6e}, "
        f"J = {ver['asymptotics']['J']:.6e}",
    )
    flags = res.diagnostics["regime_flags"]
    if not (flags["D1_b_small"] and flags["D2_epsilon_small"]):
        _say(cfg, f"warning: regime flags {flags}")
    return 0


def cmd_verify(cfg, out_dir, run_dir):
    from .gridio import read_field
    from .pn import SolveResult

    run = Path(run_dir)
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

    loaded = {}
    grid = None
    for name in DUMPED_FIELDS:
        fld, _ = read_field(run / f"{name}.axfd", grid)
        grid = fld.grid
        loaded[name] = fld

    from .metric import MetricLanczos
    from .pn import PotentialSet

    met = MetricLanczos(
        F=loaded["F"], A_pot=loaded["A"], Pi_over_w=loaded["Pi_over_w"], K=loaded["K"],
        c_light=params.c_light,
    )
    res = SolveResult(
        params=params,
        grid=grid,
        potentials=PotentialSet(W=loaded["W"], Y=loaded["Y"], X=loaded["X"],
                                V=loaded["V"], w=loaded["w_corr"]),
        metric=met,
        newtonian=None,
        fluid={"rho": loaded["rho"], "P": loaded["P"], "u": loaded["u"]},
        diagnostics=man.get("diagnostics", {}),
    )
    ver = _verify_payload(cfg, res)
    out = _out_dir(cfg, out_dir)
    path = out / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(_json_safe(ver), fh, indent=2, sort_keys=True, default=float)
    _say(cfg, f"verify: report at {path}")
    worst = max(ver["residuals"]["sups"].values())
    scale = max(ver["residuals"]["scales"].values())
    if worst > 0.2 * scale:
        _say(cfg, f"verification failure: residual sup {worst:.3e} vs scale {scale:.3e}")
        return 3
    return 0


def cmd_kerr_check(cfg, out_dir):
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
    _manifest(_out_dir(cfg, out_dir), cfg, payload)
    ok_orders = all(o is None or abs(o - 2.0) <= 0.2 for o in orders.values())
    ok_fit = payload["M_err_rel"] <= 0.01 and payload["J_err_rel"] <= 0.01
    _say(cfg, f"kerr-check: orders {orders}")
    _say(cfg, f"kerr-check: M err {payload['M_err_rel']:.2e}, J err {payload['J_err_rel']:.2e}")
    return 0 if (ok_orders and ok_fit) else 3


def cmd_tov_compare(cfg, out_dir):
    from .tov import solve_tov
    from .verify import tov_gap

    out = _out_dir(cfg, out_dir)
    if cfg.star["Omega_O"] not in (None, 0.0) or (cfg.star["b_rot"] or 0.0) != 0.0:
        # TOV is static: compare against a non-rotating copy of the star
        cfg = replace(cfg, star={**cfg.star, "Omega_O": None, "b_rot": 0.0})
    solver, res, eos = _run_solver(cfg)
    params = res.params
    tov = solve_tov(eos, params.u_O, params.G_grav, params.c_light)
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
    _say(cfg, f"tov-compare: rel F gap {payload['rel_gap']:.3e}, M_tov {tov.M_total:.6e}")
    return 0


def cmd_sweep(cfg, out_dir):
    from concurrent.futures import ProcessPoolExecutor

    from .verify import refinement_order

    section, key = sweep_key(cfg.sweep["param"])
    values = cfg.sweep["values"]
    jobs = []
    for v in values:
        sub = json.loads(json.dumps(cfg.to_dict()))
        sub[section][key] = v
        jobs.append(load_config(sub))  # every swept config is valid before anything is written
    out = _out_dir(cfg, out_dir)
    results = []
    with ProcessPoolExecutor(max_workers=cfg.sweep["workers"]) as pool:
        for v, r in zip(values, pool.map(_sweep_worker, jobs)):
            results.append({"value": v, **r})
    sups = {f"{key}_exponent": refinement_order(values, [r[key] for r in results])
            for key in ("W_sup", "Y_sup", "X_sup", "K_sup") if min(r[key] for r in results) > 0}
    payload = {"command": "sweep", "results": results, "fitted_exponents": sups}
    _manifest(out, cfg, payload)
    _say(cfg, f"sweep: exponents {sups}")
    return 0


def _sweep_worker(cfg):
    _, res, _ = _run_solver(cfg)
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


def cmd_export(cfg, out_dir, dump, patch):
    from .gridio import export_text, read_field

    fld, name = read_field(dump)
    out = _out_dir(cfg, out_dir)
    target = out / (Path(dump).stem + f".{patch}.dat")
    export_text(target, fld, patch=patch)
    _say(cfg, f"export: {target}")
    return 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _usage_error(message):
    """argparse's error hook: a command-line error is a config error, exit 1,
    not argparse's 2, which the exit codes give to convergence errors."""
    raise ConfigError(message)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rotstar", description=__doc__)
    parser.error = _usage_error
    parser.add_argument("command", choices=[
        "lane-emden", "solve", "verify", "kerr-check", "tov-compare", "sweep", "export",
    ])
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--run", default=None, help="run directory (verify)")
    parser.add_argument("--dump", default=None, help="field dump path (export)")
    parser.add_argument("--patch", default="interior", choices=["interior", "exterior"])
    parser.add_argument("--quiet", action="store_true")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.quiet:
            cfg.output["quiet"] = True
        if args.command == "lane-emden":
            return cmd_lane_emden(cfg, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "verify":
            if not args.run:
                raise ConfigError("verify needs --run DIR")
            return cmd_verify(cfg, args.out, args.run)
        if args.command == "kerr-check":
            return cmd_kerr_check(cfg, args.out)
        if args.command == "tov-compare":
            return cmd_tov_compare(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "export":
            if not args.dump:
                raise ConfigError("export needs --dump PATH")
            return cmd_export(cfg, args.out, args.dump, args.patch)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, RegimeError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except RotstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
