"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The expensive solver sweeps come from session fixtures shared with the unit
tests.  Every tolerance is pinned here; none are tuned at runtime.
"""

import dataclasses

import numpy as np
import pytest

from rotstar.eos import EquationOfState
from rotstar.fields import AxiField, AxiGrid, _kelvin_images
from rotstar.greens import GreenOps, ring_kernel
from rotstar.lane_emden import integrate_theta, solve_classical
from rotstar.metric import KerrParams, kerr_eval_fns
from rotstar.pn import PNSolver, SolverOptions, newtonian_fields
from rotstar.verify import (
    asymptotic_fit,
    consistency_K,
    refinement_order,
    refinement_orders,
    residual_reduced_system,
    ricci_cross_check,
    tov_gap,
)

from conftest import B_ROT, EPS_SWEEP
from oracles import axis_laplacian, flat_window, isotropic_tov_metric, komar_integrals
from test_lane_emden import rk4_xi1_oracle

PARAMS_GEOM = type("P", (), {"G_grav": 1.0, "c_light": 1.0})()


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_criterion_01_lane_emden_exactness(self, cls15):
        sol1 = solve_classical(1.0)
        e1 = abs(sol1.xi1 - np.pi)
        prof5 = integrate_theta(5.0, 20.0)
        xs = np.linspace(1e-3, 20.0, 600)
        e5 = np.max(np.abs(prof5.sol(xs)[0] - (1 + xs**2 / 3.0) ** -0.5))
        oracle = rk4_xi1_oracle(1.5, 2e-4)
        e15 = abs(cls15.xi1 - oracle)
        ok = e1 < 1e-8 and e5 < 1e-8 and e15 < 1e-6
        report(1, ok, f"|xi1(1)-pi|={e1:.2e} (<1e-8), nu=5 profile err={e5:.2e} "
                      f"(<1e-8), nu=1.5 vs RK4 oracle={e15:.2e} (<1e-6)")

    def test_criterion_02_distorted_degeneracy(self, cls15, dle_static, dle_rot):
        s, zeta, TH = dle_static.report_grid()
        TH_cls = cls15.theta(s)[:, None] * np.ones((1, zeta.size))
        gap = float(np.max(np.abs(TH - TH_cls)))
        xi1c = dle_rot.xi1_curve(np.linspace(0.0, 1.0, 9))
        oblate = xi1c[0] > xi1c[-1]
        bounded = float(xi1c.max()) < 2.0 * cls15.xi1
        ok = gap < 1e-6 and oblate and bounded
        report(2, ok, f"b=0 grid gap={gap:.2e} (<1e-6 on 129^2), equator>pole={oblate}, "
                      f"max Xi1/(2 xi1)={xi1c.max() / (2 * cls15.xi1):.3f} (<1)")

    def test_criterion_03_green_operators(self):
        def bump(w, z):
            r2 = (np.hypot(w, z) / 1.8) ** 2
            return np.where(r2 < 1, (1 - r2) ** 3, 0.0)

        orders = {}
        for n in (3, 4, 5):
            errs, hs = [], []
            for N in (33, 65, 129):
                g = AxiGrid(2.0, N, 33)
                oo = GreenOps(g)
                src = AxiField.from_function(g, bump, n)
                u = oo.k_n_global(src, n)
                resid = axis_laplacian(u.int_vals, g.h_int, n) + src.int_vals
                mask = (g.RI <= 1.8 * g.R0) & np.isfinite(resid)
                errs.append(np.abs(resid[mask]).max())
                hs.append(g.h_int)
            orders[n] = refinement_order(hs, errs)
        g = AxiGrid(2.0, 65, 49)
        oo = GreenOps(g)
        rho_b = 0.8 * g.R0
        src = AxiField.from_function(g, lambda w, z: 1.0 * (np.hypot(w, z) <= rho_b), 3)
        u = oo.k_n_global(src, 3)
        exact = np.where(
            g.RI <= rho_b,
            (rho_b**2 - g.RI**2) / 6.0 + rho_b**2 / 3.0,
            rho_b**3 / (3.0 * np.maximum(g.RI, 1e-12)),
        )
        ball_rel = float(np.abs(u.int_vals - exact).max() / exact.max())
        ok = all(abs(o - 2.0) <= 0.2 for o in orders.values()) and ball_rel < 0.02
        report(3, ok, f"forward-residual orders={ {n: round(o, 2) for n, o in orders.items()} } "
                      f"(2 +/- 0.2), ball potential rel err={ball_rel:.2e} (<2e-2)")

    def test_criterion_04_kelvin_machinery(self):
        rng = np.random.RandomState(11)
        p = rng.uniform(0.05, 9.0, (80, 2))
        R0 = 2.0
        # AxiGrid's map, applied again to the images at their image radii
        w, z, r = _kelvin_images(p[:, 0], p[:, 1], np.hypot(p[:, 0], p[:, 1]), R0)
        w, z, _ = _kelvin_images(w, z, r, R0)
        inv = np.max(np.abs(np.column_stack([w, z]) - p) / np.abs(p))
        # harmonic transport: starred Laplacian of a mirrored-ring potential
        sups, hs = [], []
        for M in (33, 65, 129):
            g = AxiGrid(2.0, 33, M)
            ws0, zs0 = 0.3 * g.R0, 0.2 * g.R0

            def fn(w, z):
                wq = np.maximum(w, 1e-9)
                return ring_kernel(3, wq, ws0, z - zs0) + ring_kernel(3, wq, ws0, z + zs0)

            f = AxiField.from_function(g, fn, 3)
            lap = axis_laplacian(f.star_vals, g.h_ext, 3)
            m = np.isfinite(lap) & (g.RS <= 0.9 * g.R0) & (g.RS >= 0.15 * g.R0)
            sups.append(np.abs(lap[m]).max())
            hs.append(g.h_ext)
        transport = refinement_order(hs, sups)
        # decay-index fits
        g = AxiGrid(2.0, 65, 49)
        oo = GreenOps(g)
        worst = 0.0
        for n in (3, 4, 5):
            src = AxiField.from_function(
                g, lambda w, z: np.maximum(0.0, 1 - (np.hypot(w, z) / g.R0) ** 2) ** 3, n
            )
            u = oo.k_n_global(src, n)
            rr = np.geomspace(3 * g.R0, 10 * g.R0, 12)
            vals = u.eval(rr / np.sqrt(2), rr / np.sqrt(2))
            fitted = -np.polyfit(np.log(rr), np.log(np.abs(vals)), 1)[0]
            worst = max(worst, abs(fitted - (n - 2)) / (n - 2))
        ok = inv < 1e-15 and abs(transport - 2.0) < 0.5 and worst < 0.05
        report(4, ok, f"involution={inv:.2e} (<1e-15), transport order={transport:.2f} "
                      f"(~2), decay-fit worst rel dev={worst:.3f} (<0.05)")

    def test_criterion_05_kerr_oracle(self, kerr_levels):
        worst = ("none", 2.0)
        worst_dev = -1.0
        for a, recs in kerr_levels.items():
            for name, o in refinement_orders(recs).items():
                if o is not None and abs(o - 2.0) > worst_dev:
                    worst_dev = abs(o - 2.0)
                    worst = (f"a={a}:{name}", o)
        fits_ok = True
        fit_msg = []
        for a in (0.0, 0.5, 0.9):
            fit = asymptotic_fit(kerr_eval_fns(KerrParams(1.0, a)), PARAMS_GEOM, (20.0, 50.0))
            em = abs(fit["M"] - 1.0)
            ej = abs(fit["J"] - a) / a if a else abs(fit["J"])
            fits_ok &= em < 0.01 and ej < 0.01
            fit_msg.append(f"a={a}: dM={em:.1e} dJ={ej:.1e}")
        ok = worst_dev <= 0.2 and fits_ok
        report(5, ok, f"worst residual order {worst[0]}={worst[1]:.2f} (2 +/- 0.2); "
                      + "; ".join(fit_msg) + " (<1%)")

    def test_criterion_06_flat_space_zero(self):
        win = flat_window(1.0, 65)
        rep = residual_reduced_system(win, PARAMS_GEOM)
        ck = consistency_K(win, PARAMS_GEOM)
        rc = ricci_cross_check(win, PARAMS_GEOM)
        worst = max(
            max(rep.sups.values()), ck["sup_L"], ck["sup_identity"], max(rc["sups"].values())
        )
        ok = worst <= 1e-12
        report(6, ok, f"worst flat-space residual={worst:.2e} (<=1e-12)")

    def test_criterion_07_solver_convergence_and_scalings(
        self, rotating_sweep, refinement_runs
    ):
        # contraction
        contracting = all(
            res.diagnostics["outer_ratio"] < 1.0
            and all(h["ratio"] < 1.0 for h in res.diagnostics["inner_history"])
            for res in rotating_sweep.values()
        )
        # amplitude scalings; Omega_O ~ u_O^{3/4} at fixed b makes the nominal
        # Y-exponent 1.75 against u_O
        sups = {k: [] for k in ("W", "Y", "X", "K")}
        for eps in EPS_SWEEP:
            res = rotating_sweep[eps]
            sups["W"].append(np.abs(res.potentials.W.int_vals).max())
            sups["Y"].append(np.abs(res.potentials.Y.int_vals).max())
            sups["X"].append(np.abs(res.potentials.X.int_vals).max())
            sups["K"].append(np.abs(res.potentials.V.int_vals).max())
        nominal = {"W": 2.0, "Y": 1.75, "X": 2.0, "K": 2.0}
        fitted = {k: refinement_order(EPS_SWEEP, v) for k, v in sups.items()}
        scalings_ok = all(abs(fitted[k] - nominal[k]) <= 0.15 * nominal[k] for k in nominal)
        # converged residuals bounded by discretization: refinement order
        hs, res_sups = [], {}
        for n_int, res in refinement_runs.items():
            win = res.verify_window()
            rep = residual_reduced_system(win, res.params)
            m = win.report_mask() & (win.W >= 0.3 * res.params.r1)
            hs.append(win.h)
            for k, v in rep.residuals.items():
                val = float(np.nanmax(np.abs(np.where(m, v, np.nan))))
                res_sups.setdefault(k, []).append(val)
        res_orders = {
            k: refinement_order(hs, v) for k, v in res_sups.items() if max(v) > 1e-20
        }
        residuals_ok = all(o >= 1.2 for o in res_orders.values())
        support_ok = all(
            res.diagnostics["support_radius_over_r1"] < 3.0 for res in rotating_sweep.values()
        )
        ok = contracting and scalings_ok and residuals_ok and support_ok
        report(7, ok, f"contraction={contracting}; exponents={ {k: round(v, 3) for k, v in fitted.items()} } "
                      f"(within 15% of {nominal}); residual refinement orders="
                      f"{ {k: round(o, 2) for k, o in res_orders.items()} } (>=1.2); "
                      f"support<3r1={support_ok}")

    def test_criterion_08_first_integral(self, rotating_sweep):
        worst = 0.0
        for eps, res in rotating_sweep.items():
            win = res.verify_window()
            rep = residual_reduced_system(win, res.params)
            worst = max(worst, rep.first_integral_spread)
        # the w-construction honors the first integral identically; the
        # envelope is 10x the outer tolerance in the same units plus rounding
        envelope = max(10 * 1e-9 * EPS_SWEEP[0] ** 2, 1e-14)
        ok = worst <= envelope
        report(8, ok, f"first-integral spread={worst:.2e} (<= {envelope:.1e})")

    def test_criterion_09_K_consistency(self, refinement_runs, kerr_levels):
        hs, L_sups = [], []
        for n_int, res in refinement_runs.items():
            win = res.verify_window()
            ck = consistency_K(win, res.params)
            m = win.report_mask(erode=2) & (win.W >= 0.3 * res.params.r1)
            hs.append(win.h)
            L_sups.append(float(np.nanmax(np.abs(np.where(m, ck["L"], np.nan)))))
        solver_order = refinement_order(hs, L_sups)
        kerr_orders = [
            refinement_order(recs["h"], recs["L"]) for recs in kerr_levels.values()
        ]
        ok = solver_order >= 1.2 and all(abs(o - 2.0) <= 0.2 for o in kerr_orders)
        report(9, ok, f"converged-state sup L={L_sups[-1]:.2e} refining at order "
                      f"{solver_order:.2f} (>=1.2); vacuum (Kerr) L orders="
                      f"{[round(o, 2) for o in kerr_orders]} (2 +/- 0.2)")

    def test_criterion_10_positive_mass_and_pn_limit(self, static_sweep, cls15):
        # mass positivity and the O(eps) shift measured through the tail
        # coefficient of W (no catastrophic M - M_N subtraction)
        stars = [static_sweep[eps][0] for eps in EPS_SWEEP]
        Ms = [res.tail_mass() for res in stars]
        shifts = [abs(M - res.diagnostics["M_N"]) / res.diagnostics["M_N"] for M, res in zip(Ms, stars)]
        slope = refinement_order(EPS_SWEEP, shifts)
        mass_ok = all(m > 0 for m in Ms) and abs(slope - 1.0) < 0.3
        # TOV gap beyond Newtonian order.  F = Phi_N/c^2 - W/c^4, so F agrees
        # with TOV through Newtonian order and the rest is O(eps^2): it must
        # shrink ~4x per eps-halving.  The total gap F - F_TOV is dominated by
        # the Newtonian layer's own O(h^2) grid error, which is u_O O(h^2) and
        # so only halves; tov_gap takes it out by comparing F - Phi_N/c^2 with
        # F_TOV - Phi_LE/c^2, where Phi_LE is the exact Lane-Emden potential.
        # The Newtonian layer is checked on its own against Phi_LE at the
        # quadrature level of
        # test_pn.py::TestNewtonianFields::test_matches_spherical_profile.
        gaps = [tov_gap(*static_sweep[eps], cls15) for eps in EPS_SWEEP]
        total, newt, post = ([g[key] for g in gaps] for key in ("total", "newtonian", "post_newtonian"))
        newt_rel = [g["newtonian"] / g["sup_Phi"] for g in gaps]

        def shrinks(gaps):
            return [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]

        shrink_ok = all(2.8 <= s <= 5.7 for s in shrinks(post))
        newt_ok = all(r <= 2e-2 for r in newt_rel)
        ok = mass_ok and shrink_ok and newt_ok

        def fmt(vals):
            return "[" + ", ".join(f"{v:.3e}" for v in vals) + "]"

        report(10, ok, f"M>0={all(m > 0 for m in Ms)}, (M-M_N)/M_N exponent={slope:.3f} "
                       f"(1 +/- 0.3); per eps={list(EPS_SWEEP)}: "
                       f"total gap sup|F-F_TOV|={fmt(total)} shrinks "
                       f"{[round(s, 2) for s in shrinks(total)]}; "
                       f"Newtonian gap sup|Phi_N-Phi_LE|={fmt(newt)} shrinks "
                       f"{[round(s, 2) for s in shrinks(newt)]}, relative "
                       f"{[round(r, 4) for r in newt_rel]} (<=2e-2); "
                       f"post-Newtonian gap sup|(F-Phi_N/c^2)-(F_TOV-Phi_LE/c^2)|="
                       f"{fmt(post)} shrinks {[round(s, 2) for s in shrinks(post)]} (2.8-5.7)")

    def test_criterion_11_asymptotic_flatness(self, rotating_sweep):
        res = rotating_sweep[1e-3]
        p = res.params
        orders = asymptotic_fit(res.eval_fns(), p, (5 * p.R0, 15 * p.R0))["orders"]
        nominal = {"F": 2.0, "A": 4.0, "Pi": 2.0, "K": 2.0}
        ok = all(
            orders[k] is not None and abs(orders[k] - nominal[k]) <= 0.3 for k in nominal
        )
        report(11, ok, f"far-field orders={ {k: round(v, 2) for k, v in orders.items()} } "
                       f"vs nominal {nominal} (each within 0.3)")

    def test_criterion_12_einstein_equations(self, refinement_runs, static_sweep):
        # the paper's equivalence theorem on solved stars: the metric the
        # reduced system assembles satisfies the six raw Einstein equations
        # of ricci_cross_check, each residual refining with the grid on
        # criterion 9's mask; a static star has no frame dragging, so its
        # R02 residual is an exact zero
        hs, sups = [], {}
        for n_int, res in refinement_runs.items():
            win = res.verify_window()
            rc = ricci_cross_check(win, res.params)
            m = win.report_mask(erode=2) & (win.W >= 0.3 * res.params.r1)
            hs.append(win.h)
            for k, v in rc["residuals"].items():
                sups.setdefault(k, []).append(float(np.nanmax(np.abs(np.where(m, v, np.nan)))))
        orders = {k: refinement_order(hs, v) for k, v in sups.items()}
        static_R02 = [ricci_cross_check(res.verify_window(), res.params)["sups"]["R02"]
                      for res, _ in static_sweep.values()]
        ok = len(orders) == 6 and all(o >= 1.2 for o in orders.values()) and not any(static_R02)
        report(12, ok, f"Einstein residual refinement orders="
                       f"{ {k: round(o, 3) for k, o in orders.items()} } (>=1.2); "
                       f"static R02 sups={static_R02} (==0)")

    def test_criterion_13_newtonian_profile(self, refinement_runs, static_sweep, dle_rot,
                                            dle_static, eos_unit):
        # the grid's Newtonian sweep and the distorted Lane-Emden profile
        # solve the same rigidly rotating polytrope by different
        # discretisations: over r <= R0, u_N against u_O Theta(r/a, zeta),
        # and its rotational part (less the b = 0 star's on the same grid)
        # against the profile's, each over its own sup.  Measured from
        # 49/33 to 97/65: total 2.40e-2 / 1.35e-2 / 6.05e-3 (order 1.99),
        # rotational 1.81e-3 / 1.15e-3 / 4.61e-4 (order 1.96); the static
        # stars at 65/49 read 1.36e-2.  A 1 % error in Omega^2 holds the
        # rotational gap at 1.1e-2 (order 0.1)
        def profile(res, dle):
            g, p = res.grid, res.params
            zeta = np.where(g.RI > 0, g.ZI / np.where(g.RI > 0, g.RI, 1.0), 0.0)
            return p.u_O * dle.theta_at(g.RI / p.a_len, zeta), g.RI <= p.R0

        def gap(u, prof, inner):
            return float(np.max(np.abs(u - prof)[inner]) / np.max(np.abs(prof[inner])))

        hs, total, rot = [], [], []
        for res in refinement_runs.values():
            g, p = res.grid, res.params
            # the b = 0 star of the same u_O has the same a, R0 and grid
            p0 = dataclasses.replace(p, Omega_O=0.0)
            u0 = newtonian_fields(dle_static, p0, g, GreenOps(g), eos_unit).u_N.int_total()
            u = res.newtonian.u_N.int_total()
            (prof, inner), (prof0, _) = profile(res, dle_rot), profile(res, dle_static)
            hs.append(g.h_int)
            total.append(gap(u, prof, inner))
            rot.append(gap(u - u0, prof - prof0, inner))
        orders = refinement_order(hs, total), refinement_order(hs, rot)
        static = [gap(res.newtonian.u_N.int_total(), *profile(res, dle_static))
                  for res, _ in static_sweep.values()]
        ok = (min(orders) >= 1.5 and total[-1] < 1e-2 and rot[-1] < 1e-3
              and max(static) < 2e-2)
        report(13, ok, f"u_N vs u_O Theta gaps total={[f'{x:.3e}' for x in total]}, "
                       f"rotational={[f'{x:.3e}' for x in rot]} refining at orders "
                       f"{orders[0]:.2f}, {orders[1]:.2f} (>=1.5), finest below 1e-2, 1e-3; "
                       f"static stars at 65/49 {[f'{x:.3e}' for x in static]} (<2e-2)")

    def test_criterion_14_elementary_flatness(self, refinement_runs, static_sweep):
        # a regular axis needs K = log(Pi/varpi) on it (elementary
        # flatness).  On the axis nodes of both patches the gap, over
        # sup|K|, is a grid error of V's gauge constant: it refines at order
        # >= 1.5 (1.92 measured from 49/33 to 97/65), and a static star's
        # gap at 65/49 is the rotating star's to 1 % (0.2-0.6 % measured)
        def gap(res):
            K, Q = res.metric.K, res.metric.Pi_over_w
            pairs = ((K.int_total(), Q.int_total()), (K.star_raw_values(), Q.star_raw_values()))
            scale = max(float(np.max(np.abs(k))) for k, _ in pairs)
            return max(float(np.max(np.abs(k[0] - np.log(q[0])))) for k, q in pairs) / scale

        hs = [res.grid.h_int for res in refinement_runs.values()]
        gaps = [gap(res) for res in refinement_runs.values()]
        order = refinement_order(hs, gaps)
        static = [gap(res) for res, _ in static_sweep.values()]
        ok = order >= 1.5 and all(abs(g / gaps[1] - 1.0) <= 1e-2 for g in static)
        report(14, ok, f"axis gap sup|K - log(Pi/varpi)|/sup|K|={[f'{g:.3e}' for g in gaps]} "
                       f"refining at order {order:.2f} (>=1.5); static stars at 65/49 "
                       f"{[f'{g:.3e}' for g in static]} (within 1% of {gaps[1]:.3e})")

    def test_criterion_16_komar_integrals(self, refinement_runs, static_sweep):
        # the Komar volume integrals of the solved fluid and metric against
        # the M and J read at W's and Y's starred origins.  They hold at
        # every b and eps, so the gaps are grid error: measured from 49/33
        # to 97/65, M 3.45e-9 / 2.49e-9 / 1.50e-9 and J 6.69e-5 / 3.62e-5 /
        # 1.47e-5 (order 2.19), a static star's M 2.46e-9 and its J_K 0.
        # With Y's post-Newtonian fluid source (Q6) 1 % off, J's gap reads
        # 3.78e-5 at 97/65 and refines at order 1.21
        def gaps(res):
            M_K, J_K = komar_integrals(res.verify_window(), res.params.c_light)
            J = res.tail_angular_momentum()
            return abs(M_K / res.tail_mass() - 1.0), abs(J_K / J - 1.0) if J else J_K

        hs = [res.grid.h_int for res in refinement_runs.values()]
        rot = [gaps(res) for res in refinement_runs.values()]
        static = [gaps(res) for res, _ in static_sweep.values()]
        m_gaps, j_gaps = [g[0] for g in rot + static], [g[1] for g in rot]
        order = refinement_order(hs, j_gaps)
        ok = (max(m_gaps) < 1e-8 and order >= 1.8 and j_gaps[-1] < 3e-5
              and all(g[1] == 0.0 for g in static))
        report(16, ok, f"Komar gaps |M_K/M - 1|={[f'{g:.2e}' for g in m_gaps]} (<1e-8), "
                       f"|J_K/J - 1|={[f'{g:.2e}' for g in j_gaps]} refining at order "
                       f"{order:.2f} (>=1.8), finest below 3e-5; static J_K="
                       f"{[g[1] for g in static]} (==0)")

    def test_criterion_17_static_metric_off_axis(self, static_sweep, dle_static, cls15,
                                                 eos_unit):
        # a static star's Pi/varpi and K against isotropic TOV on criterion
        # 10's rays, the u_O = 1e-3 star at 33/25, 49/33 and 65/49; each gap
        # over its scale, sup|Pi/varpi_TOV - 1| and sup|K_TOV|.  Measured
        # Pi/varpi 1.11e-1 / 5.60e-2 / 2.84e-2 and K 2.28e-1 / 1.16e-1 /
        # 6.60e-2, fitted orders 1.95 and 1.78.  With X's Newtonian source
        # 2 % off, Pi/varpi reads 4.85e-2 at 65/49 and refines at order 1.42
        fine, tov = static_sweep[1e-3]
        p = fine.params
        stars = [PNSolver(p, eos_unit, SolverOptions(n_int, n_ext), dle=dle_static,
                          classical=cls15).solve() for n_int, n_ext in ((33, 25), (49, 33))]
        rr = np.linspace(0.1 * p.R0, 1.8 * p.R0, 60)
        th = np.array([[0.3], [0.8], [1.3]])
        w, z = rr * np.sin(th), rr * np.cos(th)
        Q_tov, K_tov = isotropic_tov_metric(tov, rr)
        hs, q_gaps, k_gaps = [], [], []
        for res in stars + [fine]:
            met = res.metric
            hs.append(res.grid.h_int)
            q_gaps.append(float(np.max(np.abs(met.Pi_over_w.eval(w, z) - Q_tov)
                                / np.max(np.abs(Q_tov - 1.0)))))
            k_gaps.append(float(np.max(np.abs(met.K.eval(w, z) - K_tov)) / np.max(np.abs(K_tov))))
        orders = refinement_order(hs, q_gaps), refinement_order(hs, k_gaps)
        ok = min(orders) >= 1.5 and q_gaps[-1] < 4e-2 and k_gaps[-1] < 9e-2
        report(17, ok, f"static Pi/varpi gaps={[f'{g:.3e}' for g in q_gaps]}, "
                       f"K gaps={[f'{g:.3e}' for g in k_gaps]} refining at orders "
                       f"{orders[0]:.2f}, {orders[1]:.2f} (>=1.5), finest below 4e-2, 9e-2")
