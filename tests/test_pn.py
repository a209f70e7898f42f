import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rotstar import greens, pn
from rotstar.eos import EquationOfState
from rotstar.errors import ConvergenceError, DomainError, SeriesDomainError
from rotstar.fields import AxiField, AxiGrid
from rotstar.greens import FAR_RANK_TOL, FAR_SKETCH_ROWS, far_mask
from rotstar.metric import e2G_normalization
from rotstar.pn import PNSolver, SolverOptions, StarParams, omega_profile, v_star_from_infinity
from rotstar.verify import asymptotic_fit, consistency_K

from conftest import B_ROT, EPS_SWEEP
from oracles import rho_NO


class TestStarParams:
    def test_length_and_rotation_parameters(self, cls15):
        p = StarParams.build(5 / 3, 2.0, 3.0, 1.5, u_O=2e-3, b_rot=5e-4, classical=cls15)
        g, A, G = p.gamma, p.A_const, p.G_grav
        a_direct = (
            math.sqrt(A * g / (4 * math.pi * G * (g - 1)))
            * rho_NO(p) ** (-(2 - g) / 2)
        )
        b_direct = p.Omega_O**2 / (4 * math.pi * G * rho_NO(p))
        assert p.a_len == pytest.approx(a_direct, rel=1e-12)
        assert p.b_rot == pytest.approx(b_direct, rel=1e-12)

    def test_omega_identity(self, cls15):
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=1e-3, classical=cls15)
        assert p.Omega_O**2 == pytest.approx(p.b_rot * p.u_O / p.a_len**2, rel=1e-12)

    def test_derived_radii(self, cls15):
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=0.0, classical=cls15)
        assert p.r1 == pytest.approx(p.a_len * cls15.xi1, rel=1e-14)
        assert p.R0 == pytest.approx(4 * p.r1, rel=1e-14)

    def test_regime_flags(self, cls15):
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=0.5, b_rot=0.3, classical=cls15)
        flags = p.regime_flags()
        assert flags["D0_gamma_range"]
        assert not flags["D1_b_small"]
        assert not flags["D2_epsilon_small"]

    def test_exclusive_rotation_spec(self, cls15):
        with pytest.raises(DomainError):
            StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, classical=cls15)


class TestOmegaProfile:
    def test_plateau_and_cutoff(self, cls15):
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=1e-3, classical=cls15)
        assert omega_profile(p, 0.5 * p.R0) == pytest.approx(p.Omega_O, rel=1e-15)
        assert omega_profile(p, 3.0 * p.R0) == 0.0

    def test_monotone_transition(self, cls15):
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=1e-3, classical=cls15)
        rr = np.linspace(1.0, 2.0, 40) * p.R0
        vals = omega_profile(p, rr)
        assert np.all(np.diff(vals) <= 1e-15)
        mid = omega_profile(p, 1.5 * p.R0)
        assert 0.0 < mid < p.Omega_O


class TestNewtonianFields:
    def test_center_value(self, rotating_solver):
        nf = rotating_solver.nf
        p = rotating_solver.params
        assert nf.u_N.int_total()[0, 0] == pytest.approx(p.u_O, rel=1e-12)

    def test_matches_spherical_profile(self, rotating_solver):
        # grid u_N vs the spherical-grid distorted profile: quadrature-level
        nf = rotating_solver.nf
        p = rotating_solver.params
        g = rotating_solver.grid
        dle = rotating_solver.dle
        r = g.RI
        zeta = np.where(r > 0, g.ZI / np.where(r > 0, r, 1.0), 0.0)
        ref = p.u_O * dle.theta_at(r / p.a_len, zeta)
        # compare inside r <= R0 where the spherical grid carries the full
        # forcing; beyond it the cutoff band belongs to the grid solve only
        inside = r <= p.R0
        gap = np.abs(nf.u_N.int_total() - ref)[inside] / p.u_O
        assert gap.max() < 2e-2
        core = r <= 1.5 * p.r1
        assert np.abs(nf.u_N.int_total() - ref)[core].max() / p.u_O < 1e-2

    def test_identity_exact_on_grid(self, rotating_solver):
        # u_N = Omega^2 w^2/2 - (Phi_N - Phi_N(O)) + u_O to the sweep tolerance
        nf = rotating_solver.nf
        p = rotating_solver.params
        g = rotating_solver.grid
        om2w2 = omega_profile(p, g.RI) ** 2 * g.WI**2
        lhs = nf.u_N.int_total()
        rhs = 0.5 * om2w2 - (nf.Phi_N.int_vals - nf.Phi_N.int_vals[0, 0]) + p.u_O
        assert np.abs(lhs - rhs).max() < 1e-11 * p.u_O

    def test_far_field_constant(self, rotating_solver):
        nf = rotating_solver.nf
        p = rotating_solver.params
        # u_N(infinity) = Phi_N(O) + u_O < 0
        assert nf.u_N.offset == pytest.approx(nf.Phi_N.int_vals[0, 0] + p.u_O, rel=1e-6)
        assert nf.u_N.offset < 0

    def test_support_and_mass(self, rotating_solver):
        nf = rotating_solver.nf
        p = rotating_solver.params
        g = rotating_solver.grid
        sel = nf.rho_N.int_vals > 0
        assert np.max(g.RI[sel]) < 2.0 * p.r1
        assert nf.M_N > 0

    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_static_setup_fills_once(self, monkeypatch, cls15, eos_unit, dle_static, eps):
        # static_sweep's stars, set up on caches of their own: the Newtonian
        # sweep's density ends one column past the seeded one's (9 columns
        # against 8), and the set-up fills the n = 3 table once, up front,
        # to hold it, since a later fill would rebuild it from column 0
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        monkeypatch.setattr(greens, "_FAR_CACHE", {})
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=eps, b_rot=0.0, classical=cls15)
        solver = PNSolver(p, eos_unit, SolverOptions(65, 49), dle=dle_static, classical=cls15)
        assert list(greens._TABLE_CACHE) == [(65, 3)]
        table = greens._TABLE_CACHE[65, 3]
        carried = 1 + np.flatnonzero(solver.nf.rho_N.interior_compact().any(axis=1)).max()
        assert (table.fills, table.ncols, carried) == (1, 9, 9)

    def test_sweep_reported(self, rotating_sweep, static_sweep):
        # the consistency sweep's iteration count and last change reach the
        # diagnostics; the change is below the sweep tolerance 1e-12 u_O
        for res in [*rotating_sweep.values(), *(res for res, _ in static_sweep.values())]:
            rep = res.diagnostics["newtonian"]
            assert rep == {"iterations": res.newtonian.iterations,
                           "residual": res.newtonian.residual}
            assert 1 < rep["iterations"] < 200
            assert 0.0 <= rep["residual"] < 1e-12 * res.params.u_O

    def test_lane_emden_potential_identity_static(self, static_sweep):
        # b = 0: Phi_N - Phi_N(O) = -u_O (theta - 1) inside the star
        res, _ = static_sweep[1e-3]
        nf = res.newtonian
        p = res.params
        g = res.grid
        inside = g.RI < 1.5 * p.r1
        lhs = (nf.Phi_N.int_vals - nf.Phi_N.int_vals[0, 0])[inside]
        rhs = -(nf.u_N.int_total() - p.u_O)[inside]
        assert np.abs(lhs - rhs).max() < 1e-10 * p.u_O


class TestWAlgebra:
    def test_w_equals_W_where_omega_zero(self, rotating_sweep):
        res = rotating_sweep[1e-3]
        g = res.grid
        pot = res.potentials
        outside = g.RI >= 2.0 * res.params.R0
        diff = (pot.w.int_vals - pot.W.reindex(3).int_vals)[outside]
        assert np.abs(diff).max() < 1e-18

    def test_g_relation_closes(self, rotating_sweep):
        # e^{2G} from the metric equals exp(2(Phi/c^2 - Om^2 w^2/(2 c^2)
        # - w/c^4)): the log expansion is exact
        res = rotating_sweep[1e-3]
        p = res.params
        g = res.grid
        arrs = res.metric.interior_arrays()
        Om = omega_profile(p, g.RI)
        G = 0.5 * np.log(e2G_normalization(arrs["F"], arrs["A"], arrs["Pi"], Om, p.c_light))
        direct = (
            res.newtonian.Phi_N.int_vals / p.c_light**2
            - 0.5 * Om**2 * g.WI**2 / p.c_light**2
            - res.potentials.w.int_total() / p.c_light**4
        )
        assert np.abs(G - direct).max() < 1e-14

    def test_flat_log_oracle(self, rotating_solver):
        # W = Y = X = 0: inside the rigid region the series reduces to the
        # closed log once the Newtonian potential term is accounted exactly
        solver = rotating_solver
        p = solver.params
        g = solver.grid
        zero3 = AxiField.zeros(g, 3)
        w = solver.w_from_WYX(zero3, AxiField.zeros(g, 5), AxiField.zeros(g, 4))
        c = p.c_light
        Om = omega_profile(p, g.RI)
        E = np.exp(-4.0 * solver.nf.Phi_N.int_vals / c**2)
        zed = -(Om**2) * g.WI**2 * E / c**2
        direct = (
            -0.5 * Om**2 * g.WI**2 * c**2 * (1.0 - E)
            - 0.5 * c**4 * (np.log1p(zed) - zed)
        )
        assert np.abs(w.int_vals - direct).max() < 1e-16 * max(1.0, np.abs(direct).max() / 1e-3)

    def test_z_bound(self, rotating_solver):
        # Z ~ -(Om varpi)^2 (1 + X/c^4)^2 e^{-4F}: a large X bump drives
        # |Z|/c^2 past 1, where the log series of w_from_WYX diverges
        solver = rotating_solver
        g = solver.grid
        zero3, zero5 = AxiField.zeros(g, 3), AxiField.zeros(g, 5)

        def bump(amp):
            return AxiField.from_function(g, lambda w, z: amp * np.exp(-(w**2 + z**2) / g.R0**2), 4)

        solver.w_from_WYX(zero3, zero5, bump(1e2))  # |Z|/c^2 about 0.4
        with pytest.raises(SeriesDomainError, match="log series invalid"):
            solver.w_from_WYX(zero3, zero5, bump(1e3))


class TestSources:
    def test_static_specialization(self, static_sweep):
        # Omega = 0, Upsilon1 = 0: g_a = -8 pi G rho_N Phi_N + 12 pi G P_N
        res, _ = static_sweep[1e-3]
        # reconstruct from stored newtonian fields
        p = res.params
        nf = res.newtonian
        expect = (
            -8 * math.pi * p.G_grav * nf.rho_N.int_vals * nf.Phi_N.int_vals
            + 12 * math.pi * p.G_grav * nf.P_N.int_vals
        )
        # the solver itself is not retained; check through the converged W
        # equation instead: reassemble g_a with Omega = 0 from the fields
        ga = expect
        outside = nf.rho_N.int_vals == 0.0
        assert np.abs(ga[outside]).max() == 0.0

    def test_sources_vanish_outside_support(self, rotating_solver):
        solver = rotating_solver
        outside = solver.nf.rho_N.int_vals == 0.0
        for g in (solver.ga, solver.gb, solver.gc):
            assert np.abs(g.int_vals[outside]).max() == 0.0

    def test_gb_formula(self, rotating_solver):
        gb = rotating_solver.gb
        p = rotating_solver.params
        g = rotating_solver.grid
        expect = 16 * math.pi * p.G_grav * omega_profile(p, g.RI) * rotating_solver.nf.rho_N.int_vals
        assert np.allclose(gb.int_vals, expect, rtol=1e-13)


class TestRemainders:
    def test_vacuum_region_zeros(self, rotating_solver):
        solver = rotating_solver
        g = solver.grid
        zero3 = AxiField.zeros(g, 3)
        zero4 = AxiField.zeros(g, 4)
        zero5 = AxiField.zeros(g, 5)
        w = solver.w_from_WYX(zero3, zero5, zero4)
        rho, P, u = solver.state_fluid(w)
        R_a, R_b, R_c, diag = solver.remainders_abc(zero3, zero5, zero4, zero4, w, rho, P)
        vac = (solver.nf.u_N.int_total() <= 0) & (u.int_total() <= 0)
        assert np.abs(diag["Q5"].int_vals[vac]).max() < 1e-30
        assert np.abs(diag["Q6"].int_vals[vac]).max() < 1e-30
        assert np.abs(R_c.int_vals[vac]).max() < 1e-30

    def test_remainders_de_zero_state(self, rotating_solver):
        # with X = W = Y = 0 the metric is F = Phi_N/c^2, A = 0, Pi = varpi,
        # whose c^4 K1t = varpi (Phi_N1^2 - Phi_N3^2) is the leading part
        solver = rotating_solver
        g = solver.grid
        X = AxiField.zeros(g, 4)
        K1t, _, _ = solver.ktilde_arrays(AxiField.zeros(g, 3), AxiField.zeros(g, 5), X)
        assert solver.remainders_de(K1t, X) < 1e-14

    def test_solve_derives_one_k_gradient_per_state(self, monkeypatch, rotating_solver):
        # Phi_N's gradient once per star, 6 fields per inner iteration
        # (remainders_abc), the 9 K-gradient fields per outer iteration
        # (v_map), and X's 4 for the leading part of rde_ratio: the final
        # state's K-gradient is the one the last v_map integrated
        calls = []
        derivative = AxiField.derivative

        def counting(self, *args, **kwargs):
            calls.append(args)
            return derivative(self, *args, **kwargs)

        monkeypatch.setattr(AxiField, "derivative", counting)
        s = rotating_solver
        res = PNSolver(s.params, s.eos, s.opts, dle=s.dle, classical=s.classical).solve()
        diag = res.diagnostics
        inner = sum(rec["iterations"] for rec in diag["inner_history"])
        assert len(calls) == 2 + 6 * inner + 9 * diag["outer_iterations"] + 4

    def test_remainders_de_epsilon_scaling(self, static_sweep):
        # |R_d| / |lead_d| is O(eps) across the sweep (1/c^2-suppression)
        ratios = [static_sweep[eps][0].diagnostics["rde_ratio"] for eps in EPS_SWEEP]
        slope = np.polyfit(np.log(EPS_SWEEP), np.log(ratios), 1)[0]
        assert abs(slope - 1.0) < 0.35


class TestInnerOuter:
    def test_static_Y_identically_zero(self, static_sweep):
        for eps in EPS_SWEEP:
            res, _ = static_sweep[eps]
            assert np.abs(res.potentials.Y.int_vals).max() == 0.0

    def test_contraction_ratios(self, rotating_sweep):
        for eps, res in rotating_sweep.items():
            for h in res.diagnostics["inner_history"]:
                assert h["ratio"] < 1.0
            assert res.diagnostics["outer_ratio"] < 1.0

    def test_remainder_ratios_recorded(self, rotating_sweep, static_sweep):
        # every inner iteration records sup|R| / sup|g| for (a), (b), (c);
        # a static star's g_b is zero and its ratio reads 0
        for sweep, rotating in ((rotating_sweep, True), (static_sweep, False)):
            for eps in EPS_SWEEP:
                res = sweep[eps] if rotating else sweep[eps][0]
                for rec in res.diagnostics["inner_history"]:
                    ratios = rec["remainder_ratios"]
                    assert set(ratios) == {"a", "b", "c"}
                    for key, vals in ratios.items():
                        assert len(vals) == rec["iterations"]
                        if key == "b" and not rotating:
                            assert vals == [0.0] * rec["iterations"]
                        else:
                            assert all(0.0 < v < 0.1 for v in vals)
        # the pressure remainder is one 1/c^2 order below its leading part
        last_c = [rotating_sweep[eps].diagnostics["inner_history"][-1]["remainder_ratios"]["c"][-1]
                  for eps in EPS_SWEEP]
        slope = np.polyfit(np.log(EPS_SWEEP), np.log(last_c), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_support_inside_three_r1(self, rotating_sweep):
        for eps, res in rotating_sweep.items():
            assert res.diagnostics["support_radius_over_r1"] < 3.0

    def test_cache_report(self, rotating_sweep):
        def sketch_shape(name):
            # (sketch rows m, operator targets T) of a 65/49 far operator
            side = name.split("_")[0]
            P, P_t = (65, 49) if side == "int" else (49, 65)
            si, sj = np.divmod(np.arange(P * P), P)
            disc = np.flatnonzero(si * si + sj * sj < (P - 1) ** 2)
            m = disc[:: max(1, disc.size // (FAR_SKETCH_ROWS * P))].size
            return m, int(np.count_nonzero(far_mask(P_t)))

        # each star reports the kernel tables and far operators it used.  A
        # far operator stays dense, T S 8 B for a source support of S nodes,
        # while S is at most the sketch's rows m, and is factored past it,
        # (T - r + S) r 8 B: X's interior n = 4 operator never sees more
        # than the fluid's nodes and stays dense, the others are factored
        for res in rotating_sweep.values():
            rep = res.diagnostics["green_ops"]
            assert set(rep) == {
                "kernel_tables", "far_operators", "table_bytes", "far_bytes", "builds", "cache_hits"
            }
            assert rep["builds"] + rep["cache_hits"] == len(rep["kernel_tables"]) + len(
                rep["far_operators"]
            )
            # one table per dimension, sized to the larger patch, serves both;
            # Y's table is filled in one block by the solve, which tops W's up
            # past the set-up's Newtonian fill of n = 3, and X's on demand
            tables = rep["kernel_tables"]
            assert sorted(tables) == ["P65_n3", "P65_n4", "P65_n5"]
            assert [tables[key]["fills"] for key in sorted(tables)] == [2, 1, 1]
            for table in tables.values():
                assert set(table) == {"bytes", "columns", "fills", "built"}
                assert 0 < table["columns"] <= 65
                assert 0 < table["fills"] <= table["columns"]
                assert table["bytes"] == (2 * 65 - 1) * 65 * table["columns"] * 8
            # a table fills only up to the last source column its sources
            # carry: X's source, the pressure, stays on the fluid's few columns
            assert tables["P65_n4"]["columns"] < tables["P65_n3"]["columns"]
            assert rep["table_bytes"] == sum(t["bytes"] for t in tables.values())
            assert sorted(rep["far_operators"]) == ["int_n3", "int_n4", "int_n5", "star_n3",
                                                    "star_n5"]
            dense = 0
            for name, op in rep["far_operators"].items():
                assert set(op) == {"dense", "rank", "qr_columns", "targets", "filled_nodes",
                                   "bytes", "tail", "built"}
                m, T = sketch_shape(name)
                assert op["dense"] == (name == "int_n4")
                if op["dense"]:
                    assert op["rank"] is op["qr_columns"] is op["tail"] is None
                    assert 0 < op["filled_nodes"] <= m
                    assert op["bytes"] == T * op["filled_nodes"] * 8
                else:
                    assert 0 < op["rank"] < op["targets"]
                    # the QR stops at the panel where its pivots drop
                    assert op["rank"] < op["qr_columns"] <= min(m, T)
                    assert 0.0 <= op["tail"] <= FAR_RANK_TOL
                    assert op["filled_nodes"] > m
                    assert op["bytes"] < T * op["filled_nodes"] * 8
                dense += T * op["filled_nodes"] * 8
            assert rep["far_bytes"] < dense
            assert rep["table_bytes"] > 0
            assert 0.0 < res.diagnostics["lop_smin_estimate"] <= 1.0
        # the first star filled every table and built every far operator it
        # used; later stars on the grid shape reuse them
        first = rotating_sweep[EPS_SWEEP[0]].diagnostics["green_ops"]
        assert first["builds"] == len(first["kernel_tables"]) + len(first["far_operators"])
        assert rotating_sweep[EPS_SWEEP[-1]].diagnostics["green_ops"]["builds"] == 0
        # n = 3 counts as built by the first star, filled in its set-up and
        # topped up as n = 5's pair
        assert first["kernel_tables"]["P65_n3"]["built"]

    def test_cache_report_is_plain_json(self, rotating_sweep):
        # every value of the report is a Python scalar, so it serializes
        # with no default= hook, and a table's columns stay an integer
        for res in rotating_sweep.values():
            rep = res.diagnostics["green_ops"]
            assert json.loads(json.dumps(rep)) == rep
            assert all(type(t["columns"]) is int for t in rep["kernel_tables"].values())

    def test_static_star_uses_no_n5_operator(self, static_sweep):
        # Y's source is zero without rotation, so its n = 5 inverse is an
        # exact zero: no n = 5 table or far operator is looked up
        for eps in EPS_SWEEP:
            rep = static_sweep[eps][0].diagnostics["green_ops"]
            assert not [k for k in (*rep["kernel_tables"], *rep["far_operators"]) if k.endswith("n5")]
            assert {"int_n3", "star_n3"} <= set(rep["far_operators"])
            assert {k.split("_")[0] for k in rep["kernel_tables"]} == {"P65"}

    def test_far_v_derives_the_k_gradient_fields_once(self, monkeypatch, rotating_sweep,
                                                       rotating_solver):
        # the node values and the far samples of K1t, K3t (the C_inf arcs and
        # the starred nodes) share one set of 9 derivative fields per state
        calls = []
        derivative = AxiField.derivative

        def counting(self, *args, **kwargs):
            calls.append(args)
            return derivative(self, *args, **kwargs)

        monkeypatch.setattr(AxiField, "derivative", counting)
        solver = rotating_solver
        # the swept star's potentials, on the solver's own grid: fields on
        # two grid objects do not combine
        pot = rotating_sweep[1e-3].potentials
        solver.v_map(*(replace(f, grid=solver.grid) for f in (pot.W, pot.Y, pot.X)))
        assert len(calls) == 9

    def test_starred_v_meets_interior_v(self, refinement_runs):
        # the starred patch integrates from infinity and the interior one from
        # the origin; where both hold V their mismatch is path error, which
        # falls with h, and K keeps its 1/r^2 fall-off on every grid
        spreads = []
        for res in refinement_runs.values():
            p = res.params
            fit = asymptotic_fit(res.eval_fns(), p, (5 * p.R0, 15 * p.R0))
            assert abs(fit["orders"]["K"] - 2.0) <= 0.05
            spreads.append(res.diagnostics["v_overlap"]["spread"])
        assert all(a >= 1.5 * b for a, b in zip(spreads[:-1], spreads[1:]))

    def test_normalizations(self, rotating_sweep):
        res = rotating_sweep[1e-3]
        assert res.potentials.W.int_total()[0, 0] == pytest.approx(0.0, abs=1e-18)
        assert res.potentials.w.int_total()[0, 0] == pytest.approx(0.0, abs=1e-16)

    def test_fit_mass_matches_tail_mass(self, rotating_sweep, static_sweep):
        # the 1/r fit of F and W's monopole read the same M (to 6e-7 static,
        # 1.3e-6 rotating), far closer than the shift |M - M_N|/M of 6e-4 to 3e-3;
        # the 1/r^3 fit of A/varpi^2 and Y's starred origin the same J (4.7e-7,
        # 1.9e-6 and 2.7e-6 at eps = 1e-3, 5e-4, 2.5e-4; with R0^2 for R0^3, 0.98)
        for res in [*rotating_sweep.values(), *(res for res, _ in static_sweep.values())]:
            p = res.params
            fit = asymptotic_fit(res.eval_fns(), p, (5 * p.R0, 15 * p.R0))
            M, J = res.tail_mass(), res.tail_angular_momentum()
            assert abs(fit["M"] - M) <= 5e-6 * M
            if p.Omega_O:
                assert abs(fit["J"] - J) <= 5e-6 * abs(J)
            else:  # Y vanishes identically on a static star, its starred origin too
                assert J == 0.0

    def test_path_independence_at_convergence(self, rotating_solver):
        # run the inner map once at V = 0, then compare the two quadrature
        # paths; agreement is O(h^2) plus the V-consistency residual
        from rotstar.fields import AxiField

        solver = rotating_solver
        g = solver.grid
        zeros = tuple(AxiField.zeros(g, n) for n in (3, 5, 4))
        W, Y, X = solver.inner_fixed_point(AxiField.zeros(g, 4), zeros)
        # the V = 0 trial state carries the first-sweep consistency
        # residual on top of O(h^2)
        gap, scale = solver.path_independence_gap(W, Y, X)
        assert gap < 0.12 * scale

    def test_ktilde_node_and_point_samplers_agree(self, rotating_solver):
        # bilinear evals at the nodes of the pure-interior disc r < R0
        # reproduce the node values, so the two samplers agree to rounding;
        # the leading sources serve as a smooth (W, Y, X) of the right indices
        solver = rotating_solver
        g = solver.grid
        K1t, K3t, at = solver.ktilde_arrays(solver.ga, solver.gb, solver.gc)
        sel = (g.RI < g.R0) & (g.WI > 0)
        k1, k3 = at(g.WI[sel], g.ZI[sel])
        for nodes, points in ((K1t[sel], k1), (K3t[sel], k3)):
            assert np.max(np.abs(points - nodes)) <= 1e-12 * np.max(np.abs(nodes))

    def test_F_approaches_newtonian(self, static_sweep):
        # sup|F c^2 - Phi_N| = sup|W|/c^2 = O(u_O^2): relative rate O(eps)
        rels = []
        for eps in EPS_SWEEP:
            res, _ = static_sweep[eps]
            p = res.params
            gap = np.abs(
                res.metric.F.int_vals * p.c_light**2 - res.newtonian.Phi_N.int_vals
            ).max()
            rels.append(gap / p.u_O)
        slope = np.polyfit(np.log(EPS_SWEEP), np.log(rels), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestUnits:
    """A solve is covariant under a change of units: with nu, eps = u_O/c^2
    and b held, the dimensionless outputs must not depend on (G, c, A)."""

    def test_same_star_in_any_units(self, cls15, dle_rot):
        # M G/(c^2 r1), J G/(c^3 r1^2) and the sups of W/c^4, X/c^4, V/c^4
        # and |Y| r1/c^3 on both patches agree to 1e-12 in the three systems
        # (measured 4e-14 at 33/25).  With v_map's C_inf fitted on physical
        # radii, the SI-like star (r1 = 1.3e9) read V/c^4 0.49 % low here.
        # So do asymptotic_fit's M and J (8.4e-15 measured), and its F and A
        # orders agree to 1e-9 (2.6e-11 measured).  With its designs in
        # physical radii, the SI-like star's fit read M 5.5e-6 low and the
        # F order 0.56 against 2.01.  The K-consistency sups over their scale
        # agree to 1e-7 (3.8e-9 measured; in physical units they read
        # 2.2e-9 and 1.8e-25)
        def sup(f):
            return max(float(np.max(np.abs(f.int_total()))), float(np.max(np.abs(f.star_vals))))

        reads, orders, consistency = [], [], []
        for G, c, A in ((1.0, 1.0, 1.0), (2.0, 3.0, 1.7), (6.674e-11, 2.998e8, 4e9)):
            eos = EquationOfState.gamma_law(5 / 3, A, c)
            p = StarParams.build(5 / 3, A, c, G, u_O=1e-3 * c**2, b_rot=B_ROT, classical=cls15)
            res = PNSolver(p, eos, SolverOptions(n_interior=33, n_exterior=25), dle=dle_rot,
                           classical=cls15).solve()
            pot, r1 = res.potentials, p.r1
            fit = asymptotic_fit(res.eval_fns(), p, (5 * p.R0, 15 * p.R0))
            reads.append(np.array([res.tail_mass() * G / (c**2 * r1),
                                   res.tail_angular_momentum() * G / (c**3 * r1**2),
                                   sup(pot.W) / c**4, sup(pot.X) / c**4, sup(pot.V) / c**4,
                                   sup(pot.Y) * r1 / c**3,
                                   fit["M"] * G / (c**2 * r1), fit["J"] * G / (c**3 * r1**2)]))
            orders.append(np.array([fit["orders"]["F"], fit["orders"]["A"]]))
            ck = consistency_K(res.verify_window(), p)
            consistency.append(np.array([ck["sup_L"], ck["sup_identity"]]) / ck["scale"])
        for other, order, ratios in zip(reads[1:], orders[1:], consistency[1:]):
            assert np.max(np.abs(other / reads[0] - 1.0)) <= 1e-12
            assert np.max(np.abs(order / orders[0] - 1.0)) <= 1e-9
            assert np.max(np.abs(ratios / consistency[0] - 1.0)) <= 1e-7


class TestVStarFromInfinity:
    """The starred quadrature fed exact gradients in place of the solver's
    sampler: two potentials falling like 1/r^2, one isotropic, one with a
    direction factor (r^2 V has no single limit at infinity, so the starred
    origin is left out of the comparison)."""

    R0 = 2.0
    CASES = {
        "isotropic": (lambda w, z, s: 1.0 / s,
                      lambda w, z, s: (-2.0 * w / s**2, -2.0 * z / s**2)),
        "z_squared": (lambda w, z, s: z**2 / s**2,
                      lambda w, z, s: (-4.0 * w * z**2 / s**3,
                                       2.0 * z / s**2 - 4.0 * z**3 / s**3)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_second_order_in_h(self, case):
        V, grad = self.CASES[case]
        R0 = self.R0

        def at(w, z):
            return grad(w, z, w**2 + z**2 + R0**2)

        errs = []
        for n_int, n_ext in ((33, 25), (65, 49), (129, 97)):
            g = AxiGrid(R0, n_int, n_ext)
            star = v_star_from_infinity(g, at, 1.0)
            pos = g.RS > 0
            w, z = g.W_img[pos], g.Z_img[pos]
            exact = (g.r_img[pos] / R0) ** 2 * V(w, z, w**2 + z**2 + R0**2)
            errs.append(np.max(np.abs(star[pos] - exact)) / np.max(np.abs(exact)))
        assert errs[0] < 5e-3
        assert all(3.8 <= a / b <= 4.2 for a, b in zip(errs[:-1], errs[1:]))


@pytest.fixture(scope="module")
def coarse_star(cls15, eos_unit, dle_rot):
    """The eps = b = 1e-3 star on the 33/25 grid, for the iteration caps."""
    p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=B_ROT, classical=cls15)
    return p, eos_unit, dle_rot, cls15


@pytest.fixture(scope="module")
def coarse_static(cls15, eos_unit, dle_static):
    """The eps = 1e-3 static star on the 33/25 grid."""
    p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=0.0, classical=cls15)
    return p, eos_unit, dle_static, cls15


class TestIterationCaps:
    """Each fixed point of the solve ends at its cap in a ConvergenceError
    that carries the last change and the iteration count."""

    def test_newtonian_sweep(self, monkeypatch, coarse_star):
        p, eos, dle, cls = coarse_star
        monkeypatch.setattr(pn, "NEWTONIAN_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="Newtonian consistency sweep") as exc:
            PNSolver(p, eos, SolverOptions(33, 25), dle=dle, classical=cls)
        assert exc.value.iterations == 2
        assert exc.value.residual > pn.NEWTONIAN_TOL * p.u_O

    @pytest.mark.parametrize("option, cap, what", [("max_inner", 2, "inner"),
                                                   ("max_outer", 1, "outer")])
    def test_inner_and_outer(self, monkeypatch, coarse_star, option, cap, what):
        # the inner cap is the module constant MAX_INNER, the outer one
        # SolverOptions' max_outer
        p, eos, dle, cls = coarse_star
        if option == "max_inner":
            monkeypatch.setattr(pn, "MAX_INNER", cap)
            opts = SolverOptions(33, 25)
        else:
            opts = SolverOptions(33, 25, max_outer=cap)
        solver = PNSolver(p, eos, opts, dle=dle, classical=cls)
        message = f"{what} .* did not converge in {cap} steps"
        with pytest.raises(ConvergenceError, match=message) as exc:
            solver.solve()
        assert exc.value.iterations == cap
        assert exc.value.residual > 0.0


class TestFarWork:
    """The far layer's work on a small rotating solve, on caches of its own."""

    def test_far_work(self, monkeypatch, coarse_star):
        # set-up factors no far operator: the Newtonian sweep's far field
        # is a dense nodal sum.  In the solve each side's n = 5 operator
        # factors once, its n = 3 pair with it from the same kernel pass,
        # and X's n = 4 operator stays dense.  The elliptic integrals are
        # counted inside the far operators' calls
        p, eos, dle, cls = coarse_star
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        monkeypatch.setattr(greens, "_FAR_CACHE", {})
        counts, inside, factored = {"ellipk": 0, "ellipe": 0}, [], []

        def counting(name):
            fn = getattr(greens, name)

            def wrapped(m, **kwargs):
                if inside:
                    counts[name] += np.size(m)
                return fn(m, **kwargs)

            monkeypatch.setattr(greens, name, wrapped)

        call, factor = greens.FarOperator.__call__, greens.FarOperator._factor

        def far_call(far, gvals):
            inside.append(far)
            try:
                return call(far, gvals)
            finally:
                inside.pop()

        def far_factor(far):
            factored.append(far.n)
            return factor(far)

        for name in counts:
            counting(name)
        monkeypatch.setattr(greens.FarOperator, "__call__", far_call)
        monkeypatch.setattr(greens.FarOperator, "_factor", far_factor)

        solver = PNSolver(p, eos, SolverOptions(33, 25), dle=dle, classical=cls)
        assert factored == []
        assert [far.dense for far in greens._FAR_CACHE.values()] == [True]
        setup = dict(counts)
        res = solver.solve()
        assert factored == [5, 5]
        ops = res.diagnostics["green_ops"]["far_operators"]
        assert {name: op["dense"] for name, op in ops.items()} == {
            "int_n3": False, "int_n4": True, "int_n5": False, "star_n3": False, "star_n5": False}
        # set-up: the sweep's dense rows.  Every later n = 3 modulus is one
        # the n = 5 pass evaluated, so ellipk runs only that many more times
        # than ellipe; the factoring call evaluates its dense rows again
        assert setup == {"ellipk": 4636, "ellipe": 0}
        assert counts == {"ellipk": 355608, "ellipe": 350972}
        assert counts["ellipk"] - counts["ellipe"] == setup["ellipk"]

    def test_table_work(self, monkeypatch, coarse_star):
        # the set-up fills the n = 3 table's Newtonian columns once, to the
        # seeded density's last column (4) plus one; the solve's n = 5 fill
        # rebuilds its n = 3 pair from column 0 from the same kernel
        # passes, so every elliptic modulus after the set-up is evaluated
        # once, by K and E both.  The elliptic integrals are counted inside
        # the table fills
        p, eos, dle, cls = coarse_star
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        monkeypatch.setattr(greens, "_FAR_CACHE", {})
        counts, inside = {"ellipk": 0, "ellipe": 0}, []
        for name in counts:
            fn = getattr(greens, name)

            def wrapped(m, fn=fn, name=name, **kwargs):
                if inside:
                    counts[name] += np.size(m)
                return fn(m, **kwargs)

            monkeypatch.setattr(greens, name, wrapped)
        fill = greens.KernelTable.fill

        def counted_fill(table, ncols):
            inside.append(table)
            try:
                return fill(table, ncols)
            finally:
                inside.pop()

        monkeypatch.setattr(greens.KernelTable, "fill", counted_fill)
        solver = PNSolver(p, eos, SolverOptions(33, 25), dle=dle, classical=cls)
        setup = dict(counts)
        assert (greens._TABLE_CACHE[33, 3].fills, greens._TABLE_CACHE[33, 3].ncols) == (1, 6)
        solver.solve()
        tables = {n: greens._TABLE_CACHE[33, n] for n in (3, 4, 5)}
        assert [(tables[n].fills, tables[n].ncols) for n in (3, 5)] == [(2, 32), (1, 32)]
        assert tables[5].pair is tables[3]
        assert setup == {"ellipk": 107506, "ellipe": 0}
        assert counts == {"ellipk": 554576, "ellipe": 447070}
        assert counts["ellipk"] - counts["ellipe"] == setup["ellipk"]

    @pytest.mark.parametrize("star", ["coarse_star", "coarse_static"])
    def test_factored_rows_come_from_one_call(self, monkeypatch, request, star):
        # once factored, a far operator gains rows in one call only, the
        # one that factors it, which fills a dense pair with it: after that
        # call an n = 5 operator and its pair hold the same nodes.  A dense
        # operator may grow from call to call
        p, eos, dle, cls = request.getfixturevalue(star)
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        monkeypatch.setattr(greens, "_FAR_CACHE", {})
        call, calls = greens.FarOperator.__call__, []

        def far_call(far, gvals):
            # per call and cached operator: its nodes after the call, whether
            # the call factored it and whether it gained rows while factored
            before = {op: (op.dense, op.nodes.size) for op in greens._FAR_CACHE.values()}
            out = call(far, gvals)
            calls.append({op: (op.nodes, dense and not op.dense,
                               not op.dense and op.nodes.size != size)
                          for op, (dense, size) in before.items()})
            return out

        monkeypatch.setattr(greens.FarOperator, "__call__", far_call)
        PNSolver(p, eos, SolverOptions(33, 25), dle=dle, classical=cls).solve()
        factored = [op for op in greens._FAR_CACHE.values() if not op.dense]
        assert sorted(op.n for op in factored) == ([3, 3, 5, 5] if p.b_rot else [3, 3])
        for op in factored:
            made = [k for k, c in enumerate(calls) if op in c and c[op][1]]
            grew = [k for k, c in enumerate(calls) if op in c and c[op][2]]
            assert grew == made and len(made) == 1
            if op.n == 5:
                after = calls[made[0]]
                assert np.array_equal(after[op][0], after[op.pair][0])
