import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve
from scipy.special import ellipe, ellipk

from rotstar import greens
from rotstar.errors import DecayError, DomainError
from rotstar.fields import AxiField, AxiGrid
from rotstar.greens import (
    FUND_NORM,
    GreenOps,
    KernelTable,
    axis_laplacian,
    get_table,
    ring_kernel,
)


@pytest.fixture(scope="module")
def grid():
    return AxiGrid(R0=2.0, n_interior=65, n_exterior=49)


@pytest.fixture(scope="module")
def ops(grid):
    return GreenOps(grid)


def smooth_bump(grid, radius_frac=0.9):
    def fn(w, z):
        r2 = (np.hypot(w, z) / (radius_frac * grid.R0)) ** 2
        return np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    return AxiField.from_function(grid, fn, 3)


def masked_ring_kernel(n, wt, ws, dz):
    """The ring kernel with every mask applied as a full-array np.where pass:
    the reference formula that ring_kernel must reproduce bit for bit."""
    wt = np.asarray(wt, dtype=float)
    ws = np.asarray(ws, dtype=float)
    dz = np.asarray(dz, dtype=float)
    A = (wt - ws) ** 2 + dz**2
    B = 4.0 * wt * ws
    AB = A + B
    sing = AB <= 0.0
    ABs = np.where(sing, 1.0, AB)
    m = np.where(sing, 0.0, B / ABs)
    diag = A <= 0.0
    Asafe = np.where(diag, 1.0, A)
    if n == 3:
        K = ellipk(m)
        out = ws * K / (math.pi * np.sqrt(ABs))
    elif n == 4:
        axis = B / ABs < 1e-14
        val = np.where(axis | diag, 1.0, np.log(ABs / Asafe))
        wt_safe = np.where(wt > 0, wt, 1.0)
        out = np.where(axis, ws**2 / (math.pi * Asafe), ws * val / (4.0 * math.pi * wt_safe))
    else:
        axis = B / ABs < 1e-14
        K = ellipk(m)
        E = ellipe(m)
        gm = 2.0 * (K - E) - m * K
        Bsafe = np.where(axis, 1.0, B)
        out = np.where(
            axis,
            ws**3 / (4.0 * Asafe**1.5),
            ws**3 * 8.0 * np.sqrt(ABs) * gm / (2.0 * math.pi * Bsafe**2),
        )
    out = np.where(diag, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


class TestRingKernel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_masked_formula(self, n):
        rng = np.random.RandomState(n)
        gen = rng.uniform(0.0, 40.0, (3, 200))
        gen[2] -= 20.0
        # coincidence (A = 0), axis targets (wt = 0) and axis sources (ws = 0)
        special = np.array(
            [[0.0, 0.0, 0.0], [2.0, 2.0, 0.0], [0.0, 3.0, 1.0], [3.0, 0.0, -1.0], [0.0, 0.0, 2.0]]
        ).T
        wt, ws, dz = np.concatenate([special, gen], axis=1)
        cases = [
            (wt, ws, dz),
            (wt[:, None], ws[None, :], dz[:, None]),
            (0.0, ws[:, None], dz[None, :]),
            (5.0, ws[:, None], np.abs(dz)[None, :]),
            (wt[None, :], ws[:40, None], dz[None, :] - dz[:40, None]),
        ]
        cases += [tuple(col) for col in special.T] + [(1.5, 4.0, 0.25)]
        for args in cases:
            got = ring_kernel(n, *args)
            # the reference divides by zero on the masked points it discards
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = masked_ring_kernel(n, *args)
            assert type(got) is type(ref)
            assert np.array_equal(got, ref)

    def test_source_target_symmetry(self):
        # kernel / ws^(n-2) is symmetric under (wt, ws) swap
        rng = np.random.RandomState(0)
        for n in (3, 4, 5):
            wt, ws = rng.uniform(0.2, 3.0, (2, 30))
            dz = rng.uniform(-1, 1, 30)
            k1 = ring_kernel(n, wt, ws, dz) / ws ** (n - 2)
            k2 = ring_kernel(n, ws, wt, dz) / wt ** (n - 2)
            assert np.allclose(k1, k2, rtol=1e-12)

    def test_positive(self):
        rng = np.random.RandomState(1)
        for n in (3, 4, 5):
            wt, ws = rng.uniform(0.0, 3.0, (2, 50))
            dz = rng.uniform(-2, 2, 50)
            k = ring_kernel(n, wt, ws, dz)
            assert np.all(k >= 0)

    def test_point_mass_far_field(self):
        # a thin ring at small radius behaves like a point mass: the kernel
        # integrates to the fundamental solution prefactor
        for n in (3, 4, 5):
            d = 30.0
            val = ring_kernel(n, 0.0, 0.5, d)
            # mass of a unit-density ring element: |S^(n-2)| ws^(n-2)
            from rotstar.greens import SPHERE_AREA

            expect = SPHERE_AREA[n] * 0.5 ** (n - 2) / (FUND_NORM[n] * d ** (n - 2))
            assert val == pytest.approx(expect, rel=1e-3)


class TestCompactInverse:
    def test_zero_source(self, ops, grid):
        out = ops.k_n(AxiField.zeros(grid), 3)
        assert np.max(np.abs(out.int_vals)) == 0.0

    def test_uniform_ball_n3(self, ops, grid):
        rho_b = 0.8 * grid.R0
        src = AxiField.from_function(grid, lambda w, z: 1.0 * (np.hypot(w, z) <= rho_b), 3)
        u = ops.k_n(src, 3)
        r = grid.RI
        exact = np.where(
            r <= rho_b,
            (rho_b**2 - r**2) / 6.0 + rho_b**2 / 3.0,
            rho_b**3 / (3.0 * np.maximum(r, 1e-12)),
        )
        err = np.abs(u.int_vals - exact)
        # an indicator source has no smooth interpolant: quadrature tolerance
        # is set by the boundary cells
        assert err.max() / exact.max() < 0.02

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_uniform_ball_all_n(self, ops, grid, n):
        rho_b = 0.7 * grid.R0
        src = AxiField.from_function(grid, lambda w, z: 1.0 * (np.hypot(w, z) <= rho_b), n)
        u = ops.k_n(src, n)
        r = grid.RI
        exact = np.where(
            r <= rho_b,
            (rho_b**2 - r**2) / (2.0 * n) + rho_b**2 / (n * (n - 2.0)),
            rho_b**n / (n * (n - 2.0) * np.maximum(r, 1e-12) ** (n - 2)),
        )
        assert np.abs(u.int_vals - exact).max() / exact.max() < 0.02

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_forward_residual_order(self, n):
        errs, hs = [], []
        for N in (33, 65, 129):
            g = AxiGrid(2.0, N, 33)
            oo = GreenOps(g)
            s = smooth_bump(g)
            s = AxiField(g, n, s.int_vals, s.star_vals, s.parity, 0.0)
            u = oo.k_n(s, n)
            lap = axis_laplacian(u.int_vals, g.h_int, n)
            resid = lap + s.int_vals
            mask = (g.RI <= 1.8 * g.R0) & np.isfinite(resid)
            errs.append(np.abs(resid[mask]).max())
            hs.append(g.h_int)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_noncompact_rejected(self, ops, grid):
        tail = AxiField.from_function(
            grid,
            lambda w, z: (grid.R0 / np.maximum(np.hypot(w, z), 0.1)) ** 1,
            3,
            star_fn=lambda ws, zs: np.ones_like(ws),
        )
        with pytest.raises(DomainError):
            ops.k_n(tail, 3)

    def test_decay_exponents(self, ops, grid):
        for n in (3, 4, 5):
            s = smooth_bump(grid)
            s = AxiField(grid, n, s.int_vals, s.star_vals, s.parity, 0.0)
            u = ops.k_n(s, n)
            rr = np.geomspace(3 * grid.R0, 10 * grid.R0, 12)
            vals = u.eval(rr / np.sqrt(2), rr / np.sqrt(2))
            p = -np.polyfit(np.log(rr), np.log(np.abs(vals)), 1)[0]
            assert abs(p - (n - 2)) / (n - 2) < 0.05

    def test_nystrom_row_symmetry(self):
        # quadrature rows against the measure weights are symmetric up to the
        # ws^(n-2) ring factor (Green-function symmetry, discretized)
        tab = get_table(33, 3)
        idx = (np.array([5, 9, 14]), np.array([3, 8, 12]))
        R = tab.rows(idx, idx)
        w = tab.nodes[idx[0]]
        M = R / w[None, :]
        assert np.allclose(M, M.T, rtol=2e-2, atol=1e-8)


class TestGlobalInverse:
    def test_compact_source_reduces_to_k_n(self, ops, grid):
        s = smooth_bump(grid, radius_frac=0.45)
        a = ops.k_n(s, 3)
        b = ops.k_n_global(s, 3)
        assert np.allclose(a.int_vals, b.int_vals, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exterior_tail_poisson(self, ops, grid, n):
        # pure power tail g = (R0/r)^(n+2): the diamond transform is bounded
        # at the origin-image and the Poisson equation holds discretely
        R0 = grid.R0

        def fn(w, z):
            r = np.maximum(np.hypot(w, z), 0.2 * R0)
            return (R0 / r) ** (n + 2)

        f = AxiField.from_function(grid, fn, n)
        out = ops.k_n_global(f, n)
        lap = axis_laplacian(out.int_vals, grid.h_int, n)
        resid = lap + f.int_vals
        mask = (grid.RI <= 1.8 * R0) & (grid.RI >= 0.4 * R0) & np.isfinite(resid)
        rel = np.abs(resid[mask]).max() / np.abs(f.int_vals).max()
        assert rel < 0.02

    def test_diamond_boundedness(self, grid):
        # g_star ~ (r*/R0)^4 makes the diamond source bounded: check via the
        # construction not raising and the output being finite
        ops = GreenOps(grid)

        def star_fn(ws, zs):
            return (np.hypot(ws, zs) / grid.R0) ** 4

        f = AxiField.from_function(
            grid, lambda w, z: np.zeros_like(w), 3, star_fn=star_fn
        )
        out = ops.k_n_global(f, 3)
        assert np.all(np.isfinite(out.int_vals))
        assert np.all(np.isfinite(out.star_vals))

    def test_weak_decay_rejected(self, ops, grid):
        # a starred tail growing toward the origin-image cannot be inverted
        def star_fn(ws, zs):
            rs = np.maximum(np.hypot(ws, zs), 1e-6)
            return (grid.R0 / rs) ** 2

        f = AxiField.from_function(grid, lambda w, z: np.zeros_like(w), 3, star_fn=star_fn)
        with pytest.raises(DecayError):
            ops.k_n_global(f, 3)

    def test_operator_norm_diagnostic(self, ops, grid):
        # ||K^(n) g|| <= C ||g|| over random smooth sources (C grid-level)
        rng = np.random.RandomState(5)
        worst = 0.0
        for _ in range(4):
            c = rng.uniform(0.3, 1.2)
            s = smooth_bump(grid, radius_frac=rng.uniform(0.4, 0.9)) * c
            out = ops.k_n_global(s, 3)
            gn = s.weighted_norms()["total"]
            on = out.weighted_norms()["total"]
            worst = max(worst, on / gn)
        assert worst < 50.0


class TestPdeBackendOracle:
    """Independent sparse finite-difference solve of the same Poisson problem.

    The interior operator inversion is fully independent of the ring-kernel
    machinery; for the ball source the Dirichlet data is the closed form, so
    the comparison certifies the kernel's near-singularity handling.
    """

    def _fd_solve(self, g, n, src, bc):
        N = g.n_int
        h = g.h_int
        A = lil_matrix((N * N, N * N))
        b = np.zeros(N * N)

        def idx(i, j):
            return i * N + j

        for i in range(N):
            w = g.w[i]
            for j in range(N):
                k = idx(i, j)
                if i == N - 1 or j == N - 1:
                    A[k, k] = 1.0
                    b[k] = bc[i, j]
                    continue
                A[k, k] = -4.0 / h**2
                # z direction with even ghost at j = 0
                A[k, idx(i, j + 1)] += 1.0 / h**2
                if j > 0:
                    A[k, idx(i, j - 1)] += 1.0 / h**2
                else:
                    A[k, idx(i, 1)] += 1.0 / h**2
                # varpi direction with the axis limit
                if i == 0:
                    A[k, idx(1, j)] += (n - 1.0) * 2.0 / h**2
                    A[k, k] += -(n - 1.0) * 2.0 / h**2 + 4.0 / h**2 - 2.0 / h**2
                else:
                    cp = 1.0 / h**2 + (n - 2.0) / (2.0 * h * w)
                    cm = 1.0 / h**2 - (n - 2.0) / (2.0 * h * w)
                    A[k, idx(i + 1, j)] += cp
                    A[k, idx(i - 1, j)] += cm
                b[k] = -src[i, j]
        sol = spsolve(A.tocsr(), b)
        return sol.reshape(N, N)

    def test_ball_agreement_n3(self):
        g = AxiGrid(2.0, 49, 33)
        ops = GreenOps(g)
        rho_b = 0.6 * g.R0
        src_f = AxiField.from_function(g, lambda w, z: 1.0 * (np.hypot(w, z) <= rho_b), 3)
        kern = ops.k_n(src_f, 3)
        r = g.RI
        exact = np.where(
            r <= rho_b,
            (rho_b**2 - r**2) / 6.0 + rho_b**2 / 3.0,
            rho_b**3 / (3.0 * np.maximum(r, 1e-12)),
        )
        fd = self._fd_solve(g, 3, src_f.int_vals, exact)
        inner = r <= 1.5 * g.R0
        gap_kern_fd = np.abs(kern.int_vals - fd)[inner].max()
        assert gap_kern_fd < 0.03 * exact.max()

    @pytest.mark.parametrize("n", [4, 5])
    def test_smooth_source_agreement(self, n):
        g = AxiGrid(2.0, 49, 33)
        ops = GreenOps(g)
        s = smooth_bump(g, radius_frac=0.5)
        s = AxiField(g, n, s.int_vals, s.star_vals, s.parity, 0.0)
        kern = ops.k_n(s, n)
        # boundary data from the kernel's own far evaluation is smooth and
        # far from the support: independence holds for the interior inversion
        bc = kern.int_vals
        fd = self._fd_solve(g, n, s.int_vals, bc)
        inner = g.RI <= 1.5 * g.R0
        assert np.abs(kern.int_vals - fd)[inner].max() < 2e-2 * np.abs(kern.int_vals).max()


class TestLOp:
    def test_zero_source(self, ops, grid):
        coef = smooth_bump(grid, radius_frac=0.3)
        sol = ops.l_op(AxiField.zeros(grid), coef)
        assert np.max(np.abs(sol.int_total())) < 1e-15

    def test_trivial_coefficient(self, ops, grid):
        gf = smooth_bump(grid, radius_frac=0.6)
        triv = ops.l_op(gf, AxiField.zeros(grid))
        ref = ops.k_n_global(gf, 3)
        assert np.allclose(
            triv.int_total(), ref.int_vals - ref.int_vals[0, 0], atol=1e-14
        )

    def test_forward_residual_converges(self):
        from rotstar.lane_emden import solve_classical

        cls = solve_classical(1.5)
        sups_ring, sups_away, hs = [], [], []
        for N in (33, 65, 129):
            g = AxiGrid(2.0, N, 33)
            oo = GreenOps(g)
            a_len = g.R0 / (4 * cls.xi1)
            r1 = a_len * cls.xi1

            def coef_fn(w, z):
                th = cls.theta(np.hypot(w, z) / a_len)
                return 1.5 * np.maximum(th, 0) ** 0.5 / a_len**2

            coef = AxiField.from_function(g, coef_fn, 3)
            gf = smooth_bump(g, radius_frac=0.3)
            sol = oo.make_l_op(coef).solve(gf)
            lap = axis_laplacian(sol.int_total(), g.h_int, 3)
            resid = lap + coef.int_vals * sol.int_total() + gf.int_vals
            rr = g.RI
            m = (rr <= 1.8 * g.R0) & np.isfinite(resid)
            ring = m & (np.abs(rr - r1) < 3 * g.h_int)
            away = m & (np.abs(rr - r1) >= 3 * g.h_int)
            sups_ring.append(np.abs(resid[ring]).max())
            sups_away.append(np.abs(resid[away]).max())
            hs.append(g.h_int)
        # away from the vacuum-boundary kink: clean second order; at the
        # kink the coefficient is only Hoelder-1/2, so the order drops there
        away_slope = np.polyfit(np.log(hs), np.log(sups_away), 1)[0]
        assert away_slope > 1.4
        assert sups_ring[-1] < sups_ring[0]  # still converging at the ring

    def test_singular_system_reported(self, ops, grid):
        # drive the zeroth-order term through its first resonance: amp such
        # that the Nystrom block has a unit eigenvalue
        from rotstar.errors import SolverError

        bump = smooth_bump(grid, radius_frac=0.35)
        coef = bump.int_vals
        si, sj = np.nonzero(coef != 0.0)
        tab = ops.table_int(3)
        h = grid.h_int
        R = h**2 * tab.rows((si, sj), (si, sj))
        R0row = h**2 * tab.rows((np.array([0]), np.array([0])), (si, sj))
        K = (R - R0row) * coef[si, sj][None, :]
        lam = np.max(np.linalg.eigvals(K).real)
        amp = 1.0 / lam
        with pytest.raises(SolverError) as err:
            ops.make_l_op(bump * (amp * (1.0 + 1e-10)), rcond_raise=1e-6)
        assert err.value.smallest_singular_value is not None


class TestHarmonicTransport:
    def test_ring_potential_transport(self, grid):
        # f = exact ring potential (harmonic outside its ring): the discrete
        # starred Laplacian of f_star vanishes at O(h^2)
        sups, hs = [], []
        for M in (33, 65, 129):
            g = AxiGrid(2.0, 33, M)
            ws0, zs0 = 0.3 * g.R0, 0.2 * g.R0

            def fn(w, z):
                # mirrored ring pair keeps the field even in z
                wq = np.maximum(w, 1e-9)
                return ring_kernel(3, wq, ws0, z - zs0) + ring_kernel(3, wq, ws0, z + zs0)

            f = AxiField.from_function(g, fn, 3)
            lap_star = axis_laplacian(f.star_vals, g.h_ext, 3)
            rs = g.RS
            m = np.isfinite(lap_star) & (rs <= 0.9 * g.R0) & (rs >= 0.15 * g.R0)
            sups.append(np.abs(lap_star[m]).max())
            hs.append(g.h_ext)
        slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
        assert abs(slope - 2.0) < 0.5


class TestCachedQuadrature:
    """The shared far operators reproduce eval_at, and apply reproduces rows()."""

    @pytest.fixture(autouse=True)
    def fresh_far_cache(self, monkeypatch):
        monkeypatch.setattr(greens, "_FAR_CACHE", {})

    @staticmethod
    def sources(ops, side):
        """Small, full and again small sources of one side's far operator."""
        g = ops.grid
        if side == "int":
            r, full = g.RI / g.R0, g.chi_int
        else:
            r, full = g.RS / g.R0, 1.0 - g.chi_img
        small = np.where(np.abs(r - 0.6) < 0.15, np.cos(3.0 * r), 0.0)
        return [small, full * np.exp(-r), small]

    @staticmethod
    def nodal_sum(table, gvals, wt, zt):
        """The plain nodal rule summed target by target."""
        i, j = np.nonzero(gvals)
        ws, zs = table.nodes[i], table.nodes[j]
        out = np.empty(wt.size)
        for t in range(wt.size):
            k = ring_kernel(table.n, wt[t], ws, zt[t] - zs)
            k = k + (j > 0) * ring_kernel(table.n, wt[t], ws, zt[t] + zs)
            out[t] = np.sum(table.colw[i] * gvals[i, j] * k)
        return out

    @staticmethod
    def counting_kernel(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return ring_kernel(*args)

        monkeypatch.setattr(greens, "ring_kernel", counting)
        return calls

    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_eval_at(self, side, n):
        for n_int, n_ext in ((33, 25), (65, 49)):
            ops = GreenOps(AxiGrid(R0=2.0, n_interior=n_int, n_exterior=n_ext))
            far = ops.far_operator(side, n)
            assert far.rank < far.wt.size
            filled = []
            for src in self.sources(ops, side):
                got = far(src)
                ref = far.table.eval_at(src, far.wt, far.zt)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                filled.append(far.nodes.size)
            assert 0 < filled[0] < filled[1] == filled[2]
            direct = self.nodal_sum(far.table, src, far.wt, far.zt)
            assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_repeat_call_evaluates_no_kernel(self, monkeypatch):
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        far = ops.far_operator("int", 3)
        src = self.sources(ops, "int")[1]
        first = far(src)
        calls = self.counting_kernel(monkeypatch)
        assert np.array_equal(far(src), first)
        assert np.array_equal(far(self.sources(ops, "int")[0]), far(self.sources(ops, "int")[2]))
        assert calls == []

    def test_shared_per_grid_shape(self, monkeypatch):
        first = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        second = GreenOps(AxiGrid(R0=3.7, n_interior=33, n_exterior=25))
        for side in ("int", "star"):
            for n in (3, 5):
                assert first.far_operator(side, n) is second.far_operator(side, n)
                for src in self.sources(first, side):
                    first._far(side, n, src)
        calls = self.counting_kernel(monkeypatch)
        for side in ("int", "star"):
            for n in (3, 5):
                for src in self.sources(second, side):
                    second._far(side, n, src)
        assert calls == []
        report = second.cache_report()
        assert (report["builds"], report["cache_hits"]) == (0, 4)

    @pytest.mark.parametrize("shape", [(33, 25), (65, 49), (97, 65)])
    def test_float_masks_inside_integer_set(self, shape):
        # the float masks of GreenOps depend on the rounding of R0; the shared
        # operator's closed integer set must hold every one of them, points on
        # the boundary circle 4 (i^2 + j^2) = (P - 1)^2 included
        n_int, n_ext = shape
        radii = list(np.geomspace(0.01, 100.0, 49)) + [54.815936375016115]
        on_boundary = 0
        for R0 in radii:
            ops = GreenOps(AxiGrid(R0, n_int, n_ext))
            for mask, P in ((ops.far_img, n_ext), (ops.img_outside, n_int)):
                union = greens.far_mask(P)
                assert not np.any(mask & ~union)
                i, j = np.nonzero(mask)
                on_boundary += np.count_nonzero(4 * (i * i + j * j) == (P - 1) ** 2)
        assert on_boundary > 0

    @pytest.mark.parametrize("P", [17, 21, 32, 33])
    def test_apply_matches_rows(self, P):
        # every node, the last z row included, must be clear of
        # wrap-around.  At P = 17 and 21 the FFT length is 4P - 4, the
        # shortest one that holds an even lag row (the end lags share an
        # index); 80 is not a power of two.  At P = 32 it is 125, odd
        table = KernelTable(P, 3)
        assert table.nfft == {17: 64, 21: 80, 32: 125, 33: 128}[P]
        gvals = np.random.RandomState(P).uniform(-1.0, 1.0, (P, P))
        i, j = np.divmod(np.arange(P * P), P)
        dense = table.rows((i, j), (i, j)) @ gvals.ravel()
        got = table.apply(gvals).ravel()
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def loop_build(P, n):
    """The per-cell kernel-table build, one ring_kernel call per Gauss cell
    and per polar half, kept as the reference for KernelTable's batched
    build: returns (W2, corr)."""
    xg, wg = leggauss(4)
    t = 0.5 * (xg + 1.0)
    wq = 0.5 * wg
    n_wc, n_zc = P - 1, 2 * P - 2
    ws_pts = (np.arange(n_wc)[:, None] + t[None, :]).ravel()
    dz_pts = (np.arange(n_zc)[:, None] + t[None, :]).ravel()
    wl, wr = (1.0 - t) * wq, t * wq
    W2 = np.zeros((P, P, 2 * P - 1))
    for i in range(P):
        kv = ring_kernel(n, float(i), ws_pts[:, None], dz_pts[None, :]).reshape(n_wc, 4, n_zc, 4)
        ll = np.einsum("agbh,g,h->ab", kv, wl, wl)
        lr = np.einsum("agbh,g,h->ab", kv, wl, wr)
        rl = np.einsum("agbh,g,h->ab", kv, wr, wl)
        rr = np.einsum("agbh,g,h->ab", kv, wr, wr)
        W2[i, :-1, :-1] += ll
        W2[i, :-1, 1:] += lr
        W2[i, 1:, :-1] += rl
        W2[i, 1:, 1:] += rr
        W2[i, :-1, 0] += ll[:, 0]
        W2[i, 1:, 0] += rl[:, 0]

    def cell_exact(wt, a, b, xg, wgt):
        xi = a + 0.5 * (xg + 1.0)[:, None]
        zi = b + 0.5 * (xg + 1.0)[None, :]
        wq = (0.5 * wgt)[:, None] * (0.5 * wgt)[None, :]
        kv = ring_kernel(n, wt, wt + xi, zi)
        tx = xi - a
        tz = zi - b
        return [
            float(np.sum(kv * (1 - tx) * (1 - tz) * wq)),
            float(np.sum(kv * tx * (1 - tz) * wq)),
            float(np.sum(kv * (1 - tx) * tz * wq)),
            float(np.sum(kv * tx * tz * wq)),
        ]

    def cell_polar(wt, sx, sz, nphi, nrho):
        xg_phi, wg_phi = leggauss(nphi)
        xg_rho, wg_rho = leggauss(nrho)
        vals = np.zeros(4)
        for lo, hi, radius in ((0.0, math.pi / 4.0, "cos"), (math.pi / 4.0, math.pi / 2.0, "sin")):
            phi = lo + 0.5 * (hi - lo) * (xg_phi + 1.0)
            wphi = 0.5 * (hi - lo) * wg_phi
            R = 1.0 / (np.cos(phi) if radius == "cos" else np.sin(phi))
            rho = 0.5 * R[:, None] * (xg_rho + 1.0)[None, :]
            wrho = 0.5 * R[:, None] * wg_rho[None, :]
            x = rho * np.cos(phi)[:, None]
            y = rho * np.sin(phi)[:, None]
            kv = ring_kernel(n, wt, wt + sx * x, sz * y)
            base = kv * rho * wrho * wphi[:, None]
            vals[0] += np.sum(base * (1 - x) * (1 - y))
            vals[1] += np.sum(base * x * (1 - y))
            vals[2] += np.sum(base * (1 - x) * y)
            vals[3] += np.sum(base * x * y)
        return vals

    mc = 2
    xg, wg = leggauss(10)
    span = 2 * mc + 1
    corr = np.zeros((P, span, span))
    for i in range(P):
        wt = float(i)
        acc = np.zeros((span, span))
        for dci in range(-mc - 1, mc + 1):
            ci = i + dci
            if ci < 0 or ci > P - 2:
                continue
            for dcj in range(-mc - 1, mc + 1):
                if dci in (-1, 0) and dcj in (-1, 0):
                    sx = 1.0 if dci == 0 else -1.0
                    sz = 1.0 if dcj == 0 else -1.0
                    ex = cell_polar(wt, sx, sz, 12, 16)
                    if sx < 0:
                        ex = [ex[1], ex[0], ex[3], ex[2]]
                    if sz < 0:
                        ex = [ex[2], ex[3], ex[0], ex[1]]
                else:
                    ex = cell_exact(wt, float(dci), float(dcj), xg, wg)
                for corner, (da, db) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
                    dni = dci + da
                    dnj = dcj + db
                    if abs(dni) > mc or abs(dnj) > mc:
                        continue
                    acc[dni + mc, dnj + mc] += ex[corner]
        for dni in range(-mc, mc + 1):
            if not (0 <= i + dni < P):
                continue
            for dnj in range(-mc, mc + 1):
                corr[i, dni + mc, dnj + mc] = acc[dni + mc, dnj + mc] - W2[i, i + dni, abs(dnj)]
    return W2, corr


class TestBatchedBuild:
    """KernelTable's batched build against the per-cell loop build."""

    @pytest.mark.parametrize("P", [9, 17])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_loop_build(self, P, n):
        table = KernelTable(P, n)
        W2, corr = loop_build(P, n)
        scale = np.max(np.abs(W2))
        assert table.corr.shape == corr.shape
        # the slabs rows() rebuilds from the stored spectra
        slabs = np.stack([table.w2_slab(i) for i in range(P)])
        assert np.max(np.abs(slabs - W2)) <= 1e-14 * scale
        assert np.max(np.abs(table.corr - corr)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_few_kernel_calls(self, monkeypatch, n):
        # one call per W2 column plus a handful for all corrections; the
        # per-cell build made 621 at P = 17
        calls = []

        def counting(*args):
            calls.append(1)
            return ring_kernel(*args)

        monkeypatch.setattr(greens, "ring_kernel", counting)
        KernelTable(17, n)
        assert 0 < len(calls) <= 17 + 16
