import math
import mmap
import tracemalloc
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
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
    LOpSolver,
    N_GAUSS_BASE,
    get_table,
    ring_kernel,
)
from rotstar.pn import PNSolver, SolverOptions, StarParams

from oracles import axis_laplacian


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


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; returns the list of each call's args."""
    calls = []
    fn = getattr(owner, name)

    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def traced_peak(fn):
    """(peak traced heap bytes above the start while fn runs, fn())."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = fn()
    return tracemalloc.get_traced_memory()[1] - base, out


def whole_table(P, n):
    """A table of its own, every source column filled in one block."""
    table = KernelTable(P, n)
    table.fill(P)
    return table


def spectra(table):
    """The table's spectra C[k, i, c] over all its blocks, c its source column."""
    return np.concatenate([C for _, C in table.blocks], axis=2)


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
        out = ops.k_n_global(AxiField.zeros(grid), 3)
        assert np.max(np.abs(out.int_vals)) == 0.0

    def test_uniform_ball_n3(self, ops, grid):
        rho_b = 0.8 * grid.R0
        src = AxiField.from_function(grid, lambda w, z: 1.0 * (np.hypot(w, z) <= rho_b), 3)
        u = ops.k_n_global(src, 3)
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
        u = ops.k_n_global(src, n)
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
            u = oo.k_n_global(s, n)
            lap = axis_laplacian(u.int_vals, g.h_int, n)
            resid = lap + s.int_vals
            mask = (g.RI <= 1.8 * g.R0) & np.isfinite(resid)
            errs.append(np.abs(resid[mask]).max())
            hs.append(g.h_int)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_decay_exponents(self, ops, grid):
        for n in (3, 4, 5):
            s = smooth_bump(grid)
            s = AxiField(grid, n, s.int_vals, s.star_vals, s.parity, 0.0)
            u = ops.k_n_global(s, n)
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
        w = idx[0].astype(float)
        M = R / w[None, :]
        assert np.allclose(M, M.T, rtol=2e-2, atol=1e-8)


class TestGlobalInverse:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zero_source_touches_no_operator(self, monkeypatch, n):
        # a static star's Y source is zero on both patches: its inverse is
        # an exact zero that evaluates no kernel and looks nothing up
        calls = [count_calls(monkeypatch, greens, "ring_kernel")]
        calls += [count_calls(monkeypatch, GreenOps, name) for name in ("table", "far_operator")]
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=25)
        ops = GreenOps(g)
        out = ops.k_n_global(AxiField.zeros(g, n), n)
        assert calls == [[], [], []]
        assert (out.n_index, out.parity, out.offset) == (n, (1, 1), 0.0)
        assert not np.any(out.int_vals) and not np.any(out.star_vals)
        report = ops.cache_report()
        assert report["kernel_tables"] == {} and report["far_operators"] == {}

    def test_tail_transfers_before_compact_part(self, monkeypatch):
        # a field with both parts transfers its tail first, so a rotating
        # star's starred far pair factors before the interior pair fills
        sides = count_calls(monkeypatch, GreenOps, "_patch_potential")
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=25)
        GreenOps(g).k_n_global(AxiField(g, 5, g.chi_int, (g.RS / g.R0) ** 4), 5)
        assert [args[1] for args in sides] == ["star", "int"]

    def test_offset_rejected_before_any_lookup(self, monkeypatch):
        # a constant offset is not integrable: DecayError, before any kernel
        # table or far operator is looked up
        calls = [count_calls(monkeypatch, GreenOps, name) for name in ("table", "far_operator")]
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=25)
        with pytest.raises(DecayError):
            GreenOps(g).k_n_global(smooth_bump(g) + 0.1, 3)
        assert calls == [[], []]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tail_only_field_is_one_transfer(self, monkeypatch, n):
        # zero interior values under a nonzero starred tail: the all-zero
        # compact part is not transferred, so the inverse applies the table
        # once, to the diamond source, and every far lookup is a starred one
        # (an n = 5 lookup makes its n = 3 pair on a fresh cache)
        monkeypatch.setattr(greens, "_FAR_CACHE", {})
        applies = count_calls(monkeypatch, KernelTable, "apply")
        fars = count_calls(monkeypatch, GreenOps, "far_operator")
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=25)
        ops = GreenOps(g)
        f = AxiField(g, n, np.zeros_like(g.WI), (g.RS / g.R0) ** 4)
        out = ops.k_n_global(f, n)
        assert len(applies) == 1 and applies[0][1].shape == (g.n_ext, g.n_ext)
        assert {args[1] for args in fars} == {"star"}
        assert np.any(out.int_vals) and np.all(np.isfinite(out.star_vals))
        made = {f"star_n{d}" for d in ((3, 5) if n == 5 else (n,))}
        assert set(ops.cache_report()["far_operators"]) == made

    def test_compact_source_is_one_table_apply(self, ops, grid):
        # a source inside r < R0 has no exterior tail: the interior nodes
        # hold exactly the h^2-scaled kernel table applied to it
        s = smooth_bump(grid, radius_frac=0.45)
        out = ops.k_n_global(s, 3)
        assert np.array_equal(out.int_vals, grid.h_int**2 * ops.table(3).apply(s.int_vals))

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_plummer_potential(self, n):
        """The n-dimensional Plummer pair u = (1 + r^2/a^2)^(-(n-2)/2),
        g = n (n - 2)/a^2 (1 + r^2/a^2)^(-(n+2)/2) solves L_n u + g = 0.
        g's r^-(n+2) tail is the slowest the diamond route admits, so the
        check runs the whole tail path: the diamond weight, the starred
        inversion, both Kelvin transfers and both far operators.  At a = R0
        the sup errors refine at order 2 +- 0.2 over 17/13, 33/25 and 65/49
        (1.90 to 2.09 measured) on the interior patch, on the starred patch
        (the Kelvin values (r/R0)^(n-2) u), at the starred origin (their
        limit (a/R0)^(n-2), where M and J are read) and on each side's far
        targets alone, and stay below 1e-3 of sup u = 1 on 65/49 (7.3e-4
        measured, n = 5 starred)."""
        R0 = a = 2.0

        def plummer(w, z, power):
            return (1.0 + (w * w + z * z) / a**2) ** power

        errs = []
        for N, M in ((17, 13), (33, 25), (65, 49)):
            g = AxiGrid(R0, N, M)
            ops = GreenOps(g)
            src = AxiField.from_function(
                g, lambda w, z: n * (n - 2) / a**2 * plummer(w, z, -(n + 2) / 2), n
            )
            out = ops.k_n_global(src, n)
            d_int = np.abs(out.int_vals - plummer(g.WI, g.ZI, -(n - 2) / 2))
            W, Z, r = g.images["star"]
            with np.errstate(invalid="ignore"):  # inf * 0 at the starred origin
                star = (r / R0) ** (n - 2) * plummer(W, Z, -(n - 2) / 2)
            star[0, 0] = (a / R0) ** (n - 2)
            d_star = np.abs(out.star_vals - star)
            errs.append([
                np.max(d_int),
                max(np.max(d_star[1:]), np.max(d_star[0, 1:])),
                d_star[0, 0],
                np.max(d_star[ops.far["int"]]),
                np.max(d_int[ops.far["star"]]),
            ])
        errs = np.array(errs)
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.2), orders
        assert np.max(errs[-1]) < 1e-3, errs[-1]

    def test_diamond_boundedness(self, grid):
        # g_star ~ (r*/R0)^4 makes the diamond source bounded: check via the
        # construction not raising and the output being finite
        ops = GreenOps(grid)
        f = AxiField(grid, 3, np.zeros_like(grid.WI), (grid.RS / grid.R0) ** 4)
        out = ops.k_n_global(f, 3)
        assert np.all(np.isfinite(out.int_vals))
        assert np.all(np.isfinite(out.star_vals))

    def test_weak_decay_rejected(self, ops, grid):
        # a starred tail growing toward the origin-image cannot be inverted
        rs = np.maximum(grid.RS, 1e-6)
        f = AxiField(grid, 3, np.zeros_like(grid.WI), (grid.R0 / rs) ** 2)
        with pytest.raises(DecayError):
            ops.k_n_global(f, 3)

    def test_operator_norm_diagnostic(self, ops, grid):
        # ||K^(n) g|| <= C ||g|| over random smooth sources (C grid-level), in
        # the two-patch sup norm of the cutoff split
        def norm(f):
            return max(np.max(np.abs(f.interior_compact())), np.max(np.abs(f.exterior_tail_star())))

        rng = np.random.RandomState(5)
        worst = 0.0
        for _ in range(4):
            c = rng.uniform(0.3, 1.2)
            s = smooth_bump(grid, radius_frac=rng.uniform(0.4, 0.9)) * c
            out = ops.k_n_global(s, 3)
            worst = max(worst, norm(out) / norm(s))
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
        kern = ops.k_n_global(src_f, 3)
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
        kern = ops.k_n_global(s, n)
        # boundary data from the kernel's own far evaluation is smooth and
        # far from the support: independence holds for the interior inversion
        bc = kern.int_vals
        fd = self._fd_solve(g, n, s.int_vals, bc)
        inner = g.RI <= 1.5 * g.R0
        assert np.abs(kern.int_vals - fd)[inner].max() < 2e-2 * np.abs(kern.int_vals).max()


class TestLOp:
    def test_zero_source(self, ops, grid):
        coef = smooth_bump(grid, radius_frac=0.3)
        sol = LOpSolver(ops, coef).solve(AxiField.zeros(grid))
        assert np.max(np.abs(sol.int_total())) < 1e-15

    def test_tailed_source_makes_three_applies(self, monkeypatch, ops, grid):
        # the tail is inverted alone by tail_potential: one apply for the
        # tail's diamond source, one for the right-hand side, one for the
        # interior transfer of the corrected source
        R0 = grid.R0

        def fn(w, z):
            return (R0 / np.maximum(np.hypot(w, z), 0.2 * R0)) ** 5

        solver = LOpSolver(ops, smooth_bump(grid, radius_frac=0.3))
        src = AxiField.from_function(grid, fn, 3)
        assert np.any(src.exterior_tail_star())
        applies = count_calls(monkeypatch, KernelTable, "apply")
        sol = solver.solve(src)
        assert [args[1].shape[0] for args in applies] == [grid.n_ext, grid.n_int, grid.n_int]
        assert np.all(np.isfinite(sol.int_vals)) and np.all(np.isfinite(sol.star_vals))

    def test_coefficient_with_offset_rejected(self, ops, grid):
        with pytest.raises(DomainError, match="compactly supported"):
            LOpSolver(ops, smooth_bump(grid) + 0.1)

    def test_trivial_coefficient(self, ops, grid):
        gf = smooth_bump(grid, radius_frac=0.6)
        triv = LOpSolver(ops, AxiField.zeros(grid)).solve(gf)
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
            sol = LOpSolver(oo, coef).solve(gf)
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

    def test_singular_system_reported(self, monkeypatch, ops, grid):
        # drive the zeroth-order term through its first resonance: amp such
        # that the Nystrom block has a unit eigenvalue
        from rotstar.errors import SolverError

        monkeypatch.setattr(greens, "RCOND_RAISE", 1e-6)

        bump = smooth_bump(grid, radius_frac=0.35)
        coef = bump.int_vals
        si, sj = np.nonzero(coef != 0.0)
        tab = ops.table(3)
        h = grid.h_int
        R = h**2 * tab.rows((si, sj), (si, sj))
        R0row = h**2 * tab.rows((np.array([0]), np.array([0])), (si, sj))
        K = (R - R0row) * coef[si, sj][None, :]
        lam = np.max(np.linalg.eigvals(K).real)
        amp = 1.0 / lam
        with pytest.raises(SolverError) as err:
            LOpSolver(ops, bump * (amp * (1.0 + 1e-10)))
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


class TestSharedTable:
    """A patch of p nodes on the P-node table of its dimension, P > p."""

    SIZES = [(49, 65), (65, 97)]

    @staticmethod
    def sources(p):
        """The two chi-cut sources of a p-node patch: interior chi(r/R0) and
        starred 1 - chi at the image radius, both zero on the last row and
        column."""
        g = AxiGrid(R0=2.0, n_interior=p, n_exterior=p)
        r_int, r_star = g.RI / g.R0, g.RS / g.R0
        return [g.chi_int * np.cos(1.3 * r_int), (1.0 - g.chi_img) * np.exp(-r_star)]

    @pytest.mark.parametrize("p, P", SIZES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_leading_block_is_the_patch_table(self, n, p, P):
        # the nodal rule (far_weights, total_mass) reads no table, so only
        # apply has a table size to agree across
        own, shared = whole_table(p, n), whole_table(P, n)
        for src in self.sources(p):
            assert not np.any(src[-1]) and not np.any(src[:, -1])
            ref = own.apply(src)
            got = shared.apply(src)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("p, P", SIZES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_edge_touching_source_rejected(self, n, p, P):
        # the leading block differs from the p-node table only where the
        # source must vanish: on the last row and column
        shared = KernelTable(P, n)
        for edge in (np.s_[-1, 3], np.s_[3, -1]):
            src = self.sources(p)[0]
            src[edge] = 1e-3
            with pytest.raises(DomainError):
                shared.apply(src)
        with pytest.raises(DomainError):
            KernelTable(p, n).apply(np.ones((P, P)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_larger_starred_patch(self, monkeypatch, n):
        # with n_exterior > n_interior the interior patch reads the leading
        # block; k_n_global and the LOp solve match each patch on the table
        # of its own node count.  On tables of its own, each filled in one
        # block, as the 1e-14 comparison needs
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=49)
        ops, ref_ops = GreenOps(g), PerPatchOps(g)
        assert ops.table(n) is get_table(49, n)

        def tail(w, z):
            return (1.0 + (w * w + z * z) / g.R0**2) ** (-(n + 2) / 2)

        f = AxiField.from_function(g, tail, n)
        assert_close_fields(ops.k_n_global(f, n), ref_ops.k_n_global(f, n), 1e-14)
        if n == 3:
            coef = smooth_bump(g, radius_frac=0.3) * 2.0
            gf = smooth_bump(g, radius_frac=0.6)
            got = LOpSolver(ops, coef).solve(gf)
            ref = LOpSolver(ref_ops, coef).solve(gf)
            assert_close_fields(got, ref, 1e-14)
            assert got.offset == pytest.approx(ref.offset, rel=1e-14)


class PerPatchOps(GreenOps):
    """GreenOps with each patch on the kernel table of its own node count,
    the reference for the shared tables."""

    def table(self, n):
        return get_table(self.grid.n_int, n)

    def _patch_potential(self, side, n, src):
        if side == "star":
            self.table = lambda n: get_table(self.grid.n_ext, n)
        try:
            return super()._patch_potential(side, n, src)
        finally:
            self.__dict__.pop("table", None)


def assert_close_fields(got, ref, rtol):
    for a, b in ((got.int_vals, ref.int_vals), (got.star_vals, ref.star_vals)):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def assert_same_decomposition(far, R, perm, scale):
    """far's rank, tail, skeleton and E rows, by target, are those of the
    full pivoted QR R, perm (0-based) of its scaled sketch, bit for bit."""
    d = np.abs(np.diag(R))
    r = int(np.count_nonzero(d > greens.FAR_RANK_TOL * d[0]))
    assert far.rank == r
    assert far.tail == (d[r] / d[0] if r < d.size else 0.0)
    assert np.array_equal(far.skeleton, perm[:r])
    E = np.full((perm.size, r), np.nan)
    E[perm[r:]] = (scipy.linalg.solve_triangular(R[:r, :r], R[:r, r:]).T * scale[perm[:r]]
                   / scale[perm[r:], None])
    got = np.full(E.shape, np.nan)
    got[far.rest] = far.E
    assert np.array_equal(np.sort(far.rest), np.sort(perm[r:]))
    assert np.array_equal(got, E, equal_nan=True)


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
    def nodal_sum(n, gvals, wt, zt):
        """The plain nodal rule summed target by target."""
        i, j = np.nonzero(gvals)
        ws, zs = i.astype(float), j.astype(float)
        colw = np.where((i == 0) | (i == gvals.shape[0] - 1), 0.5, 1.0)
        out = np.empty(wt.size)
        for t in range(wt.size):
            k = ring_kernel(n, wt[t], ws, zt[t] - zs)
            k = k + (j > 0) * ring_kernel(n, wt[t], ws, zt[t] + zs)
            out[t] = np.sum(colw * gvals[i, j] * k)
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
        # a thin ring of source leaves the operator dense, the full source
        # takes it past the sketch's rows and factors it; both regimes
        # reproduce eval_at and the nodal sum
        for n_int, n_ext in ((33, 25), (65, 49)):
            ops = GreenOps(AxiGrid(R0=2.0, n_interior=n_int, n_exterior=n_ext))
            far = ops.far_operator(side, n)
            g = ops.grid
            r = g.RI / g.R0 if side == "int" else g.RS / g.R0
            ring = np.where(np.abs(r - 0.6) < 0.04, np.cos(3.0 * r), 0.0)
            filled, dense = [], []
            for src in [ring, *self.sources(ops, side)]:
                got = far(src)
                ref = KernelTable(far.P, n).eval_at(src, far.wt, far.zt)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                direct = self.nodal_sum(n, src, far.wt, far.zt)
                assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))
                filled.append(far.nodes.size)
                dense.append(far.dense)
            assert 0 < filled[0] <= far.sketch.size < filled[2] == filled[3]
            assert dense[0] and not any(dense[2:])
            assert far.rank < far.wt.size

    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_factors_past_the_sketch_rows(self, side, n):
        # no ID while the filled nodes are at most the sketch's rows; the
        # call that takes them past it factors, drops the rows held and
        # fills every node of its source, the dense rows' skeleton columns
        # bit for bit
        P = 33 if side == "int" else 25
        far = greens.FarOperator(n, side, 33, 25)
        m, T = far.sketch.size, far.wt.size
        # nodes of the quarter disc the sketch samples, in their flat order
        i, j = np.divmod(np.arange(P * P), P)
        nodes = np.flatnonzero(i * i + j * j < (P - 1) ** 2)[: m + 1]
        src = np.zeros(P * P)
        for k in (1, m // 2, m):
            src[nodes[:k]] = np.linspace(1.0, 2.0, k)
            far(src.reshape(P, P))
            assert far.dense and far.qr_columns is None and far.tail is None
            assert far.E.shape == (0, T) and far.rest.size == 0
            assert np.array_equal(far.skeleton, np.arange(T))
            assert far.weights.shape == (k, T)
        rows = far.weights
        full = np.vstack([b for _, b in greens.far_weights(n, nodes, far.wt, far.zt, P)])
        assert np.array_equal(rows, full[:m])
        src[nodes[m]] = 3.0
        far(src.reshape(P, P))
        assert not far.dense and 0 < far.rank < T and far.qr_columns >= far.rank
        assert far.E.shape == (T - far.rank, far.rank)
        assert np.array_equal(far.nodes, nodes)
        assert np.array_equal(far.weights, full[:, far.skeleton])

    @pytest.mark.parametrize("side", ["int", "star"])
    def test_weights_hold_the_filled_rows(self, side):
        # the skeleton weights grow by one block per call that brings new
        # source nodes, and never hold a row no source has filled
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        far = ops.far_operator(side, 5)
        assert far.weights.shape == (0, far.wt.size)
        for src in self.sources(ops, side):
            far(src)
            assert far.weights.shape == (far.nodes.size, far.rank)
            assert far.nbytes == far.E.nbytes + far.weights.nbytes

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
                    first.far_operator(side, n)(src)
        calls = self.counting_kernel(monkeypatch)
        for side in ("int", "star"):
            for n in (3, 5):
                for src in self.sources(second, side):
                    second.far_operator(side, n)(src)
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
            for mask, P in ((ops.far["int"], n_ext), (ops.far["star"], n_int)):
                union = greens.far_mask(P)
                assert not np.any(mask & ~union)
                i, j = np.nonzero(mask)
                on_boundary += np.count_nonzero(4 * (i * i + j * j) == (P - 1) ** 2)
        assert on_boundary > 0

    @staticmethod
    def sketch_inputs(side, n, n_int, n_ext):
        """FarOperator's patch size, sketch rows, targets and column scale,
        rebuilt."""
        P = n_int if side == "int" else n_ext
        i, j = np.nonzero(greens.far_mask(n_ext if side == "int" else n_int))
        c = (n_int - 1) * (n_ext - 1) / (2.0 * (i * i + j * j))
        wt, zt = i * c, j * c
        scale = np.hypot(wt, zt) ** (n - 2) if side == "int" else np.ones(wt.size)
        si, sj = np.divmod(np.arange(P * P), P)
        disc = np.flatnonzero(si * si + sj * sj < (P - 1) ** 2)
        sketch = disc[:: max(1, disc.size // (greens.FAR_SKETCH_ROWS * P))]
        return P, sketch, wt, zt, scale

    @staticmethod
    def factored(n, side, n_int, n_ext):
        """A far operator factored on the spot, as its first call past the
        sketch's rows factors it."""
        far = greens.FarOperator(n, side, n_int, n_ext)
        far._factor()
        return far

    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_in_place_factor_matches_qr(self, side, n):
        # the skeleton and each target's E row of the in-place QR equal bit
        # for bit those of scipy.linalg.qr on a stacked, scaled copy of the
        # same sketch.  The targets off the skeleton come in the order the
        # QR left them when it stopped, so E's rows are compared by target
        P, sketch, wt, zt, scale = self.sketch_inputs(side, n, 33, 25)
        A = np.vstack([block for _, block in greens.far_weights(n, sketch, wt, zt, P)])
        R, perm = scipy.linalg.qr(A * scale, mode="r", pivoting=True)
        far = self.factored(n, side, 33, 25)
        assert_same_decomposition(far, R, perm, scale)

    @pytest.mark.parametrize("shape", [(33, 25), (65, 49)])
    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_truncated_qr_matches_full_dgeqp3(self, shape, side, n):
        # the QR stops after the dgeqp3 panel in which its pivots drop below
        # FAR_RANK_TOL, and what the operator keeps of it, the skeleton, the
        # tail and each target's E row, is the full dgeqp3's bit for bit.  A
        # sketch whose short side is within QP3_CROSSOVER (the 33/25
        # interior one) is not blocked and factors every column
        P, sketch, wt, zt, scale = self.sketch_inputs(side, n, *shape)
        A = np.vstack([block for _, block in greens.far_weights(n, sketch, wt, zt, P)])
        A = np.asfortranarray(A * scale)
        lwork = int(scipy.linalg.lapack.dgeqp3(A, lwork=-1)[3][0])
        R, perm, _, _, info = scipy.linalg.lapack.dgeqp3(A, lwork=lwork)
        assert info == 0
        far = self.factored(n, side, *shape)
        assert_same_decomposition(far, R, perm - 1, scale)
        nb = (lwork - 2 * wt.size) // (wt.size + 1)
        mn = min(A.shape)
        if mn <= greens.QP3_CROSSOVER:
            assert (shape, side) == ((33, 25), "int")
            assert far.qr_columns == mn
        else:
            assert far.rank < far.qr_columns <= min(far.rank + nb, mn - greens.QP3_CROSSOVER)

    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_keeps_pivots_above_tolerance(self, side, n):
        # every kept pivot of the sketch QR is above FAR_RANK_TOL of the
        # first, and tail, the first dropped one, is at or below it
        P, sketch, wt, zt, scale = self.sketch_inputs(side, n, 33, 25)
        A = np.vstack([block for _, block in greens.far_weights(n, sketch, wt, zt, P)])
        R = scipy.linalg.qr(A * scale, mode="r", pivoting=True)[0]
        d = np.abs(np.diag(R))
        far = self.factored(n, side, 33, 25)
        r = far.rank
        assert np.all(d[:r] > greens.FAR_RANK_TOL * d[0])
        assert r < d.size
        assert far.tail == d[r] / d[0]
        assert 0.0 < far.tail <= greens.FAR_RANK_TOL

    def test_sketch_held_once(self):
        # factoring the operator may hold the sketch and E beside the
        # far_weights blocks, not the several copies of a stack-scale-copy
        # QR (the stacked blocks, vstack, the scaled copy, the Fortran copy)
        P, sketch, wt, zt, _ = self.sketch_inputs("star", 3, 65, 49)
        far = greens.FarOperator(3, "star", 65, 49)
        tracemalloc.start()
        try:
            bare, _ = traced_peak(lambda: [None for _ in greens.far_weights(3, sketch, wt, zt, P)])
            peak, _ = traced_peak(far._factor)
        finally:
            tracemalloc.stop()
        sketch_bytes = sketch.size * wt.size * 8
        assert sketch_bytes > 2 << 20
        assert peak - bare <= sketch_bytes + far.E.nbytes + (1 << 19)

    def test_sketch_pages_given_back(self, monkeypatch):
        # the sketch lives in one anonymous mapping outside the heap, and
        # the mapping is gone once the operator is factored; a pair that
        # factors together maps one sketch each and gives both back
        P, sketch, wt, zt, _ = self.sketch_inputs("star", 3, 65, 49)
        maps = []

        def mapped(*args):
            buf = mmap.mmap(*args)
            maps.append((weakref.ref(buf), len(buf)))
            return buf

        monkeypatch.setattr(greens, "mmap", SimpleNamespace(mmap=mapped))
        far = greens.FarOperator(3, "star", 65, 49)
        tracemalloc.start()
        try:
            bare, _ = traced_peak(lambda: [None for _ in greens.far_weights(3, sketch, wt, zt, P)])
            peak, _ = traced_peak(far._factor)
        finally:
            tracemalloc.stop()
        sketch_bytes = sketch.size * wt.size * 8
        assert [size for _, size in maps] == [sketch_bytes]
        assert maps[0][0]() is None
        assert peak - bare <= far.E.nbytes + (1 << 19) < sketch_bytes
        pair = greens.FarOperator(3, "star", 65, 49)
        greens.FarOperator(5, "star", 65, 49, pair)._factor()
        assert [size for _, size in maps[1:]] == [sketch_bytes] * 2
        assert not pair.dense and all(ref() is None for ref, _ in maps)

    @pytest.mark.parametrize("side", ["int", "star"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_skeleton_rows_come_back_exactly(self, side, n):
        # E holds only the rows of the T - r targets off the skeleton; the
        # skeleton targets take their nodal sums as they are, which the
        # identity rows of a full T x r E gave bit for bit, and the others
        # E's product.  A dense operator is the case r = T, with no rows off
        # the skeleton
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        far = ops.far_operator(side, n)
        for src in self.sources(ops, side):
            got = far(src)
            T, r = far.wt.size, far.rank
            assert far.E.shape == (T - r, r)
            assert np.array_equal(np.sort(np.concatenate([far.skeleton, far.rest])), np.arange(T))
            full = np.zeros((T, r))
            full[far.skeleton] = np.eye(r)
            full[far.rest] = far.E
            sums = src.ravel()[far.nodes] @ far.weights
            assert np.array_equal(got[far.skeleton], sums)
            # the rows off it up to the rounding of a shorter matrix product
            ref = full @ sums
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side", ["int", "star"])
    def test_pair_matches_operators_alone(self, side):
        # a rotating solve's calls: the n = 3 and n = 5 operators dense on
        # the fluid, then the n = 5 one past its sketch's rows, which
        # factors both from one pass and fills the union of their
        # skeletons; each equals the operator built and called alone
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        pair = [ops.far_operator(side, n) for n in (3, 5)]
        assert pair[1].pair is pair[0] and pair[0].pair is None
        alone = [greens.FarOperator(n, side, 33, 25) for n in (3, 5)]
        small, full, _ = self.sources(ops, side)

        def run(far3, far5):
            out = [far3(small), far5(small)]
            assert far3.dense and far5.dense
            return out + [far5(full), far3(full)]

        assert all(np.array_equal(x, y) for x, y in zip(run(*pair), run(*alone)))
        for a, b in zip(pair, alone):
            assert not a.dense
            for attr in ("skeleton", "rest", "E", "tail", "qr_columns", "nodes", "weights"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

    def test_pair_fills_n3_once(self, monkeypatch):
        # the call that factors the n = 5 operator fills its pair with it,
        # for every node of its source: the n = 3 call that follows
        # evaluates no kernel
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        src = self.sources(ops, "star")[1]
        ops.far_operator("star", 5)(src)
        calls = self.counting_kernel(monkeypatch)
        far = ops.far_operator("star", 3)
        assert not far.dense and far.nodes.size == np.count_nonzero(src)
        far(src)
        assert calls == []

    @pytest.mark.parametrize("P", [17, 21, 32, 33])
    def test_apply_matches_rows(self, P):
        # every node, the last z row included, must be clear of
        # wrap-around.  The DCT-I's period is 4P - 4, the shortest one that
        # holds an even lag row (the end lags share an index), whatever P:
        # 80 at P = 21 is not a power of two, 124 at P = 32 not 2^k + 1
        table = whole_table(P, 3)
        [(c0, C)] = table.blocks
        assert c0 == 0 and table.ncols == P
        assert C.shape == (2 * P - 1, P, P)
        assert table.nbytes == C.nbytes
        gvals = np.random.RandomState(P).uniform(-1.0, 1.0, (P, P))
        i, j = np.divmod(np.arange(P * P), P)
        dense = table.rows((i, j), (i, j)) @ gvals.ravel()
        got = table.apply(gvals).ravel()
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def moment_stencil(q):
    """The (2q + 1)-point hat stencil from its moment equations
    sum_k s_k k^p = int x^p hat(x) dx, p = 0..2q, solved exactly in the
    Lagrange form: s_k is the hat integral of node k's basis polynomial."""
    nodes = range(-q, q + 1)
    s = []
    for k in nodes:
        coef = [Fraction(1)]  # prod_{m != k} (x - m) / (k - m), lowest power first
        for m in nodes:
            if m != k:
                coef = [(lo - m * hi) / (k - m) for lo, hi in zip([0, *coef], [*coef, 0])]
        # the hat's moments: 2 / ((p + 1)(p + 2)) for even p, 0 for odd p
        moments = (Fraction(2, (p + 1) * (p + 2)) * c for p, c in enumerate(coef) if p % 2 == 0)
        s.append(float(sum(moments)))
    return np.array(s)


def polar_cell(n, wt, sx, sz, nphi, nrho):
    """Polar-Gauss integrals of the ring kernel against the four corner hats
    of the unit cell with a corner on the target (wt, 0), mirrored into the
    cell by the signs (sx, sz); returns the corners at distance (0, 0),
    (1, 0), (0, 1), (1, 1) from the target."""
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


def gauss_column(P, n, i, G, polar=None):
    """W2[i] from G x G tensor Gauss on every cell of the column.  With
    polar = (nphi, nrho), the two cells with a corner on the target (and
    their dz < 0 mirrors) take polar_cell instead."""
    xg, wg = leggauss(G)
    t = 0.5 * (xg + 1.0)
    wq = 0.5 * wg
    n_wc, n_zc = P - 1, 2 * P - 2
    ws_pts = (np.arange(n_wc)[:, None] + t[None, :]).ravel()
    dz_pts = (np.arange(n_zc)[:, None] + t[None, :]).ravel()
    hat = ((1.0 - t) * wq, t * wq)
    kv = ring_kernel(n, float(i), ws_pts[:, None], dz_pts[None, :]).reshape(n_wc, G, n_zc, G)
    # c[p, q][a, b]: cell (a, b) weighed toward node a + p and lag b + q
    c = {(p, q): np.einsum("agbh,g,h->ab", kv, hat[p], hat[q]) for p in (0, 1) for q in (0, 1)}
    if polar is not None:
        for a, sx in ((i - 1, -1.0), (i, 1.0)):
            if 0 <= a <= P - 2:
                ex = polar_cell(n, float(i), sx, 1.0, *polar)
                for (dx, q), v in zip(((0, 0), (1, 0), (0, 1), (1, 1)), ex):
                    c[dx if sx > 0 else 1 - dx, q][a, 0] = v
    W2 = np.zeros((P, 2 * P - 1))
    W2[:-1, :-1] += c[0, 0]
    W2[:-1, 1:] += c[0, 1]
    W2[1:, :-1] += c[1, 0]
    W2[1:, 1:] += c[1, 1]
    W2[:-1, 0] += c[0, 0][:, 0]
    W2[1:, 0] += c[1, 0][:, 0]
    return W2


def loop_build(P, n):
    """The reference for KernelTable's batched build: returns
    W2[i, i', lag].  4-point Gauss on every cell; then the far entries,
    outside the band |i' - i| <= 16, lag <= 16 and off the half-hat edges
    (i' = 0, i' = P - 1, lag = 2P - 2), one by one as the q = 5 stencil sum
    over the kernel's node values, the ghosts k(-ws) = (-1)^n k(ws) and
    k(-dz) = k(dz); then the near-cell integrals, one ring_kernel call per
    Gauss cell and per polar half, written in at nodes i' = i + dni and
    lags dnj = 0..2."""
    W2 = np.stack([gauss_column(P, n, i, 4) for i in range(P)])

    q, band = 5, 16
    s = moment_stencil(q)
    off = np.arange(-q, q + 1)
    for i in range(P):
        nodes = ring_kernel(n, float(i), np.arange(P + q, dtype=float)[:, None],
                            np.arange(2 * P - 1 + q, dtype=float))
        for ip in range(1, P - 1):
            for lag in range(2 * P - 2):
                if abs(ip - i) <= band and lag <= band:
                    continue
                x, y = ip + off, lag + off
                vals = np.where(x < 0, (-1.0) ** n, 1.0)[:, None] * nodes[np.abs(x)][:, np.abs(y)]
                W2[i, ip, lag] = np.sum(np.outer(s, s) * vals)

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

    mc = 2
    xg, wg = leggauss(10)
    span = 2 * mc + 1
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
                    ex = polar_cell(n, wt, sx, sz, 12, 16)
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
            for dnj in range(mc + 1):
                W2[i, i + dni, dnj] = acc[dni + mc, dnj + mc]
    return W2


def oneshot_ring_kernel(n, wt, ws, dz):
    """ring_kernel on the whole broadcast input at once, without blocks and
    with a fresh array for each intermediate: the reference for
    ring_kernel's blocked, in-place evaluation."""
    wt, ws, dz = (np.asarray(x, dtype=float) for x in (wt, ws, dz))
    scalar = wt.ndim == ws.ndim == dz.ndim == 0
    wt, ws, dz = np.atleast_1d(wt, ws, dz)
    A = (wt - ws) ** 2 + dz**2
    B = 4.0 * wt * ws
    diag = A <= 0.0
    has_diag = diag.any()
    if has_diag:
        A[diag] = 1.0
    AB = A + B
    m = B / AB
    if n == 3:
        out = ws * ellipk(m) / (math.pi * np.sqrt(AB))
    else:
        axis = m < 1e-14
        has_axis = axis.any()
        if n == 4:
            if has_axis:
                wt = np.where(wt > 0, wt, 1.0)
            out = ws * np.log(AB / A) / (4.0 * math.pi * wt)
        else:
            K = ellipk(m)
            gm = 2.0 * (K - ellipe(m)) - m * K
            if has_axis:
                B = np.where(axis, 1.0, B)
            out = ws**3 * 8.0 * np.sqrt(AB) * gm / (2.0 * math.pi * B**2)
        if has_axis:
            ws_ax = np.broadcast_to(ws, out.shape)[axis]
            A_ax = A[axis]
            out[axis] = ws_ax**2 / (math.pi * A_ax) if n == 4 else ws_ax**3 / (4.0 * A_ax**1.5)
    if has_diag:
        out[diag] = 0.0
    if scalar:
        return float(out[0])
    return out


class TestBlockedKernel:
    """ring_kernel's cache-sized blocks against the one-shot formula."""

    @staticmethod
    def inputs(P):
        """Scalar, W2-lattice, W2-Gauss-cell, near-cell and axis/coincident
        inputs of a P-node table build."""
        t = 0.5 * (leggauss(N_GAUSS_BASE)[0] + 1.0)
        q = greens.STENCIL_Q
        ws_nodes = np.arange(P + q, dtype=float)
        dz_nodes = np.arange(2 * P - 1 + q, dtype=float)
        # every cell of a W2 column, the superset of its Gauss cells
        ac, bc = (
            x.ravel() for x in np.meshgrid(np.arange(P - 1), np.arange(2 * P - 2), indexing="ij")
        )
        # the cells of _near_integrals: near ones on a 10 x 10 Gauss
        # rule, the four around the target on the polar rule
        d = np.arange(-greens.MC - 1, greens.MC + 1)
        I, DI, DJ = (x.ravel() for x in np.meshgrid(np.arange(P), d, d, indexing="ij"))
        keep = (I + DI >= 0) & (I + DI <= P - 2)
        polar = keep & (DI >= -1) & (DI <= 0) & (DJ >= -1) & (DJ <= 0)
        i, a, b = (x[keep & ~polar, None, None] for x in (I, DI, DJ))
        tn = 0.5 * (leggauss(greens.N_GAUSS_NEAR)[0] + 1.0)
        ip, ap, bp = (x[polar, None] for x in (I, DI, DJ))
        x, y, _ = greens._polar_rule()
        grid = np.arange(4.0)
        return {
            "scalar": (1.5, 4.0, 0.25),
            "scalar coincident": (2.0, 2.0, 0.0),
            "W2 lattice": (float(P // 2), ws_nodes[:, None], dz_nodes[None, :]),
            "W2 axis lattice": (0.0, ws_nodes[:, None], dz_nodes[None, :]),
            "W2 Gauss cells": (
                float(P // 2), (ac[:, None] + t)[:, :, None], (bc[:, None] + t)[:, None, :]
            ),
            "near cells": (1.0 * i, i + (a + tn[:, None]), b + tn),
            "polar cells": (1.0 * ip, ip + (2 * ap + 1) * x, (2 * bp + 1) * y),
            # axis targets (wt = 0, so m = 0) and coincident points (A = 0)
            "axis and coincident": (grid[:, None, None], grid[None, :, None], grid[None, None, :]),
            # far_weights: targets along the last axis, nodes along the first
            "far weights": (grid[None, :], ws_nodes[:20, None],
                            grid[None, :] - dz_nodes[:20, None] / 4.0),
        }

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_oneshot(self, monkeypatch, n, block):
        # at P = 97 the W2 Gauss cells and the near cells span many
        # blocks; blocks of 7 put axis and coincident points in some only
        if block is not None:
            monkeypatch.setattr(greens, "RING_BLOCK", block)
        blocks = 0
        for name, args in self.inputs(97 if block is None else 17).items():
            before = [np.copy(x) for x in args]
            got = ring_kernel(n, *args)
            # the in-place evaluation writes into none of its inputs
            assert all(np.array_equal(x, y) for x, y in zip(args, before)), name
            ref = oneshot_ring_kernel(n, *args)
            assert type(got) is type(ref), name
            assert np.array_equal(got, ref), name
            blocks = max(blocks, np.size(got) // greens.RING_BLOCK)
        assert blocks >= 10

    @pytest.mark.parametrize("block", [None, 7])
    def test_pair_matches_single_dimensions(self, monkeypatch, block):
        # one pass of (3, 5) gives each kernel bit for bit, on blocks with
        # and without coincident and axis points (m < 1e-14), and across
        # many blocks
        if block is not None:
            monkeypatch.setattr(greens, "RING_BLOCK", block)
        axis = 0
        for name, args in self.inputs(97 if block is None else 17).items():
            got = ring_kernel((3, 5), *args)
            single = [ring_kernel(n, *args) for n in (3, 5)]
            assert got.shape == (2, *np.shape(single[0])), name
            assert all(np.array_equal(g, s) for g, s in zip(got, single)), name
            wt, ws, dz = np.broadcast_arrays(*args)
            axis += np.count_nonzero(4 * wt * ws < 1e-14 * ((wt + ws) ** 2 + dz**2))
        assert axis > 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_table_matches_oneshot_build(self, monkeypatch, n):
        table = whole_table(17, n)
        monkeypatch.setattr(greens, "ring_kernel", oneshot_ring_kernel)
        ref = whole_table(17, n)
        assert np.array_equal(spectra(table), spectra(ref))


class TestBatchedBuild:
    """KernelTable's batched build against the per-cell loop build."""

    @pytest.mark.parametrize("P", [9, 17])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_loop_build(self, P, n):
        table = whole_table(P, n)
        W2 = loop_build(P, n)
        scale = np.max(np.abs(W2))
        # the slabs rows() rebuilds from the stored spectra
        slabs = np.stack([table.w2_slab(i) for i in range(P)])
        assert slabs.shape == W2.shape
        assert np.max(np.abs(slabs - W2)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_near_integrals_even_in_z(self, monkeypatch, n):
        # the near integrals are taken at lags dnj >= 0 only, and lag 0's hat
        # sums its halves below and above dz = 0, so the polar and
        # tensor-Gauss rules must give the two halves of the even kernel alike
        P = 17
        scale = np.max(np.abs(loop_build(P, n)))
        halves = []
        for side in (-1.0, 1.0):
            def one_side(n, wt, ws, dz, side=side):
                return ring_kernel(n, wt, ws, dz) * (side * dz > 0)

            monkeypatch.setattr(greens, "ring_kernel", one_side)
            halves.append(greens._near_integrals(P, n, 0, P)[:, :, 0])
        assert np.max(np.abs(halves[0])) > 0.1 * scale
        assert np.max(np.abs(halves[0] - halves[1])) <= 1e-15 * scale

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_few_kernel_calls(self, monkeypatch, n):
        # two calls per W2 column (its Gauss cells, its node lattice) and
        # two for all near integrals: 2 * 17 + 2 = 36 at P = 17; the
        # per-cell build made 621
        calls = count_calls(monkeypatch, greens, "ring_kernel")
        whole_table(17, n)
        assert len(calls) == 2 * 17 + 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kernel_values_per_table(self, monkeypatch, n):
        """A whole fill at P = 65 evaluates fewer than 8 P^3 ring_kernel values;
        Gauss on every cell took 32 P^3 (16 per cell, (P - 1)(2P - 2) cells
        per column).  Per column the build takes (P + q)(2P - 1 + q) lattice
        values, 9,380 at q = 5, and 16 per Gauss cell: at most
        (2D + 2)(D + 1) = 578 band cells at D = 16, and 2(2P - 2) + P - 1 =
        320 edge cells less their overlap with the band, so at most 14,368.
        The near integrals add 100 values per tensor cell and 384 per polar
        cell: 20 and 4 cells, 3,536 values, per inner column at MC = 2, about
        0.22 M in all."""
        P = 65
        calls = count_calls(monkeypatch, greens, "ring_kernel")
        whole_table(P, n)
        values = sum(np.broadcast(*args[1:]).size for args in calls)
        lattice = P * (P + 5) * (2 * P - 1 + 5)
        assert lattice < values < 8 * P**3


class TestNodalRule:
    """The far W2 entries' stencil rule, and every entry class of a table
    column against a 12-point Gauss reference."""

    @pytest.mark.parametrize("q", [3, greens.STENCIL_Q])
    def test_hat_stencil_moments(self, q):
        s = greens._hat_stencil(q)
        k = np.arange(-q, q + 1)
        assert s.shape == (2 * q + 1,)
        assert np.array_equal(s, s[::-1])
        assert abs(np.sum(s) - 1.0) <= 1e-15
        for j in range(q + 1):
            # the moment's own scale: its largest terms, 5^(2j) s_5 at q = 5
            scale = np.sum(np.abs(s) * k ** (2 * j))
            moment = 2.0 / ((2 * j + 1) * (2 * j + 2))
            assert abs(np.sum(s * k ** (2 * j)) - moment) <= 1e-15 * scale
        assert np.max(np.abs(s - moment_stencil(q))) <= 1e-16

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_entry_classes_against_12_point(self, n):
        """Per column, scaled by the column's largest reference entry: the
        nodal entries within 1e-11 (3.7e-12 measured, n = 5, column 1), and
        no entry of any class worse than the column's worst 4-point cell,
        the base rule's error outside the near patch (9e-10 to 1.5e-8).

        The reference is 12 x 12 Gauss on every cell except the two with a
        corner on the target, whose log singularity tensor Gauss cannot
        integrate: those take the table's own polar rule, whose error (about
        5e-6 of a cell) this test does not measure.  So the near class pins
        the 10-point near cells against 12 points and the placement of the
        near integrals in the column."""
        P, q, D, mc = 49, greens.STENCIL_Q, greens.GAUSS_BAND, greens.MC
        table = whole_table(P, n)
        node, lag = np.arange(P)[:, None], np.arange(2 * P - 1)
        for i in (1, P // 2, P - 5):
            ref = gauss_column(P, n, i, 12, polar=greens.N_GAUSS_POLAR)
            scale = np.max(np.abs(ref))
            err = np.abs(table.w2_slab(i) - ref) / scale
            near = (np.abs(node - i) <= mc) & (lag <= mc)
            edge = (node == 0) | (node == P - 1) | (lag == 2 * P - 2)
            band = (np.abs(node - i) <= D) & (lag <= D) & ~near & ~edge
            nodal = ~(near | edge | band)
            worst4 = np.max((np.abs(gauss_column(P, n, i, 4) - ref) / scale)[~near])
            assert np.max(err[nodal]) <= 1e-11, i
            # the stencil reaches lags and nodes below zero, through the ghosts
            assert np.any(nodal & (node < q)) and np.any(nodal & (lag < q))
            # band entries are the 4-point sums themselves, up to rounding
            for cls in (near, band, edge, nodal):
                assert np.max(err[cls]) <= worst4 + 1e-15, i


class TestColumnFill:
    """A table fills its source columns on demand, as a growing prefix, and a
    filled column is the whole table's column up to rounding."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(greens, "_TABLE_CACHE", {})
        monkeypatch.setattr(greens, "_FAR_CACHE", {})

    @staticmethod
    def assert_columns_match(table, whole):
        """Every filled column of table against the same column of whole,
        within 1e-15 of that column's largest spectrum entry."""
        ref = spectra(whole)[:, :, : table.ncols]
        scale = np.max(np.abs(ref), axis=(0, 1))
        assert np.all(np.max(np.abs(spectra(table) - ref), axis=(0, 1)) <= 1e-15 * scale)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_prefix_partitions(self, n):
        P = 33
        whole = whole_table(P, n)
        for counts in (range(1, P + 1), [5, 6, 20, P], [1, 17, P]):
            table = KernelTable(P, n)
            assert table.ncols == 0 and table.nbytes == 0
            c0 = 0
            for k, c in enumerate(counts):
                table.fill(c)
                assert table.ncols == c
                # each fill is one block of the columns it adds
                assert len(table.blocks) == k + 1
                start, C = table.blocks[-1]
                assert start == c0 and C.shape == (2 * P - 1, P, c - c0)
                self.assert_columns_match(table, whole)
                c0 = c
            # a fill of columns the table holds adds nothing
            table.fill(P // 2)
            assert len(table.blocks) == len(counts) and table.ncols == P
        # get_table tops a partly filled cached table up in place: the same
        # object, its block kept, one block more
        lazy = GreenOps(AxiGrid(R0=2.0, n_interior=P, n_exterior=25)).table(n)
        lazy.fill(5)
        [block] = lazy.blocks
        assert get_table(P, n) is lazy
        assert len(lazy.blocks) == 2 and lazy.blocks[0] is block and lazy.ncols == P
        self.assert_columns_match(lazy, whole)

    @pytest.mark.parametrize("n", [3, 5])
    def test_no_table_is_replaced(self, n):
        # a grid holds the cached table, and a source fills some of its
        # columns; get_table(P, n) then fills the rest in that same object,
        # so the grid sees every column
        g = AxiGrid(R0=2.0, n_interior=33, n_exterior=25)
        ops = GreenOps(g)
        table = ops.table(n)
        ops.k_n_global(smooth_bump(g, radius_frac=0.45), n)
        earlier = list(table.blocks)
        assert earlier and table.ncols < table.P
        assert get_table(g.n_int, n) is table
        assert ops.table(n) is table
        assert len(table.blocks) == len(earlier) + 1
        assert all(a is b for a, b in zip(table.blocks, earlier))
        assert table.ncols == table.P
        self.assert_columns_match(table, whole_table(g.n_int, n))

    def test_built_means_this_grid_filled(self):
        # built marks a table this grid gave new columns and a far operator
        # it constructed, not a table object it happened to create
        def report(R0, radius_frac):
            ops = GreenOps(AxiGrid(R0=R0, n_interior=33, n_exterior=25))
            ops.k_n_global(smooth_bump(ops.grid, radius_frac), 3)
            rep = ops.cache_report()
            return rep["kernel_tables"]["P33_n3"], rep["far_operators"]["int_n3"], rep["builds"]

        first, far, builds = report(2.0, 0.3)
        assert first["built"] and far["built"] and builds == 2
        # the same columns again, on another star of the grid shape
        second, far, builds = report(3.7, 0.3)
        assert (second["fills"], second["built"], far["built"], builds) == (1, False, False, 0)
        # new columns in the table that already existed
        third, far, builds = report(2.0, 0.45)
        assert third["columns"] > second["columns"]
        assert (third["fills"], third["built"], far["built"], builds) == (2, True, False, 1)

    def test_built_ignores_another_grids_fill(self):
        # two set-ups look the table up before either solves, as in a
        # benchmark's set-up pass; only the grid whose apply filled a block
        # reports it built
        first, second = (GreenOps(AxiGrid(R0=R0, n_interior=33, n_exterior=25)) for R0 in (2.0, 3.7))
        first.table(3)
        second.table(3)
        first.k_n_global(smooth_bump(first.grid, 0.3), 3)
        assert first.cache_report()["kernel_tables"]["P33_n3"]["built"]
        rep = second.cache_report()
        assert rep["kernel_tables"]["P33_n3"]["fills"] == 1
        assert not rep["kernel_tables"]["P33_n3"]["built"] and rep["builds"] == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_apply_fills_its_source_columns(self, n):
        # a compact source on both patch sizes the table serves
        P = 33
        whole = whole_table(P, n)
        table = KernelTable(P, n)
        rng = np.random.default_rng(n)
        for p, cols, ncols in ((P, [0, 1, 2, 3, 4, 9], 10), (25, [2, 3, 17], 18),
                               (P, [30, 31], 32), (P, [5], 32)):
            src = np.zeros((p, p))
            src[cols, : p - 1] = rng.uniform(-1.0, 1.0, (len(cols), p - 1))
            got = table.apply(src)
            # every column up to the last one the sources carried
            assert table.ncols == ncols
            ref = whole.apply(src)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        self.assert_columns_match(table, whole)

    def test_rows_fill_their_source_columns(self):
        P = 33
        whole = whole_table(P, 3)
        table = KernelTable(P, 3)
        targets = (np.array([0, 4, 9, 9, 30]), np.array([0, 2, 7, 31, 5]))
        sources = (np.array([2, 5, 5, 11, 12]), np.array([3, 0, 8, 6, 1]))
        got = table.rows(targets, sources)
        assert table.ncols == 13
        ref = whole.rows(targets, sources)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side", ["int", "star"])
    def test_far_operator_fills_no_column(self, monkeypatch, side):
        # a far operator holds no table: its lookup, construction and calls
        # look up no kernel table and leave the table cache as it was
        ops = GreenOps(AxiGrid(R0=2.0, n_interior=33, n_exterior=25))
        tables = count_calls(monkeypatch, GreenOps, "table")
        cached = count_calls(monkeypatch, greens, "_cached_table")
        before = dict(greens._TABLE_CACHE)
        for far in (ops.far_operator(side, 5), greens.FarOperator(3, side, 33, 25)):
            assert not hasattr(far, "table")
            src = np.zeros((far.P, far.P))
            src[:4, :4] = 1.0
            far(src)
        assert tables == [] and cached == []
        assert greens._TABLE_CACHE == before

    def test_later_fill_copies_no_column(self):
        # a table filled in three calls, as a 97/65 rotating solve fills
        # its n = 3 table: the third fill's traced peak is its new block
        # plus the build's temporaries, what the same fill takes on a table
        # that holds no block, and not a copy of the 40 columns filled
        # before it
        P = 65
        table = KernelTable(P, 3)
        for ncols in (8, 40):
            table.fill(ncols)
        bare = KernelTable(P, 3)
        bare.ncols = 40
        tracemalloc.start()
        try:
            third, _ = traced_peak(lambda: table.fill(P - 1))
            fresh, _ = traced_peak(lambda: bare.fill(P - 1))
        finally:
            tracemalloc.stop()
        held = (2 * P - 1) * P * 40 * 8
        assert third <= fresh + (1 << 16) < fresh + held
        assert [(c0, C.shape[2]) for c0, C in table.blocks] == [(0, 8), (8, 32), (40, 24)]

    def test_compact_table_is_small(self):
        # the X source of a 97/65 star lies on source columns 0-12: its
        # n = 4 table holds 13 of the 97 columns of a whole one
        table = KernelTable(97, 4)
        table.fill(13)
        assert [C.shape for _, C in table.blocks] == [(193, 97, 13)]
        assert table.nbytes <= 2 << 20

    def test_solve_fills_prefix_blocks(self, cls15, eos_unit, dle_rot):
        # each table of a small rotating solve holds consecutive blocks from
        # column 0 that end at the columns its report gives
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=1e-3, classical=cls15)
        opts = SolverOptions(n_interior=33, n_exterior=25)
        res = PNSolver(p, eos_unit, opts, dle=dle_rot, classical=cls15).solve()
        reports = res.diagnostics["green_ops"]["kernel_tables"]
        assert sorted(reports) == ["P33_n3", "P33_n4", "P33_n5"]
        for (P, n), table in greens._TABLE_CACHE.items():
            starts = [c0 for c0, _ in table.blocks]
            ends = [c0 + C.shape[2] for c0, C in table.blocks]
            assert starts == [0, *ends[:-1]]
            assert ends[-1] == table.ncols == reports[f"P{P}_n{n}"]["columns"]
        # a source carrying only column c fills columns 0..c in one block
        for c in (0, 7):
            table = KernelTable(33, 3)
            src = np.zeros((33, 33))
            src[c, :32] = 1.0
            table.apply(src)
            assert [(c0, C.shape[2]) for c0, C in table.blocks] == [(0, c + 1)]
