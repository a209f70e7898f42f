import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre, leggauss
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from rotstar import lane_emden
from rotstar.cutoff import chi
from rotstar.errors import (ConvergenceError, DomainError, RegimeError, contraction_ratio,
                            damped_iteration)
from rotstar.lane_emden import (
    LMAX,
    STALL,
    TOL,
    _project,
    even_legendre,
    integrate_theta,
    kelvin3_legendre,
    solve_classical,
    solve_distorted,
)


def kelvin3_per_degree(g, s, zeta_nodes, zeta_weights, lmax):
    """K3 of a z-even source one Legendre degree at a time: the loop that
    kelvin3_legendre replaces with array operations, kept as its reference."""
    terms = np.zeros_like(g)
    value_O = 0.0
    s_safe = np.where(s > 0, s, 1.0)
    for l in range(0, lmax + 1, 2):
        Pl = Legendre.basis(l)(zeta_nodes)
        c_l = (2 * l + 1) * (g * zeta_weights[None, :]) @ Pl
        inner = cumulative_simpson(s ** (l + 2) * c_l, x=s, initial=0.0)
        if l == 0:
            out_igd = s * c_l
        else:
            out_igd = np.zeros_like(c_l)
            pos = s > 0
            out_igd[pos] = s[pos] ** (1 - l) * c_l[pos]
            out_igd[np.abs(c_l) < 1e-13 * np.max(np.abs(c_l))] = 0.0
        outer_rev = cumulative_simpson(out_igd, x=s, initial=0.0)
        outer = outer_rev[-1] - outer_rev
        radial = np.where(s > 0, inner / s_safe ** (l + 1), 0.0) + s**l * outer
        terms += np.outer(radial / (2 * l + 1), Pl)
        if l == 0:
            value_O = outer[0]
    return terms, value_O


def kelvin3_full_rows(g, s, basis, zeta_weights):
    """K3 of a z-even source with both radial sums, by scipy's
    cumulative_simpson, on every row of the grid: the form kelvin3_legendre
    cuts to the rows of its source's support, kept as its bit-for-bit
    reference.  The projection takes the support's rows, as
    kelvin3_legendre's does: a BLAS product can round a row by the shape of
    the block it sits in, and rows past the support are exact zeros in any
    form."""
    l = 2 * np.arange(basis.shape[1])
    k = np.flatnonzero(g.any(axis=1)).max(initial=-1) + 1
    c = np.zeros((s.size, l.size))
    c[:k] = _project(g[:k], basis, zeta_weights)
    pos = (s > 0)[:, None]
    s_safe = np.where(pos, s[:, None], 1.0)
    inner = cumulative_simpson(s[:, None] ** (l + 2) * c, x=s, axis=0, initial=0.0)
    out_igd = np.where(pos, s_safe ** (1 - l), 0.0) * c
    floor = np.abs(c) < 1e-13 * np.max(np.abs(c), axis=0)
    floor[:, 0] = False
    out_igd[floor] = 0.0
    outer_rev = cumulative_simpson(out_igd, x=s, axis=0, initial=0.0)
    outer = outer_rev[-1] - outer_rev
    radial = np.where(pos, inner / s_safe ** (l + 1), 0.0) + s[:, None] ** l * outer
    return (radial / (2 * l + 1)) @ basis.T, outer[0, 0]


def distorted_full_rows(nu, b, classical, damping=None, n_radial=1025, n_zeta=48, lmax=12):
    """The distorted fixed point with every sweep on every row: (Theta
    v 0)^nu and K3 taken on the whole grid.  Without damping, the sweeps
    take solve_distorted's one-step Anderson mixing, as its bit-for-bit
    reference; with it, Theta <- (1 - damping) Theta + damping G, the
    damped sweeps the mixing replaced.  Both raise RegimeError on spurious
    matter beyond 2.5 xi1.  Returns Theta, the coefficient spline,
    Theta_inf, the sweep count and the contraction ratio."""
    Xi0 = 4.0 * classical.xi1
    s = np.linspace(0.0, Xi0, n_radial)
    x, wq = leggauss(n_zeta)
    zeta, zw = 0.5 * (x + 1.0), 0.5 * wq
    S, Z = np.meshgrid(s, zeta, indexing="ij")
    forcing = 0.5 * b * chi(S / Xi0) ** 2 * S**2 * (1.0 - Z**2)
    basis = even_legendre(zeta, lmax)
    last = []  # the last sweep's G and F

    def sweep(Theta):
        K, K_O = kelvin3_full_rows(np.maximum(Theta, 0.0) ** nu, s, basis, zw)
        new = forcing + K - K_O + 1.0
        res = new - Theta
        if damping is not None:
            nxt = (1.0 - damping) * Theta + damping * new
        elif last:
            dF = res - last[1]
            denom = np.vdot(dF, dF)
            nxt = new - np.vdot(dF, res) / denom * (new - last[0]) if denom > 0.0 else new
        else:
            nxt = new
        last[:] = new, res
        if np.any(nxt[s >= 2.5 * classical.xi1] > 0.0):
            raise RegimeError("spurious matter beyond 2.5 xi1")
        return nxt, float(np.max(np.abs(res)))

    Theta0 = np.broadcast_to(classical.theta(s)[:, None], S.shape).copy()
    Theta, changes = damped_iteration(sweep, Theta0, TOL, 400, "reference", stall=STALL)
    _, K_O = kelvin3_full_rows(np.maximum(Theta, 0.0) ** nu, s, basis, zw)
    coeffs = CubicSpline(s, _project(Theta, basis, zw))
    return Theta, coeffs, 1.0 - K_O, len(changes), contraction_ratio(changes)


def xi1_one_ray(dle, z):
    """Xi1 on one ray by the scalar scan and bisection that xi1_curve runs on
    all rays at once, kept as its reference."""
    grid = np.linspace(0.5 * dle.xi1, dle.Xi0, 200)
    idx = np.nonzero(dle.theta_at(grid, np.full_like(grid, z)) <= 0)[0]
    lo, hi = grid[idx[0] - 1], grid[idx[0]]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dle.theta_at(mid, z) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def rk4_xi1_oracle(nu, h):
    """Brute-force fixed-step RK4 integration of the Lane-Emden ODE.

    Independent of scipy; returns the first zero located by bisection on the
    last step.  Used at two step sizes to certify the production integrator.
    """

    def rhs(xi, th, dth):
        return dth, -max(th, 0.0) ** nu - 2.0 * dth / xi

    xi = 1e-6
    th = 1.0 - xi**2 / 6.0 + nu * xi**4 / 120.0
    dth = -xi / 3.0 + nu * xi**3 / 30.0

    def step(xi, th, dth, h):
        k1 = rhs(xi, th, dth)
        k2 = rhs(xi + h / 2, th + h / 2 * k1[0], dth + h / 2 * k1[1])
        k3 = rhs(xi + h / 2, th + h / 2 * k2[0], dth + h / 2 * k2[1])
        k4 = rhs(xi + h, th + h * k3[0], dth + h * k3[1])
        return (
            th + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            dth + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )

    while th > 0:
        xi_prev, th_prev, dth_prev = xi, th, dth
        th, dth = step(xi, th, dth, h)
        xi += h
        if xi > 20:
            raise RuntimeError("no zero found")
    lo, hi = xi_prev, xi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        th_mid, _ = step(xi_prev, th_prev, dth_prev, mid - xi_prev)
        if th_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClassical:
    def test_nu1_closed_form(self):
        sol = solve_classical(1.0)
        assert abs(sol.xi1 - np.pi) < 1e-8
        xs = np.linspace(0.05, 3.0, 40)
        assert np.max(np.abs(sol.theta(xs) - np.sin(xs) / xs)) < 1e-9

    def test_nu5_closed_form(self):
        sol = integrate_theta(5.0, 20.0)
        xs = np.linspace(1e-3, 20.0, 400)
        exact = (1.0 + xs**2 / 3.0) ** -0.5
        assert np.max(np.abs(sol.sol(xs)[0] - exact)) < 1e-8

    def test_nu15_vs_rk4_oracle(self):
        sol = solve_classical(1.5)
        coarse = rk4_xi1_oracle(1.5, 2e-3)
        fine = rk4_xi1_oracle(1.5, 2e-4)  # 10x finer step
        assert abs(coarse - fine) < 1e-7  # oracle self-consistency
        assert abs(sol.xi1 - fine) < 1e-6

    def test_extension_negative_beyond_xi1(self):
        sol = solve_classical(1.5)
        xs = np.linspace(sol.xi1 * 1.001, 5 * sol.xi1, 50)
        assert np.all(sol.theta(xs) < 0)
        # C^1 match at xi1
        eps = 1e-7
        assert sol.theta(sol.xi1 + eps) == pytest.approx(
            sol._dense.sol(sol.xi1 - eps)[1] * eps, rel=1e-3, abs=1e-12
        )

    def test_mu1_positive_and_center_conditions(self):
        sol = solve_classical(1.3)
        assert sol.mu1 > 0
        assert sol.theta(0.0) == pytest.approx(1.0, abs=1e-10)
        assert abs(sol._dense.sol(1e-5)[1]) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_classical(0.5)
        with pytest.raises(DomainError):
            solve_classical(5.0)

    def test_no_zero_before_search_end(self, monkeypatch):
        # an event failure of one integration, not an iteration: no residual
        # or iteration count
        monkeypatch.setattr(lane_emden, "XI_MAX", 3.0)  # below xi1 = 3.6538 at nu = 1.5
        with pytest.raises(ConvergenceError) as exc:
            solve_classical(1.5)
        assert str(exc.value) == "no zero of theta found before xi=3.0"
        assert exc.value.residual is None and exc.value.iterations is None


@pytest.fixture(scope="module")
def cls15():
    return solve_classical(1.5)


@pytest.fixture(scope="module")
def dle_b0(cls15):
    return solve_distorted(1.5, 0.0, classical=cls15)


@pytest.fixture(scope="module")
def dle_small(cls15):
    return solve_distorted(1.5, 1e-3, classical=cls15)


class TestDistorted:
    def test_b0_matches_classical(self, cls15, dle_b0):
        s, zeta, TH = dle_b0.report_grid()
        TH_cls = cls15.theta(s)[:, None] * np.ones((1, zeta.size))
        assert np.max(np.abs(TH - TH_cls)) < 1e-6

    def test_b0_boundary_is_xi1(self, cls15, dle_b0):
        xi1c = dle_b0.xi1_curve(np.linspace(0, 1, 7))
        assert np.max(np.abs(xi1c - cls15.xi1)) < 1e-6

    def test_center_normalization(self, dle_small):
        assert np.max(np.abs(dle_small.Theta[0, :] - 1.0)) < 1e-9

    def test_oblateness_and_bound(self, cls15, dle_small):
        xi1c = dle_small.xi1_curve(np.linspace(0, 1, 9))
        assert xi1c[0] > xi1c[-1]  # equator bulges past the pole
        assert np.all(np.diff(xi1c) < 1e-12)  # monotone between
        assert xi1c.max() < 2.0 * cls15.xi1

    def test_far_field_negative(self, dle_small):
        assert dle_small.Theta_inf_const < 0
        assert np.all(dle_small.Theta[-1, :] < 0)

    def test_monotone_profile_small_b(self, cls15):
        # the paper's radial monotonicity needs b small enough that the
        # centrifugal slope never beats gravity inside the grid
        dle = solve_distorted(1.5, 3e-4, classical=cls15)
        dT = np.diff(dle.Theta, axis=0)
        assert dT[1:, :].max() < 0

    def test_iteration_cap(self, cls15, monkeypatch):
        monkeypatch.setattr(lane_emden, "MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="did not converge in 3 steps") as exc:
            solve_distorted(1.5, 1e-3, classical=cls15)
        assert exc.value.iterations == 3
        assert exc.value.residual > TOL

    def test_too_fast_rotation_rejected(self, cls15):
        with pytest.raises(RegimeError):
            solve_distorted(1.5, 0.02, classical=cls15)

    def test_theta_at_matches_grid(self, dle_small):
        i, j = 400, 11
        val = dle_small.theta_at(dle_small.s[i], dle_small.zeta[j])
        assert val == pytest.approx(dle_small.Theta[i, j], abs=2e-8)

    def test_theta_at_scalar_is_float_of_array_call(self, dle_small):
        s_pts = np.array([0.0, 2.0, dle_small.Xi0, 1.5 * dle_small.Xi0])
        z_pts = np.array([0.0, -0.4, 0.7, 1.0])
        arr = dle_small.theta_at(s_pts, z_pts)
        for k in range(s_pts.size):
            val = dle_small.theta_at(s_pts[k], z_pts[k])
            assert type(val) is float and val == arr[k]


class TestLegendreBasis:
    def test_kelvin3_matches_per_degree_loop(self, dle_small):
        # all degrees at once agree with one degree at a time to rounding
        d = dle_small
        zw = 0.5 * leggauss(d.zeta.size)[1]
        src = np.maximum(d.Theta, 0.0) ** d.nu
        K, K_O = kelvin3_legendre(src, d.s, even_legendre(d.zeta, LMAX), zw)
        K_ref, K_O_ref = kelvin3_per_degree(src, d.s, d.zeta, zw, LMAX)
        sup = np.max(np.abs(K_ref))
        assert np.max(np.abs(K - K_ref)) <= 1e-14 * sup
        assert abs(K_O - K_O_ref) <= 1e-14 * sup

    def test_xi1_curve_rays_are_independent(self, dle_small):
        # each ray's bracket freezes on its own, so bisecting rays together
        # gives every ray the answer it gets alone and from the scalar loop,
        # bit for bit
        zs = np.linspace(0.0, 1.0, 9)
        together = dle_small.xi1_curve(zs)
        alone = [dle_small.xi1_curve([z])[0] for z in zs]
        assert together.tolist() == alone == [xi1_one_ray(dle_small, z) for z in zs]


class TestMatterRows:
    """kelvin3_legendre sums only the rows of its source's support and three
    zero rows past it, and the sweep takes the power only on the rows that
    hold matter; every value is that of the full-row forms, scipy's Simpson
    sums on every row, bit for bit."""

    @pytest.fixture(scope="class")
    def grid(self, cls15):
        s = np.linspace(0.0, 4.0 * cls15.xi1, 1025)
        x, w = leggauss(48)
        zeta = 0.5 * (x + 1.0)
        return s, even_legendre(zeta, 12), 0.5 * w

    @staticmethod
    def assert_same(g, grid):
        s, basis, zw = grid
        K, K_O = kelvin3_legendre(g, s, basis, zw)
        K_ref, K_O_ref = kelvin3_full_rows(g, s, basis, zw)
        assert np.array_equal(K, K_ref) and K_O == K_O_ref

    @pytest.mark.parametrize("name", ["dle_b0", "dle_small"])
    def test_profile_sources(self, request, name):
        # the converged b = 0 and b = 1e-3 profiles' sources, about 260 rows
        d = request.getfixturevalue(name)
        grid = (d.s, even_legendre(d.zeta, LMAX), 0.5 * leggauss(d.zeta.size)[1])
        self.assert_same(np.maximum(d.Theta, 0.0) ** d.nu, grid)

    # an interval takes the Simpson parabola of its parity, and the last one
    # that of its right end, so supports end on even and odd rows, short
    # and long ones and ones within the margin of the grid's end
    @pytest.mark.parametrize("last", [20, 21, 258, 259, 260, 261, 1019, 1020, 1021, 1022, 1023])
    def test_support_ending_at(self, grid, last):
        rng = np.random.default_rng(last)
        g = np.zeros((grid[0].size, grid[2].size))
        g[: last + 1] = rng.random((last + 1, g.shape[1]))
        g[last, 1:] = 0.0  # a last row with one nonzero node
        self.assert_same(g, grid)

    def test_all_zero_source(self, grid):
        self.assert_same(np.zeros((grid[0].size, grid[2].size)), grid)

    @pytest.mark.parametrize("name, b", [("dle_b0", 0.0), ("dle_small", 1e-3)])
    def test_solve_matches_full_row_sweeps(self, request, cls15, name, b):
        d = request.getfixturevalue(name)
        Theta, coeffs, theta_inf, iterations, ratio = distorted_full_rows(1.5, b, cls15)
        assert np.array_equal(d.Theta, Theta)
        assert np.array_equal(d.coeffs.c, coeffs.c)
        assert (d.Theta_inf_const, d.iterations, d.contraction_ratio) == (theta_inf, iterations,
                                                                          ratio)


class TestMixing:
    """solve_distorted's secant-mixed sweeps against the damped sweeps
    (damping 0.8) that they replaced."""

    @pytest.mark.parametrize("nu", [1.11, 1.5, 4.0])
    @pytest.mark.parametrize("b", [0.0, 1e-3, 4e-3])
    def test_fixed_point_matches_damped_sweeps(self, nu, b):
        # the same fixed point, to within the sweeps' tolerance; a b beyond
        # the admissible range of nu (nu = 4 rotating) is rejected by both
        cls = solve_classical(nu)
        try:
            damped = distorted_full_rows(nu, b, cls, damping=0.8)[0]
        except RegimeError:
            with pytest.raises(RegimeError, match="spurious matter"):
                solve_distorted(nu, b, classical=cls)
            return
        d = solve_distorted(nu, b, classical=cls)
        assert np.max(np.abs(d.Theta - damped)) <= 1e-10

    def test_sweep_count(self, dle_small):
        # 15 sweeps at nu = 1.5, b = 1e-3, where the damped ones took 36
        assert dle_small.iterations <= 20
