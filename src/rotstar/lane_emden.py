"""Classical and distorted (rotating) Lane-Emden profiles.

The classical profile theta(xi; nu) solves -(xi^2 theta')' / xi^2 = (theta v 0)^nu
with theta(0) = 1 and is continued past its first zero xi1 by the harmonic
tail mu1 * (1/xi - 1/xi1), which is negative beyond xi1 and C^1 at the match.

The distorted profile Theta(|xi|, zeta) solves the centrifugally forced
integral equation

    Theta = (b/2) chi(|xi|/Xi0)^2 (xi_1^2 + xi_2^2) + G(Theta),
    G(Theta) = K3 (Theta v 0)^nu - K3 (Theta v 0)^nu (O) + 1,

by fixed-point sweeps with one-step Anderson (secant) mixing; K3 is the
3-d Newtonian Green operator,
applied here through an even-Legendre multipole expansion on an (s, zeta)
grid.  The b/2 coefficient follows from a = sqrt(A g / (4 pi G (g-1))) rho^..,
b = Omega^2/(4 pi G rho_c) together with the rotating hydrostatic relation
u_N/u_O = Theta.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicSpline

from .cutoff import chi
from .errors import ConvergenceError, DomainError, RegimeError, contraction_ratio, damped_iteration


def _series_start(nu, xi0):
    """Taylor start theta = 1 - xi^2/6 + nu xi^4/120 near the center."""
    th = 1.0 - xi0**2 / 6.0 + nu * xi0**4 / 120.0
    dth = -xi0 / 3.0 + nu * xi0**3 / 30.0
    return th, dth


def _rhs(xi, y, nu):
    th, dth = y
    return [dth, -max(th, 0.0) ** nu - 2.0 * dth / xi]


THETA_RTOL, THETA_ATOL = 1e-12, 1e-13  # DOP853 tolerances of the classical ODE
XI_MAX = 60.0  # end of solve_classical's search for the first zero
# the distorted fixed point: tolerance on a sweep's sup change, and stall
# rule (past sweep 12, a change above the one 5 sweeps back stops it)
TOL, STALL = 1e-11, (12, 5)
# the (s, zeta) grid, the Legendre degree, the sweep cap and the report grid's
# nodes per axis; the profile only seeds the grid's Newtonian sweep
N_RADIAL, N_ZETA, LMAX, MAX_ITER, REPORT_GRID = 1025, 48, 12, 400, 129
SIMPSON_MARGIN = 3  # zero rows kelvin3_legendre integrates past its source


def integrate_theta(nu, xi_max):
    """Integrate the classical Lane-Emden ODE up to its first zero or xi_max;
    returns the solve_ivp result, with the zero as its event."""
    xi0 = 1e-6
    y0 = _series_start(nu, xi0)

    def zero_cross(xi, y, nu):
        return y[0]

    zero_cross.terminal = True
    zero_cross.direction = -1
    return solve_ivp(
        _rhs,
        (xi0, xi_max),
        y0,
        args=(nu,),
        method="DOP853",
        rtol=THETA_RTOL,
        atol=THETA_ATOL,
        dense_output=True,
        events=zero_cross,
        max_step=xi_max / 50.0,
    )


@dataclass
class LaneEmdenSolution:
    """Classical profile with its first zero and harmonic continuation."""

    nu: float
    xi1: float
    mu1: float
    _dense: object = field(repr=False)

    def theta(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        inside = xi < self.xi1
        xin = np.clip(xi[inside], 1e-6, None)
        out[inside] = self._dense.sol(xin)[0] if xin.size else np.empty(0)
        tiny = xi[inside] < 1e-6
        if np.any(tiny):
            out_in = out[inside]
            out_in[tiny] = 1.0 - xi[inside][tiny] ** 2 / 6.0
            out[inside] = out_in
        xe = xi[~inside]
        out[~inside] = self.mu1 * (1.0 / np.where(xe > 0, xe, 1.0) - 1.0 / self.xi1)
        if out.ndim == 0:
            return float(out)
        return out


def solve_classical(nu):
    """Solve the classical Lane-Emden problem and bracket the first zero.

    nu must lie in (1, 5); the zero exists there.  The profile past xi1 is the
    harmonic continuation mu1 (1/xi - 1/xi1) with mu1 = xi1^2 |theta'(xi1)|.
    """
    if not (1.0 <= nu < 5.0):
        # nu = 1 (the closed-form sin(xi)/xi case) is kept as a test anchor.
        raise DomainError(f"nu={nu} outside [1, 5)")
    sol = integrate_theta(nu, XI_MAX)
    if not sol.t_events or sol.t_events[0].size == 0:
        raise ConvergenceError(f"no zero of theta found before xi={XI_MAX}")
    xi1 = float(sol.t_events[0][0])
    dtheta1 = float(sol.y_events[0][0][1])
    mu1 = xi1**2 * abs(dtheta1)
    return LaneEmdenSolution(nu=nu, xi1=xi1, mu1=mu1, _dense=sol)


# -- distorted profile -------------------------------------------------------


def even_legendre(x, lmax):
    """P_0(x), P_2(x), ..., P_lmax(x) along a new last axis: the one place the
    even-Legendre basis is evaluated."""
    return legvander(x, lmax)[..., ::2].reshape(np.shape(x) + (-1,))


def _project(g, basis, zeta_weights):
    """Even-Legendre coefficients (2l + 1) sum_j w_j g(., zeta_j) P_l(zeta_j)
    of g sampled at the zeta nodes, one column per degree."""
    l = 2 * np.arange(basis.shape[-1])
    return (g * zeta_weights) @ basis * (2 * l + 1)


def kelvin3_legendre(g, s, basis, zeta_weights):
    """Apply the 3-d Newtonian operator K3 to an axisymmetric, z-even source.

    g is sampled on the tensor (s, zeta) grid with zeta at Gauss nodes on
    [0, 1] and basis = even_legendre(zeta nodes, lmax); returns (K3 g on the
    grid, K3 g at the origin).  The projection takes the rows of g's
    support; past them the coefficients are exact zeros.  Every degree's
    radial integrals run at once, by scipy's cumulative_simpson on the s
    grid, up to the support's last row plus SIMPSON_MARGIN zero rows, which
    the last interval's parabola reads alone; past them the full sums add
    zeros, so inner keeps its last value and outer is 0, bit for bit.
    """
    n, nl = s.size, basis.shape[1]
    l = 2 * np.arange(nl)
    k = np.flatnonzero(g.any(axis=1)).max(initial=-1) + 1
    m = min(n, k + SIMPSON_MARGIN)
    c = np.zeros((m, nl))
    c[:k] = _project(g[:k], basis, zeta_weights)
    pos = (s > 0)[:, None]
    s_safe = np.where(pos, s[:, None], 1.0)
    out_igd = np.where(pos[:m], s_safe[:m] ** (1 - l), 0.0) * c
    # genuine c_l ~ s^l near the center: for l > 0 the center node is masked
    # above, and the roundoff floor here, so s^(1-l) cannot amplify noise
    floor = np.abs(c) < 1e-13 * np.max(np.abs(c), axis=0)
    floor[:, 0] = False
    out_igd[floor] = 0.0
    sums = cumulative_simpson(np.hstack([s[:m, None] ** (l + 2) * c, out_igd]), x=s[:m], axis=0,
                              initial=0.0)
    inner, outer = np.empty((n, nl)), np.zeros((n, nl))
    inner[:m], inner[m:] = sums[:, :nl], sums[-1, :nl]
    outer[:m] = sums[-1, nl:] - sums[:, nl:]
    radial = np.where(pos, inner / s_safe ** (l + 1), 0.0) + s[:, None] ** l * outer
    return (radial / (2 * l + 1)) @ basis.T, outer[0, 0]


@dataclass
class DistortedLaneEmden:
    """Converged distorted Lane-Emden profile on an (s, zeta) grid."""

    nu: float
    Xi0: float
    xi1: float
    s: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    Theta: np.ndarray = field(repr=False)
    coeffs: CubicSpline = field(repr=False)  # even-Legendre coefficients, one per column
    Theta_inf_const: float = 0.0
    iterations: int = 0
    contraction_ratio: float = 0.0

    def theta_at(self, s, zeta):
        """Evaluate Theta anywhere via the Legendre expansion (even in zeta);
        beyond Xi0 it is the harmonic-type continuation Theta_inf + C/s
        through the edge value."""
        s = np.asarray(s, dtype=float)
        basis = even_legendre(np.abs(np.asarray(zeta, dtype=float)), LMAX)
        out = (self.coeffs(np.clip(s, 0.0, self.Xi0)) * basis).sum(axis=-1)
        beyond, T_inf = s > self.Xi0, self.Theta_inf_const
        out = np.where(beyond, T_inf + (out - T_inf) * self.Xi0 / np.where(beyond, s, 1.0), out)
        if out.ndim == 0:
            return float(out)
        return out

    def xi1_curve(self, zeta_values):
        """Vacuum-boundary radius Xi1(zeta) by bisection on every ray at once;
        a ray stops once its own bracket is below 1e-10."""
        zeta = np.atleast_1d(np.asarray(zeta_values, dtype=float))
        grid = np.linspace(0.5 * self.xi1, self.Xi0, 200)
        nonpos = self.theta_at(grid[:, None], zeta) <= 0
        if nonpos[0].any():
            raise RegimeError("profile nonpositive already at xi1/2")
        if not nonpos.any(axis=0).all():
            raise RegimeError("no vacuum boundary found on the ray")
        first = nonpos.argmax(axis=0)
        lo, hi = grid[first - 1], grid[first]
        moving = np.ones(zeta.shape, dtype=bool)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            inside = self.theta_at(mid, zeta) > 0
            lo = np.where(moving & inside, mid, lo)
            hi = np.where(moving & ~inside, mid, hi)
            moving &= hi - lo >= 1e-10
            if not moving.any():
                break
        return 0.5 * (lo + hi)

    def report_grid(self):
        """Theta on the uniform REPORT_GRID x REPORT_GRID (s, zeta) grid for
        export and comparisons."""
        s = np.linspace(0.0, self.Xi0, REPORT_GRID)
        zeta = np.linspace(0.0, 1.0, REPORT_GRID)
        S, Z = np.meshgrid(s, zeta, indexing="ij")
        return s, zeta, self.theta_at(S, Z)


def solve_distorted(nu, b, classical):
    """Fixed-point solve of the distorted Lane-Emden equation, its sweeps
    mixed by one-step Anderson (secant) mixing.

    Starts from the classical profile; raises ConvergenceError when the sweep
    stops contracting and RegimeError when the converged profile fails the
    whole-space extension requirements (negative beyond the grid).
    """
    if b < 0:
        raise DomainError("b must be nonnegative")
    xi1 = classical.xi1
    Xi0 = 4.0 * xi1
    s = np.linspace(0.0, Xi0, N_RADIAL)
    x, wq = leggauss(N_ZETA)
    zeta = 0.5 * (x + 1.0)
    zw = 0.5 * wq

    forcing = (0.5 * b * chi(s / Xi0) ** 2 * s**2)[:, None] * (1.0 - zeta**2)
    far = np.searchsorted(s, 2.5 * xi1)  # first row of s >= 2.5 xi1
    basis = even_legendre(zeta, LMAX)
    # the source; a sweep's map value G and residual F = G - Theta, and the
    # last sweep's, which become the changes dG and dF
    src = np.zeros(forcing.shape)
    buffers = [np.zeros(forcing.shape) for _ in range(4)]
    swept = False

    def source(Theta):
        # (Theta v 0)^nu, raised to the power only on the rows that hold matter
        k = np.flatnonzero((Theta > 0.0).any(axis=1)).max(initial=-1) + 1
        src[k:] = 0.0
        np.maximum(Theta[:k], 0.0, out=src[:k])
        src[:k] **= nu
        return src

    def sweep(Theta):
        # one-step Anderson (secant) mixing (Walker & Ni 2011): the next
        # profile is G - gamma dG, gamma = <dF, F> / <dF, dF> minimising the
        # secant estimate |F - gamma dF| of its residual; the first sweep, and
        # one whose residual did not change, take the plain map G
        nonlocal swept
        new, res, d_new, d_res = buffers
        K, K_O = kelvin3_legendre(source(Theta), s, basis, zw)
        np.add(forcing, K, out=new)
        new -= K_O
        new += 1.0
        np.subtract(new, Theta, out=res)
        delta = float(max(res.max(), -res.min()))
        np.copyto(Theta, new)
        if swept:
            np.subtract(new, d_new, out=d_new)
            np.subtract(res, d_res, out=d_res)
            denom = np.vdot(d_res, d_res)
            if denom > 0.0:
                d_new *= np.vdot(d_res, res) / denom
                Theta -= d_new
        swept = True
        buffers[:] = d_new, d_res, new, res
        if np.any(Theta[far:] > 0.0):
            # centrifugal forcing beat gravity far out: b is beyond the
            # admissible range for this grid extent
            raise RegimeError(
                f"spurious matter beyond 2.5 xi1; b={b:.3g} is outside the slow-rotation regime"
            )
        return Theta, delta

    Theta0 = np.broadcast_to(classical.theta(s)[:, None], forcing.shape).copy()
    Theta, changes = damped_iteration(sweep, Theta0, TOL, MAX_ITER,
                                      "distorted Lane-Emden iteration", stall=STALL)

    _, K_O = kelvin3_legendre(source(Theta), s, basis, zw)
    theta_inf = 1.0 - K_O

    dle = DistortedLaneEmden(
        nu=nu,
        Xi0=Xi0,
        xi1=xi1,
        s=s,
        zeta=zeta,
        Theta=Theta,
        coeffs=CubicSpline(s, _project(Theta, basis, zw)),
        Theta_inf_const=theta_inf,
        iterations=len(changes),
        contraction_ratio=contraction_ratio(changes),
    )

    if theta_inf >= 0.0:
        raise RegimeError("far-field constant of Theta is nonnegative; rotation too fast")
    edge = dle.theta_at(Xi0, np.linspace(0, 1, 9))
    if np.any(edge >= 0.0):
        raise RegimeError("Theta fails to stay negative at the grid edge")
    xi1_eq = dle.xi1_curve([0.0])[0]
    if xi1_eq >= 2.0 * xi1:
        raise RegimeError("vacuum boundary reaches 2 xi1; outside the slow-rotation regime")
    return dle
