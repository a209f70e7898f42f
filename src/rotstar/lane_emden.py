"""Classical and distorted (rotating) Lane-Emden profiles.

The classical profile theta(xi; nu) solves -(xi^2 theta')' / xi^2 = (theta v 0)^nu
with theta(0) = 1 and is continued past its first zero xi1 by the harmonic
tail mu1 * (1/xi - 1/xi1), which is negative beyond xi1 and C^1 at the match.

The distorted profile Theta(|xi|, zeta) solves the centrifugally forced
integral equation

    Theta = (b/2) chi(|xi|/Xi0)^2 (xi_1^2 + xi_2^2) + G(Theta),
    G(Theta) = K3 (Theta v 0)^nu - K3 (Theta v 0)^nu (O) + 1,

by damped fixed-point iteration; K3 is the 3-d Newtonian Green operator,
applied here through an even-Legendre multipole expansion on an (s, zeta)
grid.  The b/2 coefficient follows from a = sqrt(A g / (4 pi G (g-1))) rho^..,
b = Omega^2/(4 pi G rho_c) together with the rotating hydrostatic relation
u_N/u_O = Theta.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicSpline

from .cutoff import chi
from .errors import ConvergenceError, DomainError, RegimeError


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
DAMPING = 0.8  # of the distorted fixed point


def integrate_theta(nu, xi_max, stop_at_zero=False):
    """Integrate the classical Lane-Emden ODE; returns the solve_ivp result."""
    xi0 = 1e-6
    y0 = _series_start(nu, xi0)
    events = None
    if stop_at_zero:
        def zero_cross(xi, y, nu):
            return y[0]

        zero_cross.terminal = True
        zero_cross.direction = -1
        events = zero_cross
    return solve_ivp(
        _rhs,
        (xi0, xi_max),
        y0,
        args=(nu,),
        method="DOP853",
        rtol=THETA_RTOL,
        atol=THETA_ATOL,
        dense_output=True,
        events=events,
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

    def theta_prime(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        inside = xi < self.xi1
        xin = np.clip(xi[inside], 1e-6, None)
        out[inside] = self._dense.sol(xin)[1] if xin.size else np.empty(0)
        xe = xi[~inside]
        out[~inside] = -self.mu1 / np.where(xe > 0, xe, 1.0) ** 2
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
    sol = integrate_theta(nu, XI_MAX, stop_at_zero=True)
    if not sol.t_events or sol.t_events[0].size == 0:
        raise ConvergenceError(f"no zero of theta found before xi={XI_MAX}")
    xi1 = float(sol.t_events[0][0])
    dtheta1 = float(sol.y_events[0][0][1])
    mu1 = xi1**2 * abs(dtheta1)
    return LaneEmdenSolution(nu=nu, xi1=xi1, mu1=mu1, _dense=sol)


# -- distorted profile -------------------------------------------------------


def kelvin3_legendre(g, s, zeta_nodes, zeta_weights, lmax):
    """Apply the 3-d Newtonian operator K3 to an axisymmetric, z-even source.

    g is sampled on the tensor (s, zeta) grid with zeta at Gauss nodes on
    [0, 1]; returns (K3 g on the grid, K3 g at the origin).  Radial integrals
    use composite Simpson on the s grid.
    """
    terms = np.zeros_like(g)
    value_O = 0.0
    s_safe = np.where(s > 0, s, 1.0)
    for l in range(0, lmax + 1, 2):
        Pl = np.polynomial.legendre.Legendre.basis(l)(zeta_nodes)
        c_l = (2 * l + 1) * (g * zeta_weights[None, :]) @ Pl
        inner = cumulative_simpson(s ** (l + 2) * c_l, x=s, initial=0.0)
        if l == 0:
            out_igd = s * c_l
        else:
            # genuine c_l ~ s^l near the center; mask the center node and the
            # roundoff floor so s^(1-l) cannot amplify projection noise
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


@dataclass
class DistortedLaneEmden:
    """Converged distorted Lane-Emden profile on an (s, zeta) grid."""

    nu: float
    Xi0: float
    xi1: float
    s: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    Theta: np.ndarray = field(repr=False)
    coeffs: list = field(repr=False)  # CubicSplines of even-Legendre coefficients
    lmax: int = 0
    Theta_inf_const: float = 0.0
    iterations: int = 0
    contraction_ratio: float = 0.0

    def theta_at(self, s, zeta):
        """Evaluate Theta anywhere via the Legendre expansion (even in zeta)."""
        s = np.asarray(s, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        s_cl = np.clip(s, 0.0, self.Xi0)
        out = np.zeros(np.broadcast(s, zeta).shape)
        for l, spl in zip(range(0, self.lmax + 1, 2), self.coeffs):
            Pl = np.polynomial.legendre.Legendre.basis(l)(np.abs(zeta))
            out = out + spl(s_cl) * Pl
        # harmonic-type continuation beyond the grid: Theta_inf + C/s
        beyond = s > self.Xi0
        if np.any(beyond):
            edge = np.zeros_like(out)
            for l, spl in zip(range(0, self.lmax + 1, 2), self.coeffs):
                Pl = np.polynomial.legendre.Legendre.basis(l)(np.abs(zeta))
                edge = edge + spl(self.Xi0) * Pl
            c_tail = (edge - self.Theta_inf_const) * self.Xi0
            out = np.where(beyond, self.Theta_inf_const + c_tail / np.where(beyond, s, 1.0), out)
        if out.ndim == 0:
            return float(out)
        return out

    def xi1_curve(self, zeta_values):
        """Vacuum-boundary radius Xi1(zeta) by per-ray bisection (tol 1e-10)."""
        out = []
        for z in np.atleast_1d(zeta_values):
            lo, hi = 0.5 * self.xi1, None
            f_lo = self.theta_at(lo, z)
            if f_lo <= 0:
                raise RegimeError("profile nonpositive already at xi1/2")
            grid = np.linspace(lo, self.Xi0, 200)
            vals = self.theta_at(grid, np.full_like(grid, z))
            idx = np.nonzero(vals <= 0)[0]
            if idx.size == 0:
                raise RegimeError("no vacuum boundary found on the ray")
            hi = grid[idx[0]]
            lo = grid[idx[0] - 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if self.theta_at(mid, z) > 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-10:
                    break
            out.append(0.5 * (lo + hi))
        return np.asarray(out)

    def report_grid(self, n=129):
        """Theta on a uniform (s, zeta) grid for export and comparisons."""
        s = np.linspace(0.0, self.Xi0, n)
        zeta = np.linspace(0.0, 1.0, n)
        S, Z = np.meshgrid(s, zeta, indexing="ij")
        return s, zeta, self.theta_at(S, Z)


def solve_distorted(
    nu,
    b,
    classical,
    n_radial=1025,
    n_zeta=48,
    lmax=12,
    tol=1e-10,
    max_iter=400,
):
    """Damped fixed-point solve of the distorted Lane-Emden equation.

    Starts from the classical profile; raises ConvergenceError when the sweep
    stops contracting and RegimeError when the converged profile fails the
    whole-space extension requirements (negative beyond the grid).
    """
    if b < 0:
        raise DomainError("b must be nonnegative")
    xi1 = classical.xi1
    Xi0 = 4.0 * xi1
    s = np.linspace(0.0, Xi0, n_radial)
    x, wq = leggauss(n_zeta)
    zeta = 0.5 * (x + 1.0)
    zw = 0.5 * wq

    S, Z = np.meshgrid(s, zeta, indexing="ij")
    forcing = 0.5 * b * chi(S / Xi0) ** 2 * S**2 * (1.0 - Z**2)

    Theta = np.broadcast_to(classical.theta(s)[:, None], S.shape).copy()
    far = s >= 2.5 * xi1
    changes = []
    for it in range(1, max_iter + 1):
        src = np.maximum(Theta, 0.0) ** nu
        K, K_O = kelvin3_legendre(src, s, zeta, zw, lmax)
        new = forcing + K - K_O + 1.0
        delta = float(np.max(np.abs(new - Theta)))
        Theta = (1.0 - DAMPING) * Theta + DAMPING * new
        changes.append(delta)
        if np.any(Theta[far, :] > 0.0):
            # centrifugal forcing beat gravity far out: b is beyond the
            # admissible range for this grid extent
            raise RegimeError(
                f"spurious matter beyond 2.5 xi1 at iteration {it}; "
                f"b={b:.3g} is outside the slow-rotation regime"
            )
        if delta < tol:
            break
        if it > 12 and changes[-1] > changes[-6]:
            raise ConvergenceError(
                "distorted Lane-Emden iteration stopped contracting",
                residual=delta,
                iterations=it,
            )
    else:
        raise ConvergenceError(
            "distorted Lane-Emden did not converge", residual=changes[-1], iterations=max_iter
        )

    ratios = [c2 / c1 for c1, c2 in zip(changes[:-1], changes[1:]) if c1 > 0]
    ratio = float(np.median(ratios[-8:])) if ratios else 0.0

    src = np.maximum(Theta, 0.0) ** nu
    _, K_O = kelvin3_legendre(src, s, zeta, zw, lmax)
    theta_inf = 1.0 - K_O

    coeffs = []
    for l in range(0, lmax + 1, 2):
        Pl = np.polynomial.legendre.Legendre.basis(l)(zeta)
        c_l = (2 * l + 1) * (Theta * zw[None, :]) @ Pl
        coeffs.append(CubicSpline(s, c_l))

    dle = DistortedLaneEmden(
        nu=nu,
        Xi0=Xi0,
        xi1=xi1,
        s=s,
        zeta=zeta,
        Theta=Theta,
        coeffs=coeffs,
        lmax=lmax,
        Theta_inf_const=theta_inf,
        iterations=it,
        contraction_ratio=ratio,
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
