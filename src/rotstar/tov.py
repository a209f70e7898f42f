"""Static spherical benchmark: enthalpy-based TOV integration plus the
transform to the quasi-isotropic radial coordinate used by the axisymmetric
solver, so the potentials can be compared in a common gauge.

With u the relativistic enthalpy, the hydrostatic system is

    du/dr = -G (m + 4 pi r^3 P/c^2) / (r^2 (1 - 2 G m/(r c^2))),
    dm/dr = 4 pi r^2 rho,

integrated from a series start at the center until u = 0 (the surface).  The
metric exponent follows from the static first integral F = -u/c^2 + const
with the constant matched to the exterior Schwarzschild value; the
quasi-isotropic radius solves d(ln ell)/dr = 1/(r sqrt(1 - 2 G m/(r c^2)))
matched to the isotropic Schwarzschild radius at the surface.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicSpline

from .errors import ConvergenceError, DomainError


@dataclass
class TovSolution:
    """Radial profiles on the TOV (areal) grid plus the gauge maps."""

    G_grav: float
    c_light: float
    r: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    r_surface: float = 0.0
    M_total: float = 0.0
    ell: np.ndarray = field(repr=False, default=None)
    _F_of_ell: object = field(repr=False, default=None)

    def F_areal(self, r):
        """Metric exponent F as a function of the areal radius."""
        G, c = self.G_grav, self.c_light
        r = np.asarray(r, dtype=float)
        C_F = 0.5 * np.log(1.0 - 2.0 * G * self.M_total / (c**2 * self.r_surface))
        inside = r < self.r_surface
        out = np.empty_like(r)
        u_in = np.interp(r[inside], self.r, self.u)
        out[inside] = -u_in / c**2 + C_F
        rr = np.maximum(r[~inside], self.r_surface)
        out[~inside] = 0.5 * np.log(1.0 - 2.0 * G * self.M_total / (c**2 * rr))
        return out

    def F_isotropic(self, ell):
        """F as a function of the quasi-isotropic radius (solver gauge)."""
        return self._F_of_ell(np.asarray(ell, dtype=float))


RTOL, R_MAX_FACTOR = 1e-11, 200.0  # DOP853 tolerance; surface search end / sqrt(u_O/(G rho_c))


def solve_tov(eos, u_O, G_grav=1.0, c_light=1.0):
    """Integrate the TOV equations for central enthalpy u_O."""
    if u_O <= 0:
        raise DomainError("u_O must be positive")
    G, c = G_grav, c_light
    rho_c = float(eos.density_from_enthalpy(u_O))
    # series start: m ~ (4 pi/3) rho_c r^3, u ~ u_O - (2 pi/3) G rho_eff r^2
    r0 = 1e-6 * (u_O / (G * rho_c)) ** 0.5

    def rhs(r, y):
        u, m = y
        rho = float(eos.density_from_enthalpy(max(u, 0.0)))
        P = float(eos.pressure_from_enthalpy(max(u, 0.0)))
        denom = r**2 * (1.0 - 2.0 * G * m / (r * c**2))
        du = -G * (m + 4.0 * np.pi * r**3 * P / c**2) / denom
        return [du, 4.0 * np.pi * r**2 * rho]

    def surface(r, y):
        return y[0]

    surface.terminal = True
    surface.direction = -1

    P_c = float(eos.pressure_from_enthalpy(u_O))
    rho_eff = rho_c + 3.0 * P_c / c**2
    y0 = [
        u_O - (2.0 * np.pi / 3.0) * G * rho_eff * r0**2,
        (4.0 * np.pi / 3.0) * rho_c * r0**3,
    ]
    r_stop = R_MAX_FACTOR * np.sqrt(u_O / (G * rho_c))
    sol = solve_ivp(
        rhs,
        (r0, r_stop),
        y0,
        method="DOP853",
        rtol=RTOL,
        atol=[1e-14 * u_O, 0.0],
        dense_output=True,
        events=surface,
        max_step=r_stop / 400.0,
    )
    if not sol.t_events or sol.t_events[0].size == 0:
        raise ConvergenceError("TOV integration found no surface")
    r_s = float(sol.t_events[0][0])
    M = float(sol.y_events[0][0][1])

    r_grid = np.linspace(r0, r_s, 2001)
    uu = sol.sol(r_grid)[0]
    mm = sol.sol(r_grid)[1]
    r_grid = np.concatenate([[0.0], r_grid])
    uu = np.concatenate([[u_O], np.maximum(uu, 0.0)])
    mm = np.concatenate([[0.0], mm])

    tov = TovSolution(
        G_grav=G, c_light=c, r=r_grid, u=uu, m=mm, r_surface=r_s, M_total=M,
    )
    _attach_isotropic(tov)
    return tov


def _attach_isotropic(tov):
    G, c = tov.G_grav, tov.c_light
    r_s, M = tov.r_surface, tov.M_total
    # isotropic Schwarzschild radius at the surface
    ell_s = 0.5 * (r_s - G * M / c**2 + np.sqrt(r_s**2 - 2.0 * G * M * r_s / c**2))
    r = tov.r
    integ = np.zeros_like(r)
    pos = r > 0
    root = np.sqrt(np.maximum(1.0 - 2.0 * G * tov.m[pos] / (np.maximum(r[pos], 1e-300) * c**2), 1e-14))
    # d ln(ell/r)/dr = (1/root - 1)/r is regular at the center (m ~ r^3)
    integrand = np.zeros_like(r)
    integrand[pos] = (1.0 / root - 1.0) / r[pos]
    integrand[0] = 0.0
    log_ratio = cumulative_trapezoid(integrand, r, initial=0.0)
    log_ratio_s = log_ratio[-1]
    # ell(r) = r * exp(log_ratio(r)) * [ell_s/(r_s e^{log_ratio_s})]
    scale = ell_s / (r_s * np.exp(log_ratio_s))
    ell = r * np.exp(log_ratio) * scale
    tov.ell = ell
    F_vals = tov.F_areal(r)
    spline = CubicSpline(ell, F_vals)

    def F_iso(e):
        e = np.asarray(e, dtype=float)
        out = np.empty_like(e)
        inside = e <= ell_s
        out[inside] = spline(np.clip(e[inside], 0.0, ell_s))
        eo = e[~inside]
        # exterior Schwarzschild in isotropic form
        out[~inside] = np.log(
            (1.0 - G * M / (2.0 * c**2 * eo)) / (1.0 + G * M / (2.0 * c**2 * eo))
        )
        return out

    tov._F_of_ell = F_iso
