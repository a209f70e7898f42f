"""Barotropic equation-of-state family with gamma-law leading behavior.

The primary representation is enthalpy-based: with k_rho = ((g-1)/(A g))^(1/(g-1)),

    rho = k_rho (u v 0)^(1/(g-1)) (1 + Y_rho(u/c^2)),
    P   = A k_rho^g (u v 0)^(g/(g-1)) (1 + Y_P(u/c^2)),

where Y_rho, Y_P are finite polynomial correction series in eta = u/c^2 with
no constant term.  The enthalpy integral u = int dP / (rho + P/c^2) holds for
the pair exactly when Y_P is matched to Y_rho; `consistent_upsilon_P` builds
that match order by order.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, SeriesDomainError


SERIES_TERMS, ENTHALPY_RTOL = 6, 1e-10  # matched P-series terms; u(rho) quadrature tolerance


def _polyval_series(coeffs, eta):
    """Evaluate sum_k c_k eta^k for a coefficient list starting at k=1."""
    out = np.zeros_like(np.asarray(eta, dtype=float))
    for c in reversed(coeffs):
        out = eta * (c + out)
    return out


def _polyval_series_deriv(coeffs, eta):
    """Derivative of the k>=1 series with respect to eta."""
    out = np.zeros_like(np.asarray(eta, dtype=float))
    for k in range(len(coeffs), 0, -1):
        out = out * eta + k * coeffs[k - 1]
    return out


def consistent_upsilon_P(gamma, upsilon_rho, n_terms):
    """Correction series for P that makes dP/du = rho + P/c^2 hold to O(eta^n).

    Order-by-order solution of the enthalpy identity; with Y_rho = 0 this is
    the pressure series of the pure gamma-law-in-u family.
    """
    a = list(upsilon_rho) + [0.0] * max(0, n_terms - len(upsilon_rho))
    b = []
    for k in range(1, n_terms + 1):
        ak = a[k - 1]
        prev = b[k - 2] if k >= 2 else 1.0
        b.append((gamma * ak + (gamma - 1.0) * prev) / (gamma + k * (gamma - 1.0)))
    return tuple(b)


@dataclass(frozen=True)
class EquationOfState:
    """Immutable EOS value; all state functions are pure and vectorized."""

    gamma: float
    A_const: float
    c_light: float
    upsilon_rho: tuple = ()
    upsilon_P: tuple = ()
    series_radius: float = 1.0

    def __post_init__(self):
        if not (6.0 / 5.0 < self.gamma < 2.0):
            raise DomainError(f"gamma={self.gamma} outside (6/5, 2)")
        if self.A_const <= 0 or self.c_light <= 0:
            raise DomainError("A_const and c_light must be positive")
        object.__setattr__(self, "upsilon_rho", tuple(self.upsilon_rho))
        object.__setattr__(self, "upsilon_P", tuple(self.upsilon_P))

    @classmethod
    def gamma_law(cls, gamma, A_const, c_light, series_radius=1.0):
        """Default build: Y_rho = 0, Y_P matched so the enthalpy identity holds."""
        return cls(
            gamma=gamma,
            A_const=A_const,
            c_light=c_light,
            upsilon_rho=(),
            upsilon_P=consistent_upsilon_P(gamma, (), SERIES_TERMS),
            series_radius=series_radius,
        )

    # -- derived constants -------------------------------------------------

    @property
    def nu(self):
        return 1.0 / (self.gamma - 1.0)

    @property
    def k_rho(self):
        return ((self.gamma - 1.0) / (self.A_const * self.gamma)) ** self.nu

    @property
    def k_P(self):
        return self.A_const * self.k_rho**self.gamma

    # -- Newtonian-limit state functions -----------------------------------

    def f_N_rho(self, u):
        u = np.asarray(u, dtype=float)
        return self.k_rho * np.maximum(u, 0.0) ** self.nu

    def f_N_P(self, u):
        u = np.asarray(u, dtype=float)
        return self.k_P * np.maximum(u, 0.0) ** (self.nu + 1.0)

    def df_N_rho(self, u):
        """d f_N_rho / du with the convention 0 for u <= 0 (removable ratio)."""
        u = np.asarray(u, dtype=float)
        return self.nu * self.k_rho * np.maximum(u, 0.0) ** (self.nu - 1.0)

    # -- full state functions ----------------------------------------------

    def _check_eta(self, u):
        eta = np.asarray(u, dtype=float) / self.c_light**2
        if np.any(np.abs(eta) >= self.series_radius):
            raise SeriesDomainError(
                f"u/c^2 reaches {np.max(np.abs(eta)):.3g}, beyond the configured "
                f"series radius {self.series_radius:.3g}"
            )
        return eta

    def density_from_enthalpy(self, u):
        eta = self._check_eta(u)
        return self.f_N_rho(u) * (1.0 + _polyval_series(self.upsilon_rho, eta))

    def pressure_from_enthalpy(self, u):
        eta = self._check_eta(u)
        return self.f_N_P(u) * (1.0 + _polyval_series(self.upsilon_P, eta))

    def ddensity_denthalpy(self, u):
        """d rho / du = f_N_rho'(u) (1 + Y_rho) + f_N_rho(u) Y_rho' / c^2."""
        eta = np.asarray(u, dtype=float) / self.c_light**2
        return (
            self.df_N_rho(u) * (1.0 + _polyval_series(self.upsilon_rho, eta))
            + self.f_N_rho(u) * _polyval_series_deriv(self.upsilon_rho, eta) / self.c_light**2
        )

    def dpressure_denthalpy(self, u):
        eta = self._check_eta(u)
        u = np.asarray(u, dtype=float)
        up = np.maximum(u, 0.0)
        s = 1.0 + _polyval_series(self.upsilon_P, eta)
        ds = _polyval_series_deriv(self.upsilon_P, eta) / self.c_light**2
        return self.k_P * ((self.nu + 1.0) * up**self.nu * s + up ** (self.nu + 1.0) * ds)

    def h_rho(self, u_N, w):
        """Taylor remainder of f_N_rho at u_N for the shift w/c^2 (linear term
        dropped where u_N <= 0)."""
        u_N = np.asarray(u_N, dtype=float)
        w = np.asarray(w, dtype=float)
        shift = w / self.c_light**2
        return self.f_N_rho(u_N + shift) - self.f_N_rho(u_N) - self.df_N_rho(u_N) * shift

    # -- density-side quantities -------------------------------------------

    def enthalpy_of_density_inverse(self, rho):
        """Invert rho = f_rho(u) by Newton from the Newtonian-limit guess."""
        rho = float(rho)
        if rho < 0:
            raise DomainError("rho must be nonnegative")
        if rho == 0.0:
            return 0.0
        u = (rho / self.k_rho) ** (1.0 / self.nu)
        for _ in range(60):
            f = float(self.density_from_enthalpy(u)) - rho
            step = f / float(self.ddensity_denthalpy(u))
            u -= step
            if abs(step) <= 1e-15 * abs(u):
                break
        return u

    def pressure_from_density(self, rho):
        return float(self.pressure_from_enthalpy(self.enthalpy_of_density_inverse(rho)))

    def dpressure_ddensity(self, rho):
        """dP/drho through the enthalpy parametrization (finite at rho > 0)."""
        u = self.enthalpy_of_density_inverse(rho)
        return float(self.dpressure_denthalpy(u)) / float(self.ddensity_denthalpy(u))

    def enthalpy_from_density(self, rho):
        """u(rho) = int_0^rho dP/(rho' + P/c^2) by adaptive quadrature.

        The substitution s = rho'^(gamma-1) removes the integrable endpoint
        behavior of dP/drho ~ rho^(gamma-2) at rho' = 0.
        """
        rho = float(rho)
        if rho < 0:
            raise DomainError("rho must be nonnegative")
        if rho == 0.0:
            return 0.0
        gm1 = self.gamma - 1.0
        s_max = rho**gm1

        def integrand(s):
            if s <= 0.0:
                return self.A_const * self.gamma / gm1
            r = s ** (1.0 / gm1)
            P = self.pressure_from_density(r)
            dPdr = self.dpressure_ddensity(r)
            drho_ds = r / (gm1 * s)
            return dPdr / (r + P / self.c_light**2) * drho_ds

        val, _ = quad(integrand, 0.0, s_max, epsrel=ENTHALPY_RTOL, epsabs=0.0, limit=200)
        return val


# -- neutron-star parametric equation of state -----------------------------


def _fermi_P_integral(Q):
    """int_0^Q q^4/sqrt(1+q^2) dq, closed form."""
    Q = np.asarray(Q, dtype=float)
    root = np.sqrt(1.0 + Q**2)
    return (Q * (2.0 * Q**2 - 3.0) * root + 3.0 * np.arcsinh(Q)) / 8.0


def _fermi_rho_integral(Q):
    """int_0^Q q^2 sqrt(1+q^2) dq, closed form."""
    Q = np.asarray(Q, dtype=float)
    root = np.sqrt(1.0 + Q**2)
    return (Q * (2.0 * Q**2 + 1.0) * root - np.arcsinh(Q)) / 8.0


@dataclass(frozen=True)
class NeutronStarTable:
    """Parametric (rho(Q), P(Q)) table of the ideal degenerate-neutron EOS."""

    B_const: float
    c_light: float
    Q: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)

    @property
    def A_fit(self):
        return 1.0 / (5.0 * self.B_const ** (2.0 / 3.0))

    def dP_drho(self, Q):
        Q = np.asarray(Q, dtype=float)
        return (self.c_light**2 / 3.0) * Q**2 / (1.0 + Q**2)

    def export_text(self, path):
        data = np.column_stack([self.rho, self.P])
        np.savetxt(path, data, header="rho P", comments="# ")


def neutron_star_eos(B, Q_max=10.0, c_light=1.0, n_points=200):
    """Tabulate the neutron-star EOS on log-spaced Q nodes in [0, Q_max]."""
    if B <= 0:
        raise DomainError("B must be positive")
    Q = np.concatenate([[0.0], np.geomspace(1e-4 * Q_max, Q_max, n_points - 1)])
    rho = 3.0 * B * c_light**3 * _fermi_rho_integral(Q)
    P = B * c_light**5 * _fermi_P_integral(Q)
    return NeutronStarTable(B_const=B, c_light=c_light, Q=Q, rho=rho, P=P)
