"""Barotropic equation-of-state family with gamma-law leading behavior.

The representation is enthalpy-based: with k_rho = ((g-1)/(A g))^(1/(g-1)),

    rho = k_rho (u v 0)^(1/(g-1)) (1 + Y_rho(u/c^2)),
    P   = A k_rho^g (u v 0)^(g/(g-1)) (1 + Y_P(u/c^2)),

where Y_rho, Y_P are finite polynomial correction series in eta = u/c^2 with
no constant term.  The enthalpy integral u = int dP / (rho + P/c^2) holds for
the pair exactly when Y_P is matched to Y_rho; `consistent_upsilon_P` builds
that match order by order, and every EquationOfState takes its Y_P from it.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainError, SeriesDomainError


SERIES_TERMS = 6  # matched P-series terms
SERIES_RADIUS = 1.0  # |u/c^2| below which the correction series are taken


def _positive_power(u, p):
    """(u v 0)^p for p > 0, on an array taken only where u <= 0 is false: on
    the fluid's nodes, and on a NaN, which it passes on.  A 0-d u takes
    numpy's scalar power, which can round apart from its array loop."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return np.maximum(u, 0.0) ** p
    return np.power(u, p, out=np.zeros_like(u), where=~(u <= 0.0))


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
    """Immutable EOS value; all state functions are pure and vectorized.
    Y_P is derived from Y_rho, so dP/du = rho + P/c^2 holds for every one."""

    gamma: float
    A_const: float
    c_light: float
    upsilon_rho: tuple = ()
    upsilon_P: tuple = field(init=False)

    def __post_init__(self):
        if not (6.0 / 5.0 < self.gamma < 2.0):
            raise DomainError(f"gamma={self.gamma} outside (6/5, 2)")
        if self.A_const <= 0 or self.c_light <= 0:
            raise DomainError("A_const and c_light must be positive")
        object.__setattr__(self, "upsilon_rho", tuple(self.upsilon_rho))
        object.__setattr__(self, "upsilon_P",
                           consistent_upsilon_P(self.gamma, self.upsilon_rho, SERIES_TERMS))

    @classmethod
    def gamma_law(cls, gamma, A_const, c_light):
        """The Y_rho = 0 EOS, under the name the benchmark builds it by."""
        return cls(gamma, A_const, c_light)

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
        return self.k_rho * _positive_power(u, self.nu)

    def f_N_P(self, u):
        return self.k_P * _positive_power(u, self.nu + 1.0)

    def df_N_rho(self, u):
        """d f_N_rho / du with the convention 0 for u <= 0 (removable ratio)."""
        return self.nu * self.k_rho * _positive_power(u, self.nu - 1.0)

    # -- full state functions ----------------------------------------------

    def _check_eta(self, u):
        eta = np.asarray(u, dtype=float) / self.c_light**2
        if np.any(np.abs(eta) >= SERIES_RADIUS):
            raise SeriesDomainError(
                f"u/c^2 reaches {np.max(np.abs(eta)):.3g}, beyond the "
                f"series radius {SERIES_RADIUS:.3g}"
            )
        return eta

    def density_from_enthalpy(self, u):
        """f_N_rho(u) (1 + Y_rho(u/c^2)), the series by numpy's polyval."""
        eta = self._check_eta(u)
        return self.f_N_rho(u) * (1.0 + polyval(eta, (0.0, *self.upsilon_rho)))

    def pressure_from_enthalpy(self, u):
        """f_N_P(u) (1 + Y_P(u/c^2)), the series by numpy's polyval."""
        eta = self._check_eta(u)
        return self.f_N_P(u) * (1.0 + polyval(eta, (0.0, *self.upsilon_P)))

    def h_rho(self, u_N, w):
        """Taylor remainder of f_N_rho at u_N for the shift w/c^2 (linear term
        dropped where u_N <= 0)."""
        u_N = np.asarray(u_N, dtype=float)
        w = np.asarray(w, dtype=float)
        shift = w / self.c_light**2
        return self.f_N_rho(u_N + shift) - self.f_N_rho(u_N) - self.df_N_rho(u_N) * shift
