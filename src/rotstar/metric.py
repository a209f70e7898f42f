"""Metric assembly: Lanczos potentials, Lewis coefficients, 4-velocity
factor, and the exact Kerr oracle in Lanczos coordinates.

Conventions: ds^2 = e^{2F}(c dt + A dphi)^2 - e^{-2F}[e^{2K}(dvarpi^2+dz^2)
+ Pi^2 dphi^2]; Lewis form f = e^{2F}, k = -e^{2F}A, l = -e^{2F}A^2 +
e^{-2F}Pi^2, m = 2(-F+K) with the identity Pi^2 = f l + k^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ErgoViolationError
from .fields import AxiField


@dataclass(frozen=True)
class KerrParams:
    """Geometric mass m = GM/c^2 and spin length a = J/(cM), |a| <= m."""

    m_geom: float
    a_spin: float

    def __post_init__(self):
        if self.m_geom <= 0:
            raise DomainError("m_geom must be positive")
        if abs(self.a_spin) > self.m_geom:
            raise DomainError("|a_spin| must not exceed m_geom (no naked spins)")


def kerr_boyer_lindquist_from_cyl(kp, w, z):
    """Invert varpi = sqrt(Delta) sin(th), z = (rbar - m) cos(th).

    With kappa = m^2 - a^2 and lam = (rbar - m)^2, lam is the larger root of
    lam^2 - (kappa + w^2 + z^2) lam + kappa z^2 = 0; the sign of cos(th)
    follows z.  Returns (rbar, cos_th, sin_th).
    """
    m, a = kp.m_geom, kp.a_spin
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    kappa = m**2 - a**2
    S = kappa + w**2 + z**2
    disc = np.sqrt(np.maximum(S**2 - 4.0 * kappa * z**2, 0.0))
    lam = 0.5 * (S + disc)
    lam = np.maximum(lam, 1e-300)
    rbar = m + np.sqrt(lam)
    cos2 = np.clip(z**2 / lam, 0.0, 1.0)
    cos_th = np.sign(z) * np.sqrt(cos2)
    # sin^2 from the input varpi through Delta = lam - kappa: avoids the
    # cancellation of 1 - cos^2 near the axis
    Delta = np.maximum(lam - kappa, 1e-300)
    sin_th = np.sqrt(np.clip(w**2 / Delta, 0.0, 1.0))
    return rbar, cos_th, sin_th


def kerr_cyl_from_boyer_lindquist(kp, rbar, theta):
    """Forward map (rbar, theta) -> (varpi, z) for round-trip checks."""
    m, a = kp.m_geom, kp.a_spin
    Delta = rbar**2 - 2.0 * m * rbar + a**2
    return np.sqrt(Delta) * np.sin(theta), (rbar - m) * np.cos(theta)


def kerr_lanczos(kp, w, z):
    """Exact Kerr potentials at (varpi, z); in_domain marks rbar > 2m.

    Pi equals varpi identically (vacuum harmonic gauge); it is still computed
    from the defining combination as a consistency anchor.
    """
    m, a = kp.m_geom, kp.a_spin
    rbar, cos_th, sin_th = kerr_boyer_lindquist_from_cyl(kp, w, z)
    sin2 = sin_th**2
    Sigma = rbar**2 + a**2 * cos_th**2
    Delta = rbar**2 - 2.0 * m * rbar + a**2
    hh = 2.0 * m * rbar / Sigma
    e2F = 1.0 - hh
    # both divisors can vanish only at rbar <= 2m, outside in_domain: a zero
    # divisor gives NaN there instead of a floating-point warning
    A = hh * a * sin2 / np.where(e2F != 0.0, e2F, np.nan)
    Pi2 = e2F * (e2F * A**2 + (rbar**2 + a**2) * sin2 + hh * a**2 * sin2**2)
    den_K = Delta + (m**2 - a**2) * sin2
    e2K = e2F * Sigma / np.where(den_K != 0.0, den_K, np.nan)
    in_domain = rbar > 2.0 * m
    safe = np.where(in_domain, e2F, 1.0)
    return {
        "F": 0.5 * np.log(np.where(in_domain, safe, 1.0)),
        "A": np.where(in_domain, A, 0.0),
        "Pi": np.sqrt(np.maximum(Pi2, 0.0)),
        "K": 0.5 * np.log(np.where(in_domain, e2K, 1.0)),
        "rbar": rbar,
        "in_domain": in_domain,
    }


# -- Lewis conversion and 4-velocity ----------------------------------------


def lewis_from_lanczos(F, A, Pi, K):
    """(f, k, l, m) arrays from Lanczos potentials."""
    e2F = np.exp(2.0 * np.asarray(F))
    A = np.asarray(A)
    Pi = np.asarray(Pi)
    f = e2F
    k = -e2F * A
    l = -e2F * A**2 + Pi**2 / e2F
    m_exp = 2.0 * (-np.asarray(F) + np.asarray(K))
    return f, k, l, m_exp


def g_factor(F, A, Pi, Omega, c_light):
    """e^{-G} = U^0 from the 4-velocity normalization; raises when the
    normalization quantity loses positivity (ergo-regime breach).

    Returns (G, U0, U2, U_0, U_2): contravariant t/phi components and the
    lowered ones.
    """
    F = np.asarray(F, dtype=float)
    A = np.asarray(A, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    Om = np.asarray(Omega, dtype=float)
    e2F = np.exp(2.0 * F)
    fac = 1.0 + Om * A / c_light
    e2G = e2F * fac**2 - Om**2 * Pi**2 / (c_light**2 * e2F)
    if np.any(e2G <= 0.0):
        raise ErgoViolationError(
            f"normalization quantity reaches {np.min(e2G):.3e}; assumption (B) violated"
        )
    G = 0.5 * np.log(e2G)
    U0 = np.exp(-G)
    U2 = U0 * Om / c_light
    U_0 = np.exp(2.0 * F - G) * fac
    U_2 = np.exp(-G + 2.0 * F) * (A * fac - Om * Pi**2 / (c_light * e2F**2))
    return G, U0, U2, U_0, U_2


# -- assembly from post-Newtonian potentials ---------------------------------


@dataclass
class MetricLanczos:
    """Potential bundle; Pi is carried as Pi/varpi (regular on the axis)."""

    F: AxiField
    A_pot: AxiField
    Pi_over_w: AxiField
    K: AxiField
    c_light: float

    def interior_arrays(self):
        g = self.F.grid
        return {
            "F": self.F.int_total(),
            "A": self.A_pot.int_total(),
            "Pi": g.WI * self.Pi_over_w.int_total(),
            "K": self.K.int_total(),
            "W": g.WI,
            "Z": g.ZI,
        }

    def eval(self, w, z):
        w = np.asarray(w, dtype=float)
        return {
            "F": self.F.eval(w, z),
            "A": self.A_pot.eval(w, z),
            "Pi": w * self.Pi_over_w.eval(w, z),
            "K": self.K.eval(w, z),
        }


def mul_varpi(field, n_out=None):
    """varpi * field, restated at a decay index lowered by at least one.

    (varpi f)_star(n_out) = R0 (varpi*/r*) (r*/R0)^(n - 1 - n_out) f_star(n):
    a bounded direction factor times a nonnegative power of r*, so the
    origin-image limit is finite (direction-dependent at n_out = n - 1).
    """
    g = field.grid
    n_out = field.n_index - 1 if n_out is None else n_out
    if n_out < 3 or n_out > field.n_index - 1:
        raise DomainError("varpi multiplication needs 3 <= n_out <= n - 1")
    if field.offset != 0.0:
        raise DomainError("varpi multiplication needs an offset-free field")
    int_vals = g.WI * field.int_vals
    with np.errstate(invalid="ignore", divide="ignore"):
        ray = np.where(g.RS > 0, g.WS / np.where(g.RS > 0, g.RS, 1.0), 0.0)
    pw = field.n_index - 1 - n_out
    star = g.R0 * ray * (g.RS / g.R0) ** pw * field.star_vals
    return AxiField(
        g,
        n_out,
        int_vals,
        star,
        (-field.parity[0], field.parity[1]),
        0.0,
        field.interp,
    )


def assemble(params, state, Phi_N):
    """Lanczos potentials from the PN unknowns: F = Phi_N/c^2 - W/c^4,
    A = varpi^2 Y/c^3, Pi = varpi (1 + X/c^4), K = V/c^4."""
    c = params.c_light
    F = Phi_N * (1.0 / c**2) - state.W * (1.0 / c**4)
    A = mul_varpi(mul_varpi(state.Y, 4), 3) * (1.0 / c**3)
    Pi_over_w = state.X * (1.0 / c**4) + 1.0
    K = state.V * (1.0 / c**4)
    met = MetricLanczos(F=F, A_pot=A, Pi_over_w=Pi_over_w, K=K, c_light=c)
    return met
