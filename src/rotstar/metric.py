"""Metric assembly: Lanczos potentials, Lewis coefficients, the e^{2G}
normalization of the fluid's 4-velocity, and the exact Kerr oracle in
Lanczos coordinates.

Conventions: ds^2 = e^{2F}(c dt + A dphi)^2 - e^{-2F}[e^{2K}(dvarpi^2+dz^2)
+ Pi^2 dphi^2]; Lewis form f = e^{2F}, k = -e^{2F}A, l = -e^{2F}A^2 +
e^{-2F}Pi^2, m = 2(-F+K) with the identity Pi^2 = f l + k^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ErgoViolationError
from .fields import AxiField, mul_varpi


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


def kerr_eval_fns(kp):
    """Kerr's F, A, Pi and K as evaluators (varpi, z) -> array, for the far-field fits."""
    return {key: lambda w, z, key=key: kerr_lanczos(kp, w, z)[key] for key in ("F", "A", "Pi", "K")}


# -- Lewis conversion and e^{2G} --------------------------------------------


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


def e2G_normalization(F, A, Pi, Omega, c_light, mask=None):
    """e^{2G} = e^{2F}(1 + Omega A/c)^2 - Omega^2 Pi^2/(c^2 e^{2F}), the
    normalization of the rigidly rotating fluid's 4-velocity, U^0 = e^{-G}.

    Assumption (B) is e^{2G} > 0, a timelike fluid velocity; a value <= 0
    where `mask` (default: everywhere) holds raises ErgoViolationError.
    """
    e2F = np.exp(2 * F)
    fac = 1.0 + Omega * A / c_light
    e2G = e2F * fac**2 - Omega**2 * Pi**2 / (c_light**2 * e2F)
    bad = e2G <= 0.0 if mask is None else mask & (e2G <= 0.0)
    if np.any(bad):
        raise ErgoViolationError(
            f"e^{{2G}} reaches {np.min(e2G[bad]):.3e}; assumption (B), a timelike fluid "
            "velocity, violated"
        )
    return e2G


def ktilde(Pi, Pi1, Pi3, Pi11, Pi33, Pi13, F1, F3, A1, A3, e4F, over_pi):
    """The first-order K system solved for its gradient, pointwise.

    Equations (d) and (e) read Pi1 K1 - Pi3 K3 = rh_d and Pi3 K1 + Pi1 K3 =
    rh_e; returns (K1t, K3t, rh_d, rh_e).  over_pi stands for 1/Pi, whose
    value on the axis (where (A1^2 - A3^2)/Pi and A1 A3/Pi vanish linearly)
    the caller chooses.
    """
    rh_d = 0.5 * (Pi11 - Pi33) + Pi * (F1**2 - F3**2) - 0.25 * e4F * (A1**2 - A3**2) * over_pi
    rh_e = Pi13 + 2.0 * Pi * F1 * F3 - 0.5 * e4F * A1 * A3 * over_pi
    denom = Pi1**2 + Pi3**2
    return (Pi1 * rh_d + Pi3 * rh_e) / denom, (-Pi3 * rh_d + Pi1 * rh_e) / denom, rh_d, rh_e


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
        }


def assemble(params, state, Phi_N):
    """Lanczos potentials from the PN unknowns: F = Phi_N/c^2 - W/c^4,
    A = varpi^2 Y/c^3, Pi = varpi (1 + X/c^4), K = V/c^4."""
    c = params.c_light
    F = Phi_N * (1.0 / c**2) - state.W * (1.0 / c**4)
    A = mul_varpi(mul_varpi(state.Y)) * (1.0 / c**3)
    Pi_over_w = state.X * (1.0 / c**4) + 1.0
    K = state.V * (1.0 / c**4)
    met = MetricLanczos(F=F, A_pot=A, Pi_over_w=Pi_over_w, K=K, c_light=c)
    return met
