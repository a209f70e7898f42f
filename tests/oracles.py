"""Reference formulas that only the tests use: each is an independent path
to a quantity the package computes another way, or exact input data."""

import numpy as np

from rotstar.verify import Window


def axis_laplacian(vals, h, n):
    """Discrete L_n with parity ghosts at varpi = 0 and z = 0 (even fields).

    On the axis the radial part limits to (n-1) d^2/dvarpi^2.
    """
    v = vals
    P, Q = v.shape
    ext_w = np.concatenate([v[1:2, :], v, np.zeros((1, Q))], axis=0)
    ext_z = np.concatenate([v[:, 1:2], v, np.zeros((P, 1))], axis=1)
    d2w = (ext_w[2:, :] - 2 * v + ext_w[:-2, :]) / h**2
    d2z = (ext_z[:, 2:] - 2 * v + ext_z[:, :-2]) / h**2
    dw = (ext_w[2:, :] - ext_w[:-2, :]) / (2 * h)
    w = np.arange(P) * h
    out = np.empty_like(v)
    out[1:, :] = d2w[1:, :] + (n - 2) / w[1:, None] * dw[1:, :] + d2z[1:, :]
    out[0, :] = (n - 1) * d2w[0, :] + d2z[0, :]
    out[-1, :] = np.nan  # one-sided closure not provided; mask the edge
    out[:, -1] = np.nan
    return out


def flat_window(L, N):
    """Flat space on [0, L]^2 at N points a side: F = A = K = 0, Pi = varpi."""
    xs = np.linspace(0.0, L, N)
    W, Z = np.meshgrid(xs, xs, indexing="ij")
    zero = np.zeros_like(W)
    return Window(h=xs[1] - xs[0], F=zero, A=zero.copy(), Pi=W.copy(), K=zero.copy())


def kerr_cyl_from_boyer_lindquist(kp, rbar, theta):
    """Forward map (rbar, theta) -> (varpi, z), the inverse of
    metric.kerr_boyer_lindquist_from_cyl."""
    m, a = kp.m_geom, kp.a_spin
    Delta = rbar**2 - 2.0 * m * rbar + a**2
    return np.sqrt(Delta) * np.sin(theta), (rbar - m) * np.cos(theta)


def rho_NO(p):
    """Central Newtonian density of the star with parameters p:
    ((gamma - 1) u_O / (A gamma))^nu."""
    return ((p.gamma - 1.0) / (p.A_const * p.gamma) * p.u_O) ** p.nu


def komar_integrals(win, c):
    """Komar mass and angular momentum (Komar 1959; Bardeen & Wagoner 1971)
    of a rigidly rotating fluid, as trapezoid sums over a window of the
    interior patch: M_K c^2 = int (2 T^0_0 - T) sqrt(-g) d^3x and J_K c =
    -int T^0_phi sqrt(-g) d^3x, with x^0 = c t, sqrt(-g) = Pi e^{2K - 2F},
    T^mu_nu = (rho c^2 + P) u^mu u_nu - P delta^mu_nu and u = u^0 (1, 0, 0,
    Omega/c) normalized to g(u, u) = 1.  The integrands vanish off the
    fluid; the phi integral gives 2 pi and the z < 0 half the same again."""
    F, A, Pi, Om = win.F, win.A, win.Pi, win.Omega
    e2F = np.exp(2.0 * F)
    fac = 1.0 + Om * A / c
    u0_sq = 1.0 / (e2F * fac**2 - (Om * Pi / c) ** 2 / e2F)
    u0_u0, u0_uphi = u0_sq * e2F * fac, u0_sq * (e2F * A + (e2F * A**2 - Pi**2 / e2F) * Om / c)
    vol = 4.0 * np.pi * Pi * np.exp(2.0 * win.K - 2.0 * F)
    enthalpy = win.rho * c**2 + win.P
    wts = np.full(F.shape[0], win.h)
    wts[[0, -1]] *= 0.5
    M_K = wts @ ((2.0 * enthalpy * u0_u0 - win.rho * c**2 + win.P) * vol) @ wts / c**2
    J_K = -(wts @ (enthalpy * u0_uphi * vol) @ wts) / c
    return float(M_K), float(J_K)


def isotropic_tov_metric(tov, ell):
    """Pi/varpi and K of a static spherical star at isotropic radius ell, from
    its TOV solution.  Matching the isotropic spatial metric psi^4 (d ell^2 +
    ell^2 dOmega^2) to the Lanczos form e^{-2F}[e^{2K}(dvarpi^2 + dz^2) +
    Pi^2 dphi^2] gives Pi/varpi = e^F r_areal(ell)/ell and K = log(Pi/varpi),
    with r_areal from TovSolution.ell inside the star and the isotropic
    Schwarzschild ell (1 + G M/(2 c^2 ell))^2 outside."""
    half_rs = tov.G_grav * tov.M_total / (2.0 * tov.c_light**2)
    r_areal = np.where(ell <= tov.ell[-1], np.interp(ell, tov.ell, tov.r),
                       ell * (1.0 + half_rs / ell) ** 2)
    Pi_over_w = np.exp(tov.F_isotropic(ell)) * r_areal / ell
    return Pi_over_w, np.log(Pi_over_w)
