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
