"""Residual evaluation of the reduced axisymmetric Einstein system, the
K-consistency condition, the raw Ricci cross-check, far-field fits, and the
Kerr and TOV measurements that the CLI and the acceptance gate share.

All evaluators work on a Window: uniform rectangular samples of the metric
potentials (plus optional fluid data) with an optional validity mask.  Finite
differences are second-order central; the outermost ring and the varpi = 0
column are masked in the reports (axis limits are not needed because every
equation is checked where it is regular).  The z = 0 row stays usable through
even-parity ghosts.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RegimeError
from .metric import kerr_lanczos, ktilde, lewis_from_lanczos


@dataclass
class Window:
    """Uniform (varpi, z) samples with spacing h from the origin; every
    field is even in z."""

    h: float
    F: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    Pi: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    Omega: np.ndarray = field(repr=False, default=None)
    rho: np.ndarray = field(repr=False, default=None)
    P: np.ndarray = field(repr=False, default=None)
    u: np.ndarray = field(repr=False, default=None)
    mask: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones_like(self.F, dtype=bool)
        if self.Omega is None:
            self.Omega = np.zeros_like(self.F)

    @property
    def W(self):
        n = self.F.shape[0]
        return self.h * np.arange(n)[:, None] + 0 * self.F

    @property
    def Z(self):
        n = self.F.shape[1]
        return self.h * np.arange(n)[None, :] + 0 * self.F

    def report_mask(self, erode=1):
        """Valid nodes away from window edges, the mask boundary, and the
        varpi = 0 column."""
        m = self.mask.copy()
        for _ in range(erode):
            m2 = m.copy()
            m2[1:, :] &= m[:-1, :]
            m2[:-1, :] &= m[1:, :]
            m2[:, 1:] &= m[:, :-1]
            m2[:, :-1] &= m[:, 1:]
            m = m2
        m[0, :] = False
        m[-1, :] = False
        m[:, -1] = False
        return m


def d1w(win, arr):
    out = np.full_like(arr, np.nan)
    out[1:-1, :] = (arr[2:, :] - arr[:-2, :]) / (2 * win.h)
    return out


def d1z(win, arr, parity=1):
    ext = np.concatenate([parity * arr[:, 1:2], arr], axis=1)
    out = np.full_like(arr, np.nan)
    out[:, : arr.shape[1] - 1] = (ext[:, 2:] - ext[:, :-2]) / (2 * win.h)
    return out


def d2w(win, arr):
    out = np.full_like(arr, np.nan)
    out[1:-1, :] = (arr[2:, :] - 2 * arr[1:-1, :] + arr[:-2, :]) / win.h**2
    return out


def d2z(win, arr, parity=1):
    ext = np.concatenate([parity * arr[:, 1:2], arr], axis=1)
    out = np.full_like(arr, np.nan)
    out[:, : arr.shape[1] - 1] = (ext[:, 2:] - 2 * ext[:, 1:-1] + ext[:, :-2]) / win.h**2
    return out


def d1w1z(win, arr, parity=1):
    return d1w(win, d1z(win, arr, parity))


@dataclass
class ResidualReport:
    """Per-equation residual fields, sups, scales, and regime margins."""

    residuals: dict
    sups: dict
    scales: dict
    margin_B: float
    margin_C: float
    first_integral_spread: float = None
    bands: dict = None

    def to_dict(self):
        out = {
            "sups": {k: float(v) for k, v in self.sups.items()},
            "scales": {k: float(v) for k, v in self.scales.items()},
            "margin_B": float(self.margin_B),
            "margin_C": float(self.margin_C),
        }
        if self.first_integral_spread is not None:
            out["first_integral_spread"] = float(self.first_integral_spread)
        if self.bands:
            out["bands"] = {k: {kk: float(vv) for kk, vv in v.items()} for k, v in self.bands.items()}
        return out


def _off_axis(Pi):
    """Pi as a divisor: its zeros, on the varpi = 0 column that every report
    mask drops, become NaN, so the quotients there are NaN without a
    division-by-zero warning."""
    return np.where(Pi != 0.0, Pi, np.nan)


def _fluid_terms(win, params):
    c = params.c_light
    rho = win.rho if win.rho is not None else np.zeros_like(win.F)
    P = win.P if win.P is not None else np.zeros_like(win.F)
    eps = c**2 * rho
    return rho, P, eps


def residual_reduced_system(win, params, bands_R0=None):
    """Left minus right of the five field equations plus the first-integral
    spread over the fluid support."""
    G_g, c = params.G_grav, params.c_light
    F, A, Pi, K, Om = win.F, win.A, win.Pi, win.K, win.Omega
    rho, P, eps = _fluid_terms(win, params)

    F1, F3 = d1w(win, F), d1z(win, F)
    A1, A3 = d1w(win, A), d1z(win, A)
    P1, P3 = d1w(win, Pi), d1z(win, Pi)
    K1, K3 = d1w(win, K), d1z(win, K)
    lapF = d2w(win, F) + d2z(win, F)
    lapA = d2w(win, A) + d2z(win, A)
    lapPi = d2w(win, Pi) + d2z(win, Pi)

    e2F = np.exp(2 * F)
    fac = 1.0 + Om * A / c
    Bq = e2F * fac**2 - Om**2 * Pi**2 / (c**2 * e2F)
    margin_B = float(np.nanmin(np.where(win.report_mask(), Bq, np.nan)))
    if margin_B <= 0:
        raise RegimeError("assumption (B) violated on the window")
    gradPi2 = P1**2 + P3**2
    margin_C = float(np.nanmin(np.where(win.report_mask(), gradPi2, np.nan)))

    emK = np.exp(2 * (-F + K))
    Pi_nz = _off_axis(Pi)
    r_a = (
        lapF
        + (P1 * F1 + P3 * F3) / Pi_nz
        + e2F**2 / (2 * Pi_nz**2) * (A1**2 + A3**2)
        - (4 * np.pi * G_g / c**4)
        * emK
        * ((eps + P) * (e2F * fac**2 + Om**2 * Pi**2 / (c**2 * e2F)) / Bq + 2 * P)
    )
    r_b = (
        lapA
        - (P1 * A1 + P3 * A3) / Pi_nz
        + 4 * (F1 * A1 + F3 * A3)
        + (16 * np.pi * G_g / c**4)
        * emK
        * (eps + P)
        * (Om / c)
        * Pi**2
        * fac
        / (e2F * Bq)
    )
    r_c = lapPi - (16 * np.pi * G_g / c**4) * emK * P * Pi
    _, _, rh_d, rh_e = ktilde(Pi, P1, P3, d2w(win, Pi), d2z(win, Pi), d1w1z(win, Pi, parity=1),
                              F1, F3, A1, A3, e2F**2, 1.0 / Pi_nz)
    r_d = P1 * K1 - P3 * K3 - rh_d
    r_e = P3 * K1 + P1 * K3 - rh_e

    residuals = {"eqa": r_a, "eqb": r_b, "eqc": r_c, "eqd": r_d, "eqe": r_e}
    m = win.report_mask()
    sups = {k: float(np.nanmax(np.abs(np.where(m, v, np.nan)))) for k, v in residuals.items()}
    scales = {
        "eqa": float(np.nanmax(np.abs(np.where(m, lapF, np.nan)))) + 1e-300,
        "eqb": float(np.nanmax(np.abs(np.where(m, lapA, np.nan)))) + 1e-300,
        "eqc": float(np.nanmax(np.abs(np.where(m, lapPi, np.nan)))) + 1e-300,
        "eqd": float(np.nanmax(np.abs(np.where(m, rh_d, np.nan)))) + 1e-300,
        "eqe": float(np.nanmax(np.abs(np.where(m, rh_e, np.nan)))) + 1e-300,
    }

    spread = None
    if win.u is not None and win.rho is not None and np.any(win.rho > 0):
        Gfac = 0.5 * np.log(Bq)
        first = win.u / c**2 + Gfac
        sel = (win.rho > 0) & m
        if np.any(sel):
            spread = float(np.nanmax(first[sel]) - np.nanmin(first[sel]))

    bands = None
    if bands_R0:
        R0 = bands_R0
        rr = np.hypot(win.W, win.Z)
        bands = {}
        for name, sel in (
            ("interior", rr < R0),
            ("transition", (rr >= R0) & (rr <= 2 * R0)),
            ("exterior", rr > 2 * R0),
        ):
            mm = m & sel
            if np.any(mm):
                bands[name] = {
                    k: float(np.nanmax(np.abs(np.where(mm, v, np.nan))))
                    for k, v in residuals.items()
                }
    return ResidualReport(residuals, sups, scales, margin_B, margin_C, spread, bands)


def ktilde_fields(win):
    """The K gradient (K1t, K3t) from the window's own finite differences of
    (F, A, Pi); only the pointwise algebra, `metric.ktilde`, is shared with
    the solver."""
    F, A, Pi = win.F, win.A, win.Pi
    K1t, K3t, _, _ = ktilde(
        Pi, d1w(win, Pi), d1z(win, Pi), d2w(win, Pi), d2z(win, Pi), d1w1z(win, Pi, parity=1),
        d1w(win, F), d1z(win, F), d1w(win, A), d1z(win, A), np.exp(4 * F), 1.0 / _off_axis(Pi),
    )
    return K1t, K3t


def consistency_K(win, params):
    """L = d(K1t)/dz - d(K3t)/dvarpi plus the mixed-identity residual.

    The identity ties L to the K-mismatch through the pressure term; both
    vanish on vacuum and on converged states up to discretization.
    """
    G_g, c = params.G_grav, params.c_light
    K1t, K3t = ktilde_fields(win)
    L = d1z(win, K1t, parity=1) - d1w(win, K3t)
    rho, P, eps = _fluid_terms(win, params)
    P1, P3 = d1w(win, win.Pi), d1z(win, win.Pi)
    K1, K3 = d1w(win, win.K), d1z(win, win.K)
    emK = np.exp(2 * (-win.F + win.K))
    rhs = (
        (16 * np.pi * G_g / c**4)
        * emK
        * P
        * win.Pi
        / (P1**2 + P3**2)
        * ((K1 - K1t) * P3 - (K3 - K3t) * P1)
    )
    identity_resid = L - rhs
    m = win.report_mask(erode=2)
    return {
        "L": L,
        "K1t": K1t,
        "K3t": K3t,
        "sup_L": float(np.nanmax(np.abs(np.where(m, L, np.nan)))),
        "identity_resid": identity_resid,
        "sup_identity": float(np.nanmax(np.abs(np.where(m, identity_resid, np.nan)))),
    }


def ricci_cross_check(win, params):
    """Residuals of the six raw Einstein equations in Lewis variables."""
    G_g, c = params.G_grav, params.c_light
    rho, P, eps = _fluid_terms(win, params)
    Om = win.Omega
    f, k, l, m_exp = lewis_from_lanczos(win.F, win.A, win.Pi, win.K)
    Pi = win.Pi

    f1, f3 = d1w(win, f), d1z(win, f)
    k1, k3 = d1w(win, k), d1z(win, k)
    l1, l3 = d1w(win, l), d1z(win, l)
    m1, m3 = d1w(win, m_exp), d1z(win, m_exp)
    P1, P3 = d1w(win, Pi), d1z(win, Pi)
    em = np.exp(m_exp)
    Sig = f1 * l1 + f3 * l3 + k1**2 + k3**2

    Pi_nz = _off_axis(Pi)

    def divPi(q1, q3):
        return d1w(win, q1 / Pi_nz) + d1z(win, q3 / Pi_nz, parity=-1)

    R00 = (Pi / (2 * em)) * (divPi(f1, f3) + f * Sig / Pi_nz**3)
    R02 = -(Pi / (2 * em)) * (divPi(k1, k3) + k * Sig / Pi_nz**3)
    R22 = -(Pi / (2 * em)) * (divPi(l1, l3) + l * Sig / Pi_nz**3)
    lap_m = d2w(win, m_exp) + d2z(win, m_exp)
    R11 = 0.5 * (
        -lap_m
        - 2 * d2w(win, Pi) / Pi_nz
        + (m1 * P1 - m3 * P3) / Pi_nz
        + (f1 * l1 + k1**2) / Pi_nz**2
    )
    R33 = 0.5 * (
        -lap_m
        - 2 * d2z(win, Pi) / Pi_nz
        - (m1 * P1 - m3 * P3) / Pi_nz
        + (f3 * l3 + k3**2) / Pi_nz**2
    )
    R13 = 0.5 * (
        -2 * d1w1z(win, Pi, parity=1) / Pi_nz
        + (m3 * P1 + m1 * P3) / Pi_nz
        + (f1 * l3 + l1 * f3 + 2 * k1 * k3) / (2 * Pi_nz**2)
    )

    e2G = f - 2 * (Om / c) * k - (Om / c) ** 2 * l
    if np.any(np.where(win.report_mask(), e2G, 1.0) <= 0):
        raise RegimeError("Lewis normalization quantity nonpositive")
    em2G = 1.0 / e2G
    S00 = 0.5 * (eps + P) * em2G * ((f - (Om / c) * k) ** 2 + (Om / c) ** 2 * Pi**2) + P * f
    S02 = 0.5 * (eps + P) * em2G * (-k * f - 2 * (Om / c) * f * l + (Om / c) ** 2 * k * l) - P * k
    S22 = 0.5 * (eps + P) * em2G * (Pi**2 + (k + (Om / c) * l) ** 2) - P * l
    S11 = 0.5 * em * (eps - P)

    pref = 8 * np.pi * G_g / c**4
    residuals = {
        "R00": R00 - pref * S00,
        "R02": R02 - pref * S02,
        "R22": R22 - pref * S22,
        "R11": R11 - pref * S11,
        "R33": R33 - pref * S11,
        "R13": R13,
    }
    m = win.report_mask(erode=2)
    sups = {kk: float(np.nanmax(np.abs(np.where(m, v, np.nan)))) for kk, v in residuals.items()}
    # Sigma decomposition identity (algebraic, sanity of the Lewis map)
    F1, F3 = d1w(win, win.F), d1z(win, win.F)
    A1, A3 = d1w(win, win.A), d1z(win, win.A)
    sig_id = Sig - (
        np.exp(4 * win.F) * (A1**2 + A3**2)
        - 4 * Pi**2 * (F1**2 + F3**2)
        + 4 * Pi * (P1 * F1 + P3 * F3)
    )
    sups["sigma_identity"] = float(np.nanmax(np.abs(np.where(m, sig_id, np.nan))))
    scale = float(np.nanmax(np.abs(np.where(m, Sig, np.nan)))) + 1e-300
    return {"residuals": residuals, "sups": sups, "sigma_scale": scale}


# -- far-field fits ------------------------------------------------------------


FIT_N_RADII, FIT_THETAS = 14, (0.2, 0.75, 1.1, 1.45)  # far-field samples: radii, directions


def asymptotic_fit(eval_fns, params, r_window):
    """Weighted least-squares far-field fits returning M, J, gauge offset and
    log-log residual orders for the four flatness statements.  Each field is
    sampled once on the (theta, r) grid and fitted direction by direction."""
    G_g, c = params.G_grav, params.c_light
    radii = np.geomspace(r_window[0], r_window[1], FIT_N_RADII)
    th = np.asarray(FIT_THETAS, dtype=float)[:, None]
    w, z = radii * np.sin(th), radii * np.cos(th)

    def order(resid):
        """Log-log decay rate of |resid| averaged over the directions."""
        return -refinement_order(radii, np.maximum(np.mean(np.abs(resid), axis=0), 1e-300))

    # F = f0 + f1/r + f2/r^2 and A/varpi^2 = 2 G J/(c^3 r^3) + O(1/r^4)
    F, A = eval_fns["F"](w, z), eval_fns["A"](w, z) / w**2
    design_F = np.column_stack([np.ones_like(radii), 1.0 / radii, 1.0 / radii**2])
    design_A = np.column_stack([1.0 / radii**3, 1.0 / radii**4])
    f0, f1, _ = np.array([np.linalg.lstsq(design_F, f, rcond=None)[0] for f in F]).T
    cJ = np.array([np.linalg.lstsq(design_A, a, rcond=None)[0][0] for a in A])
    orders = {"F": order(F - f0[:, None] - f1[:, None] / radii)}
    if abs(np.mean(cJ)) / r_window[0] ** 3 < 1e-250:
        J, orders["A"] = 0.0, None
    else:
        J = float(np.mean(cJ)) * c**3 / (2.0 * G_g)
        orders["A"] = order(A - cJ[:, None] / radii**3)

    # Pi/varpi - 1 = O(1/r^2) and e^K - 1 = O(1/r^2); identically flat
    # quantities (machine-level, e.g. Kerr's Pi = varpi) report None
    for name, y in (("Pi", eval_fns["Pi"](w, z) / w - 1.0), ("K", np.exp(eval_fns["K"](w, z)) - 1.0)):
        orders[name] = None if np.max(np.mean(np.abs(y), axis=0)) < 1e-13 else order(y)

    return {
        "M": -float(np.mean(f1)) * c**2 / G_g,
        "J": J,
        "gauge_offset": float(np.mean(f0)),
        "orders": orders,
        "radii": (float(r_window[0]), float(r_window[1])),
    }


# -- window builders --------------------------------------------------------------


KERR_MARGIN, KERR_MEASURE_MARGIN = 2.6, 4.5  # Kerr window and measurement masks, in m


def kerr_window(kp, L, N):
    """Kerr potentials sampled on [0, L]^2 with the near-horizon region
    (rbar <= KERR_MARGIN m) masked out."""
    xs = np.linspace(0.0, L, N)
    W, Z = np.meshgrid(xs, xs, indexing="ij")
    pot = kerr_lanczos(kp, W, Z)
    mask = pot["rbar"] > KERR_MARGIN * kp.m_geom
    return Window(
        h=xs[1] - xs[0],
        F=pot["F"],
        A=pot["A"],
        Pi=pot["Pi"],
        K=pot["K"],
        mask=mask,
    )


def flat_window(L, N):
    xs = np.linspace(0.0, L, N)
    W, Z = np.meshgrid(xs, xs, indexing="ij")
    zero = np.zeros_like(W)
    return Window(h=xs[1] - xs[0], F=zero, A=zero.copy(), Pi=W.copy(), K=zero.copy())


def refinement_order(hs, sups):
    """Least-squares slope of log(sup) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    sups = np.asarray(sups, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(sups), 1)[0])


# -- exact-reference measurements ------------------------------------------------


def kerr_mask(kp, win):
    """Where Kerr residuals are measured: the twice-eroded report mask, away
    from the horizon (rbar > KERR_MEASURE_MARGIN m) and the axis (varpi >= 0.8 m).
    A window too small to hold such a node is a ConfigError."""
    rbar = kerr_lanczos(kp, win.W, win.Z)["rbar"]
    meas = win.report_mask(erode=2) & (rbar > KERR_MEASURE_MARGIN * kp.m_geom) & (win.W >= 0.8 * kp.m_geom)
    if not meas.any():
        raise ConfigError(f"kerr.window: no node of [0, {win.W[-1, 0]:g}]^2 at {win.F.shape[0]} points "
                          f"lies in its report mask with rbar > {KERR_MEASURE_MARGIN:g} m and varpi >= 0.8 m")
    return meas


def kerr_refinement(kp, params, window, levels):
    """Sups over kerr_mask of the 5 reduced residuals, the 6 Ricci residuals
    and L on [0, window m]^2 at each grid level N: {"h": [...], name: [...]}."""
    out = {"h": []}
    for N in levels:
        win = kerr_window(kp, window * kp.m_geom, N)
        meas = kerr_mask(kp, win)
        out["h"].append(win.h)
        for name, f in {**residual_reduced_system(win, params).residuals,
                        **ricci_cross_check(win, params)["residuals"],
                        "L": consistency_K(win, params)["L"]}.items():
            out.setdefault(name, []).append(float(np.nanmax(np.abs(np.where(meas, f, np.nan)))) + 1e-300)
    return out


def refinement_orders(levels):
    """Each residual's refinement_order, or None if identically satisfied (below 1e-11 at every level)."""
    return {name: None if max(sups) < 1e-11 else refinement_order(levels["h"], sups)
            for name, sups in levels.items() if name != "h"}


def tov_gap(res, tov, classical):
    """Sup gaps of a static star against TOV on criterion 10's rays, 60 radii
    in [0.1, 1.8] R0 along theta = 0.3, 0.8, 1.3: the total F - F_TOV, the
    Newtonian layer Phi_N - Phi_LE, with Phi_LE the exact Lane-Emden
    potential, and the post-Newtonian (F - Phi_N/c^2) - (F_TOV - Phi_LE/c^2);
    sup_F and sup_Phi are the scales |F_TOV| and |Phi_LE|."""
    p, c2 = res.params, res.params.c_light**2
    rr = np.linspace(0.1 * p.R0, 1.8 * p.R0, 60)
    th = np.array([[0.3], [0.8], [1.3]])
    w, z = rr * np.sin(th), rr * np.cos(th)
    Ft = tov.F_isotropic(rr)
    Phi_LE = -p.u_O * (classical.theta(rr / p.a_len) + classical.mu1 / classical.xi1)
    Fs = res.metric.F.eval(w, z) - res.metric.F.offset
    Ps = res.newtonian.Phi_N.eval(w, z) - res.newtonian.Phi_N.offset
    return {
        "total": float(np.max(np.abs(Fs - Ft))),
        "newtonian": float(np.max(np.abs(Ps - Phi_LE))),
        "post_newtonian": float(np.max(np.abs((Fs - Ps / c2) - (Ft - Phi_LE / c2)))),
        "sup_F": float(np.max(np.abs(Ft))),
        "sup_Phi": float(np.max(np.abs(Phi_LE))),
    }
