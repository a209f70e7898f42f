"""The post-Newtonian fixed-point scheme on the whole space.

Unknowns (decay indices in parentheses): W (3), Y (5), X (4), V (4), and the
enthalpy correction w, tied to the metric through

    F = Phi_N/c^2 - W/c^4,  A = varpi^2 Y/c^3,  Pi = varpi (1 + X/c^4),
    K = V/c^4,              u = u_N + w/c^2.

The inner map solves the (W, Y, X) integral equations at frozen V (Y first,
then W sees the fresh Y); the outer map rebuilds V by the line quadrature of
the K-gradient fields.  All remainder terms are evaluated from the full
nonlinear expressions minus their displayed leading parts, so the converged
state satisfies the exact reduced system up to discretization, not up to a
PN truncation order.

Normalizations: W(O) = w(O) = 0 (central enthalpy is exactly u_O), V is
pinned by V -> 0 at infinity.  The W-normalization leaves a constant in F at
infinity (a pure time-gauge offset, reported and removed in far-field fits).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .cutoff import chi
from .errors import ConvergenceError, DomainError, RegimeError, SeriesDomainError
from .fields import (
    AxiField,
    AxiGrid,
    compact_map,
    div_varpi,
    exp_of,
    field_expm1,
    field_log1p,
)
from .greens import GreenOps
from .lane_emden import solve_classical, solve_distorted
from .metric import MetricLanczos, assemble, mul_varpi


@dataclass(frozen=True)
class StarParams:
    """Physical constants plus the derived model scales.

    a_len and b_rot follow the length/rotation parametrization
    a = (4 pi G)^(-1/2) (A g/(g-1))^(1/(2(g-1))) u_O^(-(2-g)/(2(g-1))),
    b = (4 pi G)^(-1) (A g/(g-1))^(1/(g-1)) Omega_O^2 u_O^(-1/(g-1)),
    so Omega_O^2 = b u_O / a^2.
    """

    gamma: float
    A_const: float
    c_light: float
    G_grav: float
    u_O: float
    Omega_O: float
    xi1: float
    mu1: float

    @classmethod
    def build(cls, gamma, A_const, c_light, G_grav, u_O, Omega_O=None, b_rot=None,
              classical=None):
        if (Omega_O is None) == (b_rot is None):
            raise DomainError("specify exactly one of Omega_O and b_rot")
        cl = classical if classical is not None else solve_classical(1.0 / (gamma - 1.0))
        if Omega_O is None:
            kfac = (A_const * gamma / (gamma - 1.0)) ** (1.0 / (gamma - 1.0))
            Omega_O = math.sqrt(4.0 * math.pi * G_grav * b_rot * u_O ** (1.0 / (gamma - 1.0)) / kfac)
        return cls(gamma, A_const, c_light, G_grav, u_O, Omega_O, cl.xi1, cl.mu1)

    @property
    def nu(self):
        return 1.0 / (self.gamma - 1.0)

    @property
    def a_len(self):
        kfac = (self.A_const * self.gamma / (self.gamma - 1.0)) ** (1.0 / (2.0 * (self.gamma - 1.0)))
        return kfac * self.u_O ** (-(2.0 - self.gamma) / (2.0 * (self.gamma - 1.0))) / math.sqrt(
            4.0 * math.pi * self.G_grav
        )

    @property
    def b_rot(self):
        kfac = (self.A_const * self.gamma / (self.gamma - 1.0)) ** (1.0 / (self.gamma - 1.0))
        return kfac * self.Omega_O**2 * self.u_O ** (-1.0 / (self.gamma - 1.0)) / (
            4.0 * math.pi * self.G_grav
        )

    @property
    def rho_NO(self):
        return ((self.gamma - 1.0) / (self.A_const * self.gamma) * self.u_O) ** self.nu

    @property
    def r1(self):
        return self.a_len * self.xi1

    @property
    def R0(self):
        return 4.0 * self.r1

    @property
    def Xi0(self):
        return 4.0 * self.xi1

    @property
    def epsilon(self):
        return self.u_O / self.c_light**2

    def regime_flags(self, beta0=0.1, delta0=0.01):
        """(D0)-(D2) style admissibility flags; runs proceed with warnings."""
        return {
            "D0_gamma_range": 6.0 / 5.0 < self.gamma < 2.0,
            "D1_b_small": self.b_rot <= beta0,
            "D2_epsilon_small": self.epsilon <= delta0,
            "b_rot": self.b_rot,
            "epsilon": self.epsilon,
        }


def omega_profile(params, r):
    """Rigid angular velocity cut off smoothly outside R0."""
    return params.Omega_O * chi(np.asarray(r, dtype=float) / params.R0)


@dataclass
class NewtonianFields:
    u_N: AxiField
    rho_N: AxiField
    P_N: AxiField
    Phi_N: AxiField
    ratio: AxiField  # Df_N^rho(u_N) = nu k_rho (u_N v 0)^(nu-1), the removable ratio
    Phi_O: float
    M_N: float
    iterations: int
    residual: float


def newtonian_fields(dle, params, grid, ops, eos, tol=1e-12, max_iter=200):
    """Self-consistent Newtonian fields on the production grid.

    The spherical-grid distorted profile initializes u_N; a damped sweep of
    u_N = Omega^2 varpi^2/2 - (Phi_N - Phi_N(O)) + u_O with Phi_N from the
    ring-kernel inverse then locks density, enthalpy, and potential together
    at the grid level, which is what the first-integral check measures.
    """
    a = params.a_len
    u_inf = params.u_O * dle.Theta_inf_const

    def u_init(w, z):
        r = np.hypot(w, z)
        zeta = np.where(r > 0, z / np.where(r > 0, r, 1.0), 0.0)
        return params.u_O * dle.theta_at(r / a, zeta)

    u_N = AxiField.from_function(grid, u_init, 3, offset=u_inf)
    om_w2_half = AxiField.from_function(
        grid, lambda w, z: 0.5 * omega_profile(params, np.hypot(w, z)) ** 2 * w**2, 3
    )

    G4pi = -4.0 * math.pi * params.G_grav
    resid = np.inf
    for it in range(1, max_iter + 1):
        rho_N = compact_map(eos.f_N_rho, u_N, n_index=3)
        Phi_N = ops.k_n(rho_N, 3) * G4pi
        Phi_O = Phi_N.int_vals[0, 0]
        u_new = om_w2_half - Phi_N + (Phi_O + params.u_O)
        resid = float(np.max(np.abs(u_new.int_total() - u_N.int_total())))
        u_N = u_new
        if resid < tol * params.u_O:
            break
    else:
        raise ConvergenceError("Newtonian consistency sweep stalled", residual=resid)

    rho_N = compact_map(eos.f_N_rho, u_N, n_index=3)
    P_N = compact_map(eos.f_N_P, u_N, n_index=4)
    Phi_N = ops.k_n(rho_N, 3) * G4pi
    ratio = compact_map(eos.df_N_rho, u_N, n_index=3)
    M_N = grid.h_int**3 * ops.table_int(3).total_mass(rho_N.int_vals)
    return NewtonianFields(
        u_N=u_N,
        rho_N=rho_N,
        P_N=P_N,
        Phi_N=Phi_N,
        ratio=ratio,
        Phi_O=float(Phi_N.int_vals[0, 0]),
        M_N=M_N,
        iterations=it,
        residual=resid,
    )


@dataclass
class PotentialSet:
    W: AxiField
    Y: AxiField
    X: AxiField
    V: AxiField
    w: AxiField
    Z: AxiField = None
    C_inf_V: float = 0.0


def _log_series_tail(z):
    """sum_{k>=2} (-1)^(k+1) z^k / k = log1p(z) - z, cancellation-free."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.1
    out = np.empty_like(z)
    zs = np.where(small, z, 0.0)
    acc = np.zeros_like(zs)
    # Horner for sum_{k=2}^{40}: converges to machine precision for |z|<0.1
    for k in range(40, 1, -1):
        acc = zs * (((-1.0) ** (k + 1)) / k + acc)
    acc = acc * zs
    out[small] = acc[small]
    zl = np.where(~small, z, 0.0)
    out[~small] = np.log1p(zl[~small]) - zl[~small]
    return out


@dataclass
class SolverOptions:
    n_interior: int = 65
    n_exterior: int = 49
    tol_inner: float = 1e-10
    tol_outer: float = 1e-9
    max_inner: int = 40
    max_outer: int = 30
    damping: float = 1.0
    newtonian_tol: float = 1e-12
    le_radial: int = 1025
    le_zeta: int = 48
    le_lmax: int = 12
    le_tol: float = 1e-11
    beta0: float = 0.1
    delta0: float = 0.01
    alpha_holder: float = 0.25
    ball_M: float = 50.0
    fit_window: tuple = (5.0, 18.0)  # in units of R0


class PNSolver:
    """One star, one grid, one solver instance (instances are independent)."""

    def __init__(self, params, eos, options=None, dle=None, classical=None):
        self.params = params
        self.eos = eos
        self.opts = options or SolverOptions()
        self.classical = classical if classical is not None else solve_classical(params.nu)
        if dle is None:
            dle = solve_distorted(
                params.nu,
                params.b_rot,
                n_radial=self.opts.le_radial,
                n_zeta=self.opts.le_zeta,
                lmax=self.opts.le_lmax,
                tol=self.opts.le_tol,
                classical=self.classical,
            )
        self.dle = dle
        self.grid = AxiGrid(params.R0, self.opts.n_interior, self.opts.n_exterior)
        self.ops = GreenOps(self.grid)
        self.nf = newtonian_fields(
            dle, params, self.grid, self.ops, eos, tol=self.opts.newtonian_tol
        )
        self.flags = params.regime_flags(self.opts.beta0, self.opts.delta0)

        g = self.grid
        self.om = AxiField.from_function(
            g, lambda w, z: omega_profile(params, np.hypot(w, z)), 3
        )
        self.om_w = AxiField.from_function(
            g, lambda w, z: omega_profile(params, np.hypot(w, z)) * w, 3, parity=(-1, 1)
        )
        self.om_w2 = AxiField.from_function(
            g, lambda w, z: omega_profile(params, np.hypot(w, z)) * w**2, 3
        )
        coef = self.nf.ratio * (4.0 * math.pi * params.G_grav)
        self.lop = self.ops.make_l_op(coef)
        self._g_fields = None
        self.history = {"inner": [], "outer": [], "newtonian": self.nf.iterations}

    # -- sources ---------------------------------------------------------------

    def sources(self):
        """Leading interior sources of the three elliptic equations."""
        if self._g_fields is not None:
            return self._g_fields
        p = self.params
        Gg = p.G_grav
        nf = self.nf
        om2w2 = self.om_w * self.om_w  # (Omega varpi)^2, compact
        ga = (
            nf.ratio * (om2w2 * nf.Phi_N * 2.0 - om2w2 * om2w2 * 0.25) * (-4.0 * math.pi * Gg)
            + nf.rho_N * nf.u_N * (4.0 * math.pi * Gg * _upsilon1(self.eos))
            - (nf.rho_N * nf.Phi_N + nf.rho_N * om2w2 * 2.0) * (8.0 * math.pi * Gg)
            + nf.P_N * (12.0 * math.pi * Gg)
        ).reindex(3)
        gb = (self.om * nf.rho_N * (16.0 * math.pi * Gg)).reindex(5, fill_origin=False)
        gc = (nf.P_N * (-16.0 * math.pi * Gg)).reindex(4)
        self._g_fields = (ga, gb, gc)
        return self._g_fields

    # -- the w <-> (W, Y, X) algebra ---------------------------------------------

    def w_from_WYX(self, W, Y, X):
        """Enthalpy correction and the auxiliary Z per the log expansion."""
        p = self.params
        c = p.c_light
        psi = self.nf.Phi_N - W * (1.0 / c**2)  # c^2 F
        lnE = field_log1p(X * (1.0 / c**4)) * 2.0 - psi * (4.0 / c**2)
        Em1 = field_expm1(lnE)  # E - 1 with E = e^{-4 psi/c^2}(1+X/c^4)^2

        om_w2_Y = (self.om_w2 * Y).reindex(3)  # Omega varpi^2 Y, compact
        om2w2 = self.om_w * self.om_w
        # Z = 2 Om w^2 Y/c^2 + (Om w^2 Y)^2/c^6 - (Om w)^2 E
        Z = (
            om_w2_Y * (2.0 / c**2)
            + om_w2_Y * om_w2_Y * (1.0 / c**6)
            - om2w2 * (Em1 + 1.0)
        ).reindex(3)
        z_sup = float(np.max(np.abs(Z.int_total()))) / c**2
        if z_sup >= 1.0:
            raise SeriesDomainError(f"|Z|/c^2 reaches {z_sup:.3f}; log series invalid")

        series = compact_map(_log_series_tail, Z * (1.0 / c**2), n_index=3)
        w = (
            W
            + om2w2 * Em1 * (0.5 * c**2)
            - om_w2_Y
            - om_w2_Y * om_w2_Y * (0.5 / c**4)
            - series * (0.5 * c**4)
        ).reindex(3)
        return w, Z

    def q0_field(self, w, W, Y):
        """Auxiliary Q0 = c^2 [w - W + 2 (Om w)^2 Phi_N + Om w^2 Y - (Om w)^4/4]."""
        c = self.params.c_light
        om2w2 = self.om_w * self.om_w
        om_w2_Y = (self.om_w2 * Y).reindex(3)
        return (
            (w - W + om2w2 * self.nf.Phi_N * 2.0 + om_w2_Y - om2w2 * om2w2 * 0.25) * c**2
        ).reindex(3)

    # -- remainders ----------------------------------------------------------------

    def state_fluid(self, w):
        """rho, P, u for the current enthalpy correction."""
        c = self.params.c_light
        u = (self.nf.u_N + w * (1.0 / c**2)).reindex(3)
        # support control (D3): no matter outside 3 r1
        rr = self.grid.RI
        outside = rr >= 3.0 * self.params.r1
        if np.any(u.int_total()[outside] > 0.0):
            raise RegimeError("fluid support escaped r < 3 r1")
        rho = compact_map(lambda uu: self.eos.density_from_enthalpy(uu), u, n_index=3)
        P = compact_map(lambda uu: self.eos.pressure_from_enthalpy(uu), u, n_index=4)
        return rho, P, u

    def remainders_abc(self, W, Y, X, V, w, rho, P):
        p = self.params
        c = p.c_light
        Gg = p.G_grav
        nf = self.nf
        psi = nf.Phi_N - W * (1.0 / c**2)
        X4 = X * (1.0 / c**4)
        inv1 = 1.0 / (X4 + 1.0)

        X1 = X.derivative("w")
        X3 = X.derivative("z")
        psi1 = psi.derivative("w")
        psi3 = psi.derivative("z")
        Y1 = Y.derivative("w")
        Y3 = Y.derivative("z")
        twoY_wY1 = (Y * 2.0 + mul_varpi(Y1, 4)).reindex(4)
        wY3 = mul_varpi(Y3, 4)

        e4F = exp_of(psi, 4.0 / c**2)
        emFK = exp_of(V * (1.0 / c**4) - psi * (1.0 / c**2), 2.0)

        # Q1 = e^{-4F} (Om w)^2 (1+X/c^4)^2 (1 + Om w^2 Y/c^4)^{-2}
        om2w2 = self.om_w * self.om_w
        om_w2_Y4 = (self.om_w2 * Y).reindex(3) * (1.0 / c**4)
        inv_omY = 1.0 / (om_w2_Y4 + 1.0)
        Q1 = (
            exp_of(psi, -4.0 / c**2) * om2w2 * (X4 + 1.0) * (X4 + 1.0) * inv_omY * inv_omY
        ).reindex(3)
        q = Q1 * (1.0 / c**2)
        inv_q = 1.0 / ((q * -1.0) + 1.0)

        H = compact_map(self.eos.h_rho, nf.u_N, w, n_index=3)
        Q0 = self.q0_field(w, W, Y)

        # Q5 from the exact identity: LHS5 = -e^{2(-F+K)}[c^2 rho (1+q)/(1-q)
        # + P (3-q)/(1-q)] + c^2 rho_N
        lhs5 = (
            emFK * (rho * ((q + 1.0) * inv_q) * c**2 + P * ((3.0 - q) * inv_q)) * -1.0
            + nf.rho_N * c**2
        ).reindex(3)
        lead5 = (
            nf.ratio * w * -1.0
            - nf.rho_N * nf.u_N * _upsilon1(self.eos)
            + (nf.rho_N * nf.Phi_N + nf.rho_N * om2w2 * 2.0) * 2.0
            - nf.P_N * 3.0
            - H * c**2
        ).reindex(3)
        Q5 = (lhs5 - lead5) * c**2

        R_a = (
            (X1 * psi1 + X3 * psi3) * inv1 * (-1.0 / c**2)
            - e4F * inv1 * inv1 * (twoY_wY1 * twoY_wY1 + wY3 * wY3) * (0.5 / c**2)
            + nf.ratio * Q0 * (4.0 * math.pi * Gg / c**2)
            + H * (4.0 * math.pi * Gg * c**2)
            - Q5 * (4.0 * math.pi * Gg / c**2)
        ).reindex(3)

        # Q6 from: (1/c^2) e^{-6F+2K}(c^2 rho + P)(1-q)^{-1}(1+X/c^4)^2
        # (1+Om w^2 Y/c^4)^{-1} = rho_N + Q6/c^2
        em6F2K = exp_of(V * (1.0 / c**4) * 2.0 - psi * (6.0 / c**2), 1.0)
        lhs6 = (
            em6F2K
            * (rho * c**2 + P)
            * inv_q
            * (X4 + 1.0)
            * (X4 + 1.0)
            * inv_omY
            * (1.0 / c**2)
        ).reindex(3)
        Q6 = (lhs6 - nf.rho_N) * c**2

        R_b = (
            (X1 * Y1 + X3 * Y3 + div_varpi(X1) * Y * 2.0) * inv1 * (-1.0 / c**4)
            + (psi1 * Y1 + psi3 * Y3 + div_varpi(psi1) * Y * 2.0) * (4.0 / c**2)
            + self.om * Q6 * (16.0 * math.pi * Gg / c**2)
        ).reindex(5, fill_origin=False)

        R_c = ((emFK * P * (X4 + 1.0) - nf.P_N) * (-16.0 * math.pi * Gg)).reindex(4)

        diag = {"Q0": Q0, "Q1": Q1, "Q5": Q5, "Q6": Q6, "H_rho": H}
        return R_a, R_b, R_c, diag

    def expansion_residuals(self, W, Y, X, V, w, rho, P):
        """Q2..Q4: residual diagnostics of the density and source expansions
        (the iteration does not use them)."""
        c = self.params.c_light
        nf = self.nf
        diag = self.remainders_abc(W, Y, X, V, w, rho, P)[3]
        Q1, H = diag["Q1"], diag["H_rho"]
        q = Q1 * (1.0 / c**2)
        inv_q = 1.0 / ((q * -1.0) + 1.0)
        psi = nf.Phi_N - W * (1.0 / c**2)
        emFK = exp_of(V * (1.0 / c**4) - psi * (1.0 / c**2), 2.0)
        om2w2 = self.om_w * self.om_w
        Q2 = (
            (rho - nf.rho_N)
            - (nf.ratio * w + nf.rho_N * nf.u_N * _upsilon1(self.eos)) * (1.0 / c**2)
            - H
        ) * c**4
        q2_exact = (rho * (emFK - (q + 1.0) * inv_q) * -1.0) * c**2
        Q3 = (q2_exact - (nf.rho_N * nf.Phi_N + nf.rho_N * Q1 * 2.0) * 2.0) * c**2
        Q4 = (q2_exact - (nf.rho_N * nf.Phi_N + nf.rho_N * om2w2 * 2.0) * 2.0) * c**2
        return {"Q2": Q2, "Q3": Q3, "Q4": Q4}

    def x_hat_arrays(self, X):
        """Closed-form correction factor of the K-gradient inversion."""
        c4 = self.params.c_light**4
        g = self.grid
        X1 = X.derivative("w")
        X3 = X.derivative("z")
        t1 = 1.0 + X.int_total() / c4 + g.WI * X1.int_vals / c4
        t3 = g.WI * X3.int_vals / c4
        return c4 * (1.0 / (t1**2 + t3**2) - 1.0)

    def remainders_de(self, W, Y, X):
        """Exact residuals of the two K-gradient displays, plus diagnostics.

        R_d and R_e are the full right sides minus their leading parts, taken
        from the same K-tilde evaluation the outer map integrates, so no
        series transcription enters.
        """
        p = self.params
        c = p.c_light
        g = self.grid
        K1t, K3t, _ = self.ktilde_arrays(W, Y, X)
        Phi = self.nf.Phi_N
        P1 = Phi.derivative("w")
        P3 = Phi.derivative("z")
        X1 = X.derivative("w")
        X3 = X.derivative("z")
        X11 = X1.derivative("w")
        X33 = X3.derivative("z")
        X13 = X1.derivative("z")
        lead_d = (
            0.5 * (2.0 * X1.int_vals + g.WI * X11.int_vals - g.WI * X33.int_vals)
            + g.WI * (P1.int_vals**2 - P3.int_vals**2)
        )
        lead_e = (
            X3.int_vals
            + g.WI * X13.int_vals
            + 2.0 * g.WI * P1.int_vals * P3.int_vals
        )
        R_d = c**4 * K1t - lead_d
        R_e = c**4 * K3t - lead_e
        xhat = self.x_hat_arrays(X)
        Q7 = (R_d - xhat / c**4 * lead_d) / (1.0 + xhat / c**4) * c**2
        Q8 = (R_e - xhat / c**4 * lead_e) / (1.0 + xhat / c**4) * c**2
        return {"R_d": R_d, "R_e": R_e, "Q7": Q7, "Q8": Q8, "X_hat": xhat,
                "lead_d": lead_d, "lead_e": lead_e}

    # -- norms and the inner fixed point ---------------------------------------------

    def _norm_c1(self, fld):
        g = self.grid
        a = self.params.a_len
        sup = float(np.max(np.abs(fld.int_vals)))
        d1 = np.abs(np.diff(fld.int_vals, axis=0)).max() / g.h_int
        d3 = np.abs(np.diff(fld.int_vals, axis=1)).max() / g.h_int
        sup_star = float(np.max(np.abs(fld.star_vals)))
        return max(sup, a * d1, a * d3, sup_star)

    def blended_norm(self, dW, dY, dX):
        p = self.params
        wY = p.u_O / abs(p.Omega_O) if p.Omega_O != 0.0 else 0.0
        return max(self._norm_c1(dW), wY * self._norm_c1(dY), self._norm_c1(dX))

    def inner_fixed_point(self, V, state=None, tol=None, max_iter=None):
        """The map S(V): unique (W, Y, X) at frozen V."""
        p = self.params
        tol = self.opts.tol_inner if tol is None else tol
        max_iter = self.opts.max_inner if max_iter is None else max_iter
        ga, gb, gc = self.sources()
        if state is None:
            W = AxiField.zeros(self.grid, 3)
            Y = AxiField.zeros(self.grid, 5)
            X = AxiField.zeros(self.grid, 4)
        else:
            W, Y, X = state
        scale = max(p.u_O**2, 1e-300)
        changes = []
        for it in range(1, max_iter + 1):
            w, _ = self.w_from_WYX(W, Y, X)
            rho, P, u = self.state_fluid(w)
            R_a, R_b, R_c, _ = self.remainders_abc(W, Y, X, V, w, rho, P)
            Y_new = self.ops.k_n_global((gb + R_b).reindex(5, fill_origin=False), 5)
            X_new = self.ops.k_n_global((gc + R_c).reindex(4), 4)
            coupling = (self.nf.ratio * self.om_w2 * Y_new).reindex(3) * (
                -4.0 * math.pi * p.G_grav
            )
            W_new = self.lop.solve((ga + coupling + R_a).reindex(3))
            delta = self.blended_norm(W_new - W, Y_new - Y, X_new - X)
            om = self.opts.damping
            W = W_new if om == 1.0 else W + (W_new - W) * om
            Y = Y_new if om == 1.0 else Y + (Y_new - Y) * om
            X = X_new if om == 1.0 else X + (X_new - X) * om
            changes.append(delta)
            if delta < tol * scale:
                break
            if it > 6 and changes[-1] > changes[-4]:
                raise ConvergenceError(
                    "inner (W, Y, X) iteration stopped contracting",
                    residual=delta,
                    iterations=it,
                )
        else:
            raise ConvergenceError(
                "inner iteration exceeded max_inner", residual=changes[-1], iterations=max_iter
            )
        ratios = [b / a for a, b in zip(changes[:-1], changes[1:]) if a > 0]
        self.history["inner"].append(
            {"iterations": it, "changes": changes, "ratio": ratios[-1] if ratios else 0.0}
        )
        return W, Y, X

    # -- the K-gradient fields and the outer map ----------------------------------------

    def ktilde_arrays(self, W, Y, X):
        """K1t, K3t on the interior nodes from the assembled (F, A, Pi)."""
        p = self.params
        g = self.grid
        state = PotentialSet(W=W, Y=Y, X=X, V=AxiField.zeros(g, 4), w=None)
        met = assemble(p, state, self.nf.Phi_N)
        F = met.F
        A = met.A_pot
        F1 = F.derivative("w").int_vals
        F3 = F.derivative("z").int_vals
        A1 = A.derivative("w").int_vals
        A3 = A.derivative("z").int_vals
        Pow = met.Pi_over_w
        Pi = g.WI * Pow.int_total()
        # Pi derivatives through the product rule keep the axis exact
        Pow1 = Pow.derivative("w")
        Pow3 = Pow.derivative("z")
        Pi1 = Pow.int_total() + g.WI * Pow1.int_vals
        Pi3 = g.WI * Pow3.int_vals
        Pi11 = 2.0 * Pow1.int_vals + g.WI * Pow1.derivative("w").int_vals
        Pi33 = g.WI * Pow3.derivative("z").int_vals
        Pi13 = Pow3.int_vals + g.WI * Pow1.derivative("z").int_vals

        e4F = np.exp(4.0 * F.int_total())
        # (A1^2 - A3^2)/Pi and A1 A3/Pi vanish linearly on the axis
        with np.errstate(invalid="ignore", divide="ignore"):
            over_pi = np.where(g.WI > 0, 1.0 / np.where(g.WI > 0, Pi, 1.0), 0.0)
        rh_d = (
            0.5 * (Pi11 - Pi33)
            + Pi * (F1**2 - F3**2)
            - 0.25 * e4F * (A1**2 - A3**2) * over_pi
        )
        rh_e = Pi13 + 2.0 * Pi * F1 * F3 - 0.5 * e4F * A1 * A3 * over_pi
        denom = Pi1**2 + Pi3**2
        K1t = (Pi1 * rh_d + Pi3 * rh_e) / denom
        K3t = (-Pi3 * rh_d + Pi1 * rh_e) / denom
        K1t[0, :] = 0.0  # exact axis limit
        return K1t, K3t, met

    def v_map(self, W, Y, X):
        """The outer map T: line-quadrature V from the K-gradient fields.

        Composite trapezoid rather than Simpson: its cumulative error is
        smooth in the node index, so central differences of V reproduce the
        gradient fields at a clean O(h^2) (Simpson's alternating weights
        leave a same-order sawtooth in the first-order residuals).
        """
        g = self.grid
        c4 = self.params.c_light**4
        K1t, K3t, met = self.ktilde_arrays(W, Y, X)
        axis = cumulative_trapezoid(K3t[0, :], x=g.z, initial=0.0)
        rows = cumulative_trapezoid(K1t, x=g.w, axis=0, initial=0.0)
        V_hat = c4 * (axis[None, :] + rows)

        # far-field constant by sampling V_hat on far arcs through direct
        # quadrature of the gradient fields along (axis, then horizontal)
        far = self._far_vhat(met, radii=np.geomspace(3.0, 10.0, 8) * g.R0)
        rr = far["radii"]
        design = np.column_stack([np.ones_like(rr), rr**-2.0, rr**-3.0])
        coef, res, *_ = np.linalg.lstsq(design, far["vhat_mean"], rcond=None)
        C_inf = float(coef[0])
        # divergence guard: the far plateau must not drift on the sampled arc
        vm = far["vhat_mean"]
        drift = abs(float(vm[-1] - vm[0]))
        scale = max(abs(C_inf), float(np.max(np.abs(vm))), 1e-300)
        if drift > 0.6 * scale:
            from .errors import AsymptoticsError

            raise AsymptoticsError(
                f"far-field V drifts by {drift:.3e} against plateau {scale:.3e}"
            )

        V_int = V_hat - C_inf
        V = self._v_field_from_interior(V_int)
        return V, C_inf, far

    def _far_vhat(self, met, radii, thetas=(0.3, 0.7, 1.05, 1.4)):
        """V_hat at far points by Gauss quadrature of c^4 K1t, K3t along the
        paper's path (up the axis, then horizontally)."""
        from numpy.polynomial.legendre import leggauss

        c4 = self.params.c_light**4
        xg, wg = leggauss(24)
        # per path: two axis segments 0 -> zt, then two horizontal 0 -> wt
        ends = []
        for th in thetas:
            for r in radii:
                wt, zt = r * math.sin(th), r * math.cos(th)
                ends += [(0.0, 0.5 * zt), (0.5 * zt, zt), (0.0, 0.5 * wt), (0.5 * wt, wt)]
        a0, b0 = np.array(ends).T
        nodes = 0.5 * (b0 - a0)[:, None] * (xg + 1.0) + a0[:, None]
        on_axis = np.arange(len(ends)) % 4 < 2
        wpts = np.where(on_axis[:, None], 1e-8 * self.grid.R0, nodes)
        zpts = np.where(on_axis[:, None], nodes, np.repeat(b0[1::4], 4)[:, None])
        k1, k3 = self._ktilde_at(met, wpts.ravel(), zpts.ravel())
        integrand = np.where(on_axis[:, None], k3.reshape(nodes.shape), k1.reshape(nodes.shape))
        seg = (0.5 * (b0 - a0) * np.sum(wg * integrand, axis=1)).reshape(len(thetas), len(radii), 4)
        vals = c4 * (seg[..., 0] + seg[..., 1] + seg[..., 2] + seg[..., 3])
        return {"radii": radii, "vhat_mean": vals.mean(axis=0), "vhat_all": vals, "thetas": thetas}

    def _ktilde_at(self, met, wpts, zpts):
        """Pointwise K-gradient fields at scattered points via field evals."""
        wpts = np.asarray(wpts, dtype=float)
        zpts = np.asarray(zpts, dtype=float)
        F = met.F
        A = met.A_pot
        Pow = met.Pi_over_w
        F1 = F.derivative("w").eval(wpts, zpts)
        F3 = F.derivative("z").eval(wpts, zpts)
        A1 = A.derivative("w").eval(wpts, zpts)
        A3 = A.derivative("z").eval(wpts, zpts)
        pw = Pow.eval(wpts, zpts)
        pw1 = Pow.derivative("w").eval(wpts, zpts)
        pw3 = Pow.derivative("z").eval(wpts, zpts)
        pw11 = Pow.derivative("w").derivative("w").eval(wpts, zpts)
        pw33 = Pow.derivative("z").derivative("z").eval(wpts, zpts)
        pw13 = Pow.derivative("w").derivative("z").eval(wpts, zpts)
        Pi = wpts * pw
        Pi1 = pw + wpts * pw1
        Pi3 = wpts * pw3
        Pi11 = 2 * pw1 + wpts * pw11
        Pi33 = wpts * pw33
        Pi13 = pw3 + wpts * pw13
        e4F = np.exp(4.0 * F.eval(wpts, zpts))
        over_pi = np.where(wpts > 0, 1.0 / np.where(wpts > 0, Pi, 1.0), 0.0)
        rh_d = 0.5 * (Pi11 - Pi33) + Pi * (F1**2 - F3**2) - 0.25 * e4F * (A1**2 - A3**2) * over_pi
        rh_e = Pi13 + 2.0 * Pi * F1 * F3 - 0.5 * e4F * A1 * A3 * over_pi
        den = Pi1**2 + Pi3**2
        return (Pi1 * rh_d + Pi3 * rh_e) / den, (-Pi3 * rh_d + Pi1 * rh_e) / den

    def path_independence_gap(self, W, Y, X):
        """Quadrature along (axis, then horizontal) versus (equator, then
        vertical): agreement up to O(h^2) plus the consistency residual."""
        from scipy.integrate import cumulative_trapezoid

        g = self.grid
        K1t, K3t, _ = self.ktilde_arrays(W, Y, X)
        main = (
            cumulative_trapezoid(K3t[0, :], x=g.z, initial=0.0)[None, :]
            + cumulative_trapezoid(K1t, x=g.w, axis=0, initial=0.0)
        )
        alt = (
            cumulative_trapezoid(K1t[:, 0], x=g.w, initial=0.0)[:, None]
            + cumulative_trapezoid(K3t, x=g.z, axis=1, initial=0.0)
        )
        inner = g.RI <= 1.8 * g.R0
        gap = float(np.max(np.abs(main - alt)[inner]))
        scale = float(np.max(np.abs(main[inner]))) + 1e-300
        return gap, scale

    def v_far_values(self, W, Y, X, V_int, radii, thetas=(0.3, 0.8, 1.3)):
        """V at far points by radial continuation of the gradient fields from
        the resolved patch (start radius 1.8 R0), for far-field order fits."""
        from numpy.polynomial.legendre import leggauss

        from .fields import _bilinear

        g = self.grid
        c4 = self.params.c_light**4
        _, _, met = self.ktilde_arrays(W, Y, X)
        xg, wg = leggauss(32)
        r_start = 1.8 * g.R0
        out = np.zeros((len(thetas), len(radii)))
        for i, th in enumerate(thetas):
            sw, cz = math.sin(th), math.cos(th)
            v0 = float(_bilinear(V_int, g.h_int, np.array([r_start * sw]), np.array([r_start * cz]))[0])
            for j, r in enumerate(radii):
                acc = 0.0
                # a couple of segments keep the quadrature sharp near the patch
                cuts = np.geomspace(r_start, r, 3)
                for a0, b0 in zip(cuts[:-1], cuts[1:]):
                    rr = 0.5 * (b0 - a0) * (xg + 1.0) + a0
                    k1, k3 = self._ktilde_at(met, rr * sw, rr * cz)
                    acc += 0.5 * (b0 - a0) * float(np.sum(wg * (k1 * sw + k3 * cz)))
                out[i, j] = v0 + c4 * acc
        return out

    def _v_field_from_interior(self, V_int):
        """Two-patch V (index 4): interior values plus a per-ray 1/r^2 tail
        fitted on the outer band of the patch."""
        g = self.grid
        # fit V = c2/r^2 + c3/r^3 per starred ray on the band r in [1.5, 2] R0
        band_r = np.linspace(1.55 * g.R0, 1.95 * g.R0, 6)
        dirs_w = np.where(g.RS > 0, g.WS / np.where(g.RS > 0, g.RS, 1.0), 0.0)
        dirs_z = np.where(g.RS > 0, g.ZS / np.where(g.RS > 0, g.RS, 1.0), 0.0)
        from .fields import _bilinear

        band_vals = []
        for rb in band_r:
            wq = dirs_w * rb
            zq = dirs_z * rb
            band_vals.append(_bilinear(V_int, g.h_int, wq, zq))
        band_vals = np.stack(band_vals, axis=0)  # (6, M, M)
        design = np.stack([band_r**-2.0, band_r**-3.0], axis=1)
        sol, *_ = np.linalg.lstsq(design, band_vals.reshape(len(band_r), -1), rcond=None)
        c2 = sol[0].reshape(g.n_ext, g.n_ext)
        c3 = sol[1].reshape(g.n_ext, g.n_ext)
        # star tail at index 4: (r/R0)^2 V = c2/R0^2 + c3 r*/R0^4
        star = c2 / g.R0**2 + c3 * g.RS / g.R0**4
        # inside the image band r <= 2 R0 the interior values are authoritative
        have = np.isfinite(g.r_img) & (g.r_img <= 1.95 * g.R0)
        vals = _bilinear(V_int, g.h_int, g.W_img[have], g.Z_img[have])
        star[have] = (g.r_img[have] / g.R0) ** 2 * vals
        return AxiField(g, 4, V_int, star, (1, 1), 0.0)

    # -- the outer loop ------------------------------------------------------------------

    def solve(self):
        """Outer V iteration with the inner (W, Y, X) map; returns the state,
        the assembled metric, and diagnostics."""
        p = self.params
        g = self.grid
        V = AxiField.zeros(g, 4)
        state = None
        scale = max(p.u_O**2, 1e-300)
        outer_changes = []
        C_inf = 0.0
        far = None
        for it in range(1, self.opts.max_outer + 1):
            W, Y, X = self.inner_fixed_point(V, state=state)
            state = (W, Y, X)
            V_new, C_inf, far = self.v_map(W, Y, X)
            delta = float(np.max(np.abs(V_new.int_vals - V.int_vals)))
            V = V_new
            outer_changes.append(delta)
            if delta < self.opts.tol_outer * scale:
                break
            if it > 4 and outer_changes[-1] > outer_changes[-3]:
                raise ConvergenceError(
                    "outer V iteration stopped contracting",
                    residual=delta,
                    iterations=it,
                )
        else:
            raise ConvergenceError(
                "outer iteration exceeded max_outer",
                residual=outer_changes[-1],
                iterations=self.opts.max_outer,
            )
        self.history["outer"] = outer_changes

        W, Y, X = state
        w, Z = self.w_from_WYX(W, Y, X)
        rho, P, u = self.state_fluid(w)
        pot = PotentialSet(W=W, Y=Y, X=X, V=V, w=w, Z=Z, C_inf_V=C_inf)
        met = assemble(p, pot, self.nf.Phi_N)

        rde = self.remainders_de(W, Y, X)
        mfin = np.isfinite(rde["R_d"]) & np.isfinite(rde["lead_d"])
        rde_ratio = float(
            np.max(np.abs(rde["R_d"][mfin])) / (np.max(np.abs(rde["lead_d"][mfin])) + 1e-300)
        )

        ratios = [b / a for a, b in zip(outer_changes[:-1], outer_changes[1:]) if a > 0]
        support_r = 0.0
        sel = rho.int_vals > 0
        if np.any(sel):
            support_r = float(np.max(g.RI[sel]))
        diagnostics = {
            "outer_iterations": it,
            "outer_changes": outer_changes,
            "outer_ratio": ratios[-1] if ratios else 0.0,
            "inner_history": self.history["inner"],
            "C_inf_V": C_inf,
            "V_at_origin": float(V.int_vals[0, 0]),
            "W_infinity": W.offset,
            "support_radius_over_r1": support_r / p.r1,
            "rde_ratio": rde_ratio,
            "regime_flags": self.flags,
            "M_N": self.nf.M_N,
            "far_vhat": far,
            "green_ops": self.ops.cache_report(),
            "lop_smin_estimate": self.lop.smin_estimate,
        }
        return SolveResult(
            params=p,
            grid=g,
            potentials=pot,
            metric=met,
            newtonian=self.nf,
            fluid={"rho": rho, "P": P, "u": u},
            diagnostics=diagnostics,
        )


def _upsilon1(eos):
    return eos.upsilon_rho[0] if eos.upsilon_rho else 0.0


@dataclass
class SolveResult:
    params: StarParams
    grid: AxiGrid
    potentials: PotentialSet
    metric: MetricLanczos
    newtonian: NewtonianFields
    fluid: dict
    diagnostics: dict

    def verify_window(self):
        """Window over the interior patch for the residual evaluators."""
        from .verify import Window

        g = self.grid
        arrs = self.metric.interior_arrays()
        Om = omega_profile(self.params, g.RI)
        return Window(
            w0=0.0,
            z0=0.0,
            h=g.h_int,
            F=arrs["F"],
            A=arrs["A"],
            Pi=arrs["Pi"],
            K=arrs["K"],
            Omega=Om,
            rho=self.fluid["rho"].int_vals,
            P=self.fluid["P"].int_vals,
            u=self.fluid["u"].int_total(),
            z_even=True,
        )

    def eval_fns(self):
        """Far-field evaluators for the asymptotic fits.

        A is rebuilt from the Y unknown directly (varpi^2 Y/c^3): the direction
        factors of the assembled A-field would add interpolation noise to the
        small post-leading residuals the order fits measure.
        """
        met = self.metric
        c3 = self.params.c_light**3
        Y = self.potentials.Y

        return {
            "F": lambda w, z: met.F.eval(w, z),
            "A": lambda w, z: np.asarray(w) ** 2 * Y.eval(w, z) / c3,
            "Pi": lambda w, z: np.asarray(w) * met.Pi_over_w.eval(w, z),
            "K": lambda w, z: met.K.eval(w, z),
        }
