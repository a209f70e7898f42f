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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import cumulative_trapezoid

from .cutoff import chi
from .errors import (AsymptoticsError, DomainError, RegimeError, SeriesDomainError,
                     contraction_ratio, damped_iteration)
from .fields import (
    AxiField,
    AxiGrid,
    _bilinear,
    _fill_origin,
    compact_map,
    div_varpi,
    eval_fields,
    exp_of,
    field_expm1,
    field_log1p,
    mul_varpi,
)
from .greens import GreenOps, LOpSolver, total_mass
from .lane_emden import solve_distorted
from .metric import MetricLanczos, assemble, ktilde


BETA0, DELTA0 = 0.1, 0.01  # regime flags (D1) b <= BETA0 and (D2) epsilon <= DELTA0
NEWTONIAN_TOL, NEWTONIAN_MAX_ITER = 1e-12, 200  # Newtonian sweep: stop below NEWTONIAN_TOL u_O
# (after, lag) stall rules: past iteration `after`, a change above the one
# `lag` iterations back means the map stopped contracting
INNER_STALL, OUTER_STALL = (6, 3), (4, 2)


def _inv_k_rho(gamma, A_const):
    """(A g/(g-1))^(1/(g-1)) = 1/k_rho, through which b_rot and Omega_O convert."""
    return (A_const * gamma / (gamma - 1.0)) ** (1.0 / (gamma - 1.0))


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

    @classmethod
    def build(cls, gamma, A_const, c_light, G_grav, u_O, Omega_O=None, b_rot=None, *, classical):
        if (Omega_O is None) == (b_rot is None):
            raise DomainError("specify exactly one of Omega_O and b_rot")
        if Omega_O is None:
            Omega_O = math.sqrt(4.0 * math.pi * G_grav * b_rot * u_O ** (1.0 / (gamma - 1.0))
                                / _inv_k_rho(gamma, A_const))
        return cls(gamma, A_const, c_light, G_grav, u_O, Omega_O, classical.xi1)

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
        return (_inv_k_rho(self.gamma, self.A_const) * self.Omega_O**2
                * self.u_O ** (-1.0 / (self.gamma - 1.0)) / (4.0 * math.pi * self.G_grav))

    @property
    def r1(self):
        return self.a_len * self.xi1

    @property
    def R0(self):
        return 4.0 * self.r1

    @property
    def epsilon(self):
        return self.u_O / self.c_light**2

    def regime_flags(self):
        """(D0)-(D2) style admissibility flags; runs proceed with warnings."""
        return {
            "D0_gamma_range": 6.0 / 5.0 < self.gamma < 2.0,
            "D1_b_small": self.b_rot <= BETA0,
            "D2_epsilon_small": self.epsilon <= DELTA0,
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
    M_N: float
    iterations: int
    residual: float


def newtonian_fields(dle, params, grid, ops, eos):
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

    def sweep(u_N):
        rho_N = compact_map(eos.f_N_rho, u_N, n_index=3)
        Phi_N = ops.k_n_global(rho_N, 3) * G4pi
        u_new = om_w2_half - Phi_N + (Phi_N.int_vals[0, 0] + params.u_O)
        return u_new, float(np.max(np.abs(u_new.int_total() - u_N.int_total())))

    u_N, changes = damped_iteration(sweep, u_N, NEWTONIAN_TOL * params.u_O, NEWTONIAN_MAX_ITER,
                                    "Newtonian consistency sweep")

    rho_N = compact_map(eos.f_N_rho, u_N, n_index=3)
    P_N = compact_map(eos.f_N_P, u_N, n_index=4)
    Phi_N = ops.k_n_global(rho_N, 3) * G4pi
    ratio = compact_map(eos.df_N_rho, u_N, n_index=3)
    M_N = grid.h_int**3 * total_mass(3, rho_N.int_vals)
    return NewtonianFields(
        u_N=u_N,
        rho_N=rho_N,
        P_N=P_N,
        Phi_N=Phi_N,
        ratio=ratio,
        M_N=M_N,
        iterations=len(changes),
        residual=changes[-1],
    )


@dataclass
class PotentialSet:
    W: AxiField
    Y: AxiField
    X: AxiField
    V: AxiField
    w: AxiField


PATH_GAUSS = leggauss(24)  # Gauss rule on each segment of a far path
FAR_RADII, FAR_THETAS = np.geomspace(3.0, 10.0, 8), (0.3, 0.7, 1.05, 1.4)  # far arcs: r/R0, theta


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


def _axis_then_rows(d_axis, d_rows, x_axis, x_rows):
    """Cumulative trapezoid of a gradient on a tensor grid, from node (0, 0)
    up the first column (d_axis, along axis 1), then along axis 0 (d_rows)."""
    up = cumulative_trapezoid(d_axis[0, :], x=x_axis, initial=0.0)
    return up[None, :] + cumulative_trapezoid(d_rows, x=x_rows, axis=0, initial=0.0)


def v_star_from_infinity(grid, at, c4):
    """Starred values (r/R0)^2 V of the V that has gradient c4 at(w, z) and
    vanishes at infinity, the starred origin: a quadrature from there up the
    starred axis, then across, of the gradient in starred coordinates."""
    g = grid
    # dp/dp* = R0^2/r*^4 [[r*^2 - 2 w*^2, -2 w* z*], [-2 w* z*, r*^2 - 2 z*^2]]
    # makes the starred gradient O(r*); its row is zero at the origin, whose
    # stored image (0, 0) is a finite point
    k1, k3 = at(g.W_img, g.Z_img)
    scale = c4 * g.weight("star", -4) / g.R0**2
    cross = -2.0 * g.WS * g.ZS
    d_w = scale * (k1 * (g.RS**2 - 2.0 * g.WS**2) + k3 * cross)
    d_z = scale * (k1 * cross + k3 * (g.RS**2 - 2.0 * g.ZS**2))
    return _fill_origin(g.weight("star", -2) * _axis_then_rows(d_z, d_w, g.zs, g.ws))


def v_overlap(V):
    """Mean and spread (max - min), relative to sup|V| on the interior patch,
    of starred minus interior V at the starred nodes whose images lie in
    R0 <= r <= 2 R0, where both quadratures hold V."""
    g = V.grid
    band = (g.r_img >= g.R0) & (g.r_img <= 2.0 * g.R0)
    gap = V.star_raw_values()[band] - _bilinear(V.int_vals, g.h_int, g.W_img[band], g.Z_img[band])
    gap /= max(float(np.max(np.abs(V.int_vals))), 1e-300)
    return {"mean": float(np.mean(gap)), "spread": float(np.ptp(gap))}


@dataclass
class SolverOptions:
    n_interior: int
    n_exterior: int
    tol_inner: float = 1e-10
    tol_outer: float = 1e-9
    max_inner: int = 40
    max_outer: int = 30


class PNSolver:
    """One star, one grid, one solver instance (instances are independent)."""

    def __init__(self, params, eos, options, classical, dle=None):
        self.params = params
        self.eos = eos
        self.opts = options
        self.classical = classical
        if dle is None:
            # kept while the benchmark wraps pn.solve_distorted by name
            dle = solve_distorted(params.nu, params.b_rot, classical=classical)
        self.dle = dle
        self.grid = AxiGrid(params.R0, options.n_interior, options.n_exterior)
        self.ops = GreenOps(self.grid)
        self.nf = newtonian_fields(dle, params, self.grid, self.ops, eos)
        self.flags = params.regime_flags()

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
        # Newtonian-level parts of the PN expansions, fixed per star:
        # (Om w)^2, the enthalpy part 2 (Om w)^2 Phi_N - (Om w)^4/4 and the
        # density part -rho_N u_N Ups1 + 2 (rho_N Phi_N + 2 rho_N (Om w)^2) - 3 P_N
        nf = self.nf
        self.om2w2 = self.om_w * self.om_w
        self.u_lead = self.om2w2 * nf.Phi_N * 2.0 - self.om2w2 * self.om2w2 * 0.25
        self.rho_lead = (
            nf.rho_N * nf.u_N * -(eos.upsilon_rho[0] if eos.upsilon_rho else 0.0)
            + (nf.rho_N * nf.Phi_N + nf.rho_N * self.om2w2 * 2.0) * 2.0
            - nf.P_N * 3.0
        )
        # the leading interior sources of the W, Y and X equations
        Gg = params.G_grav
        self.ga = ((nf.ratio * self.u_lead + self.rho_lead) * (-4.0 * math.pi * Gg)).reindex(3)
        self.gb = (self.om * nf.rho_N * (16.0 * math.pi * Gg)).reindex(5)
        self.gc = (nf.P_N * (-16.0 * math.pi * Gg)).reindex(4)
        # Phi_N's gradient, for the leading parts of the K-gradient displays
        self.dPhi_N = (nf.Phi_N.derivative("w"), nf.Phi_N.derivative("z"))
        coef = nf.ratio * (4.0 * math.pi * Gg)
        self.lop = LOpSolver(self.ops, coef)
        self.inner_history = []

    # -- the w <-> (W, Y, X) algebra ---------------------------------------------

    def w_from_WYX(self, W, Y, X):
        """Enthalpy correction per the log expansion in the auxiliary Z."""
        p = self.params
        c = p.c_light
        psi = self.nf.Phi_N - W * (1.0 / c**2)  # c^2 F
        lnE = field_log1p(X * (1.0 / c**4)) * 2.0 - psi * (4.0 / c**2)
        Em1 = field_expm1(lnE)  # E - 1 with E = e^{-4 psi/c^2}(1+X/c^4)^2

        om_w2_Y = (self.om_w2 * Y).reindex(3)  # Omega varpi^2 Y, compact
        # Z = 2 Om w^2 Y/c^2 + (Om w^2 Y)^2/c^6 - (Om w)^2 E
        Z = (
            om_w2_Y * (2.0 / c**2)
            + om_w2_Y * om_w2_Y * (1.0 / c**6)
            - self.om2w2 * (Em1 + 1.0)
        ).reindex(3)
        z_sup = float(np.max(np.abs(Z.int_total()))) / c**2
        if z_sup >= 1.0:
            raise SeriesDomainError(f"|Z|/c^2 reaches {z_sup:.3f}; log series invalid")

        series = compact_map(_log_series_tail, Z * (1.0 / c**2), n_index=3)
        w = (
            W
            + self.om2w2 * Em1 * (0.5 * c**2)
            - om_w2_Y
            - om_w2_Y * om_w2_Y * (0.5 / c**4)
            - series * (0.5 * c**4)
        ).reindex(3)
        return w

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
        twoY_wY1 = (Y * 2.0 + mul_varpi(Y1)).reindex(4)
        wY3 = mul_varpi(Y3)

        e4F = exp_of(psi, 4.0 / c**2)
        emFK = exp_of(V * (1.0 / c**4) - psi * (1.0 / c**2), 2.0)

        # Q1 = e^{-4F} (Om w)^2 (1+X/c^4)^2 (1 + Om w^2 Y/c^4)^{-2}
        om_w2_Y = (self.om_w2 * Y).reindex(3)  # Omega varpi^2 Y, compact
        inv_omY = 1.0 / (om_w2_Y * (1.0 / c**4) + 1.0)
        Q1 = (
            exp_of(psi, -4.0 / c**2) * self.om2w2 * (X4 + 1.0) * (X4 + 1.0) * inv_omY * inv_omY
        ).reindex(3)
        q = Q1 * (1.0 / c**2)
        inv_q = 1.0 / ((q * -1.0) + 1.0)

        H = compact_map(self.eos.h_rho, nf.u_N, w, n_index=3)
        # Q0 = c^2 [w - W + 2 (Om w)^2 Phi_N + Om w^2 Y - (Om w)^4/4]
        Q0 = ((w - W + self.u_lead + om_w2_Y) * c**2).reindex(3)

        # Q5 from the exact identity: LHS5 = -e^{2(-F+K)}[c^2 rho (1+q)/(1-q)
        # + P (3-q)/(1-q)] + c^2 rho_N
        lhs5 = (
            emFK * (rho * ((q + 1.0) * inv_q) * c**2 + P * ((3.0 - q) * inv_q)) * -1.0
            + nf.rho_N * c**2
        ).reindex(3)
        lead5 = (self.rho_lead - nf.ratio * w - H * c**2).reindex(3)
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
        ).reindex(5)

        R_c = ((emFK * P * (X4 + 1.0) - nf.P_N) * (-16.0 * math.pi * Gg)).reindex(4)

        return R_a, R_b, R_c, {"Q5": Q5, "Q6": Q6}

    def remainders_de(self, K1t, X):
        """sup|R_d| / sup|lead_d| for display (d): R_d = c^4 K1t - lead_d is
        the exact remainder of the K-gradient K1t that v_map integrated,
        against its leading part from X's derivatives and Phi_N's gradient."""
        g = self.grid
        P1, P3 = self.dPhi_N
        X1 = X.derivative("w")
        X3 = X.derivative("z")
        X11 = X1.derivative("w")
        X33 = X3.derivative("z")
        lead_d = (
            0.5 * (2.0 * X1.int_vals + g.WI * X11.int_vals - g.WI * X33.int_vals)
            + g.WI * (P1.int_vals**2 - P3.int_vals**2)
        )
        R_d = self.params.c_light**4 * K1t - lead_d
        fin = np.isfinite(R_d) & np.isfinite(lead_d)
        return float(np.max(np.abs(R_d[fin])) / (np.max(np.abs(lead_d[fin])) + 1e-300))

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

    def inner_fixed_point(self, V, state):
        """The map S(V): unique (W, Y, X) at frozen V, iterated from state."""
        p = self.params
        ga, gb, gc = self.ga, self.gb, self.gc
        # sup-norm remainder-to-leading ratios on the interior patch, per
        # iteration; 0 where the leading part vanishes (a static star's g_b)
        leads = [float(np.max(np.abs(f.int_vals))) for f in (ga, gb, gc)]
        remainder_ratios = {"a": [], "b": [], "c": []}

        def step(state):
            W, Y, X = state
            w = self.w_from_WYX(W, Y, X)
            rho, P, u = self.state_fluid(w)
            R_a, R_b, R_c, _ = self.remainders_abc(W, Y, X, V, w, rho, P)
            for key, R, lead in zip("abc", (R_a, R_b, R_c), leads):
                sup = float(np.max(np.abs(R.int_vals)))
                remainder_ratios[key].append(sup / lead if lead > 0.0 else 0.0)
            Y_new = self.ops.k_n_global(gb + R_b, 5)
            X_new = self.ops.k_n_global(gc + R_c, 4)
            coupling = (self.nf.ratio * self.om_w2 * Y_new).reindex(3) * (
                -4.0 * math.pi * p.G_grav
            )
            W_new = self.lop.solve((ga + coupling + R_a).reindex(3))
            return (W_new, Y_new, X_new), self.blended_norm(W_new - W, Y_new - Y, X_new - X)

        (W, Y, X), changes = damped_iteration(
            step, state, self.opts.tol_inner * max(p.u_O**2, 1e-300), self.opts.max_inner,
            "inner (W, Y, X) iteration", stall=INNER_STALL)
        self.inner_history.append(
            {"iterations": len(changes), "changes": changes, "ratio": contraction_ratio(changes),
             "remainder_ratios": remainder_ratios}
        )
        return W, Y, X

    # -- the K-gradient fields and the outer map ----------------------------------------

    def ktilde_arrays(self, W, Y, X):
        """K1t, K3t on the interior nodes from the assembled (F, A, Pi), and
        at(w, z), the same K-gradient at points.

        Both read one set of derivative fields, derived here once per state.
        """
        state = PotentialSet(W=W, Y=Y, X=X, V=AxiField.zeros(self.grid, 4), w=None)
        met = assemble(self.params, state, self.nf.Phi_N)
        F, A, Pow = met.F, met.A_pot, met.Pi_over_w
        Pow1, Pow3 = Pow.derivative("w"), Pow.derivative("z")
        fields = (F, F.derivative("w"), F.derivative("z"), A.derivative("w"), A.derivative("z"),
                  Pow, Pow1, Pow3, Pow1.derivative("w"), Pow3.derivative("z"), Pow1.derivative("z"))

        def ktilde_from(w, vals):
            f, f1, f3, a1, a3, pw, pw1, pw3, pw11, pw33, pw13 = vals
            # Pi = varpi Pi_over_w: its derivatives by the product rule keep
            # the axis exact, and 1/Pi takes 0 there
            Pi = w * pw
            over_pi = np.where(w > 0, 1.0 / np.where(w > 0, Pi, 1.0), 0.0)
            K1t, K3t, _, _ = ktilde(Pi, pw + w * pw1, w * pw3, 2.0 * pw1 + w * pw11, w * pw33,
                                    pw3 + w * pw13, f1, f3, a1, a3, np.exp(4.0 * f), over_pi)
            return np.where(w > 0, K1t, 0.0), K3t  # K1t is odd in varpi

        def at(wpts, zpts):
            w = np.asarray(wpts, dtype=float)
            return ktilde_from(w, eval_fields(fields, w, zpts))

        return (*ktilde_from(self.grid.WI, [fld.int_total() for fld in fields]), at)

    def v_map(self, W, Y, X):
        """The outer map T: line-quadrature V from the K-gradient fields,
        returned with C_inf, the far samples and the node K1t it integrated.

        Composite trapezoid rather than Simpson: its cumulative error is
        smooth in the node index, so central differences of V reproduce the
        gradient fields at a clean O(h^2) (Simpson's alternating weights
        leave a same-order sawtooth in the first-order residuals).  The
        starred patch integrates from its own origin, infinity, where V = 0.
        """
        g = self.grid
        c4 = self.params.c_light**4
        K1t, K3t, at = self.ktilde_arrays(W, Y, X)
        V_hat = c4 * _axis_then_rows(K3t, K1t, g.z, g.w)

        # far-field constant by sampling V_hat on far arcs through direct
        # quadrature of the gradient fields along (axis, then horizontal)
        far = self._far_vhat(at)
        rr = far["radii"]
        design = np.column_stack([np.ones_like(rr), rr**-2.0, rr**-3.0])
        coef, res, *_ = np.linalg.lstsq(design, far["vhat_mean"], rcond=None)
        C_inf = float(coef[0])
        # divergence guard: the far plateau must not drift on the sampled arc
        vm = far["vhat_mean"]
        drift = abs(float(vm[-1] - vm[0]))
        scale = max(abs(C_inf), float(np.max(np.abs(vm))), 1e-300)
        if drift > 0.6 * scale:
            raise AsymptoticsError(
                f"far-field V drifts by {drift:.3e} against plateau {scale:.3e}"
            )

        V = AxiField(g, 4, V_hat - C_inf, v_star_from_infinity(g, at, c4), (1, 1), 0.0)
        return V, C_inf, far, K1t

    def _far_vhat(self, at):
        """V_hat on the FAR_RADII x FAR_THETAS arcs by Gauss quadrature of
        c^4 K1t, K3t, sampled by at, along the paper's path (up the axis,
        then horizontally)."""
        c4 = self.params.c_light**4
        radii, thetas = FAR_RADII * self.grid.R0, FAR_THETAS
        xg, wg = PATH_GAUSS
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
        k1, k3 = at(wpts.ravel(), zpts.ravel())
        integrand = np.where(on_axis[:, None], k3.reshape(nodes.shape), k1.reshape(nodes.shape))
        seg = (0.5 * (b0 - a0) * np.sum(wg * integrand, axis=1)).reshape(len(thetas), len(radii), 4)
        vals = c4 * (seg[..., 0] + seg[..., 1] + seg[..., 2] + seg[..., 3])
        return {"radii": radii, "vhat_mean": vals.mean(axis=0), "vhat_all": vals, "thetas": thetas}

    def path_independence_gap(self, W, Y, X):
        """Quadrature along (axis, then horizontal) versus (equator, then
        vertical): agreement up to O(h^2) plus the consistency residual."""
        g = self.grid
        K1t, K3t, _ = self.ktilde_arrays(W, Y, X)
        main = _axis_then_rows(K3t, K1t, g.z, g.w)
        alt = _axis_then_rows(K1t.T, K3t.T, g.w, g.z).T
        inner = g.RI <= 1.8 * g.R0
        gap = float(np.max(np.abs(main - alt)[inner]))
        scale = float(np.max(np.abs(main[inner]))) + 1e-300
        return gap, scale

    # -- the outer loop ------------------------------------------------------------------

    def solve(self):
        """Outer V iteration with the inner (W, Y, X) map; returns the state,
        the assembled metric, and diagnostics."""
        p = self.params
        g = self.grid
        # W's sources, and a rotating star's Y's, reach every column that a
        # source on the table's P nodes can carry, 0..P-2, so those tables
        # are filled here in one block each rather than a block per first
        # use; X's source, the pressure, fills its few columns on demand
        for n in (3, 5) if p.b_rot > 0 else (3,):
            self.ops.use_table(n, "fill", self.ops.table(n).P - 1)

        def step(outer):
            V, WYX, _ = outer
            WYX = self.inner_fixed_point(V, WYX)
            V_new, *v_map_rest = self.v_map(*WYX)
            return (V_new, WYX, v_map_rest), float(np.max(np.abs(V_new.int_vals - V.int_vals)))

        start = (AxiField.zeros(g, 4), tuple(AxiField.zeros(g, n) for n in (3, 5, 4)), None)
        (V, (W, Y, X), (C_inf, far, K1t)), outer_changes = damped_iteration(
            step, start, self.opts.tol_outer * max(p.u_O**2, 1e-300), self.opts.max_outer,
            "outer V iteration", stall=OUTER_STALL)
        w = self.w_from_WYX(W, Y, X)
        rho, P, u = self.state_fluid(w)
        pot = PotentialSet(W=W, Y=Y, X=X, V=V, w=w)
        met = assemble(p, pot, self.nf.Phi_N)

        support_r = 0.0
        sel = rho.int_vals > 0
        if np.any(sel):
            support_r = float(np.max(g.RI[sel]))
        diagnostics = {
            "outer_iterations": len(outer_changes),
            "outer_changes": outer_changes,
            "outer_ratio": contraction_ratio(outer_changes),
            "inner_history": self.inner_history,
            "C_inf_V": C_inf,
            "W_infinity": W.offset,
            "support_radius_over_r1": support_r / p.r1,
            # K1t is the last v_map's, whose state is the final (W, Y, X)
            "rde_ratio": self.remainders_de(K1t, X),
            "regime_flags": self.flags,
            "M_N": self.nf.M_N,
            "newtonian": {"iterations": self.nf.iterations, "residual": self.nf.residual},
            "far_vhat": {key: np.asarray(val).tolist() for key, val in far.items()},
            "v_overlap": v_overlap(V),
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


@dataclass
class SolveResult:
    params: StarParams
    grid: AxiGrid
    potentials: PotentialSet
    metric: MetricLanczos
    newtonian: NewtonianFields
    fluid: dict
    diagnostics: dict

    # the fields `rotstar solve` dumps as NAME.axfd and `rotstar verify` reads back
    DUMPED = ("W", "Y", "X", "V", "w_corr", "F", "A", "Pi_over_w", "K", "u_N", "rho_N", "Phi_N",
              "rho", "P", "u")

    def dumped_fields(self):
        """The DUMPED fields by name, in that order."""
        pot, met, nf = self.potentials, self.metric, self.newtonian
        fields = (pot.W, pot.Y, pot.X, pot.V, pot.w, met.F, met.A_pot, met.Pi_over_w, met.K,
                  nf.u_N, nf.rho_N, nf.Phi_N, self.fluid["rho"], self.fluid["P"], self.fluid["u"])
        return dict(zip(self.DUMPED, fields, strict=True))

    @classmethod
    def from_dumped(cls, params, eos, fields, diagnostics):
        """The result rebuilt from its DUMPED fields, as verification reads
        it back.  The Newtonian layer takes u_N, rho_N and Phi_N from the
        dumps, P_N and the ratio from eos by the maps newtonian_fields
        makes, and M_N, iterations and residual from the diagnostics."""
        f = fields
        u_N = f["u_N"]
        newt = diagnostics["newtonian"]
        nf = NewtonianFields(u_N=u_N, rho_N=f["rho_N"], P_N=compact_map(eos.f_N_P, u_N, n_index=4),
                             Phi_N=f["Phi_N"], ratio=compact_map(eos.df_N_rho, u_N, n_index=3),
                             M_N=diagnostics["M_N"], iterations=newt["iterations"],
                             residual=newt["residual"])
        return cls(params=params, grid=f["W"].grid,
                   potentials=PotentialSet(W=f["W"], Y=f["Y"], X=f["X"], V=f["V"], w=f["w_corr"]),
                   metric=MetricLanczos(F=f["F"], A_pot=f["A"], Pi_over_w=f["Pi_over_w"],
                                        K=f["K"], c_light=params.c_light),
                   newtonian=nf, fluid={key: f[key] for key in ("rho", "P", "u")},
                   diagnostics=diagnostics)

    def verify_window(self):
        """Window over the interior patch for the residual evaluators."""
        from .verify import Window

        g = self.grid
        arrs = self.metric.interior_arrays()
        Om = omega_profile(self.params, g.RI)
        return Window(
            h=g.h_int,
            F=arrs["F"],
            A=arrs["A"],
            Pi=arrs["Pi"],
            K=arrs["K"],
            Omega=Om,
            rho=self.fluid["rho"].int_vals,
            P=self.fluid["P"].int_vals,
            u=self.fluid["u"].int_total(),
        )

    def tail_mass(self):
        """M_N + C_W/(G c^2), with C_W = R0 W*(0) the coefficient of W's 1/r
        tail: the mass without the M - M_N subtraction of a far-field fit."""
        p = self.params
        C_W = self.potentials.W.star_vals[0, 0] * p.R0
        return float(self.diagnostics["M_N"] + C_W / (p.G_grav * p.c_light**2))

    def tail_angular_momentum(self):
        """R0^3 Y*(0)/(2G), from Y/c^3 = A/varpi^2 -> 2 G J/(c^3 r^3): exactly 0 for a static star."""
        return float(self.potentials.Y.star_vals[0, 0] * self.params.R0**3 / (2.0 * self.params.G_grav))

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
