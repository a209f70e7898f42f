import numpy as np
import pytest

from rotstar.errors import DomainError, ErgoViolationError
from rotstar.fields import AxiField, AxiGrid
from rotstar.metric import (
    KerrParams,
    g_factor,
    kerr_boyer_lindquist_from_cyl,
    kerr_cyl_from_boyer_lindquist,
    kerr_lanczos,
    lewis_from_lanczos,
    mul_varpi,
)


class TestKerrParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            KerrParams(1.0, 1.5)
        with pytest.raises(DomainError):
            KerrParams(-1.0, 0.0)
        KerrParams(1.0, 1.0)  # extremal allowed


class TestKerrCoordinates:
    def test_round_trip(self):
        kp = KerrParams(1.0, 0.5)
        rng = np.random.RandomState(2)
        rbar = rng.uniform(2.5, 20.0, 60)
        theta = rng.uniform(0.05, np.pi / 2, 60)
        w, z = kerr_cyl_from_boyer_lindquist(kp, rbar, theta)
        rb2, cos2, sin2 = kerr_boyer_lindquist_from_cyl(kp, w, z)
        assert np.max(np.abs(rb2 - rbar) / rbar) < 1e-12
        assert np.max(np.abs(cos2 - np.cos(theta))) < 1e-12

    def test_on_axis(self):
        kp = KerrParams(1.0, 0.5)
        pot = kerr_lanczos(kp, np.zeros(5), np.linspace(3, 10, 5))
        assert np.allclose(pot["Pi"], 0.0, atol=1e-14)
        assert np.allclose(pot["A"], 0.0, atol=1e-14)

    def test_pi_equals_varpi(self):
        kp = KerrParams(1.0, 0.9)
        w = np.linspace(0.0, 15.0, 40)
        z = np.linspace(0.0, 15.0, 40)
        W, Z = np.meshgrid(w, z, indexing="ij")
        pot = kerr_lanczos(kp, W, Z)
        sel = pot["in_domain"]
        assert np.abs(pot["Pi"] - W)[sel].max() < 1e-12

    def test_schwarzschild_far_field(self):
        kp = KerrParams(1.0, 0.0)
        r = np.geomspace(30, 300, 12)
        pot = kerr_lanczos(kp, r, np.zeros_like(r))
        resid = pot["F"] + kp.m_geom / r
        # F = -m/r + O(1/r^2)
        assert np.max(np.abs(resid) * r / kp.m_geom**2 * r) < 5.0

    def test_in_domain_flag(self):
        kp = KerrParams(1.0, 0.5)
        pot = kerr_lanczos(kp, np.array([0.2, 8.0]), np.array([0.2, 0.0]))
        assert not pot["in_domain"][0] and pot["in_domain"][1]


class TestLewis:
    def test_flat(self):
        W = np.linspace(0.1, 2, 10)[:, None] * np.ones((1, 4))
        zeros = np.zeros_like(W)
        f, k, l, m = lewis_from_lanczos(zeros, zeros, W, zeros)
        assert np.allclose(f, 1.0) and np.allclose(k, 0.0)
        assert np.allclose(l, W**2) and np.allclose(m, 0.0)

    def test_identity_pi2(self):
        rng = np.random.RandomState(3)
        F = rng.uniform(-0.3, 0.3, (20, 20))
        A = rng.uniform(-0.5, 0.5, (20, 20))
        Pi = rng.uniform(0.5, 2.0, (20, 20))
        K = rng.uniform(-0.2, 0.2, (20, 20))
        f, k, l, m = lewis_from_lanczos(F, A, Pi, K)
        assert np.allclose(f * l + k**2, Pi**2, rtol=1e-12)

    def test_kerr_l_consistency(self):
        # l from the Lewis map equals e^{-2F} Pi^2 - e^{2F} A^2 evaluated from
        # the Kerr potential combination directly
        kp = KerrParams(1.0, 0.7)
        w = np.linspace(3, 12, 15)
        z = np.linspace(0.5, 9, 15)
        pot = kerr_lanczos(kp, w, z)
        f, k, l, m = lewis_from_lanczos(pot["F"], pot["A"], pot["Pi"], pot["K"])
        e2F = np.exp(2 * pot["F"])
        assert np.allclose(l, pot["Pi"] ** 2 / e2F - e2F * pot["A"] ** 2, rtol=1e-12)


class TestGFactor:
    def test_omega_zero(self):
        F = np.array([[0.1, -0.2]])
        G, U0, U2, U_0, U_2 = g_factor(F, 0 * F, 1.0 + 0 * F, 0 * F, 1.0)
        assert np.allclose(G, F)
        assert np.allclose(U2, 0.0)

    def test_flat_rigid_rotation(self):
        w = np.array([[0.3, 0.6, 0.9]])
        Om = np.full_like(w, 0.5)
        G, U0, U2, U_0, U_2 = g_factor(0 * w, 0 * w, w, Om, 1.0)
        assert np.allclose(np.exp(2 * G), 1 - 0.25 * w**2, rtol=1e-14)

    def test_normalization(self):
        # U^mu U_mu = U^0 U_0 + U^2 U_2 = 1 by construction of the factor
        kp = KerrParams(1.0, 0.6)
        w = np.linspace(3, 10, 8)
        z = np.linspace(0.2, 6, 8)
        pot = kerr_lanczos(kp, w, z)
        Om = np.full_like(w, 0.01)
        G, U0, U2, U_0, U_2 = g_factor(pot["F"], pot["A"], pot["Pi"], Om, 1.0)
        assert np.allclose(U0 * U_0 + U2 * U_2, 1.0, rtol=1e-12)

    def test_ergo_violation(self):
        w = np.array([[3.0]])
        with pytest.raises(ErgoViolationError):
            g_factor(0 * w, 0 * w, w, np.full_like(w, 0.5), 1.0)

    def test_trace_identity(self):
        # T = (eps+P) e^{-2G} [normalization quantity] - 4P collapses to
        # eps - 3P identically
        kp = KerrParams(1.0, 0.3)
        w = np.linspace(3, 8, 6)
        z = np.linspace(0.5, 5, 6)
        pot = kerr_lanczos(kp, w, z)
        Om = np.full_like(w, 0.02)
        G, *_ = g_factor(pot["F"], pot["A"], pot["Pi"], Om, 1.0)
        eps, P = 0.7, 0.1
        e2F = np.exp(2 * pot["F"])
        quant = e2F * (1 + Om * pot["A"]) ** 2 - Om**2 * pot["Pi"] ** 2 / e2F
        T = (eps + P) * np.exp(-2 * G) * quant - 4 * P
        assert np.allclose(T, eps - 3 * P, rtol=1e-12)


class TestAssembly:
    def test_mul_varpi(self):
        g = AxiGrid(1.0, 33, 25)

        def fn(w, z):
            r = np.maximum(np.hypot(w, z), 1e-12)
            return (g.R0 / r) ** 3

        f5 = AxiField.from_function(g, fn, 5)
        wf = mul_varpi(f5, 4)
        # exact at the starred nodes: (w f)_star(4) = R0 ray f_star(5)
        expect = g.R0 * np.where(g.RS > 0, g.WS / np.where(g.RS > 0, g.RS, 1.0), 0.0)
        assert np.allclose(wf.star_vals[1:, 1:], expect[1:, 1:] * f5.star_vals[1:, 1:], rtol=1e-12)
        # evaluation agrees up to interpolation of the direction factor
        w, z = 2.7, 1.9
        assert wf.eval(w, z) == pytest.approx(w * f5.eval(w, z), rel=2e-2)
        assert wf.parity == (-1, 1)

    def test_flat_assembly(self):
        from types import SimpleNamespace

        from rotstar.metric import assemble
        from rotstar.pn import PotentialSet

        g = AxiGrid(1.0, 33, 25)
        zero3 = AxiField.zeros(g, 3)
        state = PotentialSet(
            W=zero3, Y=AxiField.zeros(g, 5), X=AxiField.zeros(g, 4),
            V=AxiField.zeros(g, 4), w=zero3,
        )
        params = SimpleNamespace(c_light=1.0)
        met = assemble(params, state, AxiField.zeros(g, 3))
        arrs = met.interior_arrays()
        assert np.allclose(arrs["F"], 0.0) and np.allclose(arrs["A"], 0.0)
        assert np.allclose(arrs["Pi"], g.WI) and np.allclose(arrs["K"], 0.0)
