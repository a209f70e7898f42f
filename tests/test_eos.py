import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rotstar.eos import (
    EquationOfState,
    consistent_upsilon_P,
    neutron_star_eos,
)
from rotstar.errors import DomainError, SeriesDomainError


def quad_oracle_enthalpy(eos, rho, n_panels=60, n_gauss=50):
    """Independent high-order quadrature of the enthalpy integral.

    Composite Gauss-Legendre in the substituted variable s = rho'^(gamma-1);
    deliberately a different code path from eos.enthalpy_from_density.
    """
    gm1 = eos.gamma - 1.0
    xg, wg = leggauss(n_gauss)
    edges = np.linspace(0.0, rho**gm1, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = 0.5 * (b - a) * xg + 0.5 * (a + b)
        w = 0.5 * (b - a) * wg
        for si, wi in zip(s, w):
            r = si ** (1.0 / gm1)
            P = eos.pressure_from_density(r)
            dP = eos.dpressure_ddensity(r)
            total += wi * dP / (r + P / eos.c_light**2) * r / (gm1 * si)
    return total


class TestEnthalpyFromDensity:
    def test_zero_density(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        assert eos.enthalpy_from_density(0.0) == 0.0

    def test_newtonian_limit(self):
        # c -> infinity: u -> (A gamma/(gamma-1)) rho^(gamma-1) = 2.5 rho^(2/3)
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 1e8)
        for rho in [0.1, 0.5, 1.0]:
            assert eos.enthalpy_from_density(rho) == pytest.approx(
                2.5 * rho ** (2 / 3), rel=1e-10
            )

    def test_against_independent_quadrature(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        u = eos.enthalpy_from_density(1.0)
        assert u == pytest.approx(quad_oracle_enthalpy(eos, 1.0), rel=1e-10)

    def test_negative_density_rejected(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        with pytest.raises(DomainError):
            eos.enthalpy_from_density(-1.0)

    def test_strictly_increasing(self):
        eos = EquationOfState.gamma_law(1.4, 0.7, 8.0)
        rhos = np.linspace(0.01, 2.0, 25)
        us = [eos.enthalpy_from_density(r) for r in rhos]
        assert np.all(np.diff(us) > 0)


class TestDensityFromEnthalpy:
    def test_negative_enthalpy_gives_vacuum(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        assert eos.density_from_enthalpy(-3.0) == 0.0

    def test_linear_case(self):
        # gamma = 2 is outside (6/5, 2); gamma=1.5, A=1/3 gives exponent 2 with
        # unit prefactor: ((gamma-1)/(A gamma))^(1/(gamma-1)) = 1.
        eos = EquationOfState(gamma=1.5, A_const=1.0, c_light=10.0)
        k = ((eos.gamma - 1) / (eos.A_const * eos.gamma)) ** eos.nu
        assert eos.density_from_enthalpy(4.0) == pytest.approx(k * 16.0, rel=1e-14)

    def test_round_trip(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        for rho in np.geomspace(0.01, 1.0, 8):
            u = eos.enthalpy_from_density(rho)
            assert eos.density_from_enthalpy(u) == pytest.approx(rho, rel=1e-8)

    def test_ddensity_denthalpy_matches_central_difference(self):
        # a nonzero Y_rho exercises both terms of f_N'(1 + Y_rho) + f_N Y_rho'/c^2
        eos = EquationOfState(gamma=5 / 3, A_const=1.0, c_light=2.0, upsilon_rho=(0.7, -0.4))
        for u in [0.3, 1.0, 2.5]:
            h = 1e-5 * u
            fd = (eos.density_from_enthalpy(u + h) - eos.density_from_enthalpy(u - h)) / (2 * h)
            assert eos.ddensity_denthalpy(u) == pytest.approx(fd, rel=1e-8)

    def test_series_radius_enforced(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 1.0, series_radius=0.5)
        with pytest.raises(SeriesDomainError):
            eos.density_from_enthalpy(0.9)


class TestPressureFromEnthalpy:
    def test_vacuum(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        assert eos.pressure_from_enthalpy(-1.0) == 0.0
        assert eos.pressure_from_enthalpy(0.0) == 0.0

    def test_newtonian_form(self):
        # f_N^P(u) = A k_rho^gamma u^(gamma/(gamma-1))
        eos = EquationOfState(gamma=1.5, A_const=1.0, c_light=50.0)
        u = 2.0
        assert eos.f_N_P(u) == pytest.approx(eos.k_P * u**3.0, rel=1e-14)

    def test_enthalpy_identity_dP_du(self):
        # dP/du = rho + P/c^2, checked by centered finite differences.
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        for u in [0.5, 1.0, 2.0]:
            h = 1e-6 * u
            dP = (eos.pressure_from_enthalpy(u + h) - eos.pressure_from_enthalpy(u - h)) / (2 * h)
            rhs = eos.density_from_enthalpy(u) + eos.pressure_from_enthalpy(u) / eos.c_light**2
            assert dP == pytest.approx(rhs, rel=1e-6)

    def test_consistent_upsilon_recurrence(self):
        # First coefficient from the order-by-order identity.
        g = 5 / 3
        b = consistent_upsilon_P(g, (), 3)
        assert b[0] == pytest.approx((g - 1) / (2 * g - 1), rel=1e-14)


class TestVacuumBoundary:
    def test_continuity_and_c1_vanishing(self):
        # rho(u) is continuous at u=0 with zero one-sided derivative since
        # 1/(gamma-1) > 1.
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        eps = 1e-8
        assert eos.density_from_enthalpy(eps) < 1e-10
        assert eos.density_from_enthalpy(eps) / eps < 1e-3

    def test_causality_sampled(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 3.0, series_radius=2.0)
        for rho in np.geomspace(1e-3, 1.0, 12):
            dP = eos.dpressure_ddensity(rho)
            assert 0 < dP < eos.c_light**2


class TestHrho:
    def test_zero_shift(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        assert eos.h_rho(1.0, 0.0) == 0.0

    def test_vacuum_everywhere(self):
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        assert eos.h_rho(-0.5, -10.0) == 0.0

    def test_exact_quadratic_case(self):
        # gamma = 3/2: f_N_rho = k u^2, so H_rho(w) = k((u+s)^2 - u^2 - 2us)
        # = k s^2 with s = w/c^2.
        eos = EquationOfState(gamma=1.5, A_const=1.0, c_light=10.0)
        k = eos.k_rho
        u_N, w = 1.0, 10.0  # s = 0.1
        assert eos.h_rho(u_N, w) == pytest.approx(0.01 * k, rel=1e-12)

    def test_smallness_exponent(self):
        # sup |H_rho| over a grid straddling the vacuum boundary scales like
        # (|w|/c^2)^(1/(gamma-1)) for small w.
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 1.0)
        u_grid = np.concatenate([-np.geomspace(1e-6, 0.1, 40), np.geomspace(1e-6, 1.0, 80)])
        amps = np.geomspace(1e-5, 1e-2, 6)
        sups = [np.max(np.abs(eos.h_rho(u_grid, a))) for a in amps]
        slope = np.polyfit(np.log(amps), np.log(sups), 1)[0]
        assert slope >= eos.nu - 0.05


class TestNeutronStar:
    def test_origin(self):
        tab = neutron_star_eos(1.0)
        assert tab.rho[0] == 0.0 and tab.P[0] == 0.0

    def test_antiderivatives_match_quadrature(self):
        from scipy.integrate import quad

        tab = neutron_star_eos(2.0, c_light=1.0)
        for Q in [0.3, 1.0, 4.0]:
            num_P, _ = quad(lambda q: q**4 / np.sqrt(1 + q**2), 0, Q)
            num_r, _ = quad(lambda q: q**2 * np.sqrt(1 + q**2), 0, Q)
            i = np.searchsorted(tab.Q, Q)
            # recompute through the table's closed forms at this exact Q
            from rotstar.eos import _fermi_P_integral, _fermi_rho_integral

            assert _fermi_P_integral(Q) == pytest.approx(num_P, rel=1e-10)
            assert _fermi_rho_integral(Q) == pytest.approx(num_r, rel=1e-10)

    def test_sound_speed_bound(self):
        tab = neutron_star_eos(1.5, c_light=2.0)
        dd = tab.dP_drho(tab.Q)
        assert np.all(dd < tab.c_light**2 / 3.0)
        # matches the finite-difference slope of the table away from 0
        mid = slice(40, -1)
        fd = np.diff(tab.P) / np.diff(tab.rho)
        Qmid = 0.5 * (tab.Q[1:] + tab.Q[:-1])
        assert np.allclose(fd[mid], tab.dP_drho(Qmid)[mid], rtol=2e-3)

    def test_small_Q_gamma_law(self):
        tab = neutron_star_eos(2.0, c_light=1.0)
        small = (tab.Q > 0) & (tab.Q < 1e-2)
        ratio = tab.P[small] / (tab.A_fit * tab.rho[small] ** (5 / 3))
        assert np.allclose(ratio, 1.0, atol=5e-4)

    def test_export(self, tmp_path):
        tab = neutron_star_eos(1.0, n_points=50)
        path = tmp_path / "ns.dat"
        tab.export_text(path)
        data = np.loadtxt(path)
        assert data.shape == (50, 2)
