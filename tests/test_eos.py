from dataclasses import replace

import numpy as np
import pytest

from rotstar.eos import EquationOfState, consistent_upsilon_P
from rotstar.errors import SeriesDomainError


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

    def test_series_radius_enforced(self):
        eos = replace(EquationOfState.gamma_law(5 / 3, 1.0, 1.0), series_radius=0.5)
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


class TestNewtonianPowers:
    # f_N_rho, f_N_P and df_N_rho take (u v 0)^p only where u <= 0 is
    # false; their bytes are those of the power taken on every node, at
    # +-0, 1e-300 and NaN too, for nu = 1.5, 3, 4 and 1.11, and a scalar's
    # those of numpy's scalar power (its array loop rounds 5 % of powers
    # apart)
    U = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 0.3, 1.0, np.nan, -np.inf, np.inf])

    @pytest.mark.parametrize("gamma", [5 / 3, 4 / 3, 1.25, 1.9])
    def test_bytes_of_the_all_node_power(self, gamma):
        eos = EquationOfState.gamma_law(gamma, 1.3, 1.0)
        for u in (self.U, self.U.reshape(2, 5), self.U[5]):
            full = np.maximum(u, 0.0)
            for got, ref in ((eos.f_N_rho(u), eos.k_rho * full**eos.nu),
                             (eos.f_N_P(u), eos.k_P * full ** (eos.nu + 1.0)),
                             (eos.df_N_rho(u), eos.nu * eos.k_rho * full ** (eos.nu - 1.0))):
                assert np.shape(got) == np.shape(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestVacuumBoundary:
    def test_continuity_and_c1_vanishing(self):
        # rho(u) is continuous at u=0 with zero one-sided derivative since
        # 1/(gamma-1) > 1.
        eos = EquationOfState.gamma_law(5 / 3, 1.0, 10.0)
        eps = 1e-8
        assert eos.density_from_enthalpy(eps) < 1e-10
        assert eos.density_from_enthalpy(eps) / eps < 1e-3

    def test_causality_sampled(self):
        # dP/drho = (dP/du)/(drho/du) by centered differences, over the
        # enthalpies of rho in [1e-3, 1]
        eos = replace(EquationOfState.gamma_law(5 / 3, 1.0, 3.0), series_radius=2.0)
        for u in np.geomspace(0.025, 2.5, 12):
            h = 1e-6 * u
            dP = eos.pressure_from_enthalpy(u + h) - eos.pressure_from_enthalpy(u - h)
            drho = eos.density_from_enthalpy(u + h) - eos.density_from_enthalpy(u - h)
            assert 0 < dP / drho < eos.c_light**2


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
