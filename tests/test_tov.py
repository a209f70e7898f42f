import numpy as np
import pytest

from rotstar import tov as tov_module
from rotstar.eos import EquationOfState
from rotstar.errors import ConvergenceError
from rotstar.lane_emden import solve_classical
from rotstar.tov import solve_tov


@pytest.fixture(scope="module")
def eos():
    return EquationOfState.gamma_law(5 / 3, 1.0, 1.0)


@pytest.fixture(scope="module")
def cls15():
    return solve_classical(1.5)


def lane_emden_mass(eos, u_O, cls):
    rho_c = float(eos.density_from_enthalpy(u_O))
    a = np.sqrt(eos.A_const * eos.gamma / (4 * np.pi * (eos.gamma - 1))) * rho_c ** (
        -(2 - eos.gamma) / 2
    )
    return 4 * np.pi * rho_c * a**3 * cls.mu1, a


class TestNewtonianLimit:
    def test_mass_converges_to_lane_emden(self, eos, cls15):
        gaps = []
        for u_O in (1e-3, 1e-4):
            tov = solve_tov(eos, u_O)
            M_N, a = lane_emden_mass(eos, u_O, cls15)
            gaps.append(abs(tov.M_total - M_N) / M_N)
        assert gaps[0] < 5e-3
        # first post-Newtonian mass shift is linear in u_O/c^2
        assert gaps[1] < 0.15 * gaps[0]

    def test_radius_near_lane_emden(self, eos, cls15):
        u_O = 1e-4
        tov = solve_tov(eos, u_O)
        _, a = lane_emden_mass(eos, u_O, cls15)
        assert tov.r_surface == pytest.approx(a * cls15.xi1, rel=2e-3)


class TestExterior:
    def test_schwarzschild_areal(self, eos):
        tov = solve_tov(eos, 1e-3)
        r = np.array([1.5 * tov.r_surface, 4 * tov.r_surface])
        exact = 0.5 * np.log(1 - 2 * tov.M_total / r)
        assert np.allclose(tov.F_areal(r), exact, rtol=1e-12)

    def test_schwarzschild_isotropic(self, eos):
        tov = solve_tov(eos, 1e-3)
        ell = np.array([2.0 * tov.ell[-1], 5.0 * tov.ell[-1]])
        M = tov.M_total
        exact = np.log((1 - M / (2 * ell)) / (1 + M / (2 * ell)))
        assert np.allclose(tov.F_isotropic(ell), exact, rtol=1e-12)

    def test_gauge_map_continuity(self, eos):
        # interior spline and exterior closed form meet at the surface radius
        tov = solve_tov(eos, 1e-3)
        es = tov.ell[-1]
        inside = tov.F_isotropic(np.array([es * (1 - 1e-12)]))[0]
        outside = tov.F_isotropic(np.array([es * (1 + 1e-12)]))[0]
        assert inside == pytest.approx(outside, abs=1e-8 * abs(inside))


class TestSurfaceSearch:
    def test_no_surface_before_search_end(self, eos, monkeypatch):
        # the surface lies near 1.03 sqrt(u_O/(G rho_c)) for gamma = 5/3
        monkeypatch.setattr(tov_module, "R_MAX_FACTOR", 0.5)
        with pytest.raises(ConvergenceError) as exc:
            solve_tov(eos, 1e-3)
        assert str(exc.value) == "TOV integration found no surface"
        assert exc.value.residual is None and exc.value.iterations is None


class TestCenter:
    def test_central_values(self, eos):
        u_O = 2e-3
        tov = solve_tov(eos, u_O)
        assert tov.u[0] == u_O
        assert tov.m[0] == 0.0
        # central F from the first integral: F(0) = -u_O + F_surface_match
        C_F = 0.5 * np.log(1 - 2 * tov.M_total / tov.r_surface)
        assert tov.F_areal(np.array([0.0]))[0] == pytest.approx(-u_O + C_F, rel=1e-10)
