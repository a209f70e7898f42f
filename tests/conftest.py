"""Session fixtures: the solver sweeps are expensive and shared between the
unit tests and the acceptance gate, so they run once per session."""

from types import SimpleNamespace

import pytest

from rotstar import greens
from rotstar.eos import EquationOfState
from rotstar.lane_emden import solve_classical, solve_distorted
from rotstar.pn import PNSolver, SolverOptions, StarParams
from rotstar.tov import solve_tov

EPS_SWEEP = (1e-3, 5e-4, 2.5e-4)
B_ROT = 1e-3


@pytest.fixture(scope="session")
def cls15():
    return solve_classical(1.5)


@pytest.fixture(scope="session")
def eos_unit():
    return EquationOfState.gamma_law(5 / 3, 1.0, 1.0)


@pytest.fixture(scope="session")
def dle_rot(cls15):
    return solve_distorted(1.5, B_ROT, classical=cls15)


@pytest.fixture(scope="session")
def dle_static(cls15):
    return solve_distorted(1.5, 0.0, classical=cls15)


def _options(n_int=65, n_ext=49):
    # SolverOptions' own tolerances, the ones `rotstar solve` takes by default
    return SolverOptions(n_interior=n_int, n_exterior=n_ext)


@pytest.fixture(scope="session")
def rotating_sweep(cls15, eos_unit, dle_rot):
    """b = 1e-3 solves for eps in {1e-3, 5e-4, 2.5e-4} at N = 65.

    They run on kernel caches of their own, so the tables and far operators
    their reports give are the ones these solves filled and built, whatever
    tests ran before."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greens, "_TABLE_CACHE", {})
        mp.setattr(greens, "_FAR_CACHE", {})
        for eps in EPS_SWEEP:
            p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=eps, b_rot=B_ROT, classical=cls15)
            solver = PNSolver(p, eos_unit, _options(), dle=dle_rot, classical=cls15)
            out[eps] = solver.solve()
    return out


@pytest.fixture(scope="session")
def static_sweep(cls15, eos_unit, dle_static):
    """Omega = 0 solves plus matching TOV references."""
    out = {}
    for eps in EPS_SWEEP:
        p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=eps, b_rot=0.0, classical=cls15)
        solver = PNSolver(p, eos_unit, _options(), dle=dle_static, classical=cls15)
        out[eps] = (solver.solve(), solve_tov(eos_unit, eps))
    return out


@pytest.fixture(scope="session")
def refinement_runs(cls15, eos_unit, dle_rot, rotating_sweep):
    """The eps = 1e-3, b = 1e-3 star solved at three grid levels; the 65/49
    level is rotating_sweep's star of that eps, with the same parameters,
    options and profile."""
    p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=B_ROT, classical=cls15)

    def solve(n_int, n_ext):
        return PNSolver(p, eos_unit, _options(n_int, n_ext), dle=dle_rot, classical=cls15).solve()

    return {49: solve(49, 33), 65: rotating_sweep[1e-3], 97: solve(97, 65)}


@pytest.fixture(scope="session")
def rotating_solver(cls15, eos_unit, dle_rot):
    """A live solver instance (for operation-level tests) at eps = 1e-3."""
    p = StarParams.build(5 / 3, 1.0, 1.0, 1.0, u_O=1e-3, b_rot=B_ROT, classical=cls15)
    return PNSolver(p, eos_unit, _options(), dle=dle_rot, classical=cls15)


@pytest.fixture(scope="session")
def kerr_levels():
    """Kerr residual sups for three spins at three grid levels."""
    from rotstar.metric import KerrParams
    from rotstar.verify import kerr_refinement

    params = SimpleNamespace(G_grav=1.0, c_light=1.0)
    return {a: kerr_refinement(KerrParams(1.0, a), params, (61, 121, 241))
            for a in (0.0, 0.5, 0.9)}
