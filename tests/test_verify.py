from types import SimpleNamespace

import numpy as np
import pytest

from rotstar.errors import ErgoViolationError
from rotstar.metric import KerrParams, kerr_eval_fns
from rotstar.verify import (
    asymptotic_fit,
    consistency_K,
    kerr_mask,
    kerr_window,
    refinement_orders,
    residual_reduced_system,
    ricci_cross_check,
)

from oracles import flat_window


PARAMS = SimpleNamespace(G_grav=1.0, c_light=1.0)


class TestFlatSpace:
    def test_all_reduced_residuals_zero(self):
        win = flat_window(1.0, 65)
        rep = residual_reduced_system(win, PARAMS)
        for name, sup in rep.sups.items():
            assert sup <= 1e-12, name

    def test_consistency_zero(self):
        win = flat_window(1.0, 65)
        ck = consistency_K(win, PARAMS)
        assert ck["sup_L"] <= 1e-12
        assert ck["sup_identity"] <= 1e-12

    def test_ricci_zero(self):
        win = flat_window(1.0, 65)
        rc = ricci_cross_check(win, PARAMS)
        for name, sup in rc["sups"].items():
            assert sup <= 1e-12, name


class TestAssumptionB:
    @pytest.mark.parametrize("check", [residual_reduced_system, ricci_cross_check])
    def test_light_cylinder_in_window(self, check):
        # flat space rotating at Omega = 0.5: e^{2G} = 1 - varpi^2/4 is
        # negative past varpi = 2, inside [0, 3]^2
        win = flat_window(3.0, 31)
        win.Omega = np.full_like(win.F, 0.5)
        with pytest.raises(ErgoViolationError, match=r"assumption \(B\)"):
            check(win, PARAMS)


class TestKerrResiduals:
    def _orders(self, kerr_levels, names):
        return {(a, name): refinement_orders(recs)[name]
                for a, recs in kerr_levels.items() for name in names}

    def test_reduced_system_orders(self, kerr_levels):
        # None: identically satisfied (a = 0 makes eqb vanish)
        for key, order in self._orders(kerr_levels, ("eqa", "eqb", "eqd", "eqe")).items():
            assert order is None or abs(order - 2.0) <= 0.2, (key, order)

    def test_eqc_identically_satisfied(self, kerr_levels):
        # Pi = varpi exactly for Kerr: the residual is pure rounding
        assert set(self._orders(kerr_levels, ("eqc",)).values()) == {None}

    def test_ricci_orders(self, kerr_levels):
        for key, order in self._orders(kerr_levels, ("R00", "R02", "R22", "R11", "R33", "R13")).items():
            assert order is None or abs(order - 2.0) <= 0.2, (key, order)

    def test_consistency_L_vacuum(self, kerr_levels):
        for key, order in self._orders(kerr_levels, ("L",)).items():
            assert order is not None and abs(order - 2.0) <= 0.2, (key, order)

    def test_perturbed_kerr_linear_response(self):
        # adding an amplitude-e bump to F moves the eqa residual linearly
        kp = KerrParams(1.0, 0.5)
        sups = []
        for amp in (1e-3, 2e-3):
            win = kerr_window(kp, 12.0, 121)
            bump = amp * np.exp(-((win.W - 6) ** 2 + (win.Z - 3) ** 2))
            win.F = win.F + bump
            meas = kerr_mask(kp, win)
            rep = residual_reduced_system(win, PARAMS)
            sups.append(float(np.nanmax(np.abs(np.where(meas, rep.residuals["eqa"], np.nan)))))
        assert sups[1] / sups[0] == pytest.approx(2.0, rel=0.1)

    def test_n339_identity_on_given_K(self):
        # with an arbitrary K, L and the pressure-term right side agree up to
        # discretization; in vacuum both sides are O(h^2)-small
        kp = KerrParams(1.0, 0.5)
        win = kerr_window(kp, 12.0, 121)
        win.K = win.K + 1e-3 * np.exp(-((win.W - 5) ** 2 + win.Z**2))
        ck = consistency_K(win, PARAMS)
        meas = kerr_mask(kp, win)
        sup_ident = np.nanmax(np.abs(np.where(meas, ck["identity_resid"], np.nan)))
        # vacuum: the right side vanishes (P = 0) and L is discretization-level
        assert sup_ident == pytest.approx(
            np.nanmax(np.abs(np.where(meas, ck["L"], np.nan))), rel=1e-12
        )
        assert sup_ident < 5e-4


class TestAsymptoticFit:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    def test_kerr_mass_spin_recovery(self, a):
        kp = KerrParams(1.0, a)
        fit = asymptotic_fit(kerr_eval_fns(kp), PARAMS, (20.0, 50.0))
        assert abs(fit["M"] - 1.0) < 0.01
        if a > 0:
            assert abs(fit["J"] - a) / a < 0.01
        else:
            assert abs(fit["J"]) < 1e-10

    def test_kerr_orders(self):
        kp = KerrParams(1.0, 0.5)
        fit = asymptotic_fit(kerr_eval_fns(kp), PARAMS, (20.0, 50.0))
        assert abs(fit["orders"]["F"] - 2.0) < 0.3
        assert abs(fit["orders"]["A"] - 4.0) < 0.3
        assert fit["orders"]["Pi"] is None  # identically varpi for Kerr
        assert abs(fit["orders"]["K"] - 2.0) < 0.3

    def test_gauge_offset_reported(self):
        kp = KerrParams(1.0, 0.0)
        fns = kerr_eval_fns(kp)
        base_F = fns["F"]
        fns["F"] = lambda w, z: base_F(w, z) + 1e-3  # time-gauge shift
        fit = asymptotic_fit(fns, PARAMS, (20.0, 50.0))
        # recoverable up to the 1/r^3 truncation of the fit basis
        assert fit["gauge_offset"] == pytest.approx(1e-3, rel=1e-2)
        assert abs(fit["M"] - 1.0) < 0.01
