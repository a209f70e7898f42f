import json
from pathlib import Path

import numpy as np
import pytest

from rotstar.cli import cmd_tov_compare, main
from rotstar.config import load_config
from rotstar.fields import AxiField, AxiGrid
from rotstar.gridio import write_field


TINY = """
star: {{u_O: 1.0e-3, b_rot: {b}}}
grid: {{n_interior: 33, n_exterior: 25}}
lane_emden: {{n_radial: 257, n_zeta: 16, report_grid: 33}}
solver: {{tol_inner: 1.0e-8, tol_outer: 1.0e-7}}
output: {{directory: "{out}", quiet: true}}
"""


def write_cfg(tmp_path, body):
    path = tmp_path / "cfg.yaml"
    path.write_text(body)
    return str(path)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "star: {u_O: 1.0e-3, b_rot: 0.0, bogus: 1}\n")
        assert main(["solve", "--config", cfg]) == 1

    def test_missing_gamma_is_defaulted_but_bad_gamma_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "eos: {gamma: 2.5}\nstar: {u_O: 1.0e-3, b_rot: 0.0}\n")
        assert main(["lane-emden", "--config", cfg]) == 1

    def test_both_rotation_specs_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "star: {u_O: 1.0e-3, b_rot: 1.0e-3, Omega_O: 0.1}\n")
        assert main(["solve", "--config", cfg]) == 1

    def test_naked_spin_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "star: {u_O: 1.0e-3, b_rot: 0.0}\nkerr: {m_geom: 1.0, a_spin: 1.5}\n",
        )
        assert main(["kerr-check", "--config", cfg]) == 1


class TestLaneEmdenCommand:
    def test_summary_and_artifacts(self, tmp_path):
        out = tmp_path / "le"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["lane-emden", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        # gamma = 5/3 star: the classical first zero
        assert man["xi1"] == pytest.approx(3.653753736219, rel=1e-9)
        # coarse radial resolution in this config; the 1e-6 figure needs the
        # production n_radial and is enforced in the acceptance suite
        assert man["b0_matches_classical_within"] < 1e-5
        assert (out / "xi1_curve.dat").exists()


class TestSolveCommand:
    def test_static_star_summary(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["J"] == pytest.approx(0.0, abs=1e-12)
        assert abs(man["M"] - man["M_N"]) < 0.05 * man["M_N"]
        assert (out / "W.axfd").exists()

    def test_deterministic_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = write_cfg(tmp_path, TINY.format(b=0.0, out=out1))
        assert main(["solve", "--config", cfg1]) == 0
        cfg2 = write_cfg(tmp_path, TINY.format(b=0.0, out=out2))
        assert main(["solve", "--config", cfg2]) == 0
        for name in ("W", "X", "V", "rho"):
            b1 = (out1 / f"{name}.axfd").read_bytes()
            b2 = (out2 / f"{name}.axfd").read_bytes()
            assert b1 == b2, name

    def test_regime_warning_flags(self, tmp_path):
        out = tmp_path / "hot"
        body = TINY.format(b=0.0, out=out).replace("u_O: 1.0e-3", "u_O: 0.05")
        cfg = write_cfg(tmp_path, body)
        assert main(["solve", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert not man["diagnostics"]["regime_flags"]["D2_epsilon_small"]

    def test_verify_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0
        rep = json.loads((tmp_path / "ver" / "verify_report.json").read_text())
        assert "residuals" in rep

    def test_export(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        assert main(["export", "--config", cfg, "--dump", str(out / "W.axfd"),
                     "--out", str(tmp_path / "exp")]) == 0
        data = np.loadtxt(tmp_path / "exp" / "W.interior.dat")
        assert data.shape[1] == 3

    def test_export_truncated_dump(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=tmp_path / "run"))
        dump = tmp_path / "W.axfd"
        write_field(dump, AxiField.zeros(AxiGrid(1.0, 17, 13)), name="W")
        dump.write_bytes(dump.read_bytes()[: dump.stat().st_size // 2])
        assert main(["export", "--config", cfg, "--dump", str(dump),
                     "--out", str(tmp_path / "exp")]) == 1


class TestKerrCheckCommand:
    def test_schwarzschild_passes(self, tmp_path):
        out = tmp_path / "kerr"
        body = (
            f'output: {{directory: "{out}", quiet: true}}\n'
            "kerr: {m_geom: 1.0, a_spin: 0.0, levels: [61, 121]}\n"
            "star: {u_O: 1.0e-3, b_rot: 0.0}\n"
        )
        cfg = write_cfg(tmp_path, body)
        assert main(["kerr-check", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["M_err_rel"] < 0.01

    def test_spinning_orders(self, tmp_path):
        out = tmp_path / "kerr5"
        body = (
            f'output: {{directory: "{out}", quiet: true}}\n'
            "kerr: {m_geom: 1.0, a_spin: 0.5, levels: [61, 121]}\n"
            "star: {u_O: 1.0e-3, b_rot: 0.0}\n"
        )
        cfg = write_cfg(tmp_path, body)
        assert main(["kerr-check", "--config", cfg]) == 0


class TestTovCompareCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "tov"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["tov-compare", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["M_tov"] > 0
        assert man["rel_gap"] < 0.2  # coarse-grid bound; refined in acceptance

    def test_rotating_config_left_unchanged(self, tmp_path):
        out = tmp_path / "tov"
        cfg = load_config(write_cfg(tmp_path, TINY.format(b=1.0e-3, out=out)))
        before = cfg.to_dict()
        assert cmd_tov_compare(cfg, None) == 0
        assert cfg.to_dict() == before
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["star"]["b_rot"] == 0.0


class TestSweepCommand:
    def test_exponents_from_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        body = (
            f'output: {{directory: "{out}", quiet: true}}\n'
            "star: {u_O: 1.0e-3, b_rot: 0.0}\n"
            "grid: {n_interior: 33, n_exterior: 25}\n"
            "lane_emden: {n_radial: 257, n_zeta: 16}\n"
            "solver: {tol_inner: 1.0e-8, tol_outer: 1.0e-7}\n"
            "sweep: {param: u_O, values: [1.0e-3, 5.0e-4], workers: 1}\n"
        )
        cfg = write_cfg(tmp_path, body)
        assert main(["sweep", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        exps = man["fitted_exponents"]
        # two-point fits at coarse resolution: the quadratic scalings of the
        # static unknowns are still unmistakable
        assert abs(exps["W_sup_exponent"] - 2.0) < 0.1
        assert abs(exps["X_sup_exponent"] - 2.0) < 0.1
