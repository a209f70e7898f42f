import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import rotstar
from rotstar import cli, lane_emden
from rotstar.cli import cmd_tov_compare, main
from rotstar.config import build_solver_options, build_star, load_config
from rotstar.errors import ConfigError
from rotstar.fields import AxiField, AxiGrid
from rotstar.gridio import read_field, write_field
from rotstar.pn import SolverOptions


TINY = """
star: {{u_O: 1.0e-3, b_rot: {b}}}
grid: {{n_interior: 33, n_exterior: 25}}
lane_emden: {{n_radial: 257, n_zeta: 16, report_grid: 33}}
solver: {{tol_inner: 1.0e-8, tol_outer: 1.0e-7}}
output: {{directory: "{out}"}}
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

    @pytest.mark.parametrize("key", ["solver.alpha_holder", "solver.ball_M",
                                     "verify.residual_order_min", "verify.axis_strip_r1",
                                     "output.formats", "solver.damping", "solver.newtonian_tol",
                                     "solver.beta0", "solver.delta0", "lane_emden.damping",
                                     "kerr.margin", "kerr.measure_margin", "tov.rtol",
                                     "lane_emden.tol", "output.quiet"])
    def test_removed_key_rejected(self, tmp_path, key):
        section, name = key.split(".")
        cfg = write_cfg(tmp_path, f"star: {{u_O: 1.0e-3, b_rot: 0.0}}\n{section}: {{{name}: 1}}\n")
        assert main(["lane-emden", "--config", cfg]) == 1

    def test_naked_spin_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "star: {u_O: 1.0e-3, b_rot: 0.0}\nkerr: {m_geom: 1.0, a_spin: 1.5}\n",
        )
        assert main(["kerr-check", "--config", cfg]) == 1

    # (files written under tmp_path, command line with {tmp} for tmp_path)
    BAD_INPUT = {
        "missing config": ({}, ["solve", "--config", "{tmp}/absent.yaml"]),
        "malformed yaml": ({"cfg.yaml": "star: {u_O: 1.0e-3\n"},
                           ["solve", "--config", "{tmp}/cfg.yaml"]),
        "section not a mapping": ({"cfg.yaml": "star: [1, 2]\n"},
                                  ["solve", "--config", "{tmp}/cfg.yaml"]),
        "string grid size": ({"cfg.yaml": "grid: {n_interior: abc}\n"},
                             ["solve", "--config", "{tmp}/cfg.yaml"]),
        "string u_O": ({"cfg.yaml": "star: {u_O: abc}\n"},
                       ["solve", "--config", "{tmp}/cfg.yaml"]),
        "list key eos.upsilon_rho": ({"cfg.yaml": "eos: {upsilon_rho: abc}\n"},
                                     ["solve", "--config", "{tmp}/cfg.yaml"]),
        "list key eos.upsilon_P": ({"cfg.yaml": "eos: {upsilon_P: abc}\n"},
                                   ["solve", "--config", "{tmp}/cfg.yaml"]),
        "list key kerr.levels": ({"cfg.yaml": "kerr: {levels: abc}\n"},
                                 ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        "list key verify.fit_window": ({"cfg.yaml": "verify: {fit_window: abc}\n"},
                                       ["solve", "--config", "{tmp}/cfg.yaml"]),
        "list key sweep.values": ({"cfg.yaml": "sweep: {values: abc}\n"},
                                  ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "verify with a dump missing": ({"run/manifest.json": '{"config": {"eos": {}, "star": {}}}'},
                                       ["verify", "--run", "{tmp}/run"]),
        "verify with a bad manifest": ({"run/manifest.json": "{not json"},
                                       ["verify", "--run", "{tmp}/run"]),
        "export of a missing dump": ({}, ["export", "--dump", "{tmp}/absent.axfd"]),
        "negative star.b_rot": ({"cfg.yaml": "star: {b_rot: -1.0}\n"},
                                ["solve", "--config", "{tmp}/cfg.yaml"]),
        "zero lane_emden.n_zeta": ({"cfg.yaml": "lane_emden: {n_zeta: 0}\n"},
                                   ["solve", "--config", "{tmp}/cfg.yaml"]),
        "negative lane_emden.lmax": ({"cfg.yaml": "lane_emden: {lmax: -2}\n"},
                                     ["solve", "--config", "{tmp}/cfg.yaml"]),
        "two-node lane_emden.n_radial": ({"cfg.yaml": "lane_emden: {n_radial: 2}\n"},
                                         ["solve", "--config", "{tmp}/cfg.yaml"]),
        "zero lane_emden.report_grid": ({"cfg.yaml": "lane_emden: {report_grid: 0}\n"},
                                        ["lane-emden", "--config", "{tmp}/cfg.yaml"]),
        "zero solver.max_inner": ({"cfg.yaml": "solver: {max_inner: 0}\n"},
                                  ["solve", "--config", "{tmp}/cfg.yaml"]),
        "fractional solver.max_inner": ({"cfg.yaml": "solver: {max_inner: 2.5}\n"},
                                        ["solve", "--config", "{tmp}/cfg.yaml"]),
        "zero solver.max_outer": ({"cfg.yaml": "solver: {max_outer: 0}\n"},
                                  ["solve", "--config", "{tmp}/cfg.yaml"]),
        "zero lane_emden.max_iter": ({"cfg.yaml": "lane_emden: {max_iter: 0}\n"},
                                     ["solve", "--config", "{tmp}/cfg.yaml"]),
        "negative kerr.window": ({"cfg.yaml": "kerr: {window: -3.0}\n"},
                                 ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        "no measured node in kerr.window": ({"cfg.yaml": "kerr: {window: 1.0}\n"},
                                            ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        "unknown section in sweep.param": ({"cfg.yaml": "sweep: {param: a.b}\n"},
                                           ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "integer sweep.param": ({"cfg.yaml": "sweep: {param: 12}\n"},
                                ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "unknown star key in sweep.param": ({"cfg.yaml": "sweep: {param: bogus}\n"},
                                            ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "sweep of a fraction into grid.n_interior": (
            {"cfg.yaml": "sweep: {param: grid.n_interior, values: [33, 33.5]}\n"},
            ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "unknown command": ({}, ["bogus"]),
        "unknown --patch": ({}, ["export", "--dump", "{tmp}/W.axfd", "--patch", "x"]),
        "retired --grid-level": ({}, ["solve", "--grid-level", "65"]),
    }

    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_exits_1(self, tmp_path, capsys, case):
        files, argv = self.BAD_INPUT[case]
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        key = case.split()[-1]
        if "." in key:  # the message names the key a case ends with
            assert key in err
        assert not (tmp_path / "out").exists()  # nothing written on bad input

    @pytest.mark.parametrize("key, val", [("verify.fit_window", [0.0, 5.0]),
                                          ("verify.fit_window", [15.0, 5.0]), ("kerr.levels", [61]),
                                          ("kerr.levels", [61.0, 121.0]), ("sweep.values", [1e-3])])
    def test_list_key_rules(self, key, val):
        # a positive increasing fit window; two or more levels and sweep values
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=key):
            load_config({section: {name: val}})

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "usage: rotstar" in capsys.readouterr().out

    def test_sweep_param_takes_a_number(self):
        for param in ("u_O", "star.b_rot", "grid.n_interior", "lane_emden.lmax"):
            assert load_config({"sweep": {"param": param}}).sweep["param"] == param
        for param in ("output.directory", "kerr.levels", "eos.upsilon_P"):
            with pytest.raises(ConfigError, match="sweep.param"):
                load_config({"sweep": {"param": param}})

    def test_solver_section_is_solver_options(self):
        # the solver section passes to SolverOptions whole, next to the grid sizes
        grid_keys = {"n_interior", "n_exterior"}
        options = {f.name: f.default for f in fields(SolverOptions) if f.name not in grid_keys}
        assert load_config().solver == options

    def test_cli_builds_the_library_star(self):
        # the star rotstar builds from the default config is the one the
        # library's own defaults give, as the tests and the benchmark build it
        cfg = load_config({"star": {"u_O": 1.0e-3, "b_rot": 1.0e-3}})
        _, params, dle = build_star(cfg)
        nu = 1.0 / (5.0 / 3.0 - 1.0)
        ref = lane_emden.solve_distorted(nu, 1.0e-3, classical=lane_emden.solve_classical(nu))
        assert params.nu == nu
        assert np.array_equal(dle.Theta, ref.Theta) and dle.iterations == ref.iterations
        grid = cfg.grid["n_interior"], cfg.grid["n_exterior"]
        assert build_solver_options(cfg) == SolverOptions(*grid)


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

    def test_no_classical_zero_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lane_emden, "XI_MAX", 3.0)  # below xi1 = 3.6538 at gamma = 5/3
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=tmp_path / "le"))
        assert main(["lane-emden", "--config", cfg]) == 2
        assert capsys.readouterr().err == "convergence error: no zero of theta found before xi=3.0\n"


class TestSolveCommand:
    def test_static_star_summary(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["J"] == pytest.approx(0.0, abs=1e-12)
        assert abs(man["M"] - man["M_N"]) < 0.05 * man["M_N"]
        assert (out / "W.axfd").exists()

    def test_rotating_far_field(self, tmp_path):
        # K = V/c^4 falls like 1/r^2 in the manifest's own far-field fit, and
        # the two V quadratures' overlap mismatch is reported beside it
        out = tmp_path / "rot"
        cfg = write_cfg(tmp_path, TINY.format(b=1.0e-3, out=out))
        assert main(["solve", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert abs(man["verify"]["asymptotics"]["orders"]["K"] - 2.0) <= 0.3
        assert set(man["diagnostics"]["v_overlap"]) == {"mean", "spread"}

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

    def test_manifest_reproducible(self, tmp_path):
        # two fresh processes, one --quiet, solve one config: the manifests
        # differ only in the process's clock and peak RSS, and --quiet
        # leaves the config digest alone
        cfg = write_cfg(tmp_path, TINY.format(b=1.0e-3, out=tmp_path / "unused"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(rotstar.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        runs = [subprocess.Popen([sys.executable, "-m", "rotstar.cli", "solve", "--config", cfg,
                                  "--out", str(tmp_path / name), *flags],
                                 stdout=subprocess.PIPE, text=True, env=env)
                for name, flags in (("loud", []), ("quiet", ["--quiet"]))]
        outs = [run.communicate(timeout=600)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outs[0].startswith("solve: outer iterations") and outs[1] == ""
        loud, quiet = (json.loads((tmp_path / name / "manifest.json").read_text())
                       for name in ("loud", "quiet"))
        for man in (loud, quiet):
            # the process peak holds at least the tables and far operators
            ops = man["diagnostics"]["green_ops"]
            assert man.pop("peak_rss_mb") * 2**20 >= ops["table_bytes"] + ops["far_bytes"]
            man.pop("created_unix")
        assert loud == quiet

    def test_lane_emden_section_reaches_solve(self, tmp_path):
        # solve builds its profile from the whole lane_emden section, as
        # lane-emden does: one sweep cannot converge, so both exit 2
        body = TINY.format(b=1.0e-3, out=tmp_path / "run").replace(
            "report_grid: 33", "report_grid: 33, max_iter: 1")
        cfg = write_cfg(tmp_path, body)
        assert main(["lane-emden", "--config", cfg]) == 2
        assert main(["solve", "--config", cfg]) == 2

    def test_regime_warning_flags(self, tmp_path, capsys):
        # --quiet drops stdout, so the warning must reach stderr to be seen
        out = tmp_path / "hot"
        body = TINY.format(b=0.0, out=out).replace("u_O: 1.0e-3", "u_O: 0.05")
        cfg = write_cfg(tmp_path, body)
        assert main(["solve", "--config", cfg, "--quiet"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert not man["diagnostics"]["regime_flags"]["D2_epsilon_small"]
        captured = capsys.readouterr()
        assert "warning: regime flags" in captured.err
        assert captured.out == ""

    def test_verify_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0
        rep = json.loads((tmp_path / "ver" / "verify_report.json").read_text())
        # the dumped fields read back verify exactly as the solved state did
        assert rep == json.loads((out / "manifest.json").read_text())["verify"]

    def test_verify_manifest_with_removed_keys(self, tmp_path):
        # verify reads only the manifest's eos and star sections, so runs
        # written with keys this version rejects still verify
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        path = out / "manifest.json"
        man = json.loads(path.read_text())
        man["config"]["solver"].update(alpha_holder=0.25, ball_M=50.0, damping=1.0)
        man["config"]["output"]["formats"] = ["binary"]
        path.write_text(json.dumps(man))
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0

    def test_verify_exits_2_on_assumption_B(self, tmp_path, capsys):
        # F lowered by 10 inside the star: e^{2F} falls below Omega Pi/c,
        # so e^{2G} < 0 there and the fluid would move faster than light
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=1.0e-3, out=out))
        assert main(["solve", "--config", cfg]) == 0
        F, _ = read_field(out / "F.axfd")
        F.int_vals[F.grid.RI < F.grid.R0 / 4] -= 10.0
        write_field(out / "F.axfd", F, name="F")
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("regime error:") and "assumption (B)" in err

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
            f'output: {{directory: "{out}"}}\n'
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
            f'output: {{directory: "{out}"}}\n'
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
        # criterion 10's split of the gap on the same rays
        assert man["newtonian_gap"] > 0
        assert 0 < man["post_newtonian_gap"] < man["sup_F_gap"]

    def test_rotating_config_left_unchanged(self, tmp_path):
        out = tmp_path / "tov"
        cfg = load_config(write_cfg(tmp_path, TINY.format(b=1.0e-3, out=out)))
        before = cfg.to_dict()
        assert cmd_tov_compare(cfg, argparse.Namespace(out=None)) == 0
        assert cfg.to_dict() == before
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["star"]["b_rot"] == 0.0


class TestSweepCommand:
    def test_exponents_from_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        body = (
            f'output: {{directory: "{out}"}}\n'
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

    def test_workers_capped_at_values(self, tmp_path, monkeypatch):
        # a fork pool starts all max_workers processes at its first submit,
        # so sweep asks for no more workers than it has values; the pool and
        # the worker here are stand-ins, and no process starts
        import concurrent.futures

        pools = []

        class Pool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        def worker(cfg):
            return {key: cfg.star["u_O"] ** 2 for key in ("W_sup", "Y_sup", "X_sup", "K_sup")}

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_sweep_worker", worker)
        cfg = load_config({"output": {"directory": str(tmp_path)},
                           "sweep": {"param": "u_O", "values": [1.0e-3, 5.0e-4], "workers": 64}})
        assert cli.cmd_sweep(cfg, argparse.Namespace(out=None)) == 0
        assert pools == [2]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert [r["value"] for r in man["results"]] == [1.0e-3, 5.0e-4]
