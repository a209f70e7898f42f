import argparse
import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotstar
from rotstar import cli, lane_emden, verify
from rotstar.cli import cmd_tov_compare, main
from rotstar.config import _DEFAULTS, build_solver_options, build_star, load_config
from rotstar.errors import ConfigError
from rotstar.fields import AxiField, AxiGrid
from rotstar.gridio import read_field, write_field
from rotstar.pn import SolverOptions
from rotstar.tov import solve_tov
from rotstar.verify import tov_gap


TINY = """
star: {{u_O: 1.0e-3, b_rot: {b}}}
grid: {{n_interior: 33, n_exterior: 25}}
solver: {{tol_inner: 1.0e-8, tol_outer: 1.0e-7}}
output: {{directory: "{out}"}}
"""


def write_cfg(tmp_path, body):
    path = tmp_path / "cfg.yaml"
    path.write_text(body)
    return str(path)


def record_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; returns the list of each call's args."""
    calls = []
    fn = getattr(owner, name)

    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


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
                                     "lane_emden.tol", "output.quiet", "verify.fit_window",
                                     "lane_emden.n_radial", "lane_emden.n_zeta", "lane_emden.lmax",
                                     "lane_emden.max_iter", "lane_emden.report_grid",
                                     "solver.max_inner", "solver.max_outer"])
    def test_removed_key_rejected(self, tmp_path, capsys, key):
        # a retired key of a kept section is an unknown key, and one of a
        # retired section (lane_emden, verify, tov) an unknown section
        section, name = key.split(".")
        cfg = write_cfg(tmp_path, f"star: {{u_O: 1.0e-3, b_rot: 0.0}}\n{section}: {{{name}: 1}}\n")
        assert main(["lane-emden", "--config", cfg]) == 1
        err = capsys.readouterr().err
        reason = f"unknown key {key}" if section in _DEFAULTS else f"unknown section {section!r}"
        assert err == f"config error: {reason}\n"

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
        "list key sweep.values": ({"cfg.yaml": "sweep: {values: abc}\n"},
                                  ["sweep", "--config", "{tmp}/cfg.yaml"]),
        "verify with a dump missing": ({"run/manifest.json": '{"config": {"eos": {}, "star": {}}}'},
                                       ["verify", "--run", "{tmp}/run"]),
        "verify with a bad manifest": ({"run/manifest.json": "{not json"},
                                       ["verify", "--run", "{tmp}/run"]),
        "export of a missing dump": ({}, ["export", "--dump", "{tmp}/absent.axfd"]),
        "negative star.b_rot": ({"cfg.yaml": "star: {b_rot: -1.0}\n"},
                                ["solve", "--config", "{tmp}/cfg.yaml"]),
        # non-finite numbers, list entries included, stop at validation, not
        # in numpy warnings or after a 400-step distorted profile
        "infinite star.b_rot": ({"cfg.yaml": "star: {b_rot: .inf}\n"},
                                ["solve", "--config", "{tmp}/cfg.yaml"]),
        "infinite star.u_O": ({"cfg.yaml": "star: {u_O: .inf}\n"},
                              ["solve", "--config", "{tmp}/cfg.yaml"]),
        "infinite eos.c_light": ({"cfg.yaml": "eos: {c_light: .inf}\n"},
                                 ["solve", "--config", "{tmp}/cfg.yaml"]),
        "NaN entry in eos.upsilon_rho": ({"cfg.yaml": "eos: {upsilon_rho: [0.5, .nan]}\n"},
                                         ["solve", "--config", "{tmp}/cfg.yaml"]),
        # each ended in a traceback: a TypeError from Path, a ValueError from
        # linspace, an IndexError, and a LinAlgError in the far-field fit
        "integer output.directory": ({"cfg.yaml": "output: {directory: 5}\n"},
                                     ["lane-emden", "--config", "{tmp}/cfg.yaml"]),
        "list output.directory": ({"cfg.yaml": "output: {directory: [a]}\n"},
                                  ["lane-emden", "--config", "{tmp}/cfg.yaml"]),
        "negative level in kerr.levels": ({"cfg.yaml": "kerr: {levels: [-5, 3]}\n"},
                                          ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        "levels of 0 and 1 nodes in kerr.levels": ({"cfg.yaml": "kerr: {levels: [0, 1]}\n"},
                                                   ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        "tiny kerr.m_geom": ({"cfg.yaml": "kerr: {m_geom: 1.0e-300, a_spin: 0.0}\n"},
                             ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
        # one grid spacing twice: a refinement order of garbage and a RankWarning
        "repeated level in kerr.levels": ({"cfg.yaml": "kerr: {levels: [61, 61]}\n"},
                                          ["kerr-check", "--config", "{tmp}/cfg.yaml"]),
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
        # an output directory that cannot be made (a file is in the way),
        # from the config and from --out: a FileExistsError from mkdir
        "file in the way of output.directory": (
            {"taken": "", "cfg.yaml": 'output: {directory: "{tmp}/taken"}\n'},
            ["lane-emden", "--config", "{tmp}/cfg.yaml"]),
        "file in the way of --out": ({"taken": ""}, ["lane-emden", "--out", "{tmp}/taken"]),
        "unknown command": ({}, ["bogus"]),
        "unknown --patch": ({}, ["export", "--dump", "{tmp}/W.axfd", "--patch", "x"]),
        "retired --grid-level": ({}, ["solve", "--grid-level", "65"]),
    }

    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_exits_1(self, tmp_path, capsys, case):
        files, argv = self.BAD_INPUT[case]
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text.replace("{tmp}", str(tmp_path)))
        # a case that names its own output keeps it; the others get one
        own_out = "--out" in argv or any("{tmp}" in text for text in files.values())
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        argv += [] if own_out else ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        key = case.split()[-1]
        if "." in key:  # the message names the key a case ends with
            assert key in err
        assert not (tmp_path / "out").exists()  # nothing written on bad input

    @pytest.mark.parametrize("key, val", [("sweep.values", [1e-3, 1e-3]), ("kerr.levels", [1, 61]),
                                          ("kerr.levels", [61]), ("kerr.levels", [61.0, 121.0]),
                                          ("sweep.values", [1e-3]), ("kerr.levels", [])])
    def test_list_key_rules(self, key, val):
        # two or more distinct levels of two or more nodes, two or more distinct sweep
        # values; an empty list is counted before its least level is taken
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=key):
            load_config({section: {name: val}})

    # odd values for any key: zero, negative, tiny, huge, infinite and NaN
    # numbers, a string, lists, null and a bool
    ODD = (0, -1, 1e-300, 1e300, float("inf"), -float("inf"), float("nan"), "abc", [0, 1], [-5, 3],
           None, True)
    KEYS = [(section, key) for section, keys in _DEFAULTS.items() for key in keys]

    @staticmethod
    def load_or_reject(given):
        """load_config returns a config or raises ConfigError: no other
        exception and no warning.  Nothing runs, so a drawn grid size, Kerr
        level or worker count allocates or forks nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_config(given)
            except ConfigError:
                pass

    def test_every_key_takes_every_odd_value(self):
        for (section, key), val in ((k, v) for k in self.KEYS for v in self.ODD):
            self.load_or_reject({section: {key: val}})

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.dictionaries(st.sampled_from(KEYS), st.sampled_from(ODD), max_size=4).map(
        lambda draws: {section: {key: val for (s, key), val in draws.items() if s == section}
                       for section, _ in draws}))
    @example({"output": {"directory": 5}})
    @example({"output": {"directory": ["a"]}})
    @example({"kerr": {"levels": [-5, 3]}})
    @example({"kerr": {"levels": [0, 1]}})
    @example({"kerr": {"m_geom": 1e-300, "a_spin": 0.0}})
    def test_odd_values_end_in_config_error(self, given):
        # the property behind exit code 1, on up to four odd keys at a time
        self.load_or_reject(given)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "usage: rotstar" in capsys.readouterr().out

    def test_sweep_param_takes_a_number(self):
        for param in ("u_O", "star.b_rot", "grid.n_interior"):
            assert load_config({"sweep": {"param": param}}).sweep["param"] == param
        for param in ("output.directory", "kerr.levels", "eos.upsilon_P"):
            with pytest.raises(ConfigError, match="sweep.param"):
                load_config({"sweep": {"param": param}})

    def test_solver_section_is_solver_options(self):
        # the solver section holds SolverOptions' tolerances, with its defaults
        options = {f.name: f.default for f in fields(SolverOptions) if f.name.startswith("tol_")}
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


# held, never drawn: a drawn grid size could allocate and a drawn worker count
# fork without bound, and kerr-check's default levels take minutes
HELD = {"grid": {"n_interior": 17, "n_exterior": 13}, "sweep": {"workers": 1},
        "kerr": {"levels": [9, 13]}}
DRAWN = [(section, key) for section, keys in _DEFAULTS.items() for key in keys
         if key not in HELD.get(section, {})]


class TestEveryConfigThroughMain:
    """A config drawn key by key from config._DEFAULTS ends solve,
    lane-emden, tov-compare and kerr-check in a documented exit code, with
    no exception or warning escaping main and a nonzero code's reason on
    stderr."""

    # the default, zero, a negative, tiny, huge, infinite and NaN numbers, a wrong type
    DEFAULT = object()
    VALUES = (DEFAULT, 0, -1, 1e-300, 1e300, float("inf"), float("nan"), "abc")
    COMMANDS = ("solve", "lane-emden", "tov-compare", "kerr-check")

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(COMMANDS),
           st.dictionaries(st.sampled_from(DRAWN), st.sampled_from(VALUES), max_size=3),
           st.sampled_from([None, *_DEFAULTS]))
    # tracebacks and warnings that escaped main before the scales were range-checked
    @example("solve", {("star", "u_O"): 1e300}, None)
    @example("lane-emden", {("eos", "A_const"): 1e-300}, None)
    @example("tov-compare", {("eos", "c_light"): 1e-300}, None)
    @example("tov-compare", {("star", "G_grav"): 1e300}, None)
    @example("solve", {("star", "G_grav"): 1e-300}, None)
    @example("kerr-check", {("kerr", "window"): 1e300}, None)
    # overflow warnings of exp(s Q) that escaped main on strong fields inside the ranges
    @example("solve", {("star", "u_O"): 1.0e50}, None)
    @example("tov-compare", {("eos", "gamma"): 1.99, ("eos", "c_light"): 1e-50}, None)
    def test_main_ends_in_a_documented_code(self, command, draws, empty):
        # empty names a section given with no keys, which takes its defaults
        config = {section: dict(keys) for section, keys in HELD.items()}
        for (section, key), value in draws.items():
            config.setdefault(section, {})[key] = (_DEFAULTS[section][key] if value is self.DEFAULT
                                                   else value)
        if empty not in (None, *HELD):
            config[empty] = None
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.yaml"
            path.write_text(yaml.safe_dump(config))
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2, 3)
        assert [str(w.message) for w in caught] == []
        assert code == 0 or err.getvalue().strip()

    @pytest.mark.parametrize("command", ["solve", "tov-compare"])
    @pytest.mark.parametrize("scales", [{"star": {"u_O": 1.0e50}},
                                        {"eos": {"gamma": 1.99, "c_light": 1e-50}}],
                             ids=["u_O-1e50", "gamma-1.99-c-1e-50"])
    def test_strong_field_exits_2(self, tmp_path, command, scales):
        # scales inside their ranges whose fields overflow exp(s Q): a
        # series-domain error before the exponential is taken, no warning
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**HELD, **scales}))
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err.getvalue() == "error: exp(1 Q) overflows: the field is too strong\n"


class TestLaneEmdenCommand:
    def test_summary_and_artifacts(self, tmp_path):
        out = tmp_path / "le"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["lane-emden", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        # gamma = 5/3 star: the classical first zero
        assert man["xi1"] == pytest.approx(3.653753736219, rel=1e-9)
        # criterion 2's bound on the same profile (8.4e-8 measured)
        assert man["b0_matches_classical_within"] < 1e-6
        assert (out / "xi1_curve.dat").exists()

    def test_no_classical_zero_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lane_emden, "XI_MAX", 3.0)  # below xi1 = 3.6538 at gamma = 5/3
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=tmp_path / "le"))
        assert main(["lane-emden", "--config", cfg]) == 2
        assert capsys.readouterr().err == "convergence error: no zero of theta found before xi=3.0\n"


class TestSolveCommand:
    @pytest.fixture(scope="class")
    def static_run(self, tmp_path_factory):
        """(config path, run directory) of one solved static star, read only."""
        tmp = tmp_path_factory.mktemp("static")
        cfg = write_cfg(tmp, TINY.format(b=0.0, out=tmp / "run"))
        assert main(["solve", "--config", cfg, "--quiet"]) == 0
        return cfg, tmp / "run"

    def test_static_star_summary(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["J"] == 0.0
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

    def test_log1p_domain_exits_2(self, tmp_path, capsys):
        # eos.upsilon_rho = [1e300] drives 1 + X/c^4 below zero: field_log1p
        # stops at its precondition with the reason on stderr.  Under
        # tier-1's filters a numpy warning would raise out of main instead
        body = TINY.format(b=1.0e-3, out=tmp_path / "run").replace(
            "star:", "eos: {upsilon_rho: [1.0e+300]}\nstar:")
        assert main(["solve", "--config", write_cfg(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: log1p(Q) needs 1 + Q > 0 on both patches\n"

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

    def test_verify_roundtrip(self, tmp_path, monkeypatch):
        self.check_roundtrip(tmp_path, monkeypatch, 0.0)

    def test_verify_roundtrip_rotating(self, tmp_path, monkeypatch):
        self.check_roundtrip(tmp_path, monkeypatch, 1.0e-3)

    @staticmethod
    def check_roundtrip(tmp_path, monkeypatch, b):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=b, out=out))
        solved = []
        run_solver = cli._run_solver

        def keep(c):
            solved.append(run_solver(c))
            return solved[-1]

        monkeypatch.setattr(cli, "_run_solver", keep)
        assert main(["solve", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0
        rep = json.loads((tmp_path / "ver" / "verify_report.json").read_text())
        # the dumped fields read back verify exactly as the solved state did,
        # M and J at the starred origin included
        man = json.loads((out / "manifest.json").read_text())
        assert rep == man["verify"]
        (solver, res), = solved
        assert (man["M"], man["J"]) == (rep["M"], rep["J"]) == (res.tail_mass(), res.tail_angular_momentum())
        assert (man["J"] == 0.0) == (b == 0.0)
        if b == 0.0:
            # the Newtonian layer is read back too: a static run's report
            # holds the TOV split of the in-memory result, bit for bit
            params = res.params
            tov = solve_tov(solver.eos, params.u_O, params.G_grav, params.c_light)
            assert rep["tov_gap"] == tov_gap(res, tov, solver.classical)

    def test_verify_manifest_with_removed_keys(self, tmp_path):
        # verify reads only the eos and star sections of the manifest's
        # config, so runs written with keys this version rejects still verify
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        path = out / "manifest.json"
        man = json.loads(path.read_text())
        man["config"]["solver"].update(alpha_holder=0.25, ball_M=50.0, damping=1.0)
        man["config"]["output"]["formats"] = ["binary"]
        man["config"]["verify"] = {"fit_window": [5.0, 15.0]}  # a removed section
        path.write_text(json.dumps(man))
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0
        # a run of a version that still had the profile's sizes and the caps as keys
        man["config"]["lane_emden"] = {"n_radial": 1025, "n_zeta": 48, "lmax": 12,
                                       "max_iter": 400, "report_grid": 129}
        man["config"]["solver"].update(max_inner=40, max_outer=30)
        path.write_text(json.dumps(man))
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 0
        # the Newtonian layer's scalars come from the diagnostics: a
        # manifest without them is a config error, not a traceback
        del man["diagnostics"]["newtonian"]
        path.write_text(json.dumps(man))
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver")]) == 1

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

    def test_verify_failure_reason_survives_quiet(self, tmp_path, capsys):
        # a kink in F inside the star breaks the field equations there: the
        # residual fails its bound, and --quiet must not swallow the reason
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=out))
        assert main(["solve", "--config", cfg]) == 0
        F, _ = read_field(out / "F.axfd")
        F.int_vals[4, 4] += 0.01
        write_field(out / "F.axfd", F, name="F")
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--run", str(out),
                     "--out", str(tmp_path / "ver"), "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("verification failure: residual sup")
        assert captured.out == ""

    def test_verify_checks_out_first(self, tmp_path, monkeypatch, capsys, static_run):
        # an --out that cannot be made ends verify before any verification
        cfg, run = static_run
        calls = record_calls(monkeypatch, cli, "_verify_payload")
        (tmp_path / "taken").write_text("")
        assert main(["verify", "--config", cfg, "--run", str(run),
                     "--out", str(tmp_path / "taken")]) == 1
        assert capsys.readouterr().err.startswith("config error: --out")
        assert calls == []

    def test_verify_grid_mismatch_exits_1(self, tmp_path, capsys, static_run):
        # a run whose dumps mix two grid shapes: verify names the first dump
        # off the grid of the ones read before it
        cfg, run = static_run
        mixed = tmp_path / "mixed"
        shutil.copytree(run, mixed)
        W, _ = read_field(run / "W.axfd")
        write_field(mixed / "X.axfd", AxiField.zeros(AxiGrid(W.grid.R0, 17, 13)), name="X")
        assert main(["verify", "--config", cfg, "--run", str(mixed),
                     "--out", str(tmp_path / "ver")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{mixed / 'X.axfd'}: grid mismatch" in err

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

    @pytest.mark.parametrize("at, fmt, vals", [(12, "<d", (float("nan"),)), (28, "<II", (2, 2))])
    def test_export_bad_header_exits_1(self, tmp_path, capsys, at, fmt, vals):
        # a NaN R0 once exported NaN coordinates with exit 0, and a 2-node
        # grid exited 2 from AxiGrid
        cfg = write_cfg(tmp_path, TINY.format(b=0.0, out=tmp_path / "run"))
        dump = tmp_path / "W.axfd"
        write_field(dump, AxiField.zeros(AxiGrid(1.0, 17, 13)), name="W")
        data = bytearray(dump.read_bytes())
        struct.pack_into(fmt, data, at, *vals)
        dump.write_bytes(bytes(data))
        assert main(["export", "--config", cfg, "--dump", str(dump),
                     "--out", str(tmp_path / "exp")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "exp").exists()


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


    @pytest.mark.parametrize("units", ["star: {G_grav: 2.0}", "eos: {c_light: 2.0}"])
    def test_fit_in_geometric_units(self, tmp_path, units):
        # the Kerr metric is written with G = c = 1, so the star's and the
        # equation of state's units must not enter its fit
        out = tmp_path / "kerr"
        body = f'output: {{directory: "{out}"}}\nkerr: {{levels: [61, 121]}}\n{units}\n'
        assert main(["kerr-check", "--config", write_cfg(tmp_path, body)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["M_err_rel"] < 0.01 and man["J_err_rel"] < 0.01

    def test_out_checked_first(self, tmp_path, monkeypatch, capsys):
        # an --out that cannot be made ends kerr-check before its refinement
        calls = record_calls(monkeypatch, verify, "kerr_refinement")
        (tmp_path / "taken").write_text("")
        cfg = write_cfg(tmp_path, "kerr: {levels: [61, 121]}\n")
        assert main(["kerr-check", "--config", cfg, "--out", str(tmp_path / "taken")]) == 1
        assert capsys.readouterr().err.startswith("config error: --out")
        assert calls == []

    def test_failure_reason_survives_quiet(self, tmp_path, capsys):
        # two coarse levels miss the second-order refinement rate: exit 3,
        # and --quiet, which drops the summary lines, must not swallow why
        out = tmp_path / "kerr"
        cfg = write_cfg(tmp_path, f'output: {{directory: "{out}"}}\nkerr: {{levels: [20, 40]}}\n')
        assert main(["kerr-check", "--config", cfg, "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("verification failure: refinement orders")
        assert captured.out == ""
        assert (out / "manifest.json").exists()


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

    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of each stand-in pool sweep opens; the pool maps in
        this process and the worker returns u_O squared as each sup, so no
        process starts and nothing is solved."""
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
        return pools

    def test_workers_capped_at_values(self, tmp_path, pools):
        # a fork pool starts all max_workers processes at its first submit,
        # so sweep asks for no more workers than it has values
        cfg = load_config({"output": {"directory": str(tmp_path)},
                           "sweep": {"param": "u_O", "values": [1.0e-3, 5.0e-4], "workers": 64}})
        assert cli.cmd_sweep(cfg, argparse.Namespace(out=None)) == 0
        assert pools == [2]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert [r["value"] for r in man["results"]] == [1.0e-3, 5.0e-4]

    def test_sweep_from_zero_fits_no_exponent(self, tmp_path, pools, monkeypatch):
        # b_rot swept from 0 has no log-log exponent, though a static star's
        # W, X and K are not 0; fitting one took log(0)
        monkeypatch.setattr(cli, "_sweep_worker",
                            lambda cfg: dict.fromkeys(("W_sup", "Y_sup", "X_sup", "K_sup"), 1.0))
        cfg = load_config({"output": {"directory": str(tmp_path)},
                           "sweep": {"param": "b_rot", "values": [0.0, 1.0e-3], "workers": 1}})
        assert cli.cmd_sweep(cfg, argparse.Namespace(out=None)) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["fitted_exponents"] == {}


# (G, c, A): unit, scaled and SI-like systems
UNIT_SYSTEMS = [(1.0, 1.0, 1.0), (2.0, 3.0, 1.7), (6.674e-11, 2.998e8, 4e9)]


def physics(man):
    """A manifest without its config, clock and process peak."""
    return {k: v for k, v in man.items()
            if k not in ("config", "config_digest", "created_unix", "peak_rss_mb")}


class TestCommandsInAnyUnits:
    """lane-emden, kerr-check and sweep through main on the eps = b = 1e-3
    star in three unit systems, u_O = eps c^2 with nu and b held: what they
    write must not depend on (G, c, A)."""

    @staticmethod
    def runs(tmp_path, command, **sections):
        """(exit code, output directory, manifest) of command in each unit
        system; a callable section is given (G, c, A)."""
        out = []
        for k, (G, c, A) in enumerate(UNIT_SYSTEMS):
            config = {"eos": {"A_const": A, "c_light": c},
                      "star": {"G_grav": G, "u_O": 1e-3 * c**2, "b_rot": 1e-3},
                      **{name: sec(G, c, A) if callable(sec) else sec
                         for name, sec in sections.items()}}
            path, run = tmp_path / f"{command}-{k}.yaml", tmp_path / f"{command}-{k}"
            path.write_text(yaml.safe_dump(config))
            code = main([command, "--config", str(path), "--out", str(run), "--quiet"])
            out.append((code, run, json.loads((run / "manifest.json").read_text())))
        return out

    def test_lane_emden(self, tmp_path):
        # the profile depends on nu and b alone: bit-identical files and values
        (code, run, man), *others = self.runs(tmp_path, "lane-emden")
        names = sorted(path.name for path in run.glob("*.dat"))
        assert code == 0
        assert names == ["theta_classical.dat", "theta_distorted.dat", "xi1_curve.dat"]
        for other_code, other_run, other_man in others:
            assert other_code == code
            assert all((other_run / n).read_bytes() == (run / n).read_bytes() for n in names)
            assert physics(other_man) == physics(man)

    def test_kerr_check(self, tmp_path):
        # the Kerr metric is written with G = c = 1 whatever the config says:
        # the same exit code, orders and fitted M and J
        (code, _, man), *others = self.runs(tmp_path, "kerr-check", kerr={"levels": [61, 121]})
        assert code == 0
        for other_code, _, other_man in others:
            assert other_code == code and physics(other_man) == physics(man)

    def test_sweep(self, tmp_path):
        # two 17/13 stars per system; their fitted exponents agree to 1e-7,
        # K's to 2e-4 (W, X and Y 1.2e-8 or less measured).  K's gap is the
        # float far masks' R0 rounding (ROADMAP item 3(b)): in unit units the
        # u_O = 5e-4 star has 34 interior far targets against 32 in the other
        # systems, its K_sup moves by 4.7e-5 relative and its exponent by 6.8e-5
        bounds = {"K_sup_exponent": 2e-4}
        (code, _, man), *others = self.runs(
            tmp_path, "sweep", grid={"n_interior": 17, "n_exterior": 13},
            sweep=lambda G, c, A: {"param": "u_O", "values": [1e-3 * c**2, 5e-4 * c**2],
                                   "workers": 1})
        exps = man["fitted_exponents"]
        assert code == 0 and len(exps) == 4
        for other_code, _, other_man in others:
            assert other_code == code
            for key, val in other_man["fitted_exponents"].items():
                assert abs(val - exps[key]) <= bounds.get(key, 1e-7), key
