"""Strict structured-text (YAML) run configuration.

Unknown sections and keys are rejected; physical quantities are
range-checked.  A parsed RunConfig carries plain dataclass blocks mirroring
the file sections.  Every key is read by name.  A setting with one value in
use is a module constant next to its code, not a key, and a key that a
function or dataclass takes has that one's default, so each default is
spelled once.
"""

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import yaml

from .eos import SERIES_TERMS, EquationOfState, consistent_upsilon_P
from .errors import ConfigError
from .lane_emden import solve_classical, solve_distorted
from .pn import SolverOptions, StarParams


_DEFAULTS = {
    "eos": {
        "gamma": 5.0 / 3.0,
        "A_const": 1.0,
        "c_light": 1.0,
        "upsilon_rho": [],
        "upsilon_P": "consistent",
        "series_radius": EquationOfState.series_radius,
    },
    "star": {
        "u_O": 1e-3,
        "Omega_O": None,
        "b_rot": 1e-3,
        "G_grav": 1.0,
    },
    "grid": {
        "n_interior": 129,
        "n_exterior": 97,
    },
    "solver": {key: getattr(SolverOptions, key) for key in ("tol_inner", "tol_outer")},
    "kerr": {
        "m_geom": 1.0,
        "a_spin": 0.5,
        "window": 12.0,
        "levels": [61, 121, 241],
    },
    "output": {
        "directory": "runs/out",
    },
    "sweep": {
        "param": "u_O",
        "values": [1e-3, 5e-4, 2.5e-4],
        "workers": 2,
    },
}


def _merge_strict(defaults, given, path):
    given = {} if given is None else given
    if not isinstance(given, Mapping):
        raise ConfigError(f"section {path} must be a mapping, not {given!r}")
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {path}.{key}")
        out[key] = val
    return out


@dataclass
class RunConfig:
    eos: dict
    star: dict
    grid: dict
    solver: dict
    kerr: dict
    output: dict
    sweep: dict

    def to_dict(self):
        return asdict(self)

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()


def _is_number(val, kind=Real):
    """A finite number of kind; a bool is not one."""
    return (isinstance(val, kind) and not isinstance(val, bool)
            and (isinstance(val, Integral) or math.isfinite(val)))


def _numbers(val, kind=Real):
    return isinstance(val, list) and all(_is_number(v, kind) for v in val)


# list-valued keys: the test a value must pass and the rule it states; a refinement order
# and an exponent fit need two distinct points, and a Kerr level (nodes per axis) two nodes
_LIST_RULES = {
    ("eos", "upsilon_rho"): (_numbers, "a list of finite numbers"),
    ("eos", "upsilon_P"): (lambda v: v == "consistent" or _numbers(v),
                           '"consistent" or finite numbers'),
    ("kerr", "levels"): (lambda v: _numbers(v, Integral) and len(set(v)) >= 2 and min(v) >= 2,
                         "a list of 2+ distinct integers, each >= 2"),
    ("sweep", "values"): (lambda v: _numbers(v) and len(set(v)) >= 2, "a list of 2+ distinct finite numbers"),
}


def sweep_key(param):
    """The (section, key) that sweep.param names: `section.key`, or a bare
    key of star."""
    return tuple(param.split(".", 1)) if "." in param else ("star", param)


def _validate(cfg):
    # a key with a numeric default takes a finite number; star's two rotation keys also
    # take null (exactly one of them is null, checked below); a list-valued key passes
    # its _LIST_RULES test, and any other key with a string default takes a string
    for name, defaults in _DEFAULTS.items():
        for key, default in defaults.items():
            val, rotation = getattr(cfg, name)[key], name == "star" and key in ("Omega_O", "b_rot")
            kind, what = ((Integral, "an integer") if _is_number(default, Integral)
                          else (Real, "a finite number"))
            if (_is_number(default) or rotation) and not (_is_number(val, kind) or rotation and val is None):
                raise ConfigError(f"{name}.{key}={val!r} is not {what}")
            ok, rule = _LIST_RULES.get((name, key), (None, None))
            if ok and not ok(val):
                raise ConfigError(f"{name}.{key}={val!r} is not {rule}")
            if isinstance(default, str) and not ok and not isinstance(val, str):
                raise ConfigError(f"{name}.{key}={val!r} is not a string")
    param = cfg.sweep["param"]
    name, key = sweep_key(param)
    if not _is_number(_DEFAULTS.get(name, {}).get(key)):
        raise ConfigError(f"sweep.param={param!r} is not a section.key or star key with a numeric default")
    if cfg.sweep["workers"] < 1:
        raise ConfigError("sweep.workers must be >= 1")
    e = cfg.eos
    if not (6.0 / 5.0 < e["gamma"] < 2.0):
        raise ConfigError(f"eos.gamma={e['gamma']} outside (6/5, 2)")
    if not e["series_radius"] > 0:
        raise ConfigError("eos.series_radius must be positive")
    # the physical scales: the model takes their powers up to 1/(gamma - 1) < 5, which
    # stay finite in floats here (at 1e-300 and 1e300 the star's scales overflow); the
    # Kerr fields and fit overflow by m_geom 1e-80 and 1e100
    for name, key in (("eos", "A_const"), ("eos", "c_light"), ("star", "u_O"), ("star", "G_grav"),
                      ("kerr", "m_geom")):
        if not 1e-50 <= getattr(cfg, name)[key] <= 1e50:
            raise ConfigError(f"{name}.{key}={getattr(cfg, name)[key]!r} outside [1e-50, 1e50]")
    s = cfg.star
    if (s["Omega_O"] is None) == (s["b_rot"] is None):
        raise ConfigError("star: specify exactly one of Omega_O and b_rot")
    if s["b_rot"] is not None and s["b_rot"] < 0:
        raise ConfigError("star.b_rot must be >= 0")
    g = cfg.grid
    if g["n_interior"] < 17 or g["n_exterior"] < 13:
        raise ConfigError("grid resolutions too small")
    k = cfg.kerr
    if abs(k["a_spin"]) > k["m_geom"]:
        raise ConfigError("kerr.a_spin must satisfy |a| <= m_geom")
    # a window of at most 1e25 m keeps the Kerr fields' extent within 1e75, where they
    # stay finite (at 1e300 m their squares overflow)
    if not 0 < k["window"] <= 1e25:
        raise ConfigError(f"kerr.window={k['window']!r} outside (0, 1e25]")
    return cfg


def load_config(source=None):
    """Merge with defaults and validate a config: a YAML file path or an
    already parsed mapping (such as a manifest's config sections)."""
    if source is None or isinstance(source, Mapping):
        given = source or {}
    else:
        try:
            with open(source) as fh:
                given = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"{source}: {exc.strerror}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source}: malformed YAML: {exc}") from None
        if not isinstance(given, dict):
            raise ConfigError(f"{source}: top level must be a mapping")
    for key in given:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown section {key!r}")
    merged = {
        name: _merge_strict(defaults, given.get(name), name)
        for name, defaults in _DEFAULTS.items()
    }
    return _validate(RunConfig(**merged))


def build_eos(cfg):
    e = cfg.eos
    ups_P = e["upsilon_P"]
    if ups_P == "consistent":
        ups_P = consistent_upsilon_P(e["gamma"], tuple(e["upsilon_rho"]), SERIES_TERMS)
    return EquationOfState(
        gamma=e["gamma"],
        A_const=e["A_const"],
        c_light=e["c_light"],
        upsilon_rho=tuple(e["upsilon_rho"]),
        upsilon_P=tuple(ups_P),
        series_radius=e["series_radius"],
    )


def build_params(cfg, classical):
    s = cfg.star
    e = cfg.eos
    return StarParams.build(
        gamma=e["gamma"],
        A_const=e["A_const"],
        c_light=e["c_light"],
        G_grav=s["G_grav"],
        u_O=s["u_O"],
        Omega_O=s["Omega_O"],
        b_rot=s["b_rot"],
        classical=classical,
    )


def build_star(cfg):
    """The classical Lane-Emden solution, the star's parameters and its
    distorted profile, from the eos and star sections."""
    classical = solve_classical(1.0 / (cfg.eos["gamma"] - 1.0))
    params = build_params(cfg, classical=classical)
    return classical, params, solve_distorted(params.nu, params.b_rot, classical=classical)


def build_solver_options(cfg):
    return SolverOptions(
        n_interior=cfg.grid["n_interior"], n_exterior=cfg.grid["n_exterior"], **cfg.solver
    )
