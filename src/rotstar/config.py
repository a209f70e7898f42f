"""Strict structured-text (YAML) run configuration.

Unknown sections and keys are rejected; physical quantities are
range-checked.  A parsed RunConfig carries plain dataclass blocks mirroring
the file sections.  Every key is read: the solver section goes to
SolverOptions whole, the rest by name.  A setting with one value in use is a
module constant next to its code, not a key.
"""

import hashlib
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import yaml

from .errors import ConfigError

_DEFAULTS = {
    "eos": {
        "gamma": 5.0 / 3.0,
        "A_const": 1.0,
        "c_light": 1.0,
        "upsilon_rho": [],
        "upsilon_P": "consistent",
        "series_radius": 1.0,
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
    "lane_emden": {
        "n_radial": 1025,
        "n_zeta": 48,
        "lmax": 12,
        "tol": 1e-11,
        "max_iter": 400,
        "report_grid": 129,
    },
    "solver": {
        "tol_inner": 1e-10,
        "tol_outer": 1e-9,
        "max_inner": 40,
        "max_outer": 30,
    },
    "verify": {
        "fit_window": [5.0, 15.0],
    },
    "kerr": {
        "m_geom": 1.0,
        "a_spin": 0.5,
        "window": 12.0,
        "levels": [61, 121, 241],
    },
    "output": {
        "directory": "runs/out",
        "quiet": False,
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
    lane_emden: dict
    solver: dict
    verify: dict
    kerr: dict
    output: dict
    sweep: dict

    def to_dict(self):
        return asdict(self)

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()


def _is_number(val, kind=Real):
    return isinstance(val, kind) and not isinstance(val, bool)


def _numbers(val, kind=Real):
    return isinstance(val, list) and all(_is_number(v, kind) for v in val)


# list-valued keys: the test a value must pass and the rule it states; a
# refinement order and an exponent fit need two points
_LIST_RULES = {
    ("eos", "upsilon_rho"): (_numbers, "a list of numbers"),
    ("eos", "upsilon_P"): (lambda v: v == "consistent" or _numbers(v), '"consistent" or numbers'),
    ("verify", "fit_window"): (lambda v: _numbers(v) and len(v) == 2 and 0 < v[0] < v[1],
                               "a list [lo, hi] with 0 < lo < hi"),
    ("kerr", "levels"): (lambda v: _numbers(v, Integral) and len(v) >= 2, "a list of 2+ integers"),
    ("sweep", "values"): (lambda v: _numbers(v) and len(v) >= 2, "a list of 2+ numbers"),
}


def sweep_key(param):
    """The (section, key) that sweep.param names: `section.key`, or a bare
    key of star."""
    return tuple(param.split(".", 1)) if "." in param else ("star", param)


def _validate(cfg):
    # a key with a numeric default takes a number; star's two rotation keys
    # also take null (exactly one of them is null, checked below); a
    # list-valued key passes its _LIST_RULES test
    for name, defaults in _DEFAULTS.items():
        for key, default in defaults.items():
            val, rotation = getattr(cfg, name)[key], name == "star" and key in ("Omega_O", "b_rot")
            kind, what = (Integral, "an integer") if _is_number(default, Integral) else (Real, "a number")
            if (_is_number(default) or rotation) and not (_is_number(val, kind) or rotation and val is None):
                raise ConfigError(f"{name}.{key}={val!r} is not {what}")
            ok, rule = _LIST_RULES.get((name, key), (None, None))
            if ok and not ok(val):
                raise ConfigError(f"{name}.{key}={val!r} is not {rule}")
    param = cfg.sweep["param"]
    name, key = sweep_key(param) if isinstance(param, str) else ("", "")
    if not _is_number(_DEFAULTS.get(name, {}).get(key)):
        raise ConfigError(f"sweep.param={param!r} is not a section.key or star key with a numeric default")
    for name, key, least in (("lane_emden", "n_zeta", 1), ("lane_emden", "max_iter", 1),
                             ("lane_emden", "lmax", 0), ("lane_emden", "n_radial", 3),
                             ("lane_emden", "report_grid", 2), ("solver", "max_inner", 1),
                             ("solver", "max_outer", 1), ("sweep", "workers", 1)):
        if getattr(cfg, name)[key] < least:
            raise ConfigError(f"{name}.{key} must be >= {least}")
    e = cfg.eos
    if not (6.0 / 5.0 < e["gamma"] < 2.0):
        raise ConfigError(f"eos.gamma={e['gamma']} outside (6/5, 2)")
    for key in ("A_const", "c_light", "series_radius"):
        if not e[key] > 0:
            raise ConfigError(f"eos.{key} must be positive")
    s = cfg.star
    if not s["u_O"] > 0:
        raise ConfigError("star.u_O must be positive")
    if not s["G_grav"] > 0:
        raise ConfigError("star.G_grav must be positive")
    if (s["Omega_O"] is None) == (s["b_rot"] is None):
        raise ConfigError("star: specify exactly one of Omega_O and b_rot")
    if s["b_rot"] is not None and s["b_rot"] < 0:
        raise ConfigError("star.b_rot must be >= 0")
    g = cfg.grid
    if g["n_interior"] < 17 or g["n_exterior"] < 13:
        raise ConfigError("grid resolutions too small")
    k = cfg.kerr
    if k["m_geom"] <= 0:
        raise ConfigError("kerr.m_geom must be positive")
    if abs(k["a_spin"]) > k["m_geom"]:
        raise ConfigError("kerr.a_spin must satisfy |a| <= m_geom")
    if not k["window"] > 0:
        raise ConfigError("kerr.window must be positive")
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
    from .eos import SERIES_TERMS, EquationOfState, consistent_upsilon_P

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


def build_params(cfg, classical=None):
    from .pn import StarParams

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


def build_profile(cfg, params, classical):
    """The distorted Lane-Emden profile of params' star, from the whole
    lane_emden section."""
    from .lane_emden import solve_distorted

    le = cfg.lane_emden
    return solve_distorted(
        params.nu,
        params.b_rot,
        n_radial=le["n_radial"],
        n_zeta=le["n_zeta"],
        lmax=le["lmax"],
        tol=le["tol"],
        max_iter=le["max_iter"],
        classical=classical,
    )


def build_solver_options(cfg):
    from .pn import SolverOptions

    return SolverOptions(
        n_interior=cfg.grid["n_interior"], n_exterior=cfg.grid["n_exterior"], **cfg.solver
    )
