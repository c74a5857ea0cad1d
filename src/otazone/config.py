"""Run configuration: JSON parsing, defaults, validation, canonical form.

Geometry keys are wavelength-denominated (``*_lambda``); ``load_config`` converts them to
meters and builds every run object once, from a table of its keys and fields. The library
type that owns a value checks it; this module checks types and the keys no such type reads,
and rejects unknown keys so a typo cannot fall back to a default.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .field import WaveSpec
from .precoding import DutArraySpec, StudyConfig
from .sweep import SweepGrid
from .testzone import TIER1, ChamberSpec, FomLimits
from .tolerance import ToleranceSearchConfig

# Table of the five compact (ies, D) picks, in wavelengths.
DEFAULT_GEOMETRIES_LAMBDA: Tuple[Tuple[float, float], ...] = (
    (1.35, 286.0), (1.2, 441.0), (1.0, 469.0), (0.7, 564.0), (0.7, 591.0))


def _same(*keys: str) -> Dict[str, str]:
    return {k: k for k in keys}


# Each run object the config builds field for field, as (class, {config key: field}), its
# keys in the order a bad value's message names them; then the keys of the limits object.
_CHAMBER_TABLE = (ChamberSpec, _same(*asdict(ChamberSpec())))
_TOLERANCE_TABLE = (ToleranceSearchConfig, {
    "sigma_step_db": "step_db", "n_mc_tolerance": "n_mc", **_same("max_sigma_db"),
    "tolerance_fail_rule": "fail_rule", "seed": "rng_seed"})
_DUT_TABLE = (DutArraySpec, {"dut_elements": "n_elements", "dut_ies_lambda": "ies_lambda"})
_STUDY_TABLE = (StudyConfig, {**_same("snr_db", "sigma_dut_db", "alpha_offsets_deg"),
                              "n_mc_precode": "n_mc", "seed": "rng_seed"})
_LIMIT_FIELDS = {"sigma_mag_db": "sigma_mag_max", "r_mag_db": "r_mag_max",
                 "r_phs_deg": "r_phs_max"}


def _defaults(cls, fields: Dict[str, str]) -> Dict[str, object]:
    """Each key's value in the library default ``cls()``, a tuple as a list."""
    obj = cls()
    return {k: list(v) if isinstance(v := getattr(obj, f), tuple) else v
            for k, f in fields.items()}


# Shared values are the run objects' library defaults; grid axes and geometries are the config's.
_DEFAULTS: Dict[str, object] = {
    "frequency_hz": WaveSpec().frequency,
    **_defaults(*_CHAMBER_TABLE),
    "ies_lambda": [round(float(x), 10) for x in np.arange(0.5, 1.5 + 1e-9, 0.05)],
    "d_lambda": None,  # derived from d_range_lambda/d_step_lambda when absent; excludes them
    "d_range_lambda": [40.0, 2450.0],
    "d_step_lambda": 1.0,
    "geometries_lambda": [list(g) for g in DEFAULT_GEOMETRIES_LAMBDA],
    "limits": _defaults(lambda: TIER1, _LIMIT_FIELDS),
    **_defaults(*_TOLERANCE_TABLE),
    **_defaults(*_STUDY_TABLE),
    **_defaults(*_DUT_TABLE),
}


class ConfigError(ValueError):
    """Raised when a config file violates a module precondition."""


@dataclass(frozen=True)
class RunConfig:
    """The merged config keys and the run objects built from them, in meters."""

    raw: Dict[str, object]
    wave: WaveSpec
    chamber: ChamberSpec
    limits: FomLimits
    grid: SweepGrid
    geometries: Tuple[Tuple[float, float], ...]
    tolerance: ToleranceSearchConfig
    study: StudyConfig

    @property
    def wavelength(self) -> float:
        return self.wave.wavelength

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _is_number(x: object, integer: bool) -> bool:
    kinds = int if integer else (int, float)
    # not math.isfinite, which raises OverflowError for an int past float range
    return isinstance(x, kinds) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check_types(cfg: Dict[str, object]) -> None:
    """Each value must have the kind of its default, so no later check meets a wrong type."""
    def numbers(v: object) -> bool:
        return isinstance(v, list) and all(_is_number(x, False) for x in v)

    for key, default in _DEFAULTS.items():
        value, kind = cfg[key], "a list of finite numbers"
        if isinstance(default, str):
            ok, kind = isinstance(value, str), "a string"
        elif isinstance(default, (int, float)):
            ok = _is_number(value, isinstance(default, int))
            kind = "an integer" if isinstance(default, int) else "a finite number"
        elif isinstance(default, dict):
            ok = isinstance(value, dict) and numbers([value.get(k) for k in default])
            kind = f"an object with numbers for {sorted(default)}"
        elif key == "geometries_lambda":
            ok = isinstance(value, list) and all(numbers(g) for g in value)
        else:
            ok = numbers(value) or (value is None and default is None)
        if not ok:
            raise ConfigError(f"{key} must be {kind}, got {value!r}")


@contextmanager
def _naming(cfg: Dict[str, object], *keys: str) -> Iterator[None]:
    """Report a ValueError of the run object built inside as a ConfigError naming its keys."""
    try:
        yield
    except ValueError as exc:
        named = ", ".join(f"{k}={cfg[k]!r}" for k in keys)
        raise ConfigError(f"bad config ({named}): {exc}") from exc


def _build(cfg: Dict[str, object], table, **objects: object):
    """The table's run object from its config keys and ``objects``; a bad value names the keys."""
    cls, fields = table
    with _naming(cfg, *fields):
        return cls(**{f: cfg[k] for k, f in fields.items()}, **objects)


def load_config(data: Optional[Dict[str, object]] = None,
                path: Optional[str] = None) -> RunConfig:
    """Build a fully validated config, with its run objects, from a dict or a JSON file.

    Omitted keys take the built-in defaults; unknown keys are an error.
    """
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, (dict, type(None))):
        raise ConfigError("config must be a JSON object")
    data = dict(data or {})
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    ranged = sorted({"d_range_lambda", "d_step_lambda"} & set(data))
    if data.get("d_lambda") is not None and ranged:
        raise ConfigError(f"d_lambda excludes {' and '.join(ranged)}; give one or the other")
    cfg = copy.deepcopy(_DEFAULTS)
    cfg.update(data)
    _check_types(cfg)
    with _naming(cfg, "frequency_hz"):
        wave = WaveSpec(frequency=float(cfg["frequency_hz"]))
    lam = wave.wavelength
    chamber = _build(cfg, _CHAMBER_TABLE)
    extra = set(cfg["limits"]) - set(_LIMIT_FIELDS)
    if extra:
        raise ConfigError(f"unknown limit keys: {sorted(extra)}")
    with _naming(cfg, "limits"):
        limits = FomLimits(**{f: float(cfg["limits"][k]) for k, f in _LIMIT_FIELDS.items()})
    if len(cfg["d_range_lambda"]) != 2 or cfg["d_range_lambda"][0] > cfg["d_range_lambda"][1]:
        raise ConfigError("d_range_lambda must be [lo, hi] with lo <= hi")
    if cfg["d_step_lambda"] <= 0:
        raise ConfigError("d_step_lambda must be positive")
    lo, hi = cfg["d_range_lambda"]
    d_lambda = (np.arange(lo, hi + 1e-9, float(cfg["d_step_lambda"]))
                if cfg["d_lambda"] is None else cfg["d_lambda"])
    # near frequency_hz 3e-297 (a wavelength of 1e305 m) the axes overflow to inf in meters
    with _naming(cfg, "frequency_hz", "ies_lambda", "d_lambda", "d_range_lambda",
                 "d_step_lambda"), np.errstate(over="ignore"):
        grid = SweepGrid(tuple(np.asarray(cfg["ies_lambda"], dtype=float) * lam),
                         tuple(np.asarray(d_lambda, dtype=float) * lam))
    tolerance = _build(cfg, _TOLERANCE_TABLE, limits=limits)
    study = _build(cfg, _STUDY_TABLE, dut=_build(cfg, _DUT_TABLE))
    if not cfg["geometries_lambda"]:
        raise ConfigError("geometries_lambda must list at least one [ies_lambda, d_lambda]")
    for g in cfg["geometries_lambda"]:
        if len(g) != 2 or g[0] <= 0 or g[1] <= 0:
            raise ConfigError(f"bad geometry entry {g}; expected [ies_lambda, d_lambda] > 0")
    geometries = tuple((i * lam, d * lam) for i, d in cfg["geometries_lambda"])
    return RunConfig(cfg, wave, chamber, limits, grid, geometries, tolerance, study)
