"""Run configuration: JSON parsing, defaults, validation, canonical form.

Geometry keys are wavelength-denominated (``*_lambda``); ``load_config``
converts them to meters and builds every run object once. The library
type that owns a value checks it; this module checks types, the keys no
such type reads, and rejects unknown keys so a typo cannot fall back to a
default.
"""

from __future__ import annotations

import hashlib
import json
import math
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

# Library defaults own every value they share with the config; the sweep
# grid axes and the geometry table are the config's own.
_TOL = ToleranceSearchConfig()
_STUDY = StudyConfig()
_DEFAULTS: Dict[str, object] = {
    "frequency_hz": WaveSpec().frequency,
    **asdict(ChamberSpec()),
    "ies_lambda": [round(x, 10) for x in np.arange(0.5, 1.5 + 1e-9, 0.05)],
    "d_lambda": None,  # derived from d_range_lambda/d_step_lambda when absent
    "d_range_lambda": [40.0, 2450.0],
    "d_step_lambda": 1.0,
    "geometries_lambda": [list(g) for g in DEFAULT_GEOMETRIES_LAMBDA],
    "limits": {"sigma_mag_db": TIER1.sigma_mag_max, "r_mag_db": TIER1.r_mag_max,
               "r_phs_deg": TIER1.r_phs_max},
    "sigma_step_db": _TOL.step_db,
    "n_mc_tolerance": _TOL.n_mc,
    "tolerance_fail_rule": _TOL.fail_rule,
    "max_sigma_db": _TOL.max_sigma_db,
    "snr_db": list(_STUDY.snr_db),
    "sigma_dut_db": [float(x) for x in _STUDY.sigma_dut_db],
    "alpha_offsets_deg": list(_STUDY.alpha_offsets_deg),
    "n_mc_precode": _STUDY.n_mc,
    "dut_elements": _STUDY.dut.n_elements,
    "dut_ies_lambda": _STUDY.dut.ies_lambda,
    "seed": _TOL.rng_seed,
}
_CHAMBER_KEYS = tuple(asdict(ChamberSpec()))


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
    return isinstance(x, kinds) and not isinstance(x, bool) and math.isfinite(x)


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


def _validate(cfg: Dict[str, object]) -> None:
    """Types, and the values that no run object checks."""
    _check_types(cfg)
    if len(cfg["d_range_lambda"]) != 2 or cfg["d_range_lambda"][0] > cfg["d_range_lambda"][1]:
        raise ConfigError("d_range_lambda must be [lo, hi] with lo <= hi")
    if cfg["d_step_lambda"] <= 0:
        raise ConfigError("d_step_lambda must be positive")
    extra = set(cfg["limits"]) - set(_DEFAULTS["limits"])
    if extra:
        raise ConfigError(f"unknown limit keys: {sorted(extra)}")
    for g in cfg["geometries_lambda"]:
        if len(g) != 2 or g[0] <= 0 or g[1] <= 0:
            raise ConfigError(f"bad geometry entry {g}; expected [ies_lambda, d_lambda] > 0")


@contextmanager
def _naming(cfg: Dict[str, object], *keys: str) -> Iterator[None]:
    """Report a ValueError of the run object built inside as a ConfigError naming its keys."""
    try:
        yield
    except ValueError as exc:
        named = ", ".join(f"{k}={cfg[k]!r}" for k in keys)
        raise ConfigError(f"bad config ({named}): {exc}") from exc


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
    cfg: Dict[str, object] = {}
    for key, default in _DEFAULTS.items():
        if key in data:
            cfg[key] = data[key]
        elif isinstance(default, dict):
            cfg[key] = dict(default)
        elif isinstance(default, list):
            cfg[key] = [list(v) if isinstance(v, list) else v for v in default]
        else:
            cfg[key] = default
    _validate(cfg)
    with _naming(cfg, "frequency_hz"):
        wave = WaveSpec(frequency=float(cfg["frequency_hz"]))
    lam = wave.wavelength
    with _naming(cfg, *_CHAMBER_KEYS):
        chamber = ChamberSpec(**{k: cfg[k] for k in _CHAMBER_KEYS})
    lim = cfg["limits"]
    with _naming(cfg, "limits"):
        limits = FomLimits(sigma_mag_max=float(lim["sigma_mag_db"]),
                           r_mag_max=float(lim["r_mag_db"]), r_phs_max=float(lim["r_phs_deg"]))
    lo, hi = cfg["d_range_lambda"]
    d_lambda = (np.arange(lo, hi + 1e-9, float(cfg["d_step_lambda"]))
                if cfg["d_lambda"] is None else cfg["d_lambda"])
    with _naming(cfg, "ies_lambda", "d_lambda", "d_range_lambda", "d_step_lambda"):
        grid = SweepGrid(tuple(np.asarray(cfg["ies_lambda"], dtype=float) * lam),
                         tuple(np.asarray(d_lambda, dtype=float) * lam))
    with _naming(cfg, "sigma_step_db", "n_mc_tolerance", "max_sigma_db", "tolerance_fail_rule",
                 "seed"):
        tolerance = ToleranceSearchConfig(
            step_db=cfg["sigma_step_db"], n_mc=cfg["n_mc_tolerance"], limits=limits,
            rng_seed=cfg["seed"], max_sigma_db=cfg["max_sigma_db"],
            fail_rule=cfg["tolerance_fail_rule"])
    with _naming(cfg, "dut_elements", "dut_ies_lambda"):
        dut = DutArraySpec(n_elements=cfg["dut_elements"], ies_lambda=cfg["dut_ies_lambda"])
    with _naming(cfg, "snr_db", "sigma_dut_db", "alpha_offsets_deg", "n_mc_precode", "seed"):
        study = StudyConfig(
            snr_db=tuple(cfg["snr_db"]), sigma_dut_db=tuple(cfg["sigma_dut_db"]),
            alpha_offsets_deg=tuple(cfg["alpha_offsets_deg"]), n_mc=cfg["n_mc_precode"],
            rng_seed=cfg["seed"], dut=dut)
    geometries = tuple((i * lam, d * lam) for i, d in cfg["geometries_lambda"])
    return RunConfig(cfg, wave, chamber, limits, grid, geometries, tolerance, study)
