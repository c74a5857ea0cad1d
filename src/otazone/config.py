"""Run configuration: JSON parsing, defaults, validation, canonical form.

Geometry keys are wavelength-denominated (``*_lambda``); everything is
converted to meters once, at load time. Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .field import WaveSpec
from .precoding import StudyConfig
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
    raw: Dict[str, object]
    chamber: ChamberSpec

    def __getitem__(self, key: str):
        return self.raw[key]

    @property
    def wave(self) -> WaveSpec:
        return WaveSpec(frequency=float(self.raw["frequency_hz"]))

    @property
    def wavelength(self) -> float:
        return self.wave.wavelength

    @property
    def ies_values(self) -> List[float]:
        return [v * self.wavelength for v in self.raw["ies_lambda"]]

    @property
    def d_values(self) -> List[float]:
        lam = self.wavelength
        if self.raw["d_lambda"] is not None:
            return [v * lam for v in self.raw["d_lambda"]]
        lo, hi = self.raw["d_range_lambda"]
        step = float(self.raw["d_step_lambda"])
        return [v * lam for v in np.arange(lo, hi + 1e-9, step)]

    @property
    def geometries(self) -> List[Tuple[float, float]]:
        lam = self.wavelength
        return [(i * lam, d * lam) for i, d in self.raw["geometries_lambda"]]

    @property
    def limits(self) -> FomLimits:
        lim = self.raw["limits"]
        return FomLimits(sigma_mag_max=float(lim["sigma_mag_db"]),
                         r_mag_max=float(lim["r_mag_db"]),
                         r_phs_max=float(lim["r_phs_deg"]))

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
    def fail(msg: str):
        raise ConfigError(msg)

    _check_types(cfg)
    if cfg["frequency_hz"] <= 0:
        fail("frequency_hz must be positive")
    ies = list(cfg["ies_lambda"])
    if not ies or any(b <= a for a, b in zip(ies, ies[1:])):
        fail("ies_lambda must be non-empty and strictly increasing")
    if min(ies) <= 0:
        fail("ies_lambda values must be positive")
    if cfg["d_lambda"] is not None:
        d = list(cfg["d_lambda"])
        if not d or any(b <= a for a, b in zip(d, d[1:])):
            fail("d_lambda must be non-empty and strictly increasing")
    if len(cfg["d_range_lambda"]) != 2 or cfg["d_range_lambda"][0] > cfg["d_range_lambda"][1]:
        fail("d_range_lambda must be [lo, hi] with lo <= hi")
    if cfg["d_step_lambda"] <= 0 or cfg["sigma_step_db"] <= 0:
        fail("step sizes must be positive")
    if cfg["n_mc_tolerance"] < 1 or cfg["n_mc_precode"] < 1:
        fail("Monte-Carlo counts must be >= 1")
    if cfg["tolerance_fail_rule"] not in ("any", "majority"):
        fail("tolerance_fail_rule must be 'any' or 'majority'")
    lim = cfg["limits"]
    extra = set(lim) - set(_DEFAULTS["limits"])
    if extra:
        fail(f"unknown limit keys: {sorted(extra)}")
    for g in cfg["geometries_lambda"]:
        if len(g) != 2 or g[0] <= 0 or g[1] <= 0:
            fail(f"bad geometry entry {g}; expected [ies_lambda, d_lambda] > 0")
    if cfg["dut_elements"] < 2:
        fail("dut_elements must be >= 2")
    if cfg["dut_ies_lambda"] <= 0:
        fail("dut_ies_lambda must be positive")


def load_config(data: Optional[Dict[str, object]] = None,
                path: Optional[str] = None) -> RunConfig:
    """Build a fully validated config from a dict or a JSON file.

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
    merged: Dict[str, object] = {}
    for key, default in _DEFAULTS.items():
        if key in data:
            merged[key] = data[key]
        elif isinstance(default, dict):
            merged[key] = dict(default)
        elif isinstance(default, list):
            merged[key] = [list(v) if isinstance(v, list) else v for v in default]
        else:
            merged[key] = default
    _validate(merged)
    try:
        chamber = ChamberSpec(**{k: merged[k] for k in _CHAMBER_KEYS})
    except ValueError as exc:
        keys = ", ".join(f"{k}={merged[k]!r}" for k in _CHAMBER_KEYS)
        raise ConfigError(f"bad chamber ({keys}): {exc}") from exc
    return RunConfig(raw=merged, chamber=chamber)
