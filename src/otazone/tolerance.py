"""Monte-Carlo search for the largest tolerated complex excitation error.

The error of each element is a complex Gaussian, eps = N(0, s) + j*N(0, s),
applied multiplicatively as (1 + eps) * taper. The dB-scale deviation maps
to linear scale as s = 10^(s_dB/20) - 1. The search raises s_dB in fixed
steps until a level fails; two level-fail rules are available:

  "any"      - a level fails as soon as one of its n_mc realizations
               violates any figure of merit (conservative, lower bound);
  "majority" - a level fails when at least half of its realizations
               violate (median-threshold estimate; with n_mc around 100
               this reproduces single-realization-per-step searches in
               expectation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .field import WaveSpec, element_fields
from .testzone import (FOM_ORDER, ChamberSpec, FomLimits, TIER1, TestZoneMesh, build_mesh,
                       fom_values)


@dataclass(frozen=True)
class ExcitationErrorModel:
    """Complex Gaussian excitation error with dB-parameterized deviation."""

    sigma_db: float

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")

    @property
    def sigma_linear(self) -> float:
        return 10.0 ** (self.sigma_db / 20.0) - 1.0


def draw_errors(model: ExcitationErrorModel, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex errors, each part N(0, sigma_linear).

    Uses the generator's ``standard_normal`` (ziggurat); regression
    fixtures assume numpy's PCG64 default generator.
    """
    s = model.sigma_linear
    if s == 0.0:
        return np.zeros(n, dtype=complex)
    parts = rng.standard_normal((2, n)) * s
    return parts[0] + 1j * parts[1]


@dataclass(frozen=True)
class ToleranceSearchConfig:
    step_db: float = 0.01
    n_mc: int = 100
    limits: FomLimits = TIER1
    rng_seed: int = 0
    max_sigma_db: float = 2.0
    fail_rule: str = "any"

    def __post_init__(self):
        if self.step_db <= 0:
            raise ValueError("step_db must be positive")
        if self.max_sigma_db < self.step_db:
            raise ValueError("max_sigma_db must be at least one step_db")
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.fail_rule not in ("any", "majority"):
            raise ValueError("fail_rule must be 'any' or 'majority'")


@dataclass(frozen=True)
class ToleranceResult:
    tolerated_sigma_db: float
    first_failing_fom: Optional[str]
    failing_sigma_db: Optional[float]
    exceeded_cap: bool = False


def level_fom_batch(contrib: np.ndarray, mesh: TestZoneMesh,
                    eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FoM triples for a batch of error realizations.

    ``contrib`` is the (n_points, n_elements) error-free per-element field
    matrix; ``eps`` is (n_elements, batch). Returns per-realization arrays
    (r_mag, sigma_mag, r_phs), each of length batch.
    """
    return fom_values(mesh, contrib @ (1.0 + eps))


def _draw_batch(model: ExcitationErrorModel, n_elements: int, seed: int,
                level: int, start: int, stop: int) -> np.ndarray:
    """Realizations start..stop of a level, each from its own keyed stream."""
    eps = np.empty((n_elements, stop - start), dtype=complex)
    for j, r in enumerate(range(start, stop)):
        rng = np.random.default_rng([seed, level, r])
        eps[:, j] = draw_errors(model, n_elements, rng)
    return eps


def _failing_level_counts(contrib, mesh, model, cfg, level,
                          n_elements) -> Optional[np.ndarray]:
    """Per-FoM violation counts over all n_mc realizations of a failing level.

    None as soon as the level can no longer fail. Each realization is
    drawn and scored once; realization r always comes from the stream keyed
    by (seed, level, r), so chunked evaluation cannot change the outcome.
    """
    need_fail = 1 if cfg.fail_rule == "any" else (cfg.n_mc + 1) // 2
    counts = np.zeros(len(FOM_ORDER), dtype=int)
    failures = 0
    done = 0
    chunk = max(1, min(cfg.n_mc, 32))
    while done < cfg.n_mc:
        if failures + (cfg.n_mc - done) < need_fail:
            return None
        stop = min(done + chunk, cfg.n_mc)
        eps = _draw_batch(model, n_elements, cfg.rng_seed, level, done, stop)
        viol = cfg.limits.violations(*level_fom_batch(contrib, mesh, eps))
        counts += viol.sum(axis=1)
        failures += int(viol.any(axis=0).sum())
        done = stop
    return counts if failures >= need_fail else None


def tolerance_search(ies: float, distance: float, wave: WaveSpec,
                     cfg: ToleranceSearchConfig,
                     chamber: ChamberSpec = ChamberSpec()) -> ToleranceResult:
    """Largest error deviation (dB) the geometry tolerates at every FoM.

    ``chamber`` gives the array at spacing ``ies`` and the test zone at
    ``distance``. The deviation starts at one step and increases
    stepwise; each level runs ``n_mc`` fresh realizations and fails per
    ``cfg.fail_rule``.
    Realization streams are keyed by (seed, level index, realization
    index), so results are independent of evaluation order, chunking, and
    thread count.

    Returns the last passing level and the failing FoM attributed by
    majority vote over the violating realizations at the failing level
    (ties broken in the order R_mag, sigma_mag, R_phs). If nothing fails
    up to ``max_sigma_db`` the result is flagged as exceeding the cap.
    """
    n_elements = chamber.n_elements
    mesh = build_mesh(chamber.zone(wave, distance))
    contrib = element_fields(chamber.layout(ies), wave, mesh.points)

    # Level 0 must pass with zero errors, otherwise tolerance is degenerate.
    zero = np.zeros((n_elements, 1), dtype=complex)
    base = cfg.limits.violations(*level_fom_batch(contrib, mesh, zero))
    if base.any():
        idx = int(np.argmax(base[:, 0]))
        return ToleranceResult(0.0, FOM_ORDER[idx], 0.0)

    level = 0
    while True:
        level += 1
        sigma_db = level * cfg.step_db
        if sigma_db > cfg.max_sigma_db + 1e-12:
            return ToleranceResult((level - 1) * cfg.step_db, None, None, exceeded_cap=True)
        model = ExcitationErrorModel(sigma_db)
        counts = _failing_level_counts(contrib, mesh, model, cfg, level, n_elements)
        if counts is not None:
            failing = FOM_ORDER[int(np.argmax(counts))]
            return ToleranceResult((level - 1) * cfg.step_db, failing, sigma_db)
