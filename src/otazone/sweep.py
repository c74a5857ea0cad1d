"""Compliance sweep over (inter-element spacing, zone distance) combinations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .field import WaveSpec
from .testzone import (TIERS, ChamberSpec, FomReport, build_mesh, field_over_mesh,
                       fom_values)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (ies, D) grid, in meters.

    The distance axis must stay below half the Fraunhofer distance of the
    shortest array, ((n_elements - 1) * min_ies)^2 / lambda, so the sweep
    never claims compliance where the setup is trivially far-field.
    """

    ies_values: Tuple[float, ...]
    d_values: Tuple[float, ...]

    def __post_init__(self):
        ies = np.asarray(self.ies_values, dtype=float)
        d = np.asarray(self.d_values, dtype=float)
        if ies.size == 0 or d.size == 0:
            raise ValueError("grid axes must be non-empty")
        if np.any(np.diff(ies) <= 0) or np.any(np.diff(d) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if ies[0] <= 0:
            raise ValueError("ies values must be positive")
        object.__setattr__(self, "ies_values", tuple(ies))
        object.__setattr__(self, "d_values", tuple(d))

    def validate_cap(self, wave: WaveSpec, n_elements: int) -> None:
        lam = wave.wavelength
        cap = ((n_elements - 1) * min(self.ies_values)) ** 2 / lam
        if max(self.d_values) > cap * (1.0 + 1e-12):
            raise ValueError(
                f"max distance {max(self.d_values):.4g} m exceeds half-Fraunhofer cap {cap:.4g} m")


@dataclass(frozen=True)
class SweepCell:
    ies: float
    d: float
    length: float
    r_mag: float
    sigma_mag: float
    r_phs: float
    reports: Tuple[FomReport, ...]  # one per entry of TIERS, same FoM values


@dataclass(frozen=True)
class ComplianceMap:
    grid: SweepGrid
    cells: Tuple[SweepCell, ...]

    def cell(self, ies: float, d: float) -> SweepCell:
        for c in self.cells:
            if np.isclose(c.ies, ies) and np.isclose(c.d, d):
                return c
        raise KeyError(f"no cell at (ies={ies}, d={d})")


def run_sweep(grid: SweepGrid, wave: WaveSpec,
              chamber: ChamberSpec = ChamberSpec()) -> ComplianceMap:
    """Evaluate the FoM once per (ies, D) cell and score every tier of TIERS.

    The grid must pass ``validate_cap`` for the chamber's array size. The
    field is computed with zero excitation errors, so the map is
    deterministic. A failure inside any cell aborts the sweep with the
    offending coordinates attached: a ValueError (bad input, such as a
    zone that crosses the array line) stays a ValueError, anything else
    becomes a RuntimeError.
    """
    grid.validate_cap(wave, chamber.n_elements)
    cells: List[SweepCell] = []
    for ies in grid.ies_values:
        layout = chamber.layout(ies)
        for d in grid.d_values:
            try:
                mesh = build_mesh(chamber.zone(wave, d))
                values = field_over_mesh(layout, wave, mesh)
                rm, sm, rp = fom_values(mesh, values)
            except Exception as exc:
                kind = ValueError if isinstance(exc, ValueError) else RuntimeError
                raise kind(f"sweep cell (ies={ies}, d={d}) failed: {exc}") from exc
            reports = tuple(FomReport.from_values(rm, sm, rp, tier) for tier in TIERS)
            cells.append(SweepCell(ies, d, layout.length, rm, sm, rp, reports))
    return ComplianceMap(grid=grid, cells=tuple(cells))


def compact_frontier(cmap: ComplianceMap, tier_index: int) -> List[Tuple[float, float]]:
    """Pareto-minimal compliant (L, D) pairs under componentwise order, sorted by L.

    A compliant cell survives if no other compliant cell is at least as
    small in both array length and distance and strictly smaller in one.
    In (L, D) order a pair can only be dominated by an earlier one, so it
    survives exactly when its D is below every D before it (a skyline).
    ``tier_index`` picks the tier, ``TIERS[tier_index]``.
    """
    frontier: List[Tuple[float, float]] = []
    for length, d in sorted({(c.length, c.d) for c in cmap.cells if c.reports[tier_index].passed}):
        if not frontier or d < frontier[-1][1]:
            frontier.append((length, d))
    return frontier
