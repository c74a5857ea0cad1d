"""Compliance sweep over (inter-element spacing, zone distance) combinations."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .field import WaveSpec
from .testzone import (TIERS, ChamberSpec, FomReport, TestZoneMesh, build_mesh,
                       field_over_mesh, fom_values)


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
        if ies.size == 0 or d.size == 0 or not np.isfinite(np.r_[ies, d]).all():
            raise ValueError("grid axes must be non-empty and finite")
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
    cells: Tuple[SweepCell, ...]  # IES-major, D-ascending

    def cell(self, ies: float, d: float) -> SweepCell:
        """The cell at the nearest grid point, which must match (ies, d) to a relative 1e-5."""
        i, j = (int(np.argmin(np.abs(np.subtract(axis, v))))
                for axis, v in ((self.grid.ies_values, ies), (self.grid.d_values, d)))
        if not np.allclose((self.grid.ies_values[i], self.grid.d_values[j]), (ies, d), atol=0.0):
            raise KeyError(f"no cell at (ies={ies}, d={d})")
        return self.cells[i * len(self.grid.d_values) + j]


@contextmanager
def _cell_errors(ies: float, d: float) -> Iterator[None]:
    """Attach a cell's coordinates to a failure.

    A ValueError stays one, a MemoryError passes through as it is, the rest is RuntimeError.
    """
    try:
        yield
    except MemoryError:
        raise
    except Exception as exc:
        kind = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise kind(f"sweep cell (ies={ies}, d={d}) failed: {exc}") from exc


def run_sweep(grid: SweepGrid, wave: WaveSpec,
              chamber: ChamberSpec = ChamberSpec()) -> ComplianceMap:
    """Evaluate the FoM once per (ies, D) cell and score every tier of TIERS.

    The grid must pass ``validate_cap`` for the chamber's array size. The
    field is computed with zero excitation errors, so the map is
    deterministic. A failure inside any cell aborts the sweep with the
    offending coordinates attached: a ValueError (bad input, such as a
    zone that crosses the array line) stays a ValueError, a MemoryError
    stays a MemoryError, anything else becomes a RuntimeError.

    The zone's mesh differs from D to D only by a shift in y, so one mesh
    serves every cell. Zones whose D differ by whole mesh pitches share
    their rows and form a row group; the groups go one at a time. A
    group's strip is the union of its zones' rows, each from x = 0 to the
    widest half-row any of its zones needs there; per IES its field is
    computed once over the strip and every zone of the group reads its
    cells from it. The error-free field is mirror-symmetric in x
    (symmetric positions and taper), so a point at -x reads the field at x.
    """
    grid.validate_cap(wave, chamber.n_elements)
    # D ascends, so only the nearest zone can cross the array line
    with _cell_errors(grid.ies_values[0], grid.d_values[0]):
        zone = chamber.zone(wave, grid.d_values[0])
    pitch = zone.pitch
    mesh = build_mesh(zone)
    # each zone point's row and |x| / pitch; the zone's n_rows rows lie at
    # D + b * pitch for b = -(n_rows // 2) .. n_rows // 2
    row, a = mesh.lattice()
    a = np.abs(a)
    n_rows = mesh.row_y.size
    d_values, n_d = grid.d_values, len(grid.d_values)
    layouts = [chamber.layout(ies) for ies in grid.ies_values]

    # row groups: (index into d_values, k) with d = d0 + k * pitch for the group's
    # first distance d0, so k starts at 0 and increases; a distance off every
    # group's lattice starts a group of its own
    groups: List[List[Tuple[int, int]]] = []
    for j, d in enumerate(d_values):
        for group in groups:
            k = (d - d_values[group[0][0]]) / pitch
            if abs(k - round(k)) <= 1e-9:
                group.append((j, round(k)))
                break
        else:
            groups.append([(j, 0)])

    cells: List[SweepCell] = [None] * (len(layouts) * n_d)
    for group in groups:
        # strip row r holds row r - k of the group's zone at d0 + k * pitch
        widths = np.full(group[-1][1] + n_rows, -1)
        for _, k in group:
            widths[k:k + n_rows] = np.maximum(widths[k:k + n_rows], mesh.row_hi)
        row_y = d_values[group[0][0]] + (np.arange(widths.size) - n_rows // 2) * pitch
        keep = widths >= 0  # a row no zone of the group reaches has no points
        # binding it releases the previous group's strip, with the points it cached
        strip = TestZoneMesh(pitch, row_y[keep], 0, widths[keep])
        row_start = strip.edges[np.cumsum(keep) - 1]  # each strip row's first point
        for i, (ies, layout) in enumerate(zip(grid.ies_values, layouts)):
            with _cell_errors(ies, d_values[group[0][0]]):
                field = field_over_mesh(layout, wave, strip)
            for j, k in group:
                with _cell_errors(ies, d_values[j]):
                    rm, sm, rp = fom_values(mesh, field[row_start[k + row] + a])
                reports = tuple(FomReport.from_values(rm, sm, rp, tier) for tier in TIERS)
                cells[i * n_d + j] = SweepCell(ies, d_values[j], layout.length, rm, sm, rp,
                                               reports)
            del field  # not held while the next field is synthesized
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
