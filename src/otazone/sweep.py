"""Compliance sweep over (inter-element spacing, zone distance) combinations."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .field import ArrayLayout, WaveSpec
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
    cells: Tuple[SweepCell, ...]  # IES-major, D-ascending

    def cell(self, ies: float, d: float) -> SweepCell:
        i = np.flatnonzero(np.isclose(self.grid.ies_values, ies))
        j = np.flatnonzero(np.isclose(self.grid.d_values, d))
        if i.size == 0 or j.size == 0:
            raise KeyError(f"no cell at (ies={ies}, d={d})")
        return self.cells[i[0] * len(self.grid.d_values) + j[0]]


@contextmanager
def _cell_errors(ies: float, d: float) -> Iterator[None]:
    """Attach a cell's coordinates to a failure: a ValueError stays one, the rest is RuntimeError."""
    try:
        yield
    except Exception as exc:
        kind = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise kind(f"sweep cell (ies={ies}, d={d}) failed: {exc}") from exc


def _row_groups(d_values: Tuple[float, ...], pitch: float) -> List[List[Tuple[int, int]]]:
    """Split the D axis into groups of zones whose mesh rows coincide.

    A group lists (index into d_values, k) with d = d0 + k * pitch for
    its first distance d0, so k starts at 0 and increases. A distance off
    every group's lattice starts a group of its own.
    """
    groups: List[List[Tuple[int, int]]] = []
    for j, d in enumerate(d_values):
        for group in groups:
            k = (d - d_values[group[0][0]]) / pitch
            if abs(k - round(k)) <= 1e-9:
                group.append((j, round(k)))
                break
        else:
            groups.append([(j, 0)])
    return groups


def _half_strip_field(layout: ArrayLayout, wave: WaveSpec, row_y: np.ndarray,
                      widths: np.ndarray, pitch: float, max_points: int):
    """Field on rows at heights ``row_y``, row r at x = 0, pitch, ..., widths[r] * pitch.

    Returns the field, row after row, and each row's start index in it
    (plus the total at the end). A row of width -1 has no points. The
    field is synthesized a few whole rows at a time, at most
    ``max_points`` points per call unless one row is longer.
    """
    counts = widths + 1
    row_start = np.concatenate(([0], np.cumsum(counts)))
    used = np.flatnonzero(counts)
    field = np.empty(row_start[-1], dtype=complex)
    step = max(1, max_points // counts.max())
    for i in range(0, used.size, step):
        rows = used[i:i + step]
        lo, hi = row_start[rows[0]], row_start[rows[-1] + 1]
        row_of_point = np.repeat(rows, counts[rows])
        x = (np.arange(lo, hi) - row_start[row_of_point]) * pitch
        slices = tuple(slice(s - lo, s - lo + c) for s, c in zip(row_start[rows], counts[rows]))
        strip = TestZoneMesh(np.column_stack([x, row_y[row_of_point]]), slices)
        field[lo:hi] = field_over_mesh(layout, wave, strip)
    return field, row_start


def run_sweep(grid: SweepGrid, wave: WaveSpec,
              chamber: ChamberSpec = ChamberSpec()) -> ComplianceMap:
    """Evaluate the FoM once per (ies, D) cell and score every tier of TIERS.

    The grid must pass ``validate_cap`` for the chamber's array size. The
    field is computed with zero excitation errors, so the map is
    deterministic. A failure inside any cell aborts the sweep with the
    offending coordinates attached: a ValueError (bad input, such as a
    zone that crosses the array line) stays a ValueError, anything else
    becomes a RuntimeError.

    The zone's mesh differs from D to D only by a shift in y, so one mesh
    serves every cell. Zones whose D differ by whole mesh pitches share
    their rows: per IES, the field of such a group is computed once over
    the union of its rows, each from x = 0 to the widest half-row any of
    its zones needs there. The error-free field is mirror-symmetric in x
    (symmetric positions and taper), so a point at -x reads the field at x.
    """
    grid.validate_cap(wave, chamber.n_elements)
    ies0 = grid.ies_values[0]
    for d in grid.d_values:
        with _cell_errors(ies0, d):
            chamber.zone(wave, d)  # rejects a zone that crosses the array line
    zone = chamber.zone(wave, grid.d_values[0])
    pitch = zone.pitch
    mesh = build_mesh(zone)
    # integer lattice coordinates of every mesh point: |x| / pitch, and the
    # row counted from the zone's lowest one
    a = np.rint(np.abs(mesh.points[:, 0]) / pitch).astype(np.intp)
    b = np.rint((mesh.points[:, 1] - zone.distance) / pitch).astype(np.intp)
    b_min = b.min()
    b -= b_min
    starts = [sl.start for sl in mesh.row_slices]
    row_b, row_half = b[starts], a[starts]

    strips = []  # per row group: its cells, each row's half-width and height
    for group in _row_groups(grid.d_values, pitch):
        widths = np.full(group[-1][1] + row_b.max() + 1, -1)
        for _, k in group:
            widths[k + row_b] = np.maximum(widths[k + row_b], row_half)
        d0 = grid.d_values[group[0][0]]
        strips.append((group, widths, d0 + (np.arange(widths.size) + b_min) * pitch))

    cells: List[SweepCell] = []
    for ies in grid.ies_values:
        layout = chamber.layout(ies)
        by_d: List[SweepCell] = [None] * len(grid.d_values)
        for group, widths, row_y in strips:
            with _cell_errors(ies, grid.d_values[group[0][0]]):
                field, row_start = _half_strip_field(layout, wave, row_y, widths, pitch,
                                                     mesh.n_points // 2)
            for j, k in group:
                with _cell_errors(ies, grid.d_values[j]):
                    rm, sm, rp = fom_values(mesh, field[row_start[k + b] + a])
                reports = tuple(FomReport.from_values(rm, sm, rp, tier) for tier in TIERS)
                by_d[j] = SweepCell(ies, grid.d_values[j], layout.length, rm, sm, rp, reports)
        cells.extend(by_d)
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
