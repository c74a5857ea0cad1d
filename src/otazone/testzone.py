"""Test-zone sample mesh and plane-wave figures of merit.

The test zone is a circle of radius R centered at (0, D), sampled on a
square grid with equal pitch in x and y so the sample density is uniform.
The three figures of merit are the magnitude dynamic range (dB), the
sample standard deviation of the dB magnitudes, and the worst per-row
circular phase range (degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .field import ArrayLayout, WaveSpec, field_at_points, make_taper

FOM_ORDER = ("R_mag", "sigma_mag", "R_phs")


@dataclass(frozen=True)
class TestZoneSpec:
    """Circular test zone at (0, distance) with the given radius and mesh pitch."""

    distance: float
    radius: float
    pitch: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        if self.distance <= self.radius:
            raise ValueError("test zone must not intersect the array line (D > R)")


@dataclass(frozen=True)
class ChamberSpec:
    """The chamber of every study: a tapered linear array and its test zone.

    Field names are the config keys. The defaults are the standard
    chamber: 100 elements with a -6 dB edge taper over 25 on each side,
    and a zone of radius 99*lambda/8 sampled at lambda/8 pitch.
    """

    n_elements: int = 100
    taper_edge: int = 25
    taper_depth_db: float = -6.0
    taper_endpoint: str = "exclusive"
    tz_radius_lambda: float = 99.0 / 8.0
    mesh_pitch_lambda: float = 1.0 / 8.0

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        self._taper()
        if self.tz_radius_lambda <= 0 or self.mesh_pitch_lambda <= 0:
            raise ValueError("tz_radius_lambda and mesh_pitch_lambda must be positive")

    def _taper(self) -> np.ndarray:
        return make_taper(self.n_elements, self.taper_edge, self.taper_depth_db,
                          self.taper_endpoint)

    def layout(self, ies: float) -> ArrayLayout:
        """The chamber array at inter-element spacing ``ies`` (meters)."""
        return ArrayLayout(self.n_elements, ies, self._taper())

    def zone(self, wave: WaveSpec, distance: float) -> TestZoneSpec:
        """The test zone centered at (0, distance), in meters."""
        lam = wave.wavelength
        return TestZoneSpec(distance=distance, radius=self.tz_radius_lambda * lam,
                            pitch=self.mesh_pitch_lambda * lam)


@dataclass(frozen=True)
class TestZoneMesh:
    """Flat point list plus row structure (constant-y stripes).

    ``row_slices[i]`` selects row i inside ``points``; within a row the
    points are ordered by increasing x.
    """

    points: np.ndarray
    row_slices: Tuple[slice, ...]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_mesh(spec: TestZoneSpec) -> TestZoneMesh:
    """Grid points inside the disc, anchored so (0, D) is a grid node.

    Boundary points (distance exactly R) are included; the comparison
    carries a tiny relative slack so exact-radius lattices are stable.
    """
    n_max = int(np.floor(spec.radius / spec.pitch * (1.0 + 1e-12)))
    r2 = (spec.radius / spec.pitch) ** 2 * (1.0 + 1e-12)
    rows = []
    slices = []
    start = 0
    for b in range(-n_max, n_max + 1):
        half = np.floor(np.sqrt(max(r2 - b * b, 0.0)))
        a = np.arange(-half, half + 1)
        if a.size == 0:
            continue
        xs = a * spec.pitch
        ys = np.full(a.size, spec.distance + b * spec.pitch)
        rows.append(np.column_stack([xs, ys]))
        slices.append(slice(start, start + a.size))
        start += a.size
    if start == 0:
        raise ValueError("mesh contains no points; radius too small for pitch")
    return TestZoneMesh(points=np.concatenate(rows), row_slices=tuple(slices))


def field_over_mesh(layout: ArrayLayout, wave: WaveSpec,
                    mesh: TestZoneMesh) -> np.ndarray:
    """E_z at every mesh point, in mesh order."""
    if mesh.n_points == 0:
        raise ValueError("empty mesh")
    return field_at_points(layout, wave, mesh.points)


def _magnitudes_db(values: np.ndarray) -> np.ndarray:
    """10*log10(|E|^2) per sample; both magnitude FoMs reduce this along axis 0."""
    power = values.real ** 2 + values.imag ** 2
    if np.any(power == 0.0):
        raise ValueError("zero-magnitude sample; dB undefined")
    return 10.0 * np.log10(power)


def _circular_range(phases: np.ndarray) -> np.ndarray:
    """circular_range_deg along axis 0 of phases in [0, 360), per column."""
    if phases.shape[0] == 1:
        return np.zeros(phases.shape[1:])
    phases = np.sort(phases, axis=0)
    gaps = np.diff(phases, axis=0).max(axis=0)
    wrap = 360.0 - (phases[-1] - phases[0])
    return np.minimum(360.0 - np.maximum(gaps, wrap), 180.0)


def _worst_row_range(mesh: TestZoneMesh, values: np.ndarray) -> np.ndarray:
    phases = np.degrees(np.arctan2(values.imag, values.real)) % 360.0
    worst = np.zeros(phases.shape[1:])
    for sl in mesh.row_slices:
        row = phases[sl]
        if row.shape[0] == 0:
            raise ValueError("empty mesh row")
        worst = np.maximum(worst, _circular_range(row))
    return worst


def r_mag(values: np.ndarray) -> float:
    """Dynamic range of the field magnitudes in dB."""
    values = np.ravel(values)
    if values.size == 0:
        raise ValueError("need at least one sample")
    return float(np.ptp(_magnitudes_db(values)))


def sigma_mag(values: np.ndarray) -> float:
    """Sample standard deviation (divisor N-1) of the dB magnitudes."""
    values = np.ravel(values)
    if values.size < 2:
        raise ValueError("need at least two samples")
    return float(np.std(_magnitudes_db(values), ddof=1))


def circular_range_deg(phases_deg: np.ndarray) -> float:
    """Wrap-correct phase spread: 360 minus the largest circular gap, capped at 180.

    A row with phases {359, 2} spans 3 degrees, not 357; spreads beyond
    180 degrees are clamped since that is the largest deviation that can
    physically occur.
    """
    phases = np.mod(np.ravel(np.asarray(phases_deg, dtype=float)), 360.0)
    if phases.size == 0:
        raise ValueError("empty phase row")
    return float(_circular_range(phases))


def r_phs(mesh: TestZoneMesh, values: np.ndarray) -> float:
    """Worst-row circular phase range in degrees."""
    return float(_worst_row_range(mesh, np.ravel(values)))


@dataclass(frozen=True)
class FomLimits:
    """Acceptance thresholds for the three figures of merit."""

    sigma_mag_max: float
    r_mag_max: float
    r_phs_max: float

    def __post_init__(self):
        if min(self.sigma_mag_max, self.r_mag_max, self.r_phs_max) <= 0:
            raise ValueError("all limits must be strictly positive")

    def violations(self, r_mag, sigma_mag, r_phs) -> np.ndarray:
        """Violated FoMs in FOM_ORDER: shape (3,) for floats, (3, batch) for arrays."""
        return np.stack([r_mag > self.r_mag_max, sigma_mag > self.sigma_mag_max,
                         r_phs > self.r_phs_max])


TIER1 = FomLimits(sigma_mag_max=0.25, r_mag_max=1.0, r_phs_max=10.0)
TIER2 = FomLimits(sigma_mag_max=0.225, r_mag_max=0.9, r_phs_max=9.0)
TIER3 = FomLimits(sigma_mag_max=0.2, r_mag_max=0.8, r_phs_max=8.0)
# The standard tiers in order: tier n is TIERS[n - 1].
TIERS = (TIER1, TIER2, TIER3)


@dataclass(frozen=True)
class FomReport:
    r_mag: float
    sigma_mag: float
    r_phs: float
    passed: bool
    failing_foms: Tuple[str, ...]

    @staticmethod
    def from_values(rm: float, sm: float, rp: float, limits: FomLimits) -> "FomReport":
        failing = tuple(f for f, bad in zip(FOM_ORDER, limits.violations(rm, sm, rp)) if bad)
        return FomReport(rm, sm, rp, passed=not failing, failing_foms=failing)


def fom_values(mesh: TestZoneMesh, values: np.ndarray):
    """(R_mag, sigma_mag, R_phs) of field realizations over the mesh.

    ``values`` is one realization, shape (n_points,), giving three floats,
    or a batch, shape (n_points, batch), giving three arrays of length
    batch. Each column is scored independently of the others.
    """
    values = np.asarray(values)
    if values.shape[0] < 2:
        raise ValueError("need at least two samples")
    db = _magnitudes_db(values)
    foms = (np.ptp(db, axis=0), db.std(axis=0, ddof=1), _worst_row_range(mesh, values))
    if values.ndim == 1:
        return tuple(float(f) for f in foms)
    return foms


def evaluate_fom(layout: ArrayLayout, wave: WaveSpec, spec: TestZoneSpec,
                 limits: FomLimits) -> FomReport:
    """Synthesize the field over the zone mesh and score it against the limits."""
    mesh = build_mesh(spec)
    values = field_over_mesh(layout, wave, mesh)
    rm, sm, rp = fom_values(mesh, values)
    return FomReport.from_values(rm, sm, rp, limits)
