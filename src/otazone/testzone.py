"""Test-zone sample mesh and plane-wave figures of merit.

The test zone is a circle of radius R centered at (0, D), sampled on a
square grid with equal pitch in x and y so the sample density is uniform.
The three figures of merit are the magnitude dynamic range (dB), the
sample standard deviation of the dB magnitudes, and the worst per-row
circular phase range (degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import field
from .field import ArrayLayout, WaveSpec, checked_int, field_at_points, make_taper

FOM_ORDER = ("R_mag", "sigma_mag", "R_phs")


@dataclass(frozen=True)
class TestZoneSpec:
    """Circular test zone at (0, distance) with the given radius and mesh pitch."""

    distance: float
    radius: float
    pitch: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.distance, self.radius, self.pitch])):
            raise ValueError("test zone distance, radius and pitch must be finite")
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
        for name, least in (("n_elements", 1), ("taper_edge", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        self._taper()
        if not (0 < self.tz_radius_lambda < np.inf and 0 < self.mesh_pitch_lambda < np.inf):
            raise ValueError("tz_radius_lambda and mesh_pitch_lambda must be positive and finite")
        if self.tz_radius_lambda / self.mesh_pitch_lambda * (1.0 + 1e-12) < 1.0:  # as in build_mesh
            raise ValueError("tz_radius_lambda below mesh_pitch_lambda leaves one mesh point")

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
    """Sample points in rows of constant y on a square lattice of step ``pitch``.

    Row r lies at y = ``row_y[r]`` and holds the points x = a * pitch for
    the integers a = ``row_lo[r]`` .. ``row_hi[r]``, in that order; the
    points list the rows one after another. A scalar ``row_lo`` or
    ``row_hi`` applies to every row.
    """

    pitch: float
    row_y: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError("mesh pitch must be positive and finite")
        row_y = np.asarray(self.row_y, dtype=float)
        lo, hi = (np.asarray(v, dtype=np.int64) for v in (self.row_lo, self.row_hi))
        if row_y.ndim != 1 or row_y.size == 0 or not np.isfinite(row_y).all():
            raise ValueError("mesh needs a 1-D array of at least one row, every row_y finite")
        if any(v.ndim != 0 and v.shape != row_y.shape for v in (lo, hi)):
            raise ValueError("row_y, row_lo and row_hi must have one entry per row")
        if np.any(hi < lo):
            raise ValueError("every mesh row needs at least one point (row_hi >= row_lo)")
        for name, v in (("row_y", row_y), ("row_lo", lo), ("row_hi", hi)):
            object.__setattr__(self, name, np.broadcast_to(v, row_y.shape))

    @cached_property
    def edges(self) -> np.ndarray:
        """Index of each row's first point, plus n_points at the end."""
        return np.concatenate(([0], np.cumsum(self.row_hi - self.row_lo + 1)))

    @property
    def n_points(self) -> int:
        return int(self.edges[-1])

    def lattice(self, r0: int = 0, r1: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(row, a) of every point in rows r0 .. r1 - 1: the point is at x = a * pitch."""
        rows = slice(r0, r1)
        row = np.repeat(np.arange(self.row_y.size)[rows], np.diff(self.edges)[rows])
        first = self.edges[row[0]]
        return row, np.arange(first, first + row.size) - self.edges[row] + self.row_lo[row]

    @cached_property
    def points(self) -> np.ndarray:
        """(n_points, 2) coordinates, row after row."""
        row, a = self.lattice()
        return np.column_stack([a * self.pitch, self.row_y[row]])


def build_mesh(spec: TestZoneSpec) -> TestZoneMesh:
    """Grid points inside the disc, anchored so (0, D) is a grid node.

    Row b lies at y = D + b * pitch. Boundary points (distance exactly R)
    are included; the comparison carries a tiny relative slack so
    exact-radius lattices are stable.
    """
    n_max = int(np.floor(spec.radius / spec.pitch * (1.0 + 1e-12)))
    r2 = (spec.radius / spec.pitch) ** 2 * (1.0 + 1e-12)
    b = np.arange(-n_max, n_max + 1)
    half = np.floor(np.sqrt(np.maximum(r2 - b * b, 0.0))).astype(np.int64)
    return TestZoneMesh(spec.pitch, spec.distance + b * spec.pitch, -half, half)


# IES / pitch is matched by the nearest fraction P/Q with Q up to this bound; a
# larger one makes the kernel step so fine that the kernel outgrows the pairs.
_MAX_DENOMINATOR = 1000
# Relative slack of the lattice tests: float rounding of the inputs, no more.
_LATTICE_RTOL = 1e-12
# (point, element) pairs per block of rows
_BLOCK_PAIRS = 1 << 16


def field_over_mesh(layout: ArrayLayout, wave: WaveSpec,
                    mesh: TestZoneMesh) -> np.ndarray:
    """E_z at every mesh point, in mesh order.

    When IES / pitch is a fraction P/Q, every element-to-point offset is a
    whole multiple of pitch / (2Q), so a row's field is
    sum_i t_i * g(|x_p - x_i|, y) for one kernel g, the field of a single
    untapered element, sampled over the offsets each block of rows spans
    and read through a strided window (see ``_kernel_blocks``). Otherwise
    (IES off the lattice, a row on the array line, or a kernel no shorter
    than the pairs it replaces) every (point, element) pair is synthesized
    directly. Either way the rows go in blocks of about _BLOCK_PAIRS
    (point, element) pairs, to bound memory.
    """
    out = np.empty(mesh.n_points, dtype=complex)
    for pts, g in _kernel_blocks(layout, wave, mesh):
        out[pts] = (field_at_points(layout, wave, mesh.points[pts]) if g is None
                    else g @ layout.taper)
        del g  # not held while the next block is read
    return out


def element_field_blocks(layout: ArrayLayout, wave: WaveSpec, mesh: TestZoneMesh):
    """Yield (points, f) per block of ``_kernel_blocks``, in mesh order: f[p, i] = t_i * g[p, i].

    Off the row lattice f is one ``field.element_fields`` call (looked up at call time): bit
    for bit those rows of a whole-mesh call. No block is held while the next is read.
    """
    for pts, g in _kernel_blocks(layout, wave, mesh):
        yield pts, (field.element_fields(layout, wave, mesh.points[pts]) if g is None
                    else g * layout.taper)
        del g


def _kernel_blocks(layout: ArrayLayout, wave: WaveSpec, mesh: TestZoneMesh):
    """Yield (points, g) per block of rows of about _BLOCK_PAIRS (point, element) pairs.

    ``points`` is the block's slice of the mesh points and g[p, i] the
    untapered field of element i at point p, read from the row-lattice
    kernel (see ``field_over_mesh``); g is None for every block when there
    is no such lattice.

    A block samples each of its rows' kernels once, over the offsets its
    points and elements span. The elements sit d steps apart, so point
    a's N samples are one strided run of the mirrored kernel: a window
    read, with no index per (point, element) pair.
    """
    plan = _row_lattice(layout, mesh)
    if plan is not None:
        c, e, step = plan
        d = int(e[1] - e[0]) if e.size > 1 else 1
        width = int(e[-1] - e[0]) + 1  # (N - 1) * d + 1 offsets under one point
        unit = ArrayLayout(1, layout.ies, np.ones(1))
    cuts = np.flatnonzero(np.diff(mesh.edges[:-1] * layout.n_elements // _BLOCK_PAIRS)) + 1
    for r0, r1 in zip(np.r_[0, cuts], np.r_[cuts, mesh.row_y.size]):
        pts = slice(mesh.edges[r0], mesh.edges[r1])
        if plan is None:
            yield pts, None
            continue
        rows = slice(r0, r1)
        a_lo = int(mesh.row_lo[rows].min())
        # |m| for every offset m (in steps) from a block point to an element, m_lo to m_hi
        m = np.abs(np.arange(a_lo * c - e[-1], int(mesh.row_hi[rows].max()) * c - e[0] + 1))
        k0 = int(m.min())
        samples = np.empty((r1 - r0, int(m.max()) + 1 - k0, 2))
        samples[..., 0] = np.arange(k0, k0 + samples.shape[1]) * step
        samples[..., 1] = mesh.row_y[rows, None]
        # mirrored[r, j] = row r's kernel at |m_lo + j| steps
        kernel = field_at_points(unit, wave, samples.reshape(-1, 2))
        mirrored = kernel.reshape(r1 - r0, -1)[:, m - k0]
        del samples, kernel  # not held while the block is read
        # point a's elements: the window from (a - a_lo) * c, element i at i * d from its far end
        windows = sliding_window_view(mirrored, width, axis=-1)[:, ::c, ::-1][..., ::d]
        row, a = mesh.lattice(r0, r1)
        yield pts, windows[row - r0, a - a_lo]


def _row_lattice(layout: ArrayLayout, mesh: TestZoneMesh):
    """The points and elements on one common x-lattice of step ``step``.

    Returns (c, e, step): the point at x = a * pitch sits at a * c steps
    and element i at e[i] steps, evenly spaced and ascending. None when
    no such lattice exists, a row lies on the array line, the row kernels,
    each out to its row's farthest point from an element, would be no
    shorter than the (point, element) pairs, or an offset would overflow
    int64.
    """
    ratio = layout.ies / mesh.pitch
    if np.any(mesh.row_y == 0.0) or not np.isfinite(ratio):
        return None
    # Two fractions with Q <= 1000 differ by at least 1e-6, so below a ratio of 5e5
    # at most one lies within _LATTICE_RTOL * ratio, and that one is the nearest.
    p, q = Fraction(ratio).limit_denominator(_MAX_DENOMINATOR).as_integer_ratio()
    if abs(ratio - p / q) > _LATTICE_RTOL * ratio:
        return None
    # in units of pitch / (2Q): points at 2Q * a, elements at (2i - N + 1) * P; every
    # row's farthest offset, summed over the rows, must fit in int64
    reach = 2 * q * int(np.abs(np.r_[mesh.row_lo, mesh.row_hi]).max()) + (layout.n_elements - 1) * p
    if reach * mesh.row_y.size >= 2 ** 63:
        return None
    e = (2 * np.arange(layout.n_elements, dtype=np.int64) - (layout.n_elements - 1)) * p
    g = int(np.gcd.reduce(e, initial=2 * q))
    c, e = 2 * q // g, e // g
    k_len = np.maximum(np.abs(mesh.row_lo * c - e.max()), np.abs(mesh.row_hi * c - e.min())) + 1
    if k_len.sum() >= mesh.n_points * e.size:
        return None
    return c, e, g * mesh.pitch / (2 * q)


def _row_ranges(phases: np.ndarray, starts) -> np.ndarray:
    """max - min of each row along the last axis; the rows begin at ``starts``."""
    return np.maximum.reduceat(phases, starts, -1) - np.minimum.reduceat(phases, starts, -1)


def _worst_row_range(phases: np.ndarray, starts) -> np.ndarray:
    """Largest circular range, capped at 180, over the rows of ``phases`` (in [-180, 180]).

    A row's range is the lesser of its linear ranges with the circle cut at
    180 and at 0 degrees: an arc shorter than 180 degrees holds at most one
    cut point, so one cut measures it. ``phases`` is overwritten.
    """
    r1 = _row_ranges(phases, starts)
    np.add(phases, 360.0, out=phases, where=phases < 0.0)
    return np.minimum(np.minimum(r1, _row_ranges(phases, starts)), 180.0).max(axis=-1)


@dataclass(frozen=True)
class FomLimits:
    """Acceptance thresholds for the three figures of merit."""

    sigma_mag_max: float
    r_mag_max: float
    r_phs_max: float

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.sigma_mag_max, self.r_mag_max, self.r_phs_max)):
            raise ValueError("all limits must be strictly positive and finite")

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
    or a batch, shape (batch, n_points), giving three arrays of length
    batch. Each realization is scored independently of the others. The
    dB magnitudes are 20 * log10|z|, |z| a hypot that neither overflows
    nor underflows; a sample whose |z| is zero or not finite (finite
    parts with |z| past DBL_MAX included) raises ValueError.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples")
    if n != mesh.n_points:
        raise ValueError(f"{n} samples for a mesh of {mesh.n_points} points")
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.abs(values)
        np.log10(db, out=db)
        db *= 20.0
        r_mag = np.ptp(db, axis=-1)
    if not np.isfinite(r_mag).all():
        raise ValueError("zero-magnitude or non-finite sample; dB undefined")
    phases = np.arctan2(values.imag, values.real)
    np.degrees(phases, out=phases)
    foms = (r_mag, db.std(axis=-1, ddof=1), _worst_row_range(phases, mesh.edges[:-1]))
    return tuple(float(f) for f in foms) if values.ndim == 1 else foms


def evaluate_fom(layout: ArrayLayout, wave: WaveSpec, spec: TestZoneSpec,
                 limits: FomLimits) -> FomReport:
    """Synthesize the field over the zone mesh and score it against the limits."""
    mesh = build_mesh(spec)
    values = field_over_mesh(layout, wave, mesh)
    rm, sm, rp = fom_values(mesh, values)
    return FomReport.from_values(rm, sm, rp, limits)
