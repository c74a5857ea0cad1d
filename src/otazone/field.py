"""Near-field synthesis for a tapered uniform linear chamber array.

All geometry is 2D (the XY-plane) and in meters. The radiated quantity is
the vertically polarized E-field of idealized isotropic elements, summed
by superposition. Element patterns and mutual coupling are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
# Coarsest float64 step of k*r (radians) element_fields accepts
_PHASE_RESOLUTION = 1e-6


def checked_int(name: str, value, least: int) -> int:
    """``value`` as a Python int; ValueError unless it is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer")
    return int(value)


@dataclass(frozen=True)
class WaveSpec:
    """Operating frequency and derived wave quantities.

    The reference amplitude is fixed at 1, so fields carry only the
    geometric 1/(4*pi*r) scale.
    """

    frequency: float = 28e9

    def __post_init__(self):
        if not (0 < self.frequency < np.inf and SPEED_OF_LIGHT / float(self.frequency) < np.inf):
            raise ValueError("frequency must be positive and finite, with a finite wavelength")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def make_taper(n_elements: int, n_edge: int, depth_db: float, endpoint: str) -> np.ndarray:
    """Linear-in-dB edge taper, returned in linear scale.

    The ``n_edge`` elements on each side ramp from ``depth_db`` at the
    outermost element up to 0 dB; the middle elements stay at 0 dB.

    With ``endpoint="inclusive"`` the innermost tapered element reaches
    0 dB exactly; with ``"exclusive"`` 0 dB is only reached by the first
    untapered element, so the ramp step is ``depth_db / n_edge``.
    """
    if not 2 * checked_int("n_edge", n_edge, 0) <= n_elements:
        raise ValueError(f"n_edge={n_edge} must satisfy 2*n_edge <= {n_elements}")
    if not -np.inf < depth_db <= 0:
        raise ValueError(f"depth_db={depth_db} must be finite and <= 0")
    if endpoint not in ("inclusive", "exclusive"):
        raise ValueError(f"unknown endpoint convention {endpoint!r}")

    taper_db = np.zeros(n_elements)
    if n_edge > 0:
        # m counts outward: m=0 is the innermost tapered element.
        m = np.arange(n_edge)
        if endpoint == "inclusive":
            ramp = depth_db * m / (n_edge - 1) if n_edge > 1 else np.array([depth_db])
        else:
            ramp = depth_db * (m + 1) / n_edge
        taper_db[:n_edge] = ramp[::-1]
        taper_db[n_elements - n_edge:] = ramp
    return 10.0 ** (taper_db / 20.0)


@dataclass(frozen=True)
class ArrayLayout:
    """Uniform linear array along the x-axis, centered on x = 0.

    ``taper`` holds per-element linear-scale amplitude coefficients.
    """

    n_elements: int
    ies: float
    taper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_elements", checked_int("n_elements", self.n_elements, 1))
        if not (np.isfinite(self.ies) and self.ies > 0):
            raise ValueError("ies must be positive and finite")
        taper = np.asarray(self.taper, dtype=float)
        if taper.shape != (self.n_elements,) or not np.isfinite(taper).all():
            raise ValueError(f"taper must have shape ({self.n_elements},) and finite entries")
        object.__setattr__(self, "taper", taper)

    @property
    def positions(self) -> np.ndarray:
        """Element x-coordinates in meters, symmetric about 0."""
        return (np.arange(self.n_elements) - (self.n_elements - 1) / 2.0) * self.ies

    @property
    def length(self) -> float:
        return (self.n_elements - 1) * self.ies


def element_fields(layout: ArrayLayout, wave: WaveSpec,
                   points: np.ndarray) -> np.ndarray:
    """Per-element field contributions t_i * exp(-j*k*r_i) / (4*pi*r_i).

    ``points`` has shape (M, 2); the result has shape (M, n_elements).
    The tolerance search applies excitation errors through the low-rank
    factors of this matrix, contrib ~ B @ V, as E = f0 + (eps @ V^T) @ B^T.
    It takes V from this function on a sample of the points and reads
    contrib once, block by block from the row-lattice kernel where it can,
    to write f0 and B; it forms contrib only if the factors fall back to it.
    A distance that is not finite, or so large that float64 resolves k*r
    more coarsely than _PHASE_RESOLUTION, raises ValueError before any
    phase is taken. Only r, k*r and the result are allocated.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.subtract(points[:, 0, None], layout.positions[None, :])
    np.hypot(r, points[:, 1, None], out=r)
    if r.min(initial=np.inf) == 0.0:
        raise ValueError("evaluation point coincides with an array element")
    # k > 0, so the largest k*r is k times the largest r
    r_max = float(r.max(initial=0.0))
    if not np.spacing(wave.wavenumber * r_max) <= _PHASE_RESOLUTION:
        raise ValueError(f"an element-to-point distance of {r_max:.4g} m leaves float64 less "
                         f"than 1 microradian of phase resolution")
    kr = np.multiply(wave.wavenumber, r)
    amp = np.divide((layout.taper / (4.0 * np.pi))[None, :], r, out=r)
    # real cos/sin beats complex exp by a wide margin at this size
    out = np.empty(r.shape, dtype=complex)
    np.multiply(amp, np.cos(kr, out=out.real), out=out.real)
    np.multiply(amp, np.sin(kr, out=kr), out=kr)
    np.negative(kr, out=out.imag)
    return out


def field_at_points(layout: ArrayLayout, wave: WaveSpec,
                    points: np.ndarray) -> np.ndarray:
    """Total E_z at each of the (M, 2) points by superposition."""
    return element_fields(layout, wave, points).sum(axis=1)

