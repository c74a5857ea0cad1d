"""Near-field synthesis for a tapered uniform linear chamber array.

All geometry is 2D (the XY-plane) and in meters. The radiated quantity is
the vertically polarized E-field of idealized isotropic elements, summed
by superposition. Element patterns and mutual coupling are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class WaveSpec:
    """Operating frequency and derived wave quantities.

    The reference amplitude is fixed at 1, so fields carry only the
    geometric 1/(4*pi*r) scale.
    """

    frequency: float = 28e9

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

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
    if n_edge < 0 or 2 * n_edge > n_elements:
        raise ValueError(f"n_edge={n_edge} must satisfy 0 <= 2*n_edge <= n_elements={n_elements}")
    if depth_db > 0:
        raise ValueError(f"depth_db={depth_db} must be <= 0")
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
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.ies <= 0:
            raise ValueError("ies must be positive")
        taper = np.asarray(self.taper, dtype=float)
        if taper.shape != (self.n_elements,):
            raise ValueError(f"taper must have shape ({self.n_elements},)")
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
    The tolerance search applies excitation errors to this matrix as
    E = element_fields @ (1 + eps).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pos = layout.positions
    r = np.hypot(points[:, 0, None] - pos[None, :], points[:, 1, None])
    if np.any(r == 0.0):
        raise ValueError("evaluation point coincides with an array element")
    kr = wave.wavenumber * r
    amp = (layout.taper / (4.0 * np.pi))[None, :] / r
    # real cos/sin beats complex exp by a wide margin at this size
    out = np.empty(r.shape, dtype=complex)
    out.real = amp * np.cos(kr)
    out.imag = -amp * np.sin(kr)
    return out


def field_at_points(layout: ArrayLayout, wave: WaveSpec,
                    points: np.ndarray) -> np.ndarray:
    """Total E_z at each of the (M, 2) points by superposition."""
    return element_fields(layout, wave, points).sum(axis=1)


def field_at(layout: ArrayLayout, wave: WaveSpec, point) -> complex:
    """Total E_z at a single (x, y) point."""
    return complex(field_at_points(layout, wave, np.asarray(point, dtype=float).reshape(1, 2))[0])
