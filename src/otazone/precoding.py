"""Two-array uplink study: MF/ZF combining under DUT weight errors.

The main array plays the desired user and an identical interferer array
sits at an angle alpha from boresight, both illuminating a linear DUT
array inside the test zone. The DUT acts as a base station receiving the
uplink; combining weights are matched filter or zero forcing, optionally
distorted by complex Gaussian errors, and scored by the sum rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .field import ArrayLayout, WaveSpec, field_at_points
from .testzone import ChamberSpec
from .tolerance import ExcitationErrorModel, draw_errors


@dataclass(frozen=True)
class DutArraySpec:
    """Uniform linear receive array centered in the test zone, parallel to x."""

    n_elements: int = 49
    ies_lambda: float = 0.5

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("DUT needs at least 2 elements")
        if self.ies_lambda <= 0:
            raise ValueError("DUT spacing ies_lambda must be positive")

    def spacing(self, wave: WaveSpec) -> float:
        return self.ies_lambda * wave.wavelength

    def points(self, wave: WaveSpec, center_distance: float) -> np.ndarray:
        d = self.spacing(wave)
        x = (np.arange(self.n_elements) - (self.n_elements - 1) / 2.0) * d
        return np.column_stack([x, np.full(self.n_elements, center_distance)])


def alpha_min_deg(length: float, distance: float) -> float:
    """Minimum interferer angle when the two arrays abut on the same line."""
    if length <= 0 or distance <= 0:
        raise ValueError("length and distance must be positive")
    return float(np.degrees(np.arctan2(length, distance)))


def build_channel(ma_layout: ArrayLayout, distance: float, alpha_deg: float,
                  dut: DutArraySpec, wave: WaveSpec) -> np.ndarray:
    """2 x N_DUT channel: row 0 main array, row 1 interferer array.

    The interferer is the main array moved rigidly: centered at distance D
    from the zone center, at angle alpha from boresight (zone center to
    main-array center), broadside to the zone center. So its row is the
    main array's field at the DUT points expressed in the interferer's own
    frame. Entries are normalized to unit mean-square entry so the SNR
    axis is per receive element.
    """
    pts = dut.points(wave, distance)
    a = np.radians(alpha_deg)
    center = np.array([distance * np.sin(a), distance * (1.0 - np.cos(a))])
    # columns: the interferer's array axis and its broadside direction
    frame = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    h = np.stack([field_at_points(ma_layout, wave, pts),
                  field_at_points(ma_layout, wave, (pts - center) @ frame)])
    scale = np.sqrt(np.mean(np.abs(h) ** 2))
    return h / scale


def mf_weights(h: np.ndarray) -> np.ndarray:
    """Matched-filter combiner: conjugate transpose of the channel."""
    return h.conj().T


def zf_weights(h: np.ndarray) -> np.ndarray:
    """Zero-forcing combiner: right pseudo-inverse, H @ W = I.

    The 2x2 Gram matrix is inverted in closed form; a near-singular Gram
    matrix means the two array channels are nearly collinear and zero
    forcing is meaningless.
    """
    gram = h @ h.conj().T
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    tr = gram[0, 0].real + gram[1, 1].real
    if abs(det) < 1e-12 * (tr / 2.0) ** 2:
        raise np.linalg.LinAlgError("channel rows nearly collinear; ZF ill-conditioned")
    inv = np.array([[gram[1, 1], -gram[0, 1]],
                    [-gram[1, 0], gram[0, 0]]]) / det
    return h.conj().T @ inv


# The two combiners of the study, in output order.
COMBINERS = {"MF": mf_weights, "ZF": zf_weights}


def sinr(h: np.ndarray, w: np.ndarray, snr_db: float,
         noise_norms: Optional[np.ndarray] = None):
    """Per-user uplink SINR with linear combining.

    Receive model: unit-variance noise per DUT element, per-user transmit
    power rho = 10^(snr_db/10) after channel normalization. With
    G = H @ W, user u sees rho*|G[u,u]|^2 of signal, rho*|G[v,u]|^2 of
    interference, and ||w_u||^2 of noise.

    ``w`` is one (n_dut, 2) combiner, giving the pair of SINRs, or a
    (m, n_dut, 2) batch, giving an (m, 2) array. ``noise_norms``
    overrides the per-column noise powers; the weight error study passes
    the nominal (error-free) combiner norms so the noise floor stays
    anchored while the errors distort the gains.
    """
    w = np.asarray(w)
    g = np.einsum('un,...nv->...uv', h, w)
    rho = 10.0 ** (snr_db / 10.0)
    norms = np.sum(np.abs(w) ** 2, axis=-2) if noise_norms is None else np.asarray(noise_norms)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm combiner column")
    gain = np.abs(g) ** 2
    # user u: signal G[u, u], interference G[v, u] with v = 1 - u
    out = rho * gain[..., [0, 1], [0, 1]] / (rho * gain[..., [1, 0], [0, 1]] + norms)
    if w.ndim == 2:
        return float(out[0]), float(out[1])
    return out


def sum_rate(sinr_pair):
    """Aggregate spectral efficiency, bits/s/Hz: a float per SINR pair, m rates per (m, 2) batch."""
    s = np.asarray(sinr_pair, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR must be non-negative")
    rate = np.log2(1.0 + s).sum(axis=-1)
    return float(rate) if rate.ndim == 0 else rate


@dataclass(frozen=True)
class StudyConfig:
    snr_db: Tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0)
    sigma_dut_db: Tuple[float, ...] = tuple(np.round(np.arange(0.0, 2.0 + 1e-9, 0.1), 10))
    alpha_offsets_deg: Tuple[float, ...] = (0.0, 15.0)
    n_mc: int = 1000
    rng_seed: int = 0
    dut: DutArraySpec = field(default_factory=DutArraySpec)

    def __post_init__(self):
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not (self.snr_db and self.sigma_dut_db and self.alpha_offsets_deg):
            raise ValueError("snr_db, sigma_dut_db and alpha_offsets_deg must be non-empty")
        if any(s < 0 for s in self.sigma_dut_db):
            raise ValueError("sigma_dut_db values must be >= 0")


@dataclass(frozen=True)
class SumRatePoint:
    length: float
    distance: float
    alpha_deg: float
    precoder: str
    snr_db: float
    sigma_dut_db: float
    avg_sum_rate: float


def run_study(geometries: Sequence[Tuple[float, float]], wave: WaveSpec,
              cfg: StudyConfig, chamber: ChamberSpec = ChamberSpec()) -> List[SumRatePoint]:
    """Average sum rate over weight-error realizations for each study cell.

    ``geometries`` holds (ies, D) pairs in meters. The unperturbed W is
    computed once per (geometry, angle, precoder); realization streams
    are keyed by (seed, geometry, angle, sigma index, iteration), so the
    surface is thread-count independent and the same error draws are
    shared between precoders (paired comparison, lower variance on
    MF-vs-ZF differences). The noise floor uses the nominal combiner
    norms; errors distort only the signal and interference gains.
    """
    results: List[SumRatePoint] = []
    for gi, (ies, dist) in enumerate(geometries):
        layout = chamber.layout(ies)
        a_min = alpha_min_deg(layout.length, dist)
        for ai, off in enumerate(cfg.alpha_offsets_deg):
            alpha = a_min + off
            h = build_channel(layout, dist, alpha, cfg.dut, wave)
            weights = {prec: combiner(h) for prec, combiner in COMBINERS.items()}
            for si, sigma in enumerate(cfg.sigma_dut_db):
                n_dut = cfg.dut.n_elements
                if sigma == 0.0:
                    eps_batch = np.zeros((1, n_dut, 2), dtype=complex)
                else:
                    model = ExcitationErrorModel(sigma)
                    eps_batch = np.empty((cfg.n_mc, n_dut, 2), dtype=complex)
                    for it in range(cfg.n_mc):
                        rng = np.random.default_rng([cfg.rng_seed, gi, ai, si, it])
                        eps_batch[it] = draw_errors(model, 2 * n_dut, rng).reshape(n_dut, 2)
                for prec, w in weights.items():
                    noise_norms = np.sum(np.abs(w) ** 2, axis=0)
                    w_batch = (1.0 + eps_batch) * w[None, :, :]
                    for snr in cfg.snr_db:
                        avg = float(sum_rate(sinr(h, w_batch, snr, noise_norms)).mean())
                        results.append(SumRatePoint(layout.length, dist, alpha,
                                                    prec, snr, sigma, avg))
    return results
