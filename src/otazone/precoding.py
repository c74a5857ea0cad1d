"""Two-array uplink study: MF/ZF combining under DUT weight errors.

The main array plays the desired user and an identical interferer array
sits at an angle alpha from boresight, both illuminating a linear DUT
array inside the test zone. The DUT acts as a base station receiving the
uplink; combining weights are matched filter or zero forcing, optionally
distorted by complex Gaussian errors, and scored by the sum rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .field import ArrayLayout, WaveSpec, checked_int, field_at_points
from .testzone import ChamberSpec
from .tolerance import ExcitationErrorModel, draw_errors

# 10 * log10(DBL_MAX): from here on the linear SNR 10^(snr_db/10) overflows
_MAX_SNR_DB = 10.0 * math.log10(np.finfo(float).max)


@dataclass(frozen=True)
class DutArraySpec:
    """Uniform linear receive array centered in the test zone, parallel to x."""

    n_elements: int = 49
    ies_lambda: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "n_elements", checked_int("n_elements", self.n_elements, 2))
        if not 0 < self.ies_lambda < np.inf:
            raise ValueError("DUT spacing ies_lambda must be positive and finite")

    def spacing(self, wave: WaveSpec) -> float:
        return self.ies_lambda * wave.wavelength

    def points(self, wave: WaveSpec, center_distance: float) -> np.ndarray:
        d = self.spacing(wave)
        x = (np.arange(self.n_elements) - (self.n_elements - 1) / 2.0) * d
        return np.column_stack([x, np.full(self.n_elements, center_distance)])


def alpha_min_deg(length: float, distance: float) -> float:
    """Minimum interferer angle when the two arrays abut on the same line."""
    if not (0 < length < np.inf and 0 < distance < np.inf):
        raise ValueError("length and distance must be positive and finite")
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


def sinr(h: np.ndarray, w: np.ndarray, snr_db: Sequence[float],
         noise_norms: np.ndarray) -> np.ndarray:
    """Per-user uplink SINR with linear combining, (n_snr, m, 2) for m combiners.

    Receive model: unit-variance noise per DUT element, per-user transmit
    power rho = 10^(snr_db/10) after channel normalization. With
    G = H @ W, user u sees rho*|G[u,u]|^2 of signal, rho*|G[v,u]|^2 of
    interference, and noise_norms[u] of noise.

    ``w`` is an (m, n_dut, 2) batch of combiners and ``noise_norms`` the
    per-column noise powers, broadcast against (m, 2); the weight error
    study passes the nominal (error-free) combiner norms so the noise
    floor stays anchored while the errors distort the gains. Any strides
    give the same bits. ``run_study`` forms (1 + eps) once per cell and
    passes each combiner's perturbed weights held as (m, 2, n_dut), by
    user, through the transposed view, so the sum over DUT elements runs
    along contiguous memory.
    """
    g = np.einsum('un,mnv->muv', h, w)
    if np.any(np.asarray(noise_norms) == 0.0):
        raise ValueError("zero-norm combiner column")
    gain = np.abs(g) ** 2
    # rho through C pow: numpy's SIMD power rounds some exponents differently (rates' last bits)
    rho = np.array([math.pow(10.0, snr / 10.0) for snr in snr_db])[:, None, None]
    # user u: signal G[u, u], interference G[v, u] with v = 1 - u
    return rho * gain[:, [0, 1], [0, 1]] / (rho * gain[:, [1, 0], [0, 1]] + noise_norms)


def sum_rate(sinrs) -> np.ndarray:
    """Aggregate spectral efficiency, bits/s/Hz: one rate per row of SINR pairs (last axis)."""
    s = np.asarray(sinrs, dtype=float)
    if not np.all(s >= 0):
        raise ValueError("SINR must be non-negative")
    return np.log2(1.0 + s).sum(axis=-1)


@dataclass(frozen=True)
class StudyConfig:
    snr_db: Tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0)
    sigma_dut_db: Tuple[float, ...] = tuple(np.round(np.arange(0.0, 2.0 + 1e-9, 0.1), 10))
    alpha_offsets_deg: Tuple[float, ...] = (0.0, 15.0)
    n_mc: int = 1000
    rng_seed: int = 0
    dut: DutArraySpec = field(default_factory=DutArraySpec)

    def __post_init__(self):
        for name, least in (("n_mc", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        for name in ("snr_db", "sigma_dut_db", "alpha_offsets_deg"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        axes = (self.snr_db, self.sigma_dut_db, self.alpha_offsets_deg)
        if not all(map(len, axes)) or not np.isfinite(np.concatenate(axes)).all():
            raise ValueError("snr_db, sigma_dut_db and alpha_offsets_deg must be non-empty "
                             "and finite")
        if not all(s < _MAX_SNR_DB for s in self.snr_db):
            raise ValueError(f"snr_db values must be below {_MAX_SNR_DB:.2f} dB")
        for sigma in self.sigma_dut_db:
            ExcitationErrorModel(sigma)  # its range check: >= 0, linear scale finite


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
    MF-vs-ZF differences). A zero sigma is one error-free realization,
    iteration 0 alone. The noise floor uses the nominal combiner
    norms; errors distort only the signal and interference gains.
    The gains (1 + eps) are formed once per cell, in place on the draws.
    Each combiner's perturbed weights are held as (iteration, user, DUT
    element) and passed to ``sinr`` as the transposed view, so its sum
    over DUT elements runs along contiguous memory.
    """
    results: List[SumRatePoint] = []
    for gi, (ies, dist) in enumerate(geometries):
        layout = chamber.layout(ies)
        a_min = alpha_min_deg(layout.length, dist)
        for ai, off in enumerate(cfg.alpha_offsets_deg):
            alpha = a_min + off
            h = build_channel(layout, dist, alpha, cfg.dut, wave)
            weights = {prec: combiner(h) for prec, combiner in COMBINERS.items()}
            noise_norms = {prec: np.sum(np.abs(w) ** 2, axis=0) for prec, w in weights.items()}
            for si, sigma in enumerate(cfg.sigma_dut_db):
                keys = [(cfg.rng_seed, gi, ai, si, it) for it in range(cfg.n_mc if sigma else 1)]
                gains = draw_errors(ExcitationErrorModel(sigma), 2 * cfg.dut.n_elements, keys)
                gains += 1.0
                # (iteration, user, DUT element) view of the (iteration, DUT element, user) rows
                gains = gains.reshape(len(keys), -1, 2).transpose(0, 2, 1)
                for prec, w in weights.items():
                    w_batch = np.multiply(gains, w.T, order="C").transpose(0, 2, 1)
                    rates = sum_rate(sinr(h, w_batch, cfg.snr_db,
                                          noise_norms[prec])).mean(axis=-1)
                    del w_batch  # before the next combiner's product is formed
                    results.extend(SumRatePoint(layout.length, dist, alpha, prec, snr, sigma,
                                                float(rate))
                                   for snr, rate in zip(cfg.snr_db, rates))
    return results
