"""Correctness gates for the CSVs the benchmark's ops produce.

Every op's CSV gets a shape and range check. On top of that:

* sweep: one sampled cell per op is recomputed here with a direct
  complex-exponential superposition and a sort-based circular phase
  range, independent of otazone's code, and must match the CSV to its
  printed precision; pass flags must agree with the tier limits;
* tolerance and precode at the default workload seed: data rows must be
  identical to the reference CSVs in ``reference/``, which were generated
  once from the commit that introduced the benchmark.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

C0 = 299792458.0
FREQUENCY_HZ = 28e9
N_ELEMENTS = 100
TAPER_EDGE = 25
TAPER_DEPTH_DB = -6.0
ZONE_RADIUS_STEPS = 99  # zone radius in mesh pitches (99 * lambda/8)
# (sigma_mag_db, r_mag_db, r_phs_deg) for tiers 1..3
TIERS = ((0.25, 1.0, 10.0), (0.225, 0.9, 9.0), (0.2, 0.8, 8.0))
# |printed - exact| <= half a unit in the 6th decimal, plus float noise
PRINT_TOL = 0.5e-6 + 1e-9

SWEEP_HEADER = ("ies_lambda,L_lambda,D_lambda,R_mag_dB,sigma_mag_dB,R_phs_deg,"
                "pass_tier1,pass_tier2,pass_tier3")
TOLERANCE_HEADER = "L_lambda,ies_lambda,D_lambda,tolerated_sigma_db,failing_fom,n_mc,seed"
PRECODE_HEADER = ("L_lambda,D_lambda,alpha_deg,precoder,snr_db,sigma_dut_db,"
                  "avg_sum_rate,n_mc,seed")
FOM_NAMES = {"R_mag", "sigma_mag", "R_phs", "exceeds_cap"}


def _split(csv_text: str, header: str, problems: List[str]) -> List[List[str]]:
    lines = csv_text.split("\n")
    if not lines or not lines[0].startswith("# config_hash="):
        problems.append("missing '# config_hash=' comment line")
        return []
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"unexpected column header {lines[1:2]}")
        return []
    if lines[-1] != "":
        problems.append("CSV does not end with a newline")
    return [ln.split(",") for ln in lines[2:] if ln]


def _close(printed: str, value: float) -> bool:
    return abs(float(printed) - value) <= PRINT_TOL


def data_rows(csv_text: str) -> List[str]:
    """Every line except the '# config_hash=... version=...' comment."""
    return [ln for ln in csv_text.split("\n") if ln and not ln.startswith("#")]


def compare_reference(csv_text: str, reference_text: str) -> List[str]:
    got, want = data_rows(csv_text), data_rows(reference_text)
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"line {first + 2} differs from reference: {got[first]!r} != {want[first]!r}"]


# ---------------------------------------------------------------- sweep

def _taper() -> np.ndarray:
    # Linear in dB, -6 dB at the outermost element, 0 dB first reached by
    # the first untapered element ("exclusive" endpoint).
    ramp = TAPER_DEPTH_DB * np.arange(1, TAPER_EDGE + 1) / TAPER_EDGE
    db = np.zeros(N_ELEMENTS)
    db[:TAPER_EDGE] = ramp[::-1]
    db[N_ELEMENTS - TAPER_EDGE:] = ramp
    return 10.0 ** (db / 20.0)


def _circular_range_deg(phases_deg: np.ndarray) -> float:
    p = np.sort(np.mod(phases_deg, 360.0))
    if p.size < 2:
        return 0.0
    largest_gap = max(np.diff(p).max(), 360.0 - (p[-1] - p[0]))
    return min(360.0 - largest_gap, 180.0)


def oracle_cell(ies_lambda: float, d_lambda: float):
    """(R_mag, sigma_mag, R_phs) of the error-free zone, computed directly.

    Mesh: lattice points (a, b) * lambda/8 with a^2 + b^2 <= 99^2 around
    (0, D), so membership is an exact integer test.
    """
    lam = C0 / FREQUENCY_HZ
    k = 2.0 * math.pi / lam
    taper = _taper()
    xe = (np.arange(N_ELEMENTS) - (N_ELEMENTS - 1) / 2.0) * ies_lambda * lam
    pitch = lam / 8.0
    mags_db = []
    r_phs = 0.0
    for b in range(-ZONE_RADIUS_STEPS, ZONE_RADIUS_STEPS + 1):
        half = math.isqrt(ZONE_RADIUS_STEPS ** 2 - b * b)
        x = np.arange(-half, half + 1) * pitch
        y = d_lambda * lam + b * pitch
        r = np.sqrt((x[:, None] - xe[None, :]) ** 2 + y * y)
        e = (taper[None, :] * np.exp(-1j * k * r) / (4.0 * math.pi * r)).sum(axis=1)
        mags_db.append(20.0 * np.log10(np.abs(e)))
        r_phs = max(r_phs, _circular_range_deg(np.degrees(np.angle(e))))
    db = np.concatenate(mags_db)
    return float(db.max() - db.min()), float(np.std(db, ddof=1)), float(r_phs)


def _passes(tier, r_mag: float, sigma: float, r_phs: float) -> bool:
    s_max, r_max, p_max = tier
    return r_mag <= r_max and sigma <= s_max and r_phs <= p_max


def _near_limit(tier, r_mag: float, sigma: float, r_phs: float) -> bool:
    s_max, r_max, p_max = tier
    return min(abs(r_mag - r_max), abs(sigma - s_max), abs(r_phs - p_max)) <= 2 * PRINT_TOL


def check_sweep(csv_text: str, ies: float, d_values: Sequence[float],
                oracle_index: Optional[int]) -> List[str]:
    problems: List[str] = []
    rows = _split(csv_text, SWEEP_HEADER, problems)
    if problems:
        return problems
    if len(rows) != len(d_values):
        return [f"{len(rows)} rows, expected {len(d_values)}"]
    for row, d in zip(rows, d_values):
        if len(row) != 9:
            return [f"row has {len(row)} fields: {row}"]
        if not (_close(row[0], ies) and _close(row[1], (N_ELEMENTS - 1) * ies)
                and _close(row[2], d)):
            problems.append(f"geometry columns {row[:3]} != ({ies}, {d})")
        rm, sm, rp = (float(v) for v in row[3:6])
        if not (0.0 <= rm < 60.0 and 0.0 <= sm < 30.0 and 0.0 <= rp <= 180.0):
            problems.append(f"FoM out of range: {row[3:6]}")
        for tier, flag in zip(TIERS, row[6:]):
            if flag not in ("true", "false"):
                problems.append(f"bad pass flag {flag!r}")
            elif not _near_limit(tier, rm, sm, rp) and (flag == "true") != _passes(tier, rm, sm, rp):
                problems.append(f"pass flag {flag} contradicts FoMs {row[3:6]} at limits {tier}")
    if oracle_index is not None and not problems:
        row = rows[oracle_index]
        exact = oracle_cell(ies, d_values[oracle_index])
        for name, printed, value in zip(("R_mag", "sigma_mag", "R_phs"), row[3:6], exact):
            if not _close(printed, value):
                problems.append(f"D={d_values[oracle_index]}: {name} {printed} != oracle {value:.9f}")
        for tier, flag in zip(TIERS, row[6:]):
            if not _near_limit(tier, *exact) and (flag == "true") != _passes(tier, *exact):
                problems.append(f"D={d_values[oracle_index]}: pass flag {flag} != oracle at {tier}")
    return problems


# ------------------------------------------------------------ tolerance

def check_tolerance(csv_text: str, geometries: Sequence[Sequence[float]], seed: int,
                    n_mc: int, step_db: float, max_sigma_db: float,
                    reference: Optional[str]) -> List[str]:
    problems: List[str] = []
    rows = _split(csv_text, TOLERANCE_HEADER, problems)
    if problems:
        return problems
    if len(rows) != len(geometries):
        return [f"{len(rows)} rows, expected {len(geometries)}"]
    for row, (ies, d) in zip(rows, geometries):
        if len(row) != 7:
            return [f"row has {len(row)} fields: {row}"]
        if not (_close(row[0], (N_ELEMENTS - 1) * ies) and _close(row[1], ies)
                and _close(row[2], d)):
            problems.append(f"geometry columns {row[:3]} != ({ies}, {d})")
        sigma = float(row[3])
        steps = sigma / step_db
        if not (0.0 <= sigma <= max_sigma_db and abs(steps - round(steps)) < 1e-6):
            problems.append(f"tolerated_sigma_db {row[3]} is not a level in [0, {max_sigma_db}]")
        if row[4] not in FOM_NAMES:
            problems.append(f"unknown failing FoM {row[4]!r}")
        if row[5] != str(n_mc) or row[6] != str(seed):
            problems.append(f"n_mc/seed columns {row[5:]} != ({n_mc}, {seed})")
    if reference is not None and not problems:
        problems += compare_reference(csv_text, reference)
    return problems


# -------------------------------------------------------------- precode

def check_precode(csv_text: str, ies: float, d: float, seed: int, n_mc: int,
                  alphas: int, snr_db: Sequence[float], sigma_dut_db: Sequence[float],
                  reference: Optional[str]) -> List[str]:
    problems: List[str] = []
    rows = _split(csv_text, PRECODE_HEADER, problems)
    if problems:
        return problems
    expected = alphas * len(sigma_dut_db) * 2 * len(snr_db)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    # row order: alpha, sigma, precoder (MF, ZF), snr
    i = 0
    for _ in range(alphas):
        for sigma in sigma_dut_db:
            for prec in ("MF", "ZF"):
                for snr in snr_db:
                    row = rows[i]
                    i += 1
                    if len(row) != 9:
                        return [f"row has {len(row)} fields: {row}"]
                    if not (_close(row[0], (N_ELEMENTS - 1) * ies) and _close(row[1], d)):
                        problems.append(f"geometry columns {row[:2]} != ({ies}, {d})")
                    if row[3] != prec or not _close(row[4], snr) or not _close(row[5], sigma):
                        problems.append(f"row {i}: {row[3:6]} != ({prec}, {snr}, {sigma})")
                    rate = float(row[6])
                    if not (math.isfinite(rate) and 0.0 <= rate < 100.0):
                        problems.append(f"avg_sum_rate {row[6]} out of range")
                    if row[7] != str(n_mc) or row[8] != str(seed):
                        problems.append(f"n_mc/seed columns {row[7:]} != ({n_mc}, {seed})")
                    if len(problems) > 5:
                        return problems
    if reference is not None and not problems:
        problems += compare_reference(csv_text, reference)
    return problems


CHECKS = {"sweep": check_sweep, "tolerance": check_tolerance, "precode": check_precode}
