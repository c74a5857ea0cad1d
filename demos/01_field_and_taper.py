"""Synthesize the chamber-array near field and look at the test zone.

A 100-element linear array at 28 GHz, edge-tapered 6 dB over 25 elements
per side, illuminates a circular test zone of radius 99λ/8 centered at
broadside distance D. This script prints the taper profile, then samples
the field along the zone's center row and reports the three figures of
merit (magnitude ripple R_mag, magnitude deviation σ_mag, per-row phase
range R_phs) against the standard limit tiers.

Run:  python3 demos/01_field_and_taper.py
"""

import numpy as np

from otazone import TIERS, ChamberSpec, WaveSpec, evaluate_fom, field_at_points

wave = WaveSpec()          # 28 GHz
lam = wave.wavelength
chamber = ChamberSpec()    # 100 elements, 6 dB over 25, zone radius 99λ/8 at λ/8 pitch
radius = chamber.tz_radius_lambda
print(f"wavelength = {lam * 100:.4f} cm, test-zone radius = {radius * lam * 100:.4f} cm")

# -- taper profile ---------------------------------------------------------
layout = chamber.layout(0.7 * lam)
db = 20 * np.log10(layout.taper)
print("\nedge taper (dB), elements 1..25 (mirrored on the far end):")
print(np.array2string(db[:25], precision=2, max_line_width=100))

# -- field along the center row of the zone --------------------------------
d = 591 * lam
x = np.linspace(-radius, radius, 199) * lam
pts = np.column_stack([x, np.full_like(x, d)])
e = field_at_points(layout, wave, pts)
mag_db = 20 * np.log10(np.abs(e))
print(f"\ncenter-row magnitude ripple at D = 591λ: "
      f"{mag_db.max() - mag_db.min():.3f} dB peak-to-peak")

# -- full-zone figures of merit for the five compact picks -----------------
print("\n   IES      D      R_mag    sigma_mag   R_phs   tier1 tier2 tier3")
for ies_lambda, d_lambda in ((1.35, 286), (1.2, 441), (1.0, 469),
                             (0.7, 564), (0.7, 591)):
    pick = chamber.layout(ies_lambda * lam)
    zone = chamber.zone(wave, d_lambda * lam)
    reps = [evaluate_fom(pick, wave, zone, tier) for tier in TIERS]
    r = reps[0]
    flags = "  ".join("ok " if rep.passed else "no " for rep in reps)
    print(f"  {ies_lambda:4.2f}λ  {d_lambda:5d}λ   {r.r_mag:6.3f}dB  "
          f"{r.sigma_mag:6.3f}dB  {r.r_phs:6.3f}°   {flags}")
