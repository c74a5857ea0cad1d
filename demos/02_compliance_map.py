"""Map which (spacing, distance) combinations yield a compliant test zone.

Sweeps inter-element spacing and zone distance over a coarse grid, scores
every cell against the three limit tiers with zero excitation errors, and
prints the tier-1 compliance map plus the Pareto frontier of compact
setups (smallest array length L and distance D that still comply).

The full-resolution grid (0.05λ spacing steps, 1λ distance steps) is
21 × 2 411 cells and takes 1.5–2.5 min (`otazone sweep` with the
default config); this demo uses a coarse subset so it finishes in about
2 s (one core, one BLAS thread), then prints the full grid's frontiers
from compliance_frontiers.csv beside this file. That file holds
compact_frontier(cmap, t) for t = 0, 1, 2, where cmap is run_sweep of the
default config's grid, wave and chamber (load_config()), one row
(tier, L/λ, D/λ) per frontier point.

Run:  python3 demos/02_compliance_map.py
"""

import csv
from pathlib import Path

import numpy as np

from otazone import ChamberSpec, SweepGrid, WaveSpec, compact_frontier, run_sweep

wave = WaveSpec()
lam = wave.wavelength
chamber = ChamberSpec()    # 100 elements, zone radius 99λ/8 at λ/8 pitch

ies_axis = np.array([0.5, 0.7, 1.0, 1.2, 1.35]) * lam
d_axis = np.array([100, 200, 300, 400, 500, 600]) * lam
grid = SweepGrid(tuple(ies_axis), tuple(d_axis))
cmap = run_sweep(grid, wave, chamber)    # rejects D beyond the half-Fraunhofer cap

print("tier-1 compliance ('#' = pass), rows = IES, cols = D/λ:")
print("  IES\\D   " + "".join(f"{int(d / lam):>6d}" for d in d_axis))
for ies in ies_axis:
    row = []
    for d in d_axis:
        row.append("#" if cmap.cell(ies, d).reports[0].passed else ".")
    print(f"  {ies / lam:4.2f}λ   " + "".join(f"{c:>6s}" for c in row))

for tier_index, name in enumerate(("tier 1", "tier 2", "tier 3")):
    frontier = compact_frontier(cmap, tier_index)
    pretty = [(round(float(L / lam), 1), round(float(d / lam))) for L, d in frontier]
    print(f"\n{name} Pareto-minimal (L/λ, D/λ): {pretty or 'none on this grid'}")

print("\nfull default grid (21 IES x 2 411 D), Pareto-minimal (L/λ, D/λ):")
with open(Path(__file__).with_name("compliance_frontiers.csv"), newline="") as fh:
    rows = list(csv.DictReader(fh))
for tier in ("1", "2", "3"):
    pretty = [(round(float(r["L_lambda"]), 2), round(float(r["D_lambda"])))
              for r in rows if r["tier"] == tier]
    print(f"  tier {tier}: {pretty}")
