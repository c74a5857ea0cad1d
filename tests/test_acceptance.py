"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The ten criteria pin the library to its reference behavior: zero-error
compliance of the five marked geometries, the test-zone radius constant,
the sweep distance cap, the Monte-Carlo tolerance regression (with its
documented monotonicity fallback), ZF exactness, the qualitative
weight-error study properties, oracle equivalence, the phase-range unit
examples, byte-level CSV determinism, and the five picks on their tiers'
compact frontiers.
"""

import csv
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from otazone import (TIER1, TIER2, TIER3, TIERS, ChamberSpec, DutArraySpec,
                     ExcitationErrorModel, StudyConfig, SweepGrid,
                     ToleranceSearchConfig, alpha_min_deg, build_channel,
                     compact_frontier, evaluate_fom, field_at_points, load_config,
                     run_study, run_sweep, sinr, sum_rate, tolerance_search, zf_weights)
from otazone.cli import main
from otazone.config import DEFAULT_GEOMETRIES_LAMBDA
from otazone.field import element_fields
from otazone.testzone import TestZoneSpec, build_mesh
from otazone.tolerance import draw_errors, level_fom_batch

from oracles import field_oracle, zf_oracle
from test_testzone import row_phase_range

REF_SIGMA = (0.05, 0.12, 0.11, 0.24, 0.5)
REF_FOM = ("R_mag", "R_mag", "R_mag", "R_phs", "R_phs")


@pytest.fixture
def report(capfd):
    """One uncaptured PASS/FAIL line per criterion, visible in plain runs."""
    def _report(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}",
                  flush=True)
    return _report


def test_acceptance_1_marked_geometries(wave, lam, report):
    cases = list(zip(DEFAULT_GEOMETRIES_LAMBDA,
                     (TIER2, TIER2, TIER2, TIER2, TIER3)))
    results, timings = [], []
    for (ies, d), tier in cases:
        spec = TestZoneSpec(d * lam, 99 * lam / 8, lam / 8)
        layout = ChamberSpec().layout(ies * lam)
        best = np.inf
        for _ in range(2):  # best-of-2 damps scheduler noise
            t0 = time.perf_counter()
            rep = evaluate_fom(layout, wave, spec, tier)
            best = min(best, time.perf_counter() - t0)
        results.append(rep.passed)
        timings.append(best)
    ok = all(results) and max(timings) <= 1.0
    report(1, ok, f"five (IES,D) picks pass tiers {[int(r) for r in results]}, "
           f"slowest evaluation {max(timings):.2f}s (limit 1s)")
    assert all(results)
    assert max(timings) <= 1.0


def test_acceptance_2_radius_constant(wave, lam, report):
    r_cm = 99.0 * lam / 8.0 * 100.0
    ok = 13.24 <= r_cm <= 13.27
    report(2, ok, f"R = 99λ/8 = {r_cm:.4f} cm at 28 GHz (window [13.24, 13.27])")
    assert ok


def test_acceptance_3_sweep_cap(wave, lam, report):
    cap_lambda = (99.0 * 0.5) ** 2  # half of 2(49.5λ)²/λ, in wavelengths
    cfg = load_config()
    grid = cfg.grid
    grid.validate_cap(wave, cfg.chamber.n_elements)
    top = max(grid.d_values) / lam
    ok = abs(cap_lambda - 2450.25) < 1e-9 and abs(top - 2450.0) < 1e-6
    report(3, ok, f"half-Fraunhofer cap {cap_lambda}λ, default D grid tops at {top:g}λ")
    assert ok


def test_acceptance_4_tolerance_regression(wave, lam, report):
    t0 = time.perf_counter()
    means, fom_votes = [], []
    for ies, d in DEFAULT_GEOMETRIES_LAMBDA:
        vals, foms = [], []
        for seed in range(10):
            cfg = ToleranceSearchConfig(n_mc=100, rng_seed=seed, fail_rule="any")
            res = tolerance_search(ies * lam, d * lam, wave, cfg)
            vals.append(res.tolerated_sigma_db)
            foms.append(res.first_failing_fom)
        means.append(float(np.mean(vals)))
        fom_votes.append(Counter(foms).most_common(1)[0][0])
    within = [abs(m - ref) <= 0.05 for m, ref in zip(means, REF_SIGMA)]
    fom_match = sum(g == w for g, w in zip(fom_votes, REF_FOM))
    primary_ok = all(within) and fom_match >= 4

    if primary_ok:
        ok = True
        path = "primary regression"
        fallback_detail = ""
    else:
        # Documented fallback: the per-realization violation probability is
        # non-decreasing in sigma. Checked near each geometry's observed
        # threshold with n_mc = 500 at levels s and s + 5 steps.
        mono = []
        for (ies, d), s_db in zip(DEFAULT_GEOMETRIES_LAMBDA, means):
            layout = ChamberSpec().layout(ies * lam)
            mesh = build_mesh(TestZoneSpec(d * lam, 99 * lam / 8, lam / 8))
            contrib = element_fields(layout, wave, mesh.points)
            step = 0.01
            lo_level = max(1, round(s_db / step))
            fracs = []
            for level in (lo_level, lo_level + 5):
                model = ExcitationErrorModel(level * step)
                eps = draw_errors(model, 100, [(0, level, r) for r in range(500)])
                viol = TIER1.violations(*level_fom_batch(contrib, mesh, eps))
                fracs.append(float(viol.any(axis=0).mean()))
            mono.append(fracs[1] >= fracs[0] - 0.03)  # 3% sampling slack at n=500
        ok = all(mono) and fom_match >= 4
        path = "monotonicity fallback"
        fallback_detail = f"; fallback monotone per geometry {[int(m) for m in mono]}"
    elapsed = time.perf_counter() - t0
    report(4, ok, f"{path}: seed-averaged σ(dB) {[round(m, 3) for m in means]} vs "
           f"reference {list(REF_SIGMA)} (±0.05 met: {[int(w) for w in within]}), "
           f"failing FoM match {fom_match}/5{fallback_detail}, "
           f"{elapsed:.0f}s serial (10 min budget assumes parallel workers)")
    assert ok


@pytest.fixture(scope="module")
def study_channels(wave, lam):
    out = []
    for ies, d in DEFAULT_GEOMETRIES_LAMBDA:
        layout = ChamberSpec().layout(ies * lam)
        a_min = alpha_min_deg(layout.length, d * lam)
        for off in (0.0, 15.0):
            out.append(((ies, d, off),
                        build_channel(layout, d * lam, a_min + off,
                                      DutArraySpec(), wave)))
    return out


def test_acceptance_5_zf_exactness(wave, lam, study_channels, report):
    worst_resid = 0.0
    worst_rate = 0.0
    for _, h in study_channels:
        w = zf_weights(h)
        worst_resid = max(worst_resid, float(np.max(np.abs(h @ w - np.eye(2)))))
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            rho = 10.0 ** (snr_db / 10.0)
            got = sum_rate(sinr(h, w[None], [snr_db], np.sum(np.abs(w) ** 2, axis=0)))[0, 0]
            want = sum(np.log2(1.0 + rho / np.sum(np.abs(w[:, u]) ** 2))
                       for u in (0, 1))
            worst_rate = max(worst_rate, abs(got - want) / abs(want))
    ok = worst_resid < 1e-10 and worst_rate < 1e-9
    report(5, ok, f"max |H·W_ZF − I| = {worst_resid:.2e} (<1e-10), "
           f"σ=0 sum-rate vs closed form rel err {worst_rate:.2e} (<1e-9) "
           f"over {len(study_channels)} study channels")
    assert ok


def test_acceptance_6_weight_error_study(wave, lam, report):
    cfg = StudyConfig(sigma_dut_db=(0.0, 2.0), n_mc=1000, rng_seed=0)
    geoms = [(i * lam, d * lam) for i, d in DEFAULT_GEOMETRIES_LAMBDA]
    pts = run_study(geoms, wave, cfg)
    acc = defaultdict(list)
    for p in pts:
        acc[(p.precoder, p.snr_db, p.sigma_dut_db)].append(p.avg_sum_rate)
    drops = {}
    for prec in ("MF", "ZF"):
        for snr in cfg.snr_db:
            r0 = np.mean(acc[(prec, snr, 0.0)])
            r2 = np.mean(acc[(prec, snr, 2.0)])
            drops[(prec, snr)] = 100.0 * (r0 - r2) / r0
    a_ok = all(drops[("ZF", s)] > drops[("MF", s)] for s in cfg.snr_db)
    b_ok = drops[("MF", -10.0)] < 5.0 and drops[("MF", 20.0)] > drops[("MF", -10.0)]
    ok = a_ok and b_ok
    mf = [round(float(drops[("MF", s)]), 2) for s in cfg.snr_db]
    zf = [round(float(drops[("ZF", s)]), 2) for s in cfg.snr_db]
    report(6, ok, f"σ_DUT 0→2 dB study-average drops (%) MF {mf}, ZF {zf} over "
           f"SNR {list(cfg.snr_db)}; ZF>MF everywhere: {a_ok}, "
           f"MF low-SNR<5% and growing: {b_ok}")
    assert ok


def test_acceptance_7_oracle_equivalence(wave, lam, report):
    rng = np.random.default_rng(2024)
    layout = ChamberSpec().layout(0.7 * lam)
    pts_lambda = np.column_stack([rng.uniform(-12.375, 12.375, 100),
                                  rng.uniform(400.0, 800.0, 100)])
    field_err = 0.0
    for p, got in zip(pts_lambda, field_at_points(layout, wave, pts_lambda * lam)):
        want = field_oracle(wave.frequency, 0.7, layout.taper, (p[0], p[1]))
        field_err = max(field_err, abs(got - want) / abs(want))
    zf_err = 0.0
    for _ in range(100):
        h = (rng.standard_normal((2, 49)) + 1j * rng.standard_normal((2, 49)))
        h /= np.sqrt(np.mean(np.abs(h) ** 2))
        zf_err = max(zf_err, float(np.max(np.abs(zf_weights(h) - zf_oracle(h)))))
    ok = field_err < 1e-10 and zf_err < 1e-9
    report(7, ok, f"field vs 40-digit oracle rel err {field_err:.2e} (<1e-10) on "
           f"100 points; ZF vs pinv oracle abs err {zf_err:.2e} (<1e-9) on 100 channels")
    assert ok


def test_acceptance_8_phase_range_units(report):
    wrap = row_phase_range([359.0, 2.0])
    clamp = row_phase_range([0.0, 120.0, 240.0])
    rng = np.random.default_rng(5)
    rot_ok = True
    for _ in range(50):
        ph = rng.uniform(0.0, 360.0, rng.integers(2, 15))
        shift = rng.uniform(-360.0, 360.0)
        rot_ok &= abs(row_phase_range(ph) -
                      row_phase_range(ph + shift)) < 1e-9
    ok = abs(wrap - 3.0) < 1e-9 and clamp == 180.0 and rot_ok
    report(8, ok, f"{{359°,2°}} → {wrap:g}°, clamp at {clamp:g}°, "
           f"rotation invariance over 50 random rows: {rot_ok}")
    assert ok


def test_acceptance_9_csv_determinism(tmp_path, report):
    import json
    configs = {
        "fom": ({}, ["fom", "--ies-lambda", "0.7", "--d-lambda", "591",
                     "--tier", "3"]),
        "sweep": ({"ies_lambda": [0.7], "d_lambda": [564.0, 591.0]}, ["sweep"]),
        "tolerance": ({"geometries_lambda": [[0.7, 591.0]], "n_mc_tolerance": 5,
                       "tz_radius_lambda": 2.0}, ["tolerance"]),
        "precode": ({"geometries_lambda": [[0.7, 591.0]], "n_mc_precode": 20,
                     "sigma_dut_db": [0.0, 1.0], "snr_db": [0.0, 10.0]},
                    ["precode"]),
    }
    identical = {}
    for name, (cfg, argv) in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in "ab":
            out = tmp_path / f"{name}_{run}.csv"
            code = main(["--config", str(cfg_path), "-o", str(out)] + argv)
            assert code == 0, f"{name} exited {code}"
            outs.append(out.read_bytes())
        identical[name] = outs[0] == outs[1]
    ok = all(identical.values())
    report(9, ok, "byte-identical CSV reruns: " +
           ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in identical.items()))
    assert ok


# The picks' tiers, and the default-axes rectangles (IES up to, D up to), in wavelengths, whose
# union holds every cell with IES' <= IES and D' <= D of some pick. The union is closed under
# that order, so the frontier of its cells is the full grid's frontier inside it.
PICK_TIERS = (2, 2, 2, 2, 3)
FRONTIER_RECTS = ((0.7, 591.0), (1.0, 469.0), (1.2, 441.0), (1.35, 286.0))
FRONTIERS_CSV = Path(__file__).resolve().parents[1] / "demos" / "compliance_frontiers.csv"


def test_acceptance_10_picks_on_compact_frontiers(report):
    cfg = load_config()
    lam = cfg.wavelength
    t0 = time.perf_counter()
    maps, lo = [], 0.0
    for ies_hi, d_hi in FRONTIER_RECTS:
        ies = tuple(v for v in cfg.grid.ies_values if lo + 1e-9 < v / lam <= ies_hi + 1e-9)
        d = tuple(v for v in cfg.grid.d_values if v / lam <= d_hi + 1e-9)
        maps.append(run_sweep(SweepGrid(ies, d), cfg.wave, cfg.chamber))
        lo = ies_hi
    cells = [c for m in maps for c in m.cells]
    elapsed = time.perf_counter() - t0
    assert len(cells) == 7689

    def at(c):
        return round(c.ies / lam, 2), round(c.d / lam)

    def margin(c, tier):
        """The largest FoM value / limit - 1: the cell passes the tier when it is <= 0."""
        lim = TIERS[tier - 1]
        return max(c.r_mag / lim.r_mag_max, c.sigma_mag / lim.sigma_mag_max,
                   c.r_phs / lim.r_phs_max) - 1.0

    picks_ok, lines = [], []
    for (ies, d), tier in zip(DEFAULT_GEOMETRIES_LAMBDA, PICK_TIERS):
        pick = next(c for c in cells if at(c) == (ies, d))
        dominators = [c for c in cells
                      if c is not pick and at(c)[0] <= ies and at(c)[1] <= d]
        closest = min(dominators, key=lambda c: margin(c, tier))
        picks_ok.append(pick.reports[tier - 1].passed
                        and not any(c.reports[tier - 1].passed for c in dominators))
        lines.append(f"({ies}, {d:g}) tier {tier}: margin {margin(pick, tier):+.1e}; closest "
                     f"failing dominator ({at(closest)[0]:.2f}, {at(closest)[1]}) "
                     f"{margin(closest, tier):+.1e}")

    def inside(length, d):
        ies = length / (cfg.chamber.n_elements - 1)
        return any(ies <= i + 1e-9 and d <= dh + 1e-9 for i, dh in FRONTIER_RECTS)

    with open(FRONTIERS_CSV, newline="") as fh:
        rows = list(csv.DictReader(fh))
    frontiers_ok, sizes = [], []
    for tier in (2, 3):
        points = {(L / lam, d / lam) for m in maps for L, d in compact_frontier(m, tier - 1)}
        found = sorted(p for p in points
                       if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in points))
        want = [(float(r["L_lambda"]), float(r["D_lambda"])) for r in rows
                if r["tier"] == str(tier) and inside(float(r["L_lambda"]), float(r["D_lambda"]))]
        frontiers_ok.append(found == pytest.approx(want, rel=1e-9))
        sizes.append(len(want))
    ok = all(picks_ok) and all(frontiers_ok)
    report(10, ok, f"five picks pass their tiers, undominated {[int(p) for p in picks_ok]}; "
           f"tier-2/3 frontiers in the rectangles ({sizes} points) match "
           f"compliance_frontiers.csv {[int(f) for f in frontiers_ok]}; {len(cells)} cells "
           f"swept in {elapsed:.1f}s (target 20s)\n  " + "\n  ".join(lines))
    assert ok
