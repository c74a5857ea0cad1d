import numpy as np
import pytest

from otazone import (TIER1, ComplianceMap, SweepGrid,
                     compact_frontier, load_config, run_sweep)
from otazone import sweep
from otazone.sweep import SweepCell
from otazone.testzone import FomReport, TestZoneSpec, evaluate_fom
from otazone import ChamberSpec

from oracles import compact_frontier_bruteforce

FULL_R = 99.0 / 8.0  # zone radius in wavelengths


def default_grid():
    """The sweep grid of the default config, checked against the cap."""
    cfg = load_config()
    grid = cfg.grid
    grid.validate_cap(cfg.wave, cfg.chamber.n_elements)
    return grid


class TestSweepGrid:
    def test_default_grid_axes(self, wave, lam):
        grid = default_grid()
        ies = np.asarray(grid.ies_values) / lam
        d = np.asarray(grid.d_values) / lam
        assert ies[0] == pytest.approx(0.5) and ies[-1] == pytest.approx(1.5)
        assert np.allclose(np.diff(ies), 0.05)
        assert d[0] == pytest.approx(40.0) and d[-1] == pytest.approx(2450.0)
        assert np.allclose(np.diff(d), 1.0)

    def test_default_grid_under_cap(self, wave, lam):
        grid = default_grid()
        cap = (99.0 * 0.5) ** 2  # lambda units: half of 2 * (49.5 lam)^2 / lam
        assert cap == pytest.approx(2450.25)
        assert max(grid.d_values) / lam <= cap

    def test_cap_rejects_far_field_distances(self, wave, lam):
        grid = SweepGrid((0.5 * lam,), (2451.0 * lam,))
        with pytest.raises(ValueError):
            grid.validate_cap(wave, 100)

    def test_cap_uses_shortest_array(self, wave, lam):
        # at ies = 1.0 lam the cap is 9801 lam, far above 2451 lam
        SweepGrid((1.0 * lam,), (2451.0 * lam,)).validate_cap(wave, 100)

    def test_cap_uses_array_length(self, wave, lam):
        # 40 elements at 0.5 lam: cap (39 * 0.5)^2 = 380.25 lam
        grid = SweepGrid((0.5 * lam,), (381.0 * lam,))
        with pytest.raises(ValueError):
            grid.validate_cap(wave, 40)
        SweepGrid((0.5 * lam,), (380.0 * lam,)).validate_cap(wave, 40)

    def test_rejects_unsorted_axes(self, lam):
        with pytest.raises(ValueError):
            SweepGrid((lam, 0.5 * lam), (40 * lam,))
        with pytest.raises(ValueError):
            SweepGrid((0.5 * lam,), ())


class TestRunSweep:
    def test_cells_match_direct_evaluation(self, wave, lam):
        grid = SweepGrid((0.7 * lam, 1.0 * lam), (200 * lam, 300 * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=2.0))
        assert len(cmap.cells) == 4
        for c in cmap.cells:
            rep = evaluate_fom(ChamberSpec().layout(c.ies), wave,
                               TestZoneSpec(c.d, 2 * lam, lam / 8), TIER1)
            assert (c.r_mag, c.sigma_mag, c.r_phs) == pytest.approx(
                (rep.r_mag, rep.sigma_mag, rep.r_phs), rel=1e-12)

    def test_reports_share_values_across_tiers(self, wave, lam):
        grid = SweepGrid((0.7 * lam,), (250 * lam,))
        c = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=2.0)).cells[0]
        assert len(c.reports) == 3
        for rep in c.reports:
            assert (rep.r_mag, rep.sigma_mag, rep.r_phs) == (c.r_mag, c.sigma_mag, c.r_phs)

    def test_tier_nesting(self, wave, lam):
        # tighter tiers can only remove compliance, never add it
        grid = SweepGrid(tuple(np.array([0.5, 0.7, 1.0]) * lam),
                         tuple(np.array([40, 200, 500]) * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=3.0))
        for c in cmap.cells:
            t1, t2, t3 = (r.passed for r in c.reports)
            assert t2 <= t1 and t3 <= t2

    def test_length_column(self, wave, lam):
        grid = SweepGrid((0.8 * lam,), (100 * lam,))
        c = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=1.0)).cells[0]
        assert c.length == pytest.approx(99 * 0.8 * lam, rel=1e-12)

    def test_compliance_not_monotone_in_distance(self, wave, lam):
        # at ies = 0.7 lam the tier-2 region is an island: 564 lam passes
        # while the larger distance 620 lam fails again on R_mag
        grid = SweepGrid((0.7 * lam,), (564 * lam, 620 * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=FULL_R))
        near, far = cmap.cells
        assert near.reports[1].passed
        assert not far.reports[1].passed

    def test_cell_lookup(self, wave, lam):
        grid = SweepGrid((0.7 * lam,), (100 * lam, 150 * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=1.0))
        assert cmap.cell(0.7 * lam, 150 * lam).d == pytest.approx(150 * lam)
        with pytest.raises(KeyError):
            cmap.cell(0.7 * lam, 125 * lam)

    def test_failure_wrapped_with_coordinates(self, wave, lam):
        grid = SweepGrid((0.5 * lam,), (2 * lam,))  # zone would hit the array
        with pytest.raises(ValueError, match="sweep cell"):
            run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=5.0))

    def test_numerical_failure_stays_runtime_error(self, wave, lam, monkeypatch):
        def overflow(mesh, values):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(sweep, "fom_values", overflow)
        grid = SweepGrid((0.7 * lam,), (100 * lam,))
        with pytest.raises(RuntimeError, match=r"sweep cell \(ies="):
            run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=1.0))


def _synthetic_map(points):
    """ComplianceMap stub: points is a list of (length, d, passed)."""
    cells = []
    for length, d, ok in points:
        rep = FomReport(0.0 if ok else 9.9, 0.0, 0.0,
                        passed=ok, failing_foms=() if ok else ("R_mag",))
        cells.append(SweepCell(ies=length / 99.0, d=d, length=length,
                               r_mag=rep.r_mag, sigma_mag=0.0, r_phs=0.0,
                               reports=(rep,)))
    grid = SweepGrid(tuple(sorted({c.ies for c in cells})),
                     tuple(sorted({c.d for c in cells})))
    return ComplianceMap(grid=grid, cells=tuple(cells))


class TestCompactFrontier:
    def test_single_compliant_cell(self):
        cmap = _synthetic_map([(10.0, 100.0, True), (20.0, 200.0, False)])
        assert compact_frontier(cmap, 0) == [(10.0, 100.0)]

    def test_dominated_cell_removed(self):
        cmap = _synthetic_map([(10.0, 100.0, True), (20.0, 150.0, True)])
        assert compact_frontier(cmap, 0) == [(10.0, 100.0)]

    def test_incomparable_cells_both_kept(self):
        cmap = _synthetic_map([(10.0, 200.0, True), (20.0, 100.0, True)])
        assert compact_frontier(cmap, 0) == [(10.0, 200.0), (20.0, 100.0)]

    def test_non_compliant_ignored(self):
        cmap = _synthetic_map([(5.0, 50.0, False), (10.0, 100.0, True)])
        assert compact_frontier(cmap, 0) == [(10.0, 100.0)]

    def test_empty_when_nothing_passes(self):
        cmap = _synthetic_map([(10.0, 100.0, False)])
        assert compact_frontier(cmap, 0) == []

    def test_matches_pairwise_definition(self):
        # integer coordinates from a small range force ties in L and in D
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            points = [(float(length), float(d), bool(ok)) for length, d, ok in
                      zip(rng.integers(1, 7, n), rng.integers(1, 7, n), rng.random(n) < 0.7)]
            cmap = _synthetic_map(points)
            assert compact_frontier(cmap, 0) == compact_frontier_bruteforce(cmap, 0), points

    def test_frontier_is_antichain_on_real_sweep(self, wave, lam):
        grid = SweepGrid(tuple(np.array([0.7, 1.0, 1.35]) * lam),
                         tuple(np.array([286, 469, 591]) * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=FULL_R))
        front = compact_frontier(cmap, 0)
        assert front, "expected at least one tier-1 compliant cell"
        for i, (l1, d1) in enumerate(front):
            for j, (l2, d2) in enumerate(front):
                if i != j:
                    assert not (l2 <= l1 and d2 <= d1)
        compliant = {(c.length, c.d) for c in cmap.cells if c.reports[0].passed}
        assert set(front) <= compliant
        # every compliant cell is dominated by (or is) a frontier point
        for l1, d1 in compliant:
            assert any(l2 <= l1 and d2 <= d1 for l2, d2 in front)
