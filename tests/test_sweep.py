import gc
import weakref

import numpy as np
import pytest

from otazone import (TIERS, ComplianceMap, SweepGrid,
                     compact_frontier, load_config, run_sweep)
from otazone import sweep
from otazone.sweep import SweepCell
from otazone.testzone import FomReport, TestZoneMesh, TestZoneSpec, build_mesh, fom_values
from otazone import ChamberSpec, field_at_points

from oracles import compact_frontier_bruteforce

FULL_R = 99.0 / 8.0  # zone radius in wavelengths


def direct_foms(layout, wave, zone):
    """The zone's FoMs from every (point, element) pair, without the row-lattice kernel."""
    mesh = build_mesh(zone)
    return fom_values(mesh, field_at_points(layout, wave, mesh.points))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("axis", ["ies", "d"])
    def test_rejects_non_finite_axes(self, lam, axis, bad):
        for values in ((bad,), (0.6 * lam, bad)):
            axes = (values, (40 * lam,)) if axis == "ies" else ((0.5 * lam,), values)
            with pytest.raises(ValueError, match="finite"):
                SweepGrid(*axes)


class TestRunSweep:
    def test_cells_match_direct_evaluation(self, wave, lam):
        grid = SweepGrid((0.7 * lam, 1.0 * lam), (200 * lam, 300 * lam))
        cmap = run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=2.0))
        assert len(cmap.cells) == 4
        for c in cmap.cells:
            want = direct_foms(ChamberSpec().layout(c.ies), wave,
                               TestZoneSpec(c.d, 2 * lam, lam / 8))
            assert (c.r_mag, c.sigma_mag, c.r_phs) == pytest.approx(want, rel=1e-12)

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

    def test_cell_lookup_by_index(self, wave, lam):
        ies = tuple(np.array([0.6, 0.9, 1.3]) * lam)
        d = tuple((100.0 + np.arange(40)) * lam)
        cmap = run_sweep(SweepGrid(ies, d), wave, ChamberSpec(tz_radius_lambda=1.0))
        for i in ies:
            for dj in d:
                c = cmap.cell(i, dj)
                assert (c.ies, c.d) == (i, dj)
        with pytest.raises(KeyError, match="no cell at"):
            cmap.cell(ies[1], 100.5 * lam)

    def test_cell_lookup_on_a_fine_grid(self, wave, lam):
        # D steps of 1e-3 lambda lie within a relative 1e-5 of each other
        d = tuple(np.array([400.0, 400.001, 400.002]) * lam)
        cmap = run_sweep(SweepGrid((0.7 * lam,), d), wave, ChamberSpec(tz_radius_lambda=1.0))
        assert [cmap.cell(0.7 * lam, dj).d for dj in d] == list(d)

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

    def test_memory_error_passes_through(self, wave, lam, monkeypatch):
        def no_memory(mesh, values):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(sweep, "fom_values", no_memory)
        grid = SweepGrid((0.7 * lam,), (100 * lam,))
        with pytest.raises(MemoryError, match="^Unable to allocate$"):
            run_sweep(grid, wave, ChamberSpec(tz_radius_lambda=1.0))


def _sweep_cases(rng):
    """(chamber, ies in lambda, D in lambda) sweeps that mix every way zones share rows.

    Each D axis holds a run at 1 lambda steps (rows shared by neighbours),
    distances spaced wider than a zone (rows no zone uses), and three
    distances 0.03 lambda off the lattice (a row group of their own).
    """
    chambers = [ChamberSpec(tz_radius_lambda=2.0),
                ChamberSpec(tz_radius_lambda=3.0, mesh_pitch_lambda=0.25),
                ChamberSpec(n_elements=41, taper_edge=10, tz_radius_lambda=2.5),
                ChamberSpec(taper_edge=0, tz_radius_lambda=2.0)]
    cases = []
    for chamber in chambers:
        ies = np.sort(rng.choice(np.round(np.arange(0.5, 1.51, 0.05), 2), 2, replace=False))
        start = int(rng.integers(60, 250))  # 41 elements at 0.5 lambda: cap 400 lambda
        run = start + np.arange(20)
        wide = start + 25 + 40 * np.arange(1, 4)
        off = np.array([run[3], run[4], wide[0]]) + 0.03
        d = np.unique(np.concatenate([run, wide, off]).astype(float))
        cases.append((chamber, ies, d))
    # the default chamber, one IES; a run of two and a zone two rows off them
    cases.append((ChamberSpec(), np.array([0.7]), np.array([564.0, 565.0, 565.25])))
    return cases


def test_sweep_matches_per_cell_evaluation(wave, lam):
    """The shared-row, mirrored sweep reproduces direct synthesis cell by cell."""
    n_cells = 0
    for chamber, ies, d in _sweep_cases(np.random.default_rng(7)):
        cmap = run_sweep(SweepGrid(tuple(ies * lam), tuple(d * lam)), wave, chamber)
        assert [(c.ies, c.d) for c in cmap.cells] == [
            (i * lam, dj * lam) for i in ies for dj in d]
        for c in cmap.cells:
            want = direct_foms(chamber.layout(c.ies), wave, chamber.zone(wave, c.d))
            assert (c.r_mag, c.sigma_mag, c.r_phs) == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert [r.passed for r in c.reports] == [
                FomReport.from_values(*want, tier).passed for tier in TIERS]
        n_cells += len(cmap.cells)
    assert n_cells >= 200


def test_row_groups_go_one_at_a_time(wave, lam, monkeypatch):
    """Each row group's strip is synthesized once per IES and released before the next."""
    strips, calls, others, scored = [], [], [], []
    real_field, real_fom = sweep.field_over_mesh, sweep.fom_values

    def tracked_strip(*args):
        strip = TestZoneMesh(*args)
        strips.append(weakref.ref(strip))
        return strip

    def field(layout, wave, strip):
        gc.collect()
        alive = [ref() for ref in strips if ref() is not None]
        others.append(sum(s is not strip for s in alive))
        calls.append(([ref() is strip for ref in strips].index(True), layout.ies))
        del alive
        return real_field(layout, wave, strip)

    def fom(mesh, values):
        scored.append(values.size)
        return real_fom(mesh, values)

    monkeypatch.setattr(sweep, "TestZoneMesh", tracked_strip)
    monkeypatch.setattr(sweep, "field_over_mesh", field)
    monkeypatch.setattr(sweep, "fom_values", fom)
    # row groups {100, 101}, {100.03} and {100.06} lambda; 1/sqrt(2) lambda is off
    # the lattice, so its strips hold their points
    ies = (2 ** -0.5 * lam, lam)
    d = tuple(np.array([100.0, 100.03, 100.06, 101.0]) * lam)
    cmap = run_sweep(SweepGrid(ies, d), wave, ChamberSpec(tz_radius_lambda=1.0))
    assert len(strips) == 3
    assert others == [0] * 6
    assert calls == [(0, ies[0]), (0, ies[1]), (1, ies[0]), (1, ies[1]), (2, ies[0]),
                     (2, ies[1])]
    assert len(scored) == len(cmap.cells) == 8
    assert [(c.ies, c.d) for c in cmap.cells] == [(i, dj) for i in ies for dj in d]


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
