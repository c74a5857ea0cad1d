import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otazone import (TIER1, TIER2, TIER3, ChamberSpec, TestZoneSpec, build_mesh,
                     evaluate_fom, field_over_mesh, r_mag, r_phs, sigma_mag)
from otazone.testzone import FomLimits, FomReport, circular_range_deg, fom_values

from oracles import circular_range_bruteforce


def lattice_count(n):
    # integer pairs (a, b) with a^2 + b^2 <= n^2
    c = 0
    for a in range(-n, n + 1):
        c += 2 * int(np.floor(np.sqrt(n * n - a * a))) + 1
    return c


class TestBuildMesh:
    def test_smallest_disc(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 8, lam / 8))
        assert mesh.n_points == 5

    def test_standard_zone_point_count(self, lam):
        mesh = build_mesh(TestZoneSpec(591 * lam, 99 * lam / 8, lam / 8))
        assert mesh.n_points == lattice_count(99)
        assert mesh.n_points == 30757

    def test_center_is_a_node(self, lam):
        d = 591 * lam
        mesh = build_mesh(TestZoneSpec(d, 99 * lam / 8, lam / 8))
        dist = np.hypot(mesh.points[:, 0], mesh.points[:, 1] - d)
        assert dist.min() < 1e-12 * lam

    def test_rows_are_constant_y_uniform_x(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, 2 * lam, lam / 8))
        for sl in mesh.row_slices:
            row = mesh.points[sl]
            assert np.ptp(row[:, 1]) == 0.0
            if row.shape[0] > 1:
                assert np.diff(row[:, 0]) == pytest.approx(
                    np.full(row.shape[0] - 1, lam / 8), rel=1e-9)

    def test_row_width_bound(self, lam):
        spec = TestZoneSpec(100 * lam, 3.3 * lam, lam / 8)
        mesh = build_mesh(spec)
        for sl in mesh.row_slices:
            row = mesh.points[sl]
            assert row[-1, 0] - row[0, 0] <= 2 * spec.radius + spec.pitch

    def test_all_points_inside_disc(self, lam):
        spec = TestZoneSpec(50 * lam, 4.1 * lam, lam / 8)
        mesh = build_mesh(spec)
        d = np.hypot(mesh.points[:, 0], mesh.points[:, 1] - spec.distance)
        assert np.all(d <= spec.radius * (1 + 1e-9))

    def test_rejects_degenerate(self, lam):
        with pytest.raises(ValueError):
            TestZoneSpec(10 * lam, -lam, lam / 8)
        with pytest.raises(ValueError):
            TestZoneSpec(lam, 2 * lam, lam / 8)  # zone crosses the array line


class TestMagnitudeFoms:
    def test_r_mag_constant(self):
        assert r_mag(np.full(10, 0.3 + 0.4j)) == 0.0

    def test_r_mag_factor_two(self):
        assert r_mag(np.array([1.0, 0.5])) == pytest.approx(6.0206, abs=1e-4)

    def test_r_mag_factor_ten(self):
        assert r_mag(np.array([1.0, 1.0, 0.1])) == pytest.approx(20.0, rel=1e-12)

    def test_sigma_mag_constant(self):
        assert sigma_mag(np.ones(5)) == 0.0

    def test_sigma_mag_two_point(self):
        vals = 10 ** (np.array([0.0, 2.0]) / 20)
        assert sigma_mag(vals) == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_sigma_mag_three_point(self):
        vals = 10 ** (np.array([-1.0, 0.0, 1.0]) / 20)
        assert sigma_mag(vals) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_zero_magnitude(self):
        with pytest.raises(ValueError):
            r_mag(np.array([1.0, 0.0]))

    def test_sigma_needs_two(self):
        with pytest.raises(ValueError):
            sigma_mag(np.array([1.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        c = 3.7 * np.exp(1j * 0.9)
        assert r_mag(c * vals) == pytest.approx(r_mag(vals), rel=1e-9)
        assert sigma_mag(c * vals) == pytest.approx(sigma_mag(vals), rel=1e-9)

    def test_sigma_bounded_by_half_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = np.abs(rng.standard_normal(rng.integers(2, 40))) + 0.1
            n = len(vals)
            assert sigma_mag(vals) <= r_mag(vals) / 2 * np.sqrt(n / (n - 1)) + 1e-12


class TestPhaseRange:
    def test_wraparound_example(self):
        assert circular_range_deg([359.0, 2.0]) == pytest.approx(3.0, abs=1e-9)

    def test_constant(self):
        assert circular_range_deg([45.0] * 4) == 0.0

    def test_clamp_at_180(self):
        assert circular_range_deg([0.0, 120.0, 240.0]) == 180.0

    def test_two_samples_circular_distance(self):
        for a, b in [(10.0, 350.0), (0.0, 180.0), (90.0, 100.0), (5.0, 200.0)]:
            want = min(abs(a - b), 360 - abs(a - b))
            assert circular_range_deg([a, b]) == pytest.approx(min(want, 180.0), abs=1e-9)

    @given(st.lists(st.floats(min_value=-720, max_value=720), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_and_stays_in_range(self, phases):
        got = circular_range_deg(phases)
        assert 0.0 <= got <= 180.0
        assert got == pytest.approx(circular_range_bruteforce(phases), abs=1e-6)

    @given(st.lists(st.floats(min_value=0, max_value=360), min_size=2, max_size=20),
           st.floats(min_value=-360, max_value=360))
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, phases, shift):
        a = circular_range_deg(phases)
        b = circular_range_deg([p + shift for p in phases])
        assert a == pytest.approx(b, abs=1e-6)

    def test_r_phs_over_mesh_rows(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 4, lam / 8))
        vals = np.exp(1j * np.deg2rad(np.linspace(0, 30, mesh.n_points)))
        worst = max(circular_range_bruteforce(
            np.rad2deg(np.angle(vals[sl]))) for sl in mesh.row_slices)
        assert r_phs(mesh, vals) == pytest.approx(worst, abs=1e-9)

    def test_global_rotation_invariance_on_mesh(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 2, lam / 8))
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(mesh.n_points) + 1j * rng.standard_normal(mesh.n_points)
        rotated = vals * np.exp(1j * 2.34)
        assert r_phs(mesh, rotated) == pytest.approx(r_phs(mesh, vals), abs=1e-8)


class TestFomValuesBatch:
    def test_columns_match_direct_statistics_and_bruteforce(self, wave, lam):
        # each column against 20*log10|E| statistics and the brute-force
        # circular range, computed without the library's kernel
        mesh = build_mesh(TestZoneSpec(300 * lam, 1.5 * lam, lam / 8))
        base = field_over_mesh(ChamberSpec().layout(0.7 * lam), wave, mesh)
        rng = np.random.default_rng(5)
        batch = base[:, None] * (1.0 + 0.05 * (rng.standard_normal((mesh.n_points, 6)) +
                                              1j * rng.standard_normal((mesh.n_points, 6))))
        rm, sm, rp = fom_values(mesh, batch)
        assert rm.shape == sm.shape == rp.shape == (6,)
        for j in range(batch.shape[1]):
            db = 20.0 * np.log10(np.abs(batch[:, j]))
            phs = max(circular_range_bruteforce(np.degrees(np.angle(batch[sl, j])))
                      for sl in mesh.row_slices)
            assert rm[j] == pytest.approx(db.max() - db.min(), rel=1e-10)
            assert sm[j] == pytest.approx(np.std(db, ddof=1), rel=1e-10)
            assert rp[j] == pytest.approx(phs, abs=1e-9)

    def test_one_realization_gives_floats(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 2, lam / 8))
        vals = np.exp(1j * np.linspace(0.0, 1.0, mesh.n_points))
        foms = fom_values(mesh, vals)
        assert all(type(f) is float for f in foms)
        assert np.array(foms) == pytest.approx(
            np.ravel(fom_values(mesh, vals[:, None])), rel=1e-12)


class TestEvaluateFom:
    def test_synthetic_plane_wave_is_perfect(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam, lam / 8))
        vals = np.ones(mesh.n_points, dtype=complex)
        rm, sm, rp = fom_values(mesh, vals)
        assert (rm, sm, rp) == (0.0, 0.0, 0.0)
        rep = FomReport.from_values(rm, sm, rp, TIER3)
        assert rep.passed and rep.failing_foms == ()

    def test_tier3_marked_point_passes(self, wave, lam):
        rep = evaluate_fom(ChamberSpec().layout(0.7 * lam), wave,
                           TestZoneSpec(591 * lam, 99 * lam / 8, lam / 8), TIER3)
        assert rep.passed

    def test_closest_distance_fails_tier1(self, wave, lam):
        rep = evaluate_fom(ChamberSpec().layout(0.5 * lam), wave,
                           TestZoneSpec(40 * lam, 99 * lam / 8, lam / 8), TIER1)
        assert not rep.passed
        assert "R_mag" in rep.failing_foms

    def test_deterministic(self, wave, lam):
        spec = TestZoneSpec(286 * lam, 99 * lam / 8, lam / 8)
        a = evaluate_fom(ChamberSpec().layout(1.35 * lam), wave, spec, TIER2)
        b = evaluate_fom(ChamberSpec().layout(1.35 * lam), wave, spec, TIER2)
        assert (a.r_mag, a.sigma_mag, a.r_phs) == (b.r_mag, b.sigma_mag, b.r_phs)

    def test_failing_foms_listed(self):
        rep = FomReport.from_values(2.0, 0.5, 20.0, TIER1)
        assert rep.failing_foms == ("R_mag", "sigma_mag", "R_phs")
        assert not rep.passed

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            FomLimits(0.0, 1.0, 10.0)


class TestFieldOverMesh:
    def test_matches_per_point_calls(self, wave, lam):
        from otazone import field_at
        layout = ChamberSpec().layout(1.0 * lam)
        mesh = build_mesh(TestZoneSpec(200 * lam, lam / 2, lam / 8))
        vals = field_over_mesh(layout, wave, mesh)
        singles = np.array([field_at(layout, wave, p) for p in mesh.points])
        assert vals == pytest.approx(singles, rel=1e-12)

    def test_fom_invariant_under_taper_scaling(self, wave, lam):
        from otazone.field import ArrayLayout
        base = ChamberSpec().layout(0.7 * lam)
        scaled = ArrayLayout(100, 0.7 * lam, base.taper * 7.3)
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        f1 = fom_values(mesh, field_over_mesh(base, wave, mesh))
        f2 = fom_values(mesh, field_over_mesh(scaled, wave, mesh))
        assert f1 == pytest.approx(f2, rel=1e-9, abs=1e-12)
