from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otazone import (TIER1, TIER2, TIER3, ChamberSpec, TestZoneMesh, TestZoneSpec,
                     build_mesh, evaluate_fom, field_at_points, field_over_mesh)
from otazone import testzone
from otazone.field import ArrayLayout, element_fields
from otazone.testzone import (FomLimits, FomReport, _kernel_blocks, _row_lattice,
                              element_field_blocks, fom_values)

from oracles import circular_range_bruteforce, field_oracle


def lattice_count(n):
    # integer pairs (a, b) with a^2 + b^2 <= n^2
    c = 0
    for a in range(-n, n + 1):
        c += 2 * int(np.floor(np.sqrt(n * n - a * a))) + 1
    return c


def rows_mesh(lengths):
    """A mesh whose rows hold the given numbers of points, in order."""
    return TestZoneMesh(1.0, np.arange(1.0, len(lengths) + 1), 0, np.asarray(lengths) - 1)


def row_slices(mesh):
    """The slice of the mesh's points that each row holds."""
    return [slice(lo, hi) for lo, hi in zip(mesh.edges[:-1], mesh.edges[1:])]


def one_row_foms(values):
    """fom_values of the samples laid out as one mesh row."""
    return fom_values(rows_mesh([len(values)]), np.asarray(values))


def row_phase_range(phases_deg):
    """R_phs of one row of unit phasors at the given phases (degrees), from fom_values.

    fom_values needs two samples, so a one-sample row is scored as two one-point rows.
    """
    phasors = np.exp(1j * np.radians(np.asarray(phases_deg, dtype=float)))
    lengths = [phasors.size] if phasors.size > 1 else [1, 1]
    return fom_values(rows_mesh(lengths), np.resize(phasors, sum(lengths)))[2]


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
        for sl in row_slices(mesh):
            row = mesh.points[sl]
            assert np.ptp(row[:, 1]) == 0.0
            if row.shape[0] > 1:
                assert np.diff(row[:, 0]) == pytest.approx(
                    np.full(row.shape[0] - 1, lam / 8), rel=1e-9)

    def test_row_width_bound(self, lam):
        spec = TestZoneSpec(100 * lam, 3.3 * lam, lam / 8)
        mesh = build_mesh(spec)
        for sl in row_slices(mesh):
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
        for bad in (np.nan, np.inf):
            for args in ((bad, lam, lam / 8), (10 * lam, bad, lam / 8), (10 * lam, lam, bad)):
                with pytest.raises(ValueError, match="finite"):
                    TestZoneSpec(*args)

    def test_chamber_zone_of_one_pitch_is_the_least_accepted(self, wave, lam):
        # one pitch builds the center and its four neighbours; less is rejected at load
        zone = ChamberSpec(tz_radius_lambda=0.25, mesh_pitch_lambda=0.25).zone(wave, 300 * lam)
        assert build_mesh(zone).n_points == 5
        with pytest.raises(ValueError, match="below mesh_pitch_lambda"):
            ChamberSpec(tz_radius_lambda=0.25 * (1 - 1e-9), mesh_pitch_lambda=0.25)


class TestMagnitudeFoms:
    def test_r_mag_constant(self):
        assert one_row_foms(np.full(10, 0.3 + 0.4j))[0] == 0.0

    def test_r_mag_factor_two(self):
        assert one_row_foms(np.array([1.0, 0.5]))[0] == pytest.approx(6.0206, abs=1e-4)

    def test_r_mag_factor_ten(self):
        assert one_row_foms(np.array([1.0, 1.0, 0.1]))[0] == pytest.approx(20.0, rel=1e-12)

    def test_sigma_mag_constant(self):
        assert one_row_foms(np.ones(5))[1] == 0.0

    def test_sigma_mag_two_point(self):
        vals = 10 ** (np.array([0.0, 2.0]) / 20)
        assert one_row_foms(vals)[1] == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_sigma_mag_three_point(self):
        vals = 10 ** (np.array([-1.0, 0.0, 1.0]) / 20)
        assert one_row_foms(vals)[1] == pytest.approx(1.0, rel=1e-9)

    def test_rejects_zero_magnitude(self):
        with pytest.raises(ValueError):
            one_row_foms(np.array([1.0, 0.0]))

    def test_sigma_needs_two(self):
        with pytest.raises(ValueError):
            one_row_foms(np.array([1.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        c = 3.7 * np.exp(1j * 0.9)
        # R_mag and sigma_mag
        assert one_row_foms(c * vals)[:2] == pytest.approx(one_row_foms(vals)[:2], rel=1e-9)

    def test_sigma_bounded_by_half_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = np.abs(rng.standard_normal(rng.integers(2, 40))) + 0.1
            n = len(vals)
            rm, sm, _ = one_row_foms(vals)
            assert sm <= rm / 2 * np.sqrt(n / (n - 1)) + 1e-12


class TestPhaseRange:
    def test_wraparound_example(self):
        assert row_phase_range([359.0, 2.0]) == pytest.approx(3.0, abs=1e-9)

    def test_constant(self):
        assert row_phase_range([45.0] * 4) == 0.0

    def test_clamp_at_180(self):
        assert row_phase_range([0.0, 120.0, 240.0]) == 180.0

    def test_two_samples_circular_distance(self):
        for a, b in [(10.0, 350.0), (0.0, 180.0), (90.0, 100.0), (5.0, 200.0)]:
            want = min(abs(a - b), 360 - abs(a - b))
            assert row_phase_range([a, b]) == pytest.approx(min(want, 180.0), abs=1e-9)

    @given(st.lists(st.floats(min_value=-720, max_value=720), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_and_stays_in_range(self, phases):
        got = row_phase_range(phases)
        assert 0.0 <= got <= 180.0
        assert got == pytest.approx(circular_range_bruteforce(phases), abs=1e-6)

    @given(st.lists(st.floats(min_value=0, max_value=360), min_size=2, max_size=20),
           st.floats(min_value=-360, max_value=360))
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, phases, shift):
        a = row_phase_range(phases)
        b = row_phase_range([p + shift for p in phases])
        assert a == pytest.approx(b, abs=1e-6)

    def test_r_phs_over_mesh_rows(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 4, lam / 8))
        vals = np.exp(1j * np.deg2rad(np.linspace(0, 30, mesh.n_points)))
        worst = max(circular_range_bruteforce(
            np.rad2deg(np.angle(vals[sl]))) for sl in row_slices(mesh))
        assert fom_values(mesh, vals)[2] == pytest.approx(worst, abs=1e-9)

    def test_global_rotation_invariance_on_mesh(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 2, lam / 8))
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(mesh.n_points) + 1j * rng.standard_normal(mesh.n_points)
        rotated = vals * np.exp(1j * 2.34)
        assert fom_values(mesh, rotated)[2] == pytest.approx(fom_values(mesh, vals)[2],
                                                             abs=1e-8)


class TestFomValuesBatch:
    def test_columns_match_direct_statistics_and_bruteforce(self, wave, lam):
        # each column against 20*log10|E| statistics and the brute-force
        # circular range, computed without the library's kernel
        mesh = build_mesh(TestZoneSpec(300 * lam, 1.5 * lam, lam / 8))
        base = field_over_mesh(ChamberSpec().layout(0.7 * lam), wave, mesh)
        rng = np.random.default_rng(5)
        batch = base[:, None] * (1.0 + 0.05 * (rng.standard_normal((mesh.n_points, 6)) +
                                              1j * rng.standard_normal((mesh.n_points, 6))))
        rm, sm, rp = fom_values(mesh, batch.T)
        assert rm.shape == sm.shape == rp.shape == (6,)
        for j in range(batch.shape[1]):
            db = 20.0 * np.log10(np.abs(batch[:, j]))
            phs = max(circular_range_bruteforce(np.degrees(np.angle(batch[sl, j])))
                      for sl in row_slices(mesh))
            assert rm[j] == pytest.approx(db.max() - db.min(), rel=1e-10)
            assert sm[j] == pytest.approx(np.std(db, ddof=1), rel=1e-10)
            assert rp[j] == pytest.approx(phs, abs=1e-9)

    def test_one_realization_gives_floats(self, lam):
        mesh = build_mesh(TestZoneSpec(100 * lam, lam / 2, lam / 8))
        vals = np.exp(1j * np.linspace(0.0, 1.0, mesh.n_points))
        foms = fom_values(mesh, vals)
        assert all(type(f) is float for f in foms)
        assert np.array(foms) == pytest.approx(
            np.ravel(fom_values(mesh, vals[None, :])), rel=1e-12)


class TestFomValuesGuards:
    def test_rejects_zero_magnitude_in_batch(self):
        vals = np.ones((3, 6), dtype=complex)
        vals[1, 4] = 0.0
        with pytest.raises(ValueError, match="zero-magnitude"):
            fom_values(rows_mesh([2, 4]), vals)

    # the last has finite parts, but |z| = 2.1e308 is past DBL_MAX
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.inf), complex(np.nan, 0.0),
                                     complex(1.5e308, 1.5e308)],
                             ids=["inf", "nan", "inf_imag", "nan_real", "past_dbl_max"])
    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    def test_rejects_non_finite_sample(self, bad, batch):
        vals = np.ones((3, 6), dtype=complex)
        vals[1, 4] = bad
        with np.errstate(all="raise"):  # and warns of nothing on the way
            with pytest.raises(ValueError, match="zero-magnitude or non-finite"):
                fom_values(rows_mesh([2, 4]), vals if batch else vals[1])

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    def test_scores_finite_sample_whose_square_overflows(self, batch):
        # |1e200|**2 overflows a float and |1e-200|**2 underflows to 0; the FoMs
        # are those of the dB values (+-4000, 0, ..., 0)
        for scale in (1e200, 1e-200):
            vals = np.ones((3, 6), dtype=complex)
            vals[1, 4] = scale
            rm, sm, rp = fom_values(rows_mesh([2, 4]), vals if batch else vals[1])
            want = (4000.0, np.std([4000.0, 0, 0, 0, 0, 0], ddof=1), 0.0)
            if batch:
                assert [rm[0], sm[0], rp[0], rm[2], sm[2], rp[2]] == [0.0] * 6
                rm, sm, rp = rm[1], sm[1], rp[1]
            assert (rm, sm, rp) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    def test_equal_tiny_samples_score_exactly_zero(self, batch):
        vals = np.full((3, 6), 1e-170, dtype=complex)
        rm, sm, rp = fom_values(rows_mesh([2, 4]), vals if batch else vals[1])
        assert np.array([rm, sm, rp]).tolist() == ([[0.0] * 3] * 3 if batch else [0.0] * 3)

    @pytest.mark.parametrize("shape", [(1,), (4, 1)])
    def test_needs_two_samples(self, shape):
        with pytest.raises(ValueError, match="two samples"):
            fom_values(rows_mesh([1]), np.ones(shape, dtype=complex))

    # each slice(a, b) is a row holding the lattice points a .. b - 1; rows in
    # any order are a valid mesh now, so only rows that cannot make a mesh or
    # that do not hold exactly the six samples are rejected
    @pytest.mark.parametrize("slices", [
        (),                                         # no rows
        (slice(0, 2), slice(3, 6)),                 # gap: 5 points
        (slice(0, 3), slice(2, 6)),                 # overlap: 7 points
        (slice(0, 2), slice(2, 5)),                 # short of the last point: 5 points
        (slice(0, 3), slice(3, 3), slice(3, 6)),    # empty row
    ])
    @pytest.mark.parametrize("shape", [(6,), (2, 6)])
    def test_rejects_rows_that_do_not_tile(self, slices, shape):
        lengths = [s.stop - s.start for s in slices]
        if not slices:
            match = "at least one row"
        elif min(lengths) == 0:
            match = "at least one point"
        else:
            match = f"6 samples for a mesh of {sum(lengths)} points"
        with pytest.raises(ValueError, match=match):
            mesh = TestZoneMesh(1.0, np.arange(1.0, len(slices) + 1),
                                [s.start for s in slices], [s.stop - 1 for s in slices])
            fom_values(mesh, np.ones(shape, dtype=complex))

    def test_rejects_values_not_matching_the_mesh(self):
        for shape in ((6,), (2, 6), (4,), (2, 4)):
            with pytest.raises(ValueError, match="for a mesh of 5 points"):
                fom_values(rows_mesh([2, 3]), np.ones(shape, dtype=complex))


class TestFomValuesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_range_matches_bruteforce_per_row(self, seed):
        # rows of varied length (1-point rows included), each a phase cluster
        # centred on 0, 180 or a random angle with a spread from 0 to past 180
        rng = np.random.default_rng(seed)
        lengths = [1, 2, 7, 1, 33, 3, 120, 1, 12, 60]
        mesh = rows_mesh(lengths)
        batch = 40
        phases = np.empty((batch, mesh.n_points))
        for b in range(batch):
            for sl, n in zip(row_slices(mesh), lengths):
                centre = rng.choice([0.0, 180.0, rng.uniform(-180.0, 180.0)])
                spread = rng.choice([0.0, 1e-6, 3.0, 90.0, 179.0, 181.0, 300.0, 360.0])
                phases[b, sl] = centre + spread * (rng.random(n) - 0.5)
        vals = rng.uniform(0.1, 2.0, phases.shape) * np.exp(1j * np.deg2rad(phases))
        foms = fom_values(mesh, vals)
        for b in range(batch):
            want = max(circular_range_bruteforce(np.degrees(np.angle(vals[b, sl])))
                       for sl in row_slices(mesh))
            assert foms[2][b] == pytest.approx(want, abs=1e-9)
            assert fom_values(mesh, vals[b]) == tuple(f[b] for f in foms)


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
        layout = ChamberSpec().layout(1.0 * lam)
        mesh = build_mesh(TestZoneSpec(200 * lam, lam / 2, lam / 8))
        vals = field_over_mesh(layout, wave, mesh)
        singles = np.array([field_at_points(layout, wave, p[None])[0] for p in mesh.points])
        assert vals == pytest.approx(singles, rel=1e-12)

    def test_fom_invariant_under_taper_scaling(self, wave, lam):
        base = ChamberSpec().layout(0.7 * lam)
        scaled = ArrayLayout(100, 0.7 * lam, base.taper * 7.3)
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        f1 = fom_values(mesh, field_over_mesh(base, wave, mesh))
        f2 = fom_values(mesh, field_over_mesh(scaled, wave, mesh))
        assert f1 == pytest.approx(f2, rel=1e-9, abs=1e-12)


DEFAULT_IES = np.round(np.arange(0.5, 1.51, 0.05), 2)  # the default sweep grid, in lambda


def half_rows(mesh):
    """The x >= 0 half of every row of a zone mesh, as the sweep synthesizes it."""
    return TestZoneMesh(mesh.pitch, mesh.row_y, 0, mesh.row_hi)


def one_row(mesh):
    """The widest row of a zone mesh alone."""
    r = np.argmax(np.diff(mesh.edges))
    return TestZoneMesh(mesh.pitch, mesh.row_y[r:r + 1], mesh.row_lo[r], mesh.row_hi[r])


@pytest.fixture
def pairs_synthesized(monkeypatch):
    """Sizes of the (points, elements) matrices element_fields synthesizes."""
    import otazone.field
    sizes = []
    real = otazone.field.element_fields

    def counting(layout, wave, points):
        out = real(layout, wave, points)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(otazone.field, "element_fields", counting)
    return sizes


class TestFieldOverMeshLattice:
    """The row-lattice kernel against direct synthesis of every pair."""

    @pytest.mark.parametrize("n_elements, taper_edge", [(100, 25), (100, 0), (41, 0), (41, 10)])
    @pytest.mark.parametrize("pitch_lambda", [0.125, 0.25])
    @pytest.mark.parametrize("ies_lambda", [0.55, 1.0, 1.35])
    def test_matches_direct_synthesis(self, wave, lam, pairs_synthesized,
                                      n_elements, taper_edge, pitch_lambda, ies_lambda):
        # 48 pitches: half-rows long enough for the kernel to beat the pairs
        chamber = ChamberSpec(n_elements=n_elements, taper_edge=taper_edge,
                              tz_radius_lambda=48 * pitch_lambda, mesh_pitch_lambda=pitch_lambda)
        layout = chamber.layout(ies_lambda * lam)
        zone = build_mesh(chamber.zone(wave, 300 * lam))
        # the zone moved wholly past the array's end, x > (N - 1) * IES / 2
        past = int(np.ceil((n_elements - 1) * ies_lambda / (2 * pitch_lambda))) + 49
        beyond = TestZoneMesh(zone.pitch, zone.row_y, zone.row_lo + past, zone.row_hi + past)
        for mesh in (zone, half_rows(zone), one_row(zone), beyond):
            want = field_at_points(layout, wave, mesh.points)
            pairs_synthesized.clear()
            got = field_over_mesh(layout, wave, mesh)
            assert sum(pairs_synthesized) < mesh.n_points * n_elements  # the lattice path ran
            assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    def test_matches_high_precision_oracle(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(564 * lam, 99 * lam / 8, lam / 8))
        got = field_over_mesh(layout, wave, mesh)
        # points (a, b) * lambda/8 from the zone centre: the centre, rim and inner points
        for a, b in ((0, 0), (99, 0), (-70, 70), (13, -98), (-1, 1)):
            p = np.flatnonzero(np.all(np.isclose(mesh.points, [a * lam / 8, (564 + b / 8) * lam],
                                                 rtol=0, atol=1e-9 * lam), axis=1))
            assert p.size == 1
            want = field_oracle(wave.frequency, 0.7, layout.taper, (a / 8, 564 + b / 8))
            assert got[p[0]] == pytest.approx(want, rel=1e-10)

    def test_default_grid_never_falls_back(self, wave, lam, pairs_synthesized):
        # every default IES sits on a short lattice with the lambda/8 mesh
        mesh = build_mesh(ChamberSpec().zone(wave, 591 * lam))
        for ies in DEFAULT_IES:
            pairs_synthesized.clear()
            field_over_mesh(ChamberSpec().layout(ies * lam), wave, mesh)
            assert sum(pairs_synthesized) <= mesh.n_points * 100 // 4, ies

    @pytest.mark.parametrize("ies_lambda", [1e16, 1e20, 1e308])
    def test_no_lattice_past_int64(self, wave, lam, ies_lambda):
        # IES / pitch = 8e16 (the offsets summed over the rows pass 2**63), 8e20 (P
        # alone does) and inf: each takes the direct path
        mesh = build_mesh(ChamberSpec().zone(wave, 591 * lam))
        assert _row_lattice(ChamberSpec().layout(ies_lambda * lam), mesh) is None

    @pytest.mark.parametrize("pitch", [0.0, -1.0, np.inf, np.nan])
    def test_mesh_rejects_bad_pitch(self, pitch):
        with pytest.raises(ValueError, match="pitch"):
            TestZoneMesh(pitch, [1.0], 0, 1)

    @pytest.mark.parametrize("rows, match", [
        (([], [], []), "at least one row"),
        (([1.0, 2.0], [0, 0], [2]), "one entry per row"),
        (([1.0, 2.0, 3.0], [0, 3, 3], [2, 2, 5]), "at least one point"),
    ], ids=["no_rows", "mismatched_lengths", "empty_row"])
    def test_mesh_rejects_bad_rows(self, rows, match):
        with pytest.raises(ValueError, match=match):
            TestZoneMesh(1.0, *rows)

    def test_points_follow_the_rows(self):
        mesh = TestZoneMesh(0.5, [3.0, 4.0], [-1, 2], [1, 2])
        assert mesh.n_points == 4
        assert mesh.edges.tolist() == [0, 3, 4]
        assert mesh.points.tolist() == [[-0.5, 3.0], [0.0, 3.0], [0.5, 3.0], [1.0, 4.0]]

    def test_row_on_array_line_is_synthesized_directly(self, wave, lam, pairs_synthesized):
        # x = 15..41 pitches misses the elements at 0.7 lambda spacing (on the line they
        # sit at +-14 and +-42 pitches), and the row is long enough that off the line it
        # takes the kernel path; on the line its kernel would sample r = 0
        layout = ChamberSpec().layout(0.7 * lam)
        off_line = TestZoneMesh(lam / 8, [3 * lam], 15, 41)
        field_over_mesh(layout, wave, off_line)
        assert sum(pairs_synthesized) < off_line.n_points * 100
        on_line = TestZoneMesh(lam / 8, [0.0], 15, 41)
        pairs_synthesized.clear()
        got = field_over_mesh(layout, wave, on_line)
        assert sum(pairs_synthesized) == on_line.n_points * 100
        assert np.array_equal(got, field_at_points(layout, wave, on_line.points))

    @pytest.mark.parametrize("case", ["ies_off_lattice", "kernel_too_long",
                                      "single_point_column"])
    def test_fallback_is_direct_synthesis(self, wave, lam, pairs_synthesized, case):
        ies = lam / np.sqrt(2) if case == "ies_off_lattice" else 0.7 * lam
        # an odd element count puts an element at x = 0
        chamber = (ChamberSpec(n_elements=41, taper_edge=10) if case == "single_point_column"
                   else ChamberSpec())
        layout = chamber.layout(ies)
        mesh = build_mesh(TestZoneSpec(300 * lam, 2 * lam, lam / 8))
        if case == "kernel_too_long":
            mesh = TestZoneMesh(mesh.pitch, mesh.row_y[:1], mesh.row_lo[:1], mesh.row_lo[:1])
        elif case == "single_point_column":  # each row's kernel reaches an array end
            mesh = TestZoneMesh(mesh.pitch, mesh.row_y, 0, 0)
        got = field_over_mesh(layout, wave, mesh)
        # the rows go in blocks, so the pairs may be synthesized over several calls
        assert sum(pairs_synthesized) == mesh.n_points * layout.n_elements
        assert np.array_equal(got, field_at_points(layout, wave, mesh.points))


class TestKernelWindowRead:
    """Each block's g against an explicit per-row gather kernel[|a * c - e_i|]."""

    @staticmethod
    def gathered(layout, wave, mesh, plan):
        """g row by row: each row's kernel sampled at offsets 0 .. its farthest, then indexed."""
        c, e, step = plan
        unit = ArrayLayout(1, layout.ies, np.ones(1))
        row, a = mesh.lattice()
        g = np.empty((mesh.n_points, e.size), dtype=complex)
        for r, y in enumerate(mesh.row_y):
            on_row = row == r
            idx = np.abs(a[on_row, None] * c - e[None, :])
            m = np.arange(idx.max() + 1)
            kernel = field_at_points(unit, wave, np.column_stack([m * step, np.full(m.size, y)]))
            g[on_row] = kernel[idx]
        return g

    @pytest.mark.parametrize("n_elements", [1, 2, 41, 100])
    @pytest.mark.parametrize("ies_lambda, c", [(0.5, 1), (0.7, 5)])
    @pytest.mark.parametrize("pitch_lambda", [0.125, 0.25])
    def test_blocks_equal_explicit_gather(self, wave, lam, monkeypatch, n_elements, ies_lambda,
                                          c, pitch_lambda):
        chamber = ChamberSpec(n_elements=n_elements, taper_edge=0,
                              mesh_pitch_lambda=pitch_lambda)
        layout = chamber.layout(ies_lambda * lam)
        zone = build_mesh(chamber.zone(wave, 300 * lam))
        pitch = zone.pitch
        # the zone moved wholly past the array's end, x > (N - 1) * IES / 2
        past = int(np.ceil((n_elements - 1) * ies_lambda / (2 * pitch_lambda))) + 100
        meshes = {
            "zone": zone, "half_rows": half_rows(zone), "one_row": one_row(zone),
            "asymmetric": TestZoneMesh(pitch, 300 * lam + np.array([-1, 0, 1]) * pitch,
                                       [-12, 4, -20], [8, 30, 16]),
            "past_the_end": TestZoneMesh(pitch, zone.row_y, zone.row_lo + past,
                                         zone.row_hi + past),
        }
        # the lattice at IES / pitch = P / Q: every mesh below is read through it, also
        # where its kernel would not be shorter than the pairs and the field would be
        # synthesized pair by pair
        p, q = Fraction(ies_lambda / pitch_lambda).limit_denominator().as_integer_ratio()
        e = (2 * np.arange(n_elements) - (n_elements - 1)) * p
        gcd = int(np.gcd.reduce(e, initial=2 * q))
        plan = (2 * q // gcd, e // gcd, gcd * pitch / (2 * q))
        assert plan[0] == (c if n_elements > 1 else 1)
        for name, mesh in meshes.items():
            found = _row_lattice(layout, mesh)
            assert found is None or (found[0] == plan[0] and np.array_equal(found[1], plan[1])
                                     and found[2] == plan[2]), name
        monkeypatch.setattr(testzone, "_row_lattice", lambda layout, mesh: plan)
        for name, mesh in meshes.items():
            want = self.gathered(layout, wave, mesh, plan)
            blocks = list(_kernel_blocks(layout, wave, mesh))
            assert blocks[0][0].start == 0 and blocks[-1][0].stop == mesh.n_points
            for pts, g in blocks:
                assert g.flags.c_contiguous, name
                assert np.array_equal(g, want[pts]), name


class TestElementFieldBlocks:
    """The per-element field blocks the tolerance search reads, against field_over_mesh."""

    @pytest.mark.parametrize("ies_lambda", [0.7, 2 ** -0.5], ids=["lattice", "off_lattice"])
    @pytest.mark.parametrize("strip", [False, True], ids=["zone", "half_rows"])
    def test_blocks_cover_the_mesh_and_sum_to_its_field(self, wave, lam, ies_lambda, strip):
        chamber = ChamberSpec()
        layout = chamber.layout(ies_lambda * lam)
        mesh = build_mesh(chamber.zone(wave, 300 * lam))
        mesh = half_rows(mesh) if strip else mesh
        lattice = _row_lattice(layout, mesh) is not None
        assert lattice == (ies_lambda == 0.7)
        want = field_over_mesh(layout, wave, mesh)
        stop = 0
        for pts, f in element_field_blocks(layout, wave, mesh):
            assert pts.start == stop < pts.stop and f.shape == (pts.stop - stop, 100)
            stop = pts.stop
            if lattice:  # g @ taper there, a sum in another order
                np.testing.assert_allclose(f.sum(axis=1), want[pts], rtol=1e-12, atol=0)
            else:
                assert f.tobytes() == element_fields(layout, wave, mesh.points[pts]).tobytes()
                assert f.sum(axis=1).tobytes() == want[pts].tobytes()
        assert stop == mesh.n_points and stop > 0
