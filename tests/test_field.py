import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otazone import ArrayLayout, ChamberSpec, WaveSpec, field_at, field_at_points, make_taper

from oracles import field_oracle, taper_db_oracle


class TestMakeTaper:
    def test_chamber_profile_inclusive(self):
        t = make_taper(100, 25, -6.0, "inclusive")
        assert t[0] == pytest.approx(10 ** (-6 / 20), abs=1e-12)
        assert t[24] == 1.0
        assert np.all(t[25:75] == 1.0)
        assert t[0] == pytest.approx(0.5012, abs=5e-5)

    def test_no_edge_elements(self):
        assert np.all(make_taper(100, 0, -6.0, "inclusive") == 1.0)

    def test_small_array_inclusive(self):
        t = make_taper(4, 2, -6.0, "inclusive")
        db = 20 * np.log10(t)
        assert db == pytest.approx([-6.0, 0.0, 0.0, -6.0], abs=1e-12)
        assert t == pytest.approx([0.5012, 1.0, 1.0, 0.5012], abs=5e-5)

    def test_exclusive_ramp(self):
        t = make_taper(100, 25, -6.0, "exclusive")
        db = 20 * np.log10(t)
        assert db[0] == pytest.approx(-6.0, abs=1e-12)
        assert db[24] == pytest.approx(-6.0 / 25, abs=1e-12)
        assert np.all(t[25:75] == 1.0)

    @pytest.mark.parametrize("endpoint", ["inclusive", "exclusive"])
    def test_matches_db_ramp_oracle(self, endpoint):
        t = make_taper(100, 25, -6.0, endpoint)
        assert t == pytest.approx(taper_db_oracle(100, 25, -6.0, endpoint), rel=1e-12)

    def test_symmetry(self):
        t = make_taper(100, 25, -6.0, "inclusive")
        assert t == pytest.approx(t[::-1], rel=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_taper(100, 60, -6.0, "inclusive")
        with pytest.raises(ValueError):
            make_taper(100, 25, 1.0, "inclusive")


class TestFieldAt:
    def test_single_element_closed_form(self, wave, lam):
        layout = ArrayLayout(1, lam, np.ones(1))
        e = field_at(layout, wave, (0.0, lam))
        assert abs(e) == pytest.approx(1.0 / (4 * np.pi * lam), rel=1e-12)
        # one full wavelength of travel: phase wraps back to 0
        assert np.angle(e) == pytest.approx(0.0, abs=1e-9)

    def test_two_element_mirror_pair(self, wave, lam):
        layout = ArrayLayout(2, lam / 2, np.ones(2))  # elements at +-lam/4
        y = 50 * lam
        r = np.hypot(lam / 4, y)
        expected = 2 * np.exp(-1j * wave.wavenumber * r) / (4 * np.pi * r)
        assert field_at(layout, wave, (0.0, y)) == pytest.approx(expected, rel=1e-12)

    def test_matches_high_precision_oracle_at_tz_center(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        got = field_at(layout, wave, (0.0, 591 * lam))
        want = field_oracle(wave.frequency, 0.7, layout.taper, (0.0, 591.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_frozen_regression_fixture(self, wave, lam):
        # mpmath 40-digit summation, default (exclusive) taper, TZ center at 591 lam
        got = field_at(ChamberSpec().layout(0.7 * lam), wave, (0.0, 591 * lam))
        assert got.real == pytest.approx(0.32963981873099670721, rel=1e-10)
        assert got.imag == pytest.approx(-0.28440683834698273669, rel=1e-10)

    def test_rejects_point_on_element(self, wave, lam):
        layout = ChamberSpec().layout(0.5 * lam)
        with pytest.raises(ValueError):
            field_at(layout, wave, (layout.positions[3], 0.0))


class TestFieldProperties:
    def test_mirror_symmetry(self, wave, lam):
        layout = ChamberSpec().layout(0.8 * lam)
        for x, y in [(3.7, 120.0), (11.2, 410.5), (0.9, 55.0)]:
            left = field_at(layout, wave, (-x * lam, y * lam))
            right = field_at(layout, wave, (x * lam, y * lam))
            assert abs(left) == pytest.approx(abs(right), rel=1e-10)
            assert np.angle(left) == pytest.approx(np.angle(right), abs=1e-10)

    @pytest.mark.parametrize("n_elements, taper_edge", [(100, 25), (41, 10), (40, 0), (7, 3)])
    @pytest.mark.parametrize("endpoint", ["exclusive", "inclusive"])
    def test_chamber_layout_is_mirror_symmetric(self, wave, lam, n_elements, taper_edge,
                                                endpoint):
        # the sweep computes only x >= 0 and reads the field at -x from +x
        chamber = ChamberSpec(n_elements=n_elements, taper_edge=taper_edge,
                              taper_endpoint=endpoint)
        for ies in (0.5, 0.75, 1.35):
            layout = chamber.layout(ies * lam)
            assert np.array_equal(layout.taper, layout.taper[::-1])
            assert np.array_equal(layout.positions, -layout.positions[::-1])
            pts = np.array([[0.125, 40.0], [3.375, 286.0], [12.25, 591.625]]) * lam
            right = field_at_points(layout, wave, pts)
            left = field_at_points(layout, wave, pts * [-1.0, 1.0])
            assert np.all(np.abs(left - right) <= 1e-13 * np.abs(right))

    def test_far_field_phase_flattens(self, wave, lam):
        layout = ChamberSpec().layout(0.5 * lam)
        y = 1e6 * lam
        k = wave.wavenumber
        phases = []
        for x in np.linspace(-2, 2, 5) * lam:
            e = field_at(layout, wave, (x, y))
            phases.append(np.angle(e * np.exp(1j * k * y) * y))
        assert np.ptp(np.unwrap(phases)) < 1e-3

    def test_superposition_in_taper(self, wave, lam):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.2, 1.0, 100)
        split = rng.uniform(0.0, 1.0, 100)
        pts = np.column_stack([rng.uniform(-5, 5, 10) * lam,
                               rng.uniform(50, 500, 10) * lam])
        full = field_at_points(ArrayLayout(100, 0.7 * lam, t), wave, pts)
        a = field_at_points(ArrayLayout(100, 0.7 * lam, t * split), wave, pts)
        b = field_at_points(ArrayLayout(100, 0.7 * lam, t * (1 - split)), wave, pts)
        assert full == pytest.approx(a + b, rel=1e-12)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_real_scaling(self, scale):
        wave = WaveSpec()
        lam = wave.wavelength
        base = ChamberSpec().layout(0.6 * lam)
        scaled = ArrayLayout(100, 0.6 * lam, base.taper * scale)
        p = (1.3 * lam, 200 * lam)
        assert field_at(scaled, wave, p) == pytest.approx(
            scale * field_at(base, wave, p), rel=1e-12)


class TestLayoutInvariants:
    def test_positions_centered_and_uniform(self, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        d = np.diff(layout.positions)
        assert d == pytest.approx(np.full(99, 0.7 * lam), rel=1e-12)
        assert abs(layout.positions.sum()) < 1e-9 * lam

    def test_length(self, lam):
        assert ChamberSpec().layout(0.7 * lam).length == pytest.approx(99 * 0.7 * lam, rel=1e-12)

    def test_wavenumber_wavelength_product(self, wave):
        assert wave.wavenumber * wave.wavelength == pytest.approx(2 * np.pi, rel=1e-15)
