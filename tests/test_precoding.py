import numpy as np
import pytest

from otazone import (DutArraySpec, ExcitationErrorModel, StudyConfig, alpha_min_deg,
                     build_channel, ChamberSpec, draw_errors, mf_weights,
                     run_study, sinr, sum_rate, zf_weights)

from oracles import sinr_symbol_oracle, zf_oracle


def random_channel(rng, n_users=2, n_rx=49):
    h = (rng.standard_normal((n_users, n_rx)) +
         1j * rng.standard_normal((n_users, n_rx))) / np.sqrt(2)
    return h / np.sqrt(np.mean(np.abs(h) ** 2))


class TestGeometry:
    def test_dut_points_centered(self, wave, lam):
        pts = DutArraySpec().points(wave, 0.5)
        assert pts.shape == (49, 2)
        assert np.all(pts[:, 1] == 0.5)
        assert abs(pts[:, 0].sum()) < 1e-12
        assert np.diff(pts[:, 0]) == pytest.approx(np.full(48, lam / 2), rel=1e-12)

    def test_dut_explicit_spacing(self, wave):
        assert DutArraySpec(ies_lambda=0.25).spacing(wave) == 0.25 * wave.wavelength

    def test_dut_rejects_single_element(self):
        with pytest.raises(ValueError):
            DutArraySpec(n_elements=1)

    def test_dut_rejects_zero_spacing(self):
        # all DUT points on one spot would only fail later, as a collinear ZF channel
        with pytest.raises(ValueError):
            DutArraySpec(ies_lambda=0.0)

    def test_alpha_min_values(self, lam):
        # frozen: arctan(L/D) for the first and last studied geometries
        assert alpha_min_deg(99 * 1.35 * lam, 286 * lam) == pytest.approx(25.047, abs=1e-3)
        assert alpha_min_deg(99 * 0.7 * lam, 591 * lam) == pytest.approx(6.6879, abs=1e-4)

    def test_alpha_min_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_min_deg(0.0, 1.0)

    def test_interferer_at_zero_angle_is_main_array(self, wave, lam):
        for ies, d in ((0.7, 591), (1.35, 286)):
            h = build_channel(ChamberSpec().layout(ies * lam), d * lam, 0.0, DutArraySpec(), wave)
            assert np.array_equal(h[0], h[1])

    def test_interferer_center_stays_on_circle(self, wave, lam):
        # An interferer centered on the circle of radius D around the zone
        # center and broadside to it sees the zone center (the middle DUT
        # element) exactly as the main array does.
        layout = ChamberSpec().layout(1.0 * lam)
        d = 469 * lam
        mid = DutArraySpec().n_elements // 2
        for alpha in (5.0, 15.0, 40.0, 90.0):
            h = build_channel(layout, d, alpha, DutArraySpec(), wave)
            assert h[1, mid] == pytest.approx(h[0, mid], rel=1e-9)
            assert not np.allclose(h[1], h[0], rtol=1e-3)


def direct_field(element_xy, taper, wave, points):
    """Superposed field of isotropic elements at explicit coordinates."""
    r = np.hypot(points[:, 0, None] - element_xy[None, :, 0],
                 points[:, 1, None] - element_xy[None, :, 1])
    return (taper * np.exp(-1j * wave.wavenumber * r) / (4 * np.pi * r)).sum(axis=1)


class TestChannel:
    def test_unit_mean_square(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        h = build_channel(layout, 591 * lam, 20.0, DutArraySpec(), wave)
        assert h.shape == (2, 49)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_zero_angle_rows_identical(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        h = build_channel(layout, 591 * lam, 0.0, DutArraySpec(), wave)
        assert h[0] == pytest.approx(h[1], rel=1e-12)

    def test_interferer_row_matches_direct_superposition(self, wave, lam):
        # the interferer's elements placed explicitly: center on the circle
        # of radius D at angle alpha, array line perpendicular to the radius
        layout = ChamberSpec().layout(1.2 * lam)
        d = 441 * lam
        dut = DutArraySpec()
        pts = dut.points(wave, d)
        ma_xy = np.column_stack([layout.positions, np.zeros(layout.n_elements)])
        want_ma = direct_field(ma_xy, layout.taper, wave, pts)
        for alpha in (10.0, 33.0, 75.0):
            a = np.radians(alpha)
            center = np.array([d * np.sin(a), d * (1.0 - np.cos(a))])
            ia_xy = center + layout.positions[:, None] * np.array([np.cos(a), np.sin(a)])
            want = np.stack([want_ma, direct_field(ia_xy, layout.taper, wave, pts)])
            want /= np.sqrt(np.mean(np.abs(want) ** 2))
            h = build_channel(layout, d, alpha, dut, wave)
            assert h == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_well_conditioned_at_study_angles(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        a = alpha_min_deg(layout.length, 591 * lam)
        h = build_channel(layout, 591 * lam, a, DutArraySpec(), wave)
        assert np.linalg.cond(h) < 10.0


class TestWeights:
    def test_mf_is_hermitian_transpose(self):
        h = random_channel(np.random.default_rng(0))
        assert np.array_equal(mf_weights(h), h.conj().T)

    def test_zf_inverts_channel(self):
        h = random_channel(np.random.default_rng(1))
        assert h @ zf_weights(h) == pytest.approx(np.eye(2), abs=1e-10)

    def test_zf_matches_pinv_oracle_many_channels(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            h = random_channel(rng)
            assert zf_weights(h) == pytest.approx(zf_oracle(h), abs=1e-9)

    def test_zf_rejects_collinear_rows(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        h = np.stack([row, 1.0000000001 * row])
        with pytest.raises(np.linalg.LinAlgError):
            zf_weights(h)


class TestSinr:
    def test_matches_symbol_oracle(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, n_rx=8)
        w = zf_weights(h) + 0.1 * (rng.standard_normal((8, 2)) +
                                   1j * rng.standard_normal((8, 2)))
        for snr_db in (-10.0, 0.0, 10.0):
            got = sinr(h, w, snr_db)
            want = sinr_symbol_oracle(h, w, snr_db, n_symbols=400_000)
            assert got == pytest.approx(want, rel=0.02)

    def test_zf_zero_error_closed_form(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        a = alpha_min_deg(layout.length, 591 * lam)
        h = build_channel(layout, 591 * lam, a, DutArraySpec(), wave)
        w = zf_weights(h)
        rho = 10.0 ** (10.0 / 10.0)
        got = sum_rate(sinr(h, w, 10.0))
        want = sum(np.log2(1.0 + rho / np.sum(np.abs(w[:, u]) ** 2)) for u in (0, 1))
        assert got == pytest.approx(want, rel=1e-9)

    def test_noise_norm_override(self):
        h = random_channel(np.random.default_rng(7), n_rx=8)
        w = mf_weights(h)
        default = sinr(h, w, 0.0)
        overridden = sinr(h, w, 0.0, noise_norms=np.sum(np.abs(w) ** 2, axis=0))
        assert default == pytest.approx(overridden, rel=1e-12)
        halved = sinr(h, w, 0.0, noise_norms=0.5 * np.sum(np.abs(w) ** 2, axis=0))
        assert halved[0] > default[0]

    def test_rejects_zero_norm_column(self):
        h = random_channel(np.random.default_rng(8), n_rx=4)
        w = np.zeros((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            sinr(h, w, 0.0)

    def test_sinr_monotone_in_snr(self):
        h = random_channel(np.random.default_rng(9), n_rx=8)
        w = mf_weights(h)
        vals = [sinr(h, w, s)[0] for s in (-10.0, 0.0, 10.0, 20.0)]
        assert np.all(np.diff(vals) > 0)

    def test_sum_rate(self):
        assert sum_rate((1.0, 3.0)) == pytest.approx(1.0 + 2.0, rel=1e-12)
        with pytest.raises(ValueError):
            sum_rate((-0.5, 1.0))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(10)
        h = random_channel(rng, n_rx=8)
        w = zf_weights(h)
        noise = np.sum(np.abs(w) ** 2, axis=0)
        model = ExcitationErrorModel(0.5)
        w_batch = np.stack([(1 + draw_errors(model, w.size, rng).reshape(w.shape)) * w
                            for _ in range(5)])
        got = sinr(h, w_batch, 10.0, noise_norms=noise)
        assert got.shape == (5, 2)
        want = [sinr(h, wb, 10.0, noise_norms=noise) for wb in w_batch]
        assert got == pytest.approx(np.array(want), rel=1e-12)
        assert sum_rate(got) == pytest.approx([sum_rate(p) for p in want], rel=1e-12)

    def test_batched_matches_symbol_oracle(self):
        rng = np.random.default_rng(11)
        h = random_channel(rng, n_rx=8)
        w = zf_weights(h)
        model = ExcitationErrorModel(1.0)
        w_batch = np.stack([(1 + draw_errors(model, w.size, rng).reshape(w.shape)) * w
                            for _ in range(4)])
        got = sinr(h, w_batch, 0.0)
        want = sinr_symbol_oracle(h, w_batch[2], 0.0, n_symbols=400_000)
        assert got[2] == pytest.approx(want, rel=0.02)


@pytest.fixture(scope="module")
def small_study(wave, lam):
    cfg = StudyConfig(snr_db=(0.0, 10.0), sigma_dut_db=(0.0, 2.0),
                      alpha_offsets_deg=(0.0, 15.0), n_mc=16, rng_seed=0)
    return cfg, run_study([(0.7 * lam, 591 * lam)], wave, cfg)


class TestRunStudy:
    def test_config_rejects_zero_mc(self):
        with pytest.raises(ValueError):
            StudyConfig(n_mc=0)

    def test_point_count_and_coordinates(self, small_study, lam):
        cfg, pts = small_study
        assert len(pts) == 2 * 2 * 2 * 2  # angles x sigmas x precoders x snrs
        assert all(p.length == pytest.approx(99 * 0.7 * lam) for p in pts)
        a_min = alpha_min_deg(99 * 0.7 * lam, 591 * lam)
        assert {round(p.alpha_deg - a_min, 6) for p in pts} == {0.0, 15.0}

    def test_zero_sigma_matches_direct_formula(self, small_study, wave, lam):
        cfg, pts = small_study
        layout = ChamberSpec().layout(0.7 * lam)
        a_min = alpha_min_deg(layout.length, 591 * lam)
        h = build_channel(layout, 591 * lam, a_min + 15.0, cfg.dut, wave)
        for prec, wfun in (("MF", mf_weights), ("ZF", zf_weights)):
            w = wfun(h)
            want = sum_rate(sinr(h, w, 10.0))
            got = [p.avg_sum_rate for p in pts
                   if p.precoder == prec and p.sigma_dut_db == 0.0
                   and p.snr_db == 10.0
                   and p.alpha_deg == pytest.approx(a_min + 15.0)]
            assert len(got) == 1
            assert got[0] == pytest.approx(want, rel=1e-10)

    def test_deterministic(self, small_study, wave, lam):
        cfg, pts = small_study
        again = run_study([(0.7 * lam, 591 * lam)], wave, cfg)
        assert pts == again

    def test_errors_reduce_average_rate_at_high_snr(self, small_study):
        cfg, pts = small_study
        for prec in ("MF", "ZF"):
            sel = {p.sigma_dut_db: p.avg_sum_rate for p in pts
                   if p.precoder == prec and p.snr_db == 10.0
                   and abs(p.alpha_deg - min(q.alpha_deg for q in pts)) < 1e-9}
            assert sel[2.0] < sel[0.0]

    def test_zf_beats_mf_without_errors(self, small_study):
        cfg, pts = small_study
        by = {(p.precoder, p.snr_db): p.avg_sum_rate for p in pts
              if p.sigma_dut_db == 0.0
              and abs(p.alpha_deg - min(q.alpha_deg for q in pts)) < 1e-9}
        assert by[("ZF", 10.0)] > by[("MF", 10.0)]
