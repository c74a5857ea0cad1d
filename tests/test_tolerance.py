from dataclasses import replace

import numpy as np
import pytest

from otazone import (ExcitationErrorModel, FomLimits, ToleranceSearchConfig,
                     ChamberSpec, draw_errors, tolerance_search)
from otazone.field import element_fields
from otazone.testzone import TestZoneSpec, build_mesh, fom_values
from otazone import tolerance
from otazone.tolerance import (FOM_ORDER, _draw_batch, _failing_level_counts,
                               level_fom_batch)


class TestErrorModel:
    def test_zero_sigma(self):
        assert ExcitationErrorModel(0.0).sigma_linear == 0.0

    def test_sigma_005_db(self):
        m = ExcitationErrorModel(0.05)
        assert m.sigma_linear == pytest.approx(10 ** 0.0025 - 1, rel=1e-12)
        assert m.sigma_linear == pytest.approx(0.0057732, abs=5e-7)

    def test_one_db(self):
        assert ExcitationErrorModel(1.0).sigma_linear == pytest.approx(
            10 ** 0.05 - 1, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExcitationErrorModel(-0.1)


class TestDrawErrors:
    def test_zero_sigma_gives_zeros(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_errors(ExcitationErrorModel(0.0), 50, rng) == 0.0)

    def test_empirical_std_matches_model(self):
        m = ExcitationErrorModel(0.05)
        eps = draw_errors(m, 1_000_000, np.random.default_rng(7))
        assert np.std(eps.real) == pytest.approx(m.sigma_linear, rel=0.01)
        assert np.std(eps.imag) == pytest.approx(m.sigma_linear, rel=0.01)
        assert abs(np.mean(eps)) < 5 * m.sigma_linear / 1000

    def test_parts_independent(self):
        eps = draw_errors(ExcitationErrorModel(0.5), 200_000, np.random.default_rng(11))
        corr = np.corrcoef(eps.real, eps.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_seeded_reproducibility(self):
        m = ExcitationErrorModel(0.2)
        a = draw_errors(m, 100, np.random.default_rng(42))
        b = draw_errors(m, 100, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestLevelFomBatch:
    def test_matches_scalar_fom_path(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(300 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        rng = np.random.default_rng(3)
        eps = draw_errors(ExcitationErrorModel(0.3), 100, rng)[:, None]
        rm, sm, rp = level_fom_batch(contrib, mesh, eps)
        ref = fom_values(mesh, contrib @ (1.0 + eps[:, 0]))
        assert (rm[0], sm[0], rp[0]) == pytest.approx(ref, rel=1e-10)

    def test_errors_enter_per_element(self, wave, lam):
        # the realization's field summed element by element, without element_fields:
        # E = sum_i (1 + eps_i) * t_i * exp(-j*k*r_i) / (4*pi*r_i)
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(300 * lam, lam / 4, lam / 8))
        eps = draw_errors(ExcitationErrorModel(0.5), 100, np.random.default_rng(5))
        direct = np.zeros(mesh.n_points, dtype=complex)
        for x, t, e in zip(layout.positions, layout.taper, eps):
            r = np.hypot(mesh.points[:, 0] - x, mesh.points[:, 1])
            direct += (1 + e) * t * np.exp(-1j * wave.wavenumber * r) / (4 * np.pi * r)
        contrib = element_fields(layout, wave, mesh.points)
        rm, sm, rp = level_fom_batch(contrib, mesh, eps[:, None])
        assert (rm[0], sm[0], rp[0]) == pytest.approx(fom_values(mesh, direct), rel=1e-9)

    def test_batch_columns_independent(self, wave, lam):
        layout = ChamberSpec().layout(1.0 * lam)
        mesh = build_mesh(TestZoneSpec(200 * lam, lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        rng = np.random.default_rng(4)
        eps = draw_errors(ExcitationErrorModel(0.2), 300, rng).reshape(100, 3)
        batched = np.stack(level_fom_batch(contrib, mesh, eps))
        for j in range(3):
            single = np.stack(level_fom_batch(contrib, mesh, eps[:, j:j + 1]))
            assert batched[:, j] == pytest.approx(single[:, 0], rel=1e-12)

    def test_zero_errors_reproduce_nominal(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(250 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        rm, sm, rp = level_fom_batch(contrib, mesh, np.zeros((100, 1), dtype=complex))
        from otazone import field_over_mesh
        ref = fom_values(mesh, field_over_mesh(layout, wave, mesh))
        assert (rm[0], sm[0], rp[0]) == pytest.approx(ref, rel=1e-12)


class TestDrawBatchStreams:
    def test_chunking_invariance(self):
        m = ExcitationErrorModel(0.4)
        full = _draw_batch(m, 100, seed=9, level=3, start=0, stop=20)
        parts = np.concatenate([
            _draw_batch(m, 100, seed=9, level=3, start=0, stop=7),
            _draw_batch(m, 100, seed=9, level=3, start=7, stop=20)], axis=1)
        assert np.array_equal(full, parts)

    def test_levels_decorrelated(self):
        m = ExcitationErrorModel(0.4)
        a = _draw_batch(m, 100, seed=9, level=1, start=0, stop=1)
        b = _draw_batch(m, 100, seed=9, level=2, start=0, stop=1)
        assert not np.allclose(a, b)


class TestSearchConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ToleranceSearchConfig(step_db=0.0)
        with pytest.raises(ValueError):
            ToleranceSearchConfig(n_mc=0)
        with pytest.raises(ValueError):
            ToleranceSearchConfig(fail_rule="plurality")


class TestToleranceSearch:
    def test_degenerate_geometry_returns_zero(self, wave, lam):
        # (0.5 lam, 40 lam) already violates tier 1 with zero error
        cfg = ToleranceSearchConfig(n_mc=1)
        res = tolerance_search(0.5 * lam, 40 * lam, wave, cfg)
        assert res.tolerated_sigma_db == 0.0
        assert res.failing_sigma_db == 0.0
        assert res.first_failing_fom in FOM_ORDER

    def test_exceeds_cap_with_loose_limits(self, wave, lam):
        cfg = ToleranceSearchConfig(n_mc=2, max_sigma_db=0.05,
                                    limits=FomLimits(1e9, 1e9, 179.0))
        res = tolerance_search(0.7 * lam, 300 * lam, wave, cfg,
                               ChamberSpec(tz_radius_lambda=0.5))
        assert res.exceeded_cap
        assert res.tolerated_sigma_db == pytest.approx(0.05)
        assert res.first_failing_fom is None

    def test_step_invariant(self, wave, lam):
        cfg = ToleranceSearchConfig(n_mc=5, rng_seed=1)
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        assert not res.exceeded_cap
        assert res.failing_sigma_db == pytest.approx(
            res.tolerated_sigma_db + cfg.step_db, abs=1e-12)

    def test_deterministic(self, wave, lam):
        cfg = ToleranceSearchConfig(n_mc=5, rng_seed=3)
        a = tolerance_search(1.0 * lam, 469 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        b = tolerance_search(1.0 * lam, 469 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        assert a == b

    def test_any_rule_no_more_tolerant_than_majority(self, wave, lam):
        kw = dict(n_mc=20, rng_seed=2)
        any_res = tolerance_search(0.7 * lam, 591 * lam, wave,
                                   ToleranceSearchConfig(fail_rule="any", **kw),
                                   ChamberSpec(tz_radius_lambda=2.0))
        maj_res = tolerance_search(0.7 * lam, 591 * lam, wave,
                                   ToleranceSearchConfig(fail_rule="majority", **kw),
                                   ChamberSpec(tz_radius_lambda=2.0))
        assert any_res.tolerated_sigma_db <= maj_res.tolerated_sigma_db

    def test_tighter_limits_tolerate_less(self, wave, lam):
        from otazone import TIER1, TIER3
        kw = dict(n_mc=5, rng_seed=0)
        loose = tolerance_search(0.7 * lam, 591 * lam, wave,
                                 ToleranceSearchConfig(limits=TIER1, **kw),
                                 ChamberSpec(tz_radius_lambda=2.0))
        tight = tolerance_search(0.7 * lam, 591 * lam, wave,
                                 ToleranceSearchConfig(limits=TIER3, **kw),
                                 ChamberSpec(tz_radius_lambda=2.0))
        assert tight.tolerated_sigma_db <= loose.tolerated_sigma_db

    def test_each_realization_scored_once(self, wave, lam, monkeypatch):
        scored = []

        def counting(contrib, mesh, eps):
            scored.append(eps.shape[1])
            return level_fom_batch(contrib, mesh, eps)

        monkeypatch.setattr(tolerance, "level_fom_batch", counting)
        cfg = ToleranceSearchConfig(n_mc=70, rng_seed=0)
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        levels = round(res.failing_sigma_db / cfg.step_db)
        # the zero-error check, then all n_mc realizations of every level
        # up to and including the failing one
        assert sum(scored) == 1 + levels * cfg.n_mc

    def test_failing_level_counts_match_full_batch(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        cfg = ToleranceSearchConfig(n_mc=70, rng_seed=4, fail_rule="majority", step_db=0.05,
                                    limits=FomLimits(0.05, 0.2, 2.0))
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        level = round(res.failing_sigma_db / cfg.step_db)
        model = ExcitationErrorModel(res.failing_sigma_db)
        eps = _draw_batch(model, 100, cfg.rng_seed, level, 0, cfg.n_mc)
        want = cfg.limits.violations(*level_fom_batch(contrib, mesh, eps)).sum(axis=1)
        for rule in ("any", "majority"):
            counts = _failing_level_counts(contrib, mesh, model,
                                           replace(cfg, fail_rule=rule), level, 100)
            assert counts.tolist() == want.tolist()
        assert _failing_level_counts(contrib, mesh, ExcitationErrorModel(res.tolerated_sigma_db),
                                     cfg, level - 1, 100) is None

    def test_violation_mask_order(self):
        mask = FomLimits(sigma_mag_max=0.25, r_mag_max=1.0, r_phs_max=10.0).violations(
            np.array([2.0]), np.array([0.1]), np.array([20.0]))
        assert mask[:, 0].tolist() == [True, False, True]
