import concurrent.futures
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from otazone import (TIER1, ExcitationErrorModel, FomLimits, ToleranceSearchConfig,
                     ChamberSpec, draw_errors, evaluate_fom, tolerance_search)
from otazone.cli import main
from otazone.config import DEFAULT_GEOMETRIES_LAMBDA
from otazone import field
from otazone.field import element_fields
from otazone.testzone import (TestZoneSpec, _kernel_blocks, _row_lattice, build_mesh,
                              element_field_blocks, fom_values)
from otazone import tolerance
from otazone.tolerance import (FOM_ORDER, _failing_level_counts, _matrix_factors, _sample_rows,
                               _zone_factors, level_fom_batch)


def kernel_contrib(layout, wave, mesh):
    """contrib[p, i] = t_i * g[p, i], C-ordered, formed from the blocks the search reads."""
    return np.concatenate([f for _, f in element_field_blocks(layout, wave, mesh)])


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
        # a generator seeded with a negative key raises, so none is built here
        eps = draw_errors(ExcitationErrorModel(0.0), 50, [-1, -2, -3])
        assert eps.shape == (3, 50) and np.all(eps == 0.0)

    def test_empirical_std_matches_model(self):
        m = ExcitationErrorModel(0.05)
        eps = draw_errors(m, 1_000_000, [7])[0]
        assert np.std(eps.real) == pytest.approx(m.sigma_linear, rel=0.01)
        assert np.std(eps.imag) == pytest.approx(m.sigma_linear, rel=0.01)
        assert abs(np.mean(eps)) < 5 * m.sigma_linear / 1000

    def test_parts_independent(self):
        eps = draw_errors(ExcitationErrorModel(0.5), 200_000, [11])[0]
        corr = np.corrcoef(eps.real, eps.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_seeded_reproducibility(self):
        m = ExcitationErrorModel(0.2)
        a = draw_errors(m, 100, [42, (42, 1)])
        b = draw_errors(m, 100, [(42, 1), 42])
        assert np.array_equal(a, b[::-1])
        assert not np.allclose(a[0], a[1])

    @pytest.mark.parametrize("keys, other", [
        ([0, 2 ** 32 - 1, 17], None),
        ([[3, 4], [5], []], TypeError),
        ([(np.int64(3), 4), np.uint32(9), (True, 2)], TypeError),
        ([7, (7, 1), (), (1, 2, 3, 4, 5, 6), (2 ** 32 - 1,) * 5, (0, 0, 0, 0)], None),
        ([(5, 6), 2 ** 32, (1, 2 ** 32)], None),
        ([(5, 6), (1, -1)], None), ([-5], None),
        ([(5, 6), 1.5], None), ([(1, 2.0)], None),
        # batches of one key length
        ([(1, 2), (True, 2)], TypeError), ([(1, 2), (np.int64(3), 4)], TypeError),
        ([(1, 2), (2 ** 32, 3)], None), ([(1, 2, 3), (5, 2 ** 64, 3), (2 ** 70 + 9, 0, 1)], None),
        ([(), ()], None), ([(4, 5, 6)], None),
    ], ids=["bare_ints", "lists", "numpy_entries", "mixed_lengths", "beyond_32_bits",
            "negative_entry", "negative_int", "float", "float_entry", "even_bool",
            "even_numpy_int", "even_2_32", "even_2_64", "even_empty", "single"])
    def test_rows_match_default_rng_or_raise_alike(self, keys, other):
        # keys are non-negative ints or tuples of them; other forms that default_rng
        # accepts (lists, numpy integers, bools) raise ``other``
        m = ExcitationErrorModel(0.3)
        if other is not None:
            with pytest.raises(other):
                draw_errors(m, 9, keys)
            return
        try:
            want = np.array([np.random.default_rng(k).standard_normal((2, 9)) for k in keys])
        except Exception as exc:
            with pytest.raises(type(exc)):
                draw_errors(m, 9, keys)
            return
        got = draw_errors(m, 9, keys)
        assert got.real.tobytes() == (want[:, 0] * m.sigma_linear).tobytes()
        assert got.imag.tobytes() == (want[:, 1] * m.sigma_linear).tobytes()

    def test_wide_entries_seeded_in_one_batch(self, monkeypatch):
        # an entry of 2**32 or more seeds as its little-endian 32-bit words, like SeedSequence
        m = ExcitationErrorModel(0.3)
        keys = [(2 ** 32, 1, 2), 2 ** 64 - 1, (0, 2 ** 64, 7), (2 ** 96 + 5,), (3, 2 ** 32 - 1)]
        want = np.array([np.random.default_rng(k).standard_normal((2, 9)) for k in keys])
        real, calls = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda key: calls.append(key) or real(key))
        got = draw_errors(m, 9, keys)
        assert calls == [keys[0]]  # the one generator the batch re-keys
        assert got.real.tobytes() == (want[:, 0] * m.sigma_linear).tobytes()
        assert got.imag.tobytes() == (want[:, 1] * m.sigma_linear).tobytes()

    @pytest.mark.parametrize("n, keys", [
        (100, [(s, level, r) for s in (0, 2 ** 32 - 1) for level in (1, 37, 200)
               for r in range(100)]),
        (98, [(s, g, a, si, it) for s in (0, 9) for g in range(2) for a in range(2)
              for si in (1, 20) for it in range(250)]),
    ], ids=["tolerance_keys", "precode_keys"])
    def test_many_library_keys_match_default_rng(self, n, keys):
        m = ExcitationErrorModel(1.3)
        got = draw_errors(m, n, keys)
        for i, k in enumerate(keys):
            want = np.random.default_rng(k).standard_normal((2, n)) * m.sigma_linear
            assert got[i].real.tobytes() == want[0].tobytes(), k
            assert got[i].imag.tobytes() == want[1].tobytes(), k


class TestLevelFomBatch:
    def test_matches_scalar_fom_path(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(300 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        eps = draw_errors(ExcitationErrorModel(0.3), 100, [3])
        rm, sm, rp = level_fom_batch(contrib, mesh, eps)
        ref = fom_values(mesh, contrib @ (1.0 + eps[0]))
        assert (rm[0], sm[0], rp[0]) == pytest.approx(ref, rel=1e-10)

    def test_errors_enter_per_element(self, wave, lam):
        # the realization's field summed element by element, without element_fields:
        # E = sum_i (1 + eps_i) * t_i * exp(-j*k*r_i) / (4*pi*r_i)
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(300 * lam, lam / 4, lam / 8))
        eps = draw_errors(ExcitationErrorModel(0.5), 100, [5])[0]
        direct = np.zeros(mesh.n_points, dtype=complex)
        for x, t, e in zip(layout.positions, layout.taper, eps):
            r = np.hypot(mesh.points[:, 0] - x, mesh.points[:, 1])
            direct += (1 + e) * t * np.exp(-1j * wave.wavenumber * r) / (4 * np.pi * r)
        contrib = element_fields(layout, wave, mesh.points)
        rm, sm, rp = level_fom_batch(contrib, mesh, eps[None, :])
        assert (rm[0], sm[0], rp[0]) == pytest.approx(fom_values(mesh, direct), rel=1e-9)

    def test_batch_columns_independent(self, wave, lam):
        layout = ChamberSpec().layout(1.0 * lam)
        mesh = build_mesh(TestZoneSpec(200 * lam, lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        eps = draw_errors(ExcitationErrorModel(0.2), 300, [4]).reshape(3, 100)
        batched = np.stack(level_fom_batch(contrib, mesh, eps))
        for j in range(3):
            single = np.stack(level_fom_batch(contrib, mesh, eps[j:j + 1]))
            assert batched[:, j] == pytest.approx(single[:, 0], rel=1e-12)

    def test_zero_errors_reproduce_nominal(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(250 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        rm, sm, rp = level_fom_batch(contrib, mesh, np.zeros((1, 100), dtype=complex))
        from otazone import field_over_mesh
        ref = fom_values(mesh, field_over_mesh(layout, wave, mesh))
        assert (rm[0], sm[0], rp[0]) == pytest.approx(ref, rel=1e-12)


class TestKernelContrib:
    """The search's contrib matrix from the row-lattice kernel against element_fields."""

    @pytest.mark.parametrize("ies, d", DEFAULT_GEOMETRIES_LAMBDA)
    def test_matches_element_fields(self, wave, lam, ies, d):
        layout = ChamberSpec().layout(ies * lam)
        mesh = build_mesh(ChamberSpec().zone(wave, d * lam))
        assert _row_lattice(layout, mesh) is not None  # kernel only
        np.testing.assert_allclose(kernel_contrib(layout, wave, mesh),
                                   element_fields(layout, wave, mesh.points), rtol=1e-11, atol=0)

    def test_off_lattice_is_element_fields(self, wave, lam, monkeypatch):
        monkeypatch.setattr(tolerance, "_FACTOR_TOL", 0.0)  # B is contrib itself
        layout = ChamberSpec().layout(lam / np.sqrt(2))
        mesh = build_mesh(ChamberSpec().zone(wave, 300 * lam))
        b = _zone_factors(layout, wave, mesh)[1]
        assert b.tobytes() == element_fields(layout, wave, mesh.points).tobytes()

    def test_off_lattice_one_call_per_row_block(self, wave, lam, monkeypatch):
        layout = ChamberSpec().layout(lam / np.sqrt(2))
        mesh = build_mesh(ChamberSpec().zone(wave, 300 * lam))
        blocks = [pts for pts, _ in _kernel_blocks(layout, wave, mesh)]
        calls = []

        def recording(module):  # element_fields as looked up on ``module``
            def call(layout, wave, points):
                calls.append((module.__name__, points))
                return element_fields(layout, wave, points)
            return call

        # the sample on tolerance's name, the blocks on field's: the names the tracer wraps
        for module in (tolerance, field):
            monkeypatch.setattr(module, "element_fields", recording(module))
        assert len(_zone_factors(layout, wave, mesh)[2]) < layout.n_elements  # one pass
        assert len(blocks) > 1 and [m for m, _ in calls] == (
            ["otazone.tolerance"] + ["otazone.field"] * len(blocks))
        assert np.array_equal(calls[0][1],
                              mesh.points[_sample_rows(mesh.n_points, layout.n_elements)])
        for pts, (_, points) in zip(blocks, calls[1:]):
            assert np.array_equal(points, mesh.points[pts])
        assert np.array_equal(np.concatenate([p for _, p in calls[1:]]), mesh.points)


class TestFactor:
    """The search's fields from contrib's factors against the full product."""

    @pytest.mark.parametrize("ies, d, radius", [(ies, d, 99 / 8) for ies, d in
                                                DEFAULT_GEOMETRIES_LAMBDA] + [(0.7, 591.0, 2.0)]
                             + [pytest.param(2 ** -0.5, 300.0, 99 / 8, id="off_lattice")])
    def test_matches_full_product(self, wave, lam, ies, d, radius):
        chamber = ChamberSpec(tz_radius_lambda=radius)
        layout, mesh = chamber.layout(ies * lam), build_mesh(chamber.zone(wave, d * lam))
        factors = _zone_factors(layout, wave, mesh)
        contrib = kernel_contrib(layout, wave, mesh)
        assert len(factors[2]) == len(_matrix_factors(contrib)[2]) < 50
        eps = np.vstack([draw_errors(ExcitationErrorModel(sigma_db), 100,
                                     [(0, 1, r) for r in range(8)])
                         for sigma_db in (0.05, 0.5, 2.0)])
        np.testing.assert_allclose(level_fom_batch(factors, mesh, eps),
                                   fom_values(mesh, (1.0 + eps) @ contrib.T), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("ies, d", DEFAULT_GEOMETRIES_LAMBDA)
    def test_setup_does_not_hold_contrib(self, wave, lam, ies, d):
        layout = ChamberSpec().layout(ies * lam)
        mesh = build_mesh(ChamberSpec().zone(wave, d * lam))
        tracemalloc.start()
        try:
            factors = _zone_factors(layout, wave, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(factors[2]) < layout.n_elements  # the factors, not the fallback
        contrib_bytes = mesh.n_points * layout.n_elements * 16
        assert peak - sum(a.nbytes for a in factors) < contrib_bytes / 4

    @pytest.mark.parametrize("ies, d", [(0.7, 591.0), (2 ** -0.5, 300.0)],
                             ids=["lattice", "off_lattice"])
    def test_guard_trip_returns_contrib(self, wave, lam, ies, d, monkeypatch):
        monkeypatch.setattr(tolerance, "_FACTOR_TOL", 0.0)
        layout = ChamberSpec().layout(ies * lam)
        mesh = build_mesh(ChamberSpec().zone(wave, d * lam))
        f0, b, v = _zone_factors(layout, wave, mesh)
        contrib = kernel_contrib(layout, wave, mesh)
        assert b.tobytes() == contrib.tobytes() and b.shape == contrib.shape
        assert f0.tobytes() == contrib.sum(axis=1).tobytes()
        assert np.array_equal(v, np.eye(layout.n_elements))

    def test_guard_trip_scores_as_full_product(self, wave, lam, monkeypatch):
        monkeypatch.setattr(tolerance, "_FACTOR_TOL", 0.0)
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(ChamberSpec().zone(wave, 591 * lam))
        contrib = kernel_contrib(layout, wave, mesh)
        eps = draw_errors(ExcitationErrorModel(0.5), 100, [(0, 1, r) for r in range(20)])
        full = (contrib.sum(axis=1), contrib, np.eye(100))
        for got, want in zip(level_fom_batch(_zone_factors(layout, wave, mesh), mesh, eps),
                             level_fom_batch(full, mesh, eps), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_full_rank_chamber_is_identity_factors(self, wave, lam):
        # 4 elements: the sample keeps all 4 singular vectors, so only the V = I pass runs
        chamber = ChamberSpec(n_elements=4, taper_edge=1)
        layout, mesh = chamber.layout(0.7 * lam), build_mesh(chamber.zone(wave, 591 * lam))
        f0, b, v = _zone_factors(layout, wave, mesh)
        contrib = kernel_contrib(layout, wave, mesh)
        assert np.array_equal(v, np.eye(4))
        assert b.shape == contrib.shape and b.tobytes() == contrib.tobytes()
        assert f0.tobytes() == contrib.sum(axis=1).tobytes()

    @pytest.mark.parametrize("n_elements, sampled_rank", [(100, 100), (10, 2)])
    def test_unfactored_contrib_is_identity_factors(self, lam, n_elements, sampled_rank):
        # (100, 100): full rank, no lower rank to work in; (10, 2): rank 2 but for row 1,
        # which the sample of every 19th row misses
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        rng = np.random.default_rng(0)
        a, b = (rng.standard_normal((2, n, sampled_rank)) for n in (mesh.n_points, n_elements))
        contrib = (a[0] + 1j * a[1]) @ (b[0] + 1j * b[1]).T
        contrib[1] = rng.standard_normal(n_elements)
        f0, b, v = _matrix_factors(contrib)
        assert f0.tobytes() == contrib.sum(axis=1).tobytes()
        assert b.shape == contrib.shape and b.tobytes() == contrib.tobytes()
        assert np.array_equal(v, np.eye(n_elements))
        eps = draw_errors(ExcitationErrorModel(0.5), n_elements, [(0, 1, r) for r in range(20)])
        np.testing.assert_allclose(level_fom_batch((f0, b, v), mesh, eps),
                                   fom_values(mesh, (1.0 + eps) @ contrib.T), rtol=1e-12, atol=0)

    def test_raw_matrix_is_factored_first(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        contrib = element_fields(layout, wave, mesh.points)
        eps = draw_errors(ExcitationErrorModel(0.3), 100, [(0, 1, r) for r in range(20)])
        for got, want in zip(level_fom_batch(contrib, mesh, eps),
                             level_fom_batch(_matrix_factors(contrib), mesh, eps), strict=True):
            assert got.tobytes() == want.tobytes()


class InlineExecutor:
    """A stand-in for the scoring pool that runs each call at once in the caller's thread."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class FailingSecondProduct:
    """A factor B whose second piece product raises; the others are B's own."""

    __array_ufunc__ = None  # so ``rows @ self`` calls __rmatmul__

    def __init__(self, b):
        self.b, self.products, self.lock = b, 0, threading.Lock()

    @property
    def T(self):
        return self

    def __rmatmul__(self, rows):
        with self.lock:
            self.products += 1
            failing = self.products == 2
        if failing:
            raise RuntimeError("product failed")
        return rows @ self.b.T


class TestPiecePool:
    """level_fom_batch forms and scores its pieces of rows as tasks of a thread pool."""

    @pytest.fixture
    def level(self, wave, lam):
        layout = ChamberSpec().layout(0.7 * lam)
        mesh = build_mesh(TestZoneSpec(591 * lam, 2 * lam, lam / 8))
        eps = draw_errors(ExcitationErrorModel(0.3), 100, [(0, 1, r) for r in range(70)])
        return _matrix_factors(element_fields(layout, wave, mesh.points)), mesh, eps

    @pytest.fixture
    def scoring(self, monkeypatch):
        """Records each fom_values call's thread and rows; ``active`` counts calls running."""
        calls, active, lock, real = [], [0], threading.Lock(), tolerance.fom_values

        def recording(mesh, values):
            with lock:
                active[0] += 1
                calls.append((threading.get_ident(), len(values)))
            try:
                time.sleep(0.05)
                return real(mesh, values)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(tolerance, "fom_values", recording)
        return calls, active

    @pytest.fixture
    def two_workers(self, monkeypatch):
        """A two-worker pool in place of ``_pool()``, whatever the CPU and BLAS thread counts."""
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            monkeypatch.setattr(tolerance, "_pool", lambda: pool)
            yield

    @staticmethod
    def pieces(n):
        """The row counts of level_fom_batch's pieces of n rows of the factors, in order."""
        return [len(p) for p in np.array_split(np.empty(n), -(-n // tolerance._PIECE_ROWS))]

    def assert_stopped(self, started, active):
        """Nothing runs after the error, and the pieces not started by then never run.

        ``started()`` counts the pieces started so far.
        """
        before = started()
        assert active == [0]
        time.sleep(0.2)
        assert started() == before < len(self.pieces(70))

    def test_matches_synchronous_scoring(self, level, scoring, monkeypatch):
        calls, _ = scoring
        pooled = level_fom_batch(*level)
        assert sorted(n for _, n in calls) == sorted(self.pieces(70))
        assert max(self.pieces(70)) <= tolerance._PIECE_ROWS
        calls.clear()
        monkeypatch.setattr(tolerance, "_pool", InlineExecutor)
        inline = level_fom_batch(*level)
        assert calls == [(threading.get_ident(), n) for n in self.pieces(70)]
        for got, want in zip(pooled, inline, strict=True):
            assert got.shape == (70,) and got.tobytes() == want.tobytes()

    def test_worker_error_reaches_caller(self, level, scoring, two_workers):
        calls, active = scoring
        contrib, mesh, eps = level
        # realization 12, in the third piece, has a NaN field. Not eps = -1: that field cancels
        # only to rounding, and whether a sample is exactly zero depends on BLAS's threads.
        eps[12] = np.nan
        with pytest.raises(ValueError, match="non-finite sample"):
            level_fom_batch(contrib, mesh, eps)
        self.assert_stopped(lambda: len(calls), active)

    def test_no_piece_left_running_after_product_error(self, level, scoring, two_workers):
        calls, active = scoring
        contrib, mesh, eps = level
        f0, b, v = contrib
        failing = FailingSecondProduct(b)
        with pytest.raises(RuntimeError, match="product failed"):
            level_fom_batch((f0, failing, v), mesh, eps)
        self.assert_stopped(lambda: failing.products, active)

    def test_two_pieces_run_at_once(self, level, monkeypatch, two_workers):
        # each piece waits at the barrier until a second piece reaches it
        barrier, real = threading.Barrier(2, timeout=30), tolerance.fom_values

        def meeting(mesh, values):
            barrier.wait()
            return real(mesh, values)

        monkeypatch.setattr(tolerance, "fom_values", meeting)
        contrib, mesh, eps = level
        rows = 2 * tolerance._PIECE_ROWS  # two pieces
        got = level_fom_batch(contrib, mesh, eps[:rows])
        assert len(got[0]) == rows and not barrier.broken

    @pytest.mark.parametrize("cpus, blas, workers", [(2, 1, 2), (2, 2, 1), (1, 1, 1), (8, 2, 4),
                                                     (8, 3, 2), (2, 4, 1), (4, None, 1)])
    def test_pool_leaves_blas_its_cpus(self, monkeypatch, cpus, blas, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(tolerance, "_blas_threads", lambda: blas)
        assert tolerance._workers() == workers

    def test_blas_thread_count_is_read(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        code = "from otazone import tolerance; print(tolerance._blas_threads())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip()
        if out == "None":
            pytest.skip("numpy's BLAS does not report its thread count")
        assert out == "1"

    def test_cli_csv_matches_inline_scoring(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"geometries_lambda": [[0.7, 591.0], [1.35, 286.0]],
                                      "tz_radius_lambda": 2.0, "n_mc_tolerance": 30,
                                      "sigma_step_db": 0.05, "seed": 3}))

        def run(name):
            out = tmp_path / name
            assert main(["--config", str(config), "-o", str(out), "tolerance"]) == 0
            return out.read_bytes()

        pooled = run("pool.csv")
        monkeypatch.setattr(tolerance, "_pool", InlineExecutor)
        assert run("inline.csv") == pooled

    @pytest.mark.parametrize("fail_rule, rows", [("any", [70]), ("majority", [70 - 35 + 1])])
    def test_passing_level_rows_scored(self, level, monkeypatch, fail_rule, rows):
        contrib, mesh, _ = level
        scored = []

        def counting(contrib, mesh, eps):
            scored.append(len(eps))
            return level_fom_batch(contrib, mesh, eps)

        monkeypatch.setattr(tolerance, "level_fom_batch", counting)
        cfg = ToleranceSearchConfig(n_mc=70, fail_rule=fail_rule)
        zero = np.zeros((70, 100), dtype=complex)
        assert _failing_level_counts(contrib, mesh, zero, cfg) is None
        assert scored == rows


class TestDrawBatchStreams:
    """The search's draws: realization r of a level comes from the key (seed, level, r)."""

    def test_chunking_invariance(self):
        m = ExcitationErrorModel(0.4)
        full = draw_errors(m, 100, [(9, 3, r) for r in range(20)])
        parts = np.concatenate([draw_errors(m, 100, [(9, 3, r) for r in range(7)]),
                                draw_errors(m, 100, [(9, 3, r) for r in range(7, 20)])])
        assert np.array_equal(full, parts)

    def test_levels_decorrelated(self):
        m = ExcitationErrorModel(0.4)
        a = draw_errors(m, 100, [(9, 1, 0)])
        b = draw_errors(m, 100, [(9, 2, 0)])
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
    @pytest.mark.parametrize("fail_rule", ["any", "majority"])
    @pytest.mark.parametrize("n_mc", [1, 100])
    def test_degenerate_geometry_returns_zero(self, wave, lam, monkeypatch, fail_rule, n_mc):
        # (0.5 lam, 40 lam) already violates tier 1 with zero error: level 0 fails
        batches, draws = [], []

        def recording(contrib, mesh, eps):
            batches.append(eps.copy())
            return level_fom_batch(contrib, mesh, eps)

        def drawing(model, n, keys):
            draws.append((model.sigma_db, n, list(keys)))
            return draw_errors(model, n, keys)

        monkeypatch.setattr(tolerance, "level_fom_batch", recording)
        monkeypatch.setattr(tolerance, "draw_errors", drawing)
        cfg = ToleranceSearchConfig(n_mc=n_mc, fail_rule=fail_rule, rng_seed=5)
        res = tolerance_search(0.5 * lam, 40 * lam, wave, cfg)
        assert res.tolerated_sigma_db == 0.0
        assert res.failing_sigma_db == 0.0
        chamber = ChamberSpec()
        report = evaluate_fom(chamber.layout(0.5 * lam), wave, chamber.zone(wave, 40 * lam), TIER1)
        assert res.first_failing_fom == report.failing_foms[0]
        assert len(batches) == 1 and batches[0].shape == (1, 100) and not batches[0].any()
        assert draws == [(0.0, 100, [(5, 0, 0)])]

    def test_exceeds_cap_with_loose_limits(self, wave, lam):
        cfg = ToleranceSearchConfig(n_mc=2, max_sigma_db=0.05,
                                    limits=FomLimits(1e9, 1e9, 179.0))
        res = tolerance_search(0.7 * lam, 300 * lam, wave, cfg,
                               ChamberSpec(tz_radius_lambda=0.5))
        assert res.first_failing_fom is None
        assert res.failing_sigma_db is None
        assert res.tolerated_sigma_db == pytest.approx(0.05)

    def test_step_invariant(self, wave, lam):
        cfg = ToleranceSearchConfig(n_mc=5, rng_seed=1)
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        assert res.first_failing_fom is not None
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
            scored.append(eps.shape[0])
            return level_fom_batch(contrib, mesh, eps)

        monkeypatch.setattr(tolerance, "level_fom_batch", counting)
        cfg = ToleranceSearchConfig(n_mc=70, rng_seed=0)
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        levels = round(res.failing_sigma_db / cfg.step_db)
        # level 0's one error-free row, then all n_mc realizations of every
        # level up to and including the failing one
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
        eps = draw_errors(model, 100, [(cfg.rng_seed, level, r) for r in range(cfg.n_mc)])
        want = cfg.limits.violations(*level_fom_batch(contrib, mesh, eps)).sum(axis=1)
        for rule in ("any", "majority"):
            counts = _failing_level_counts(contrib, mesh, eps, replace(cfg, fail_rule=rule))
            assert counts.tolist() == want.tolist()
        passing = draw_errors(ExcitationErrorModel(res.tolerated_sigma_db), 100,
                              [(cfg.rng_seed, level - 1, r) for r in range(cfg.n_mc)])
        assert _failing_level_counts(contrib, mesh, passing, cfg) is None

    @pytest.mark.parametrize("fail_rule", ["any", "majority"])
    def test_one_draw_per_level(self, wave, lam, monkeypatch, fail_rule):
        calls = []

        def recording(model, n, keys):
            calls.append((model.sigma_db, n, list(keys)))
            return draw_errors(model, n, keys)

        monkeypatch.setattr(tolerance, "draw_errors", recording)
        cfg = ToleranceSearchConfig(n_mc=40, rng_seed=2, fail_rule=fail_rule, step_db=0.05,
                                    limits=FomLimits(0.05, 0.2, 2.0))
        res = tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        levels = round(res.failing_sigma_db / cfg.step_db)
        assert len(calls) == levels + 1
        assert calls[0] == (0.0, 100, [(cfg.rng_seed, 0, 0)])  # level 0: one error-free row
        for level, (sigma_db, n, keys) in enumerate(calls[1:], start=1):
            assert sigma_db == level * cfg.step_db and n == 100
            assert keys == [(cfg.rng_seed, level, r) for r in range(cfg.n_mc)]

    def test_numpy_seed_seeds_each_level_in_one_batch(self, wave, lam, monkeypatch):
        # the config stores an np.int64 seed as an int, so every level's keys are seeded at
        # once: one default_rng per draw_errors call, none at level 0's zero deviation
        streams, before = [], []
        real_draw, real_rng = tolerance.draw_errors, np.random.default_rng

        def recording(model, n, keys):
            before.append(len(streams))
            return real_draw(model, n, keys)

        def counting(*args):
            streams.append(args)
            return real_rng(*args)

        monkeypatch.setattr(tolerance, "draw_errors", recording)
        monkeypatch.setattr(np.random, "default_rng", counting)
        cfg = ToleranceSearchConfig(n_mc=20, rng_seed=np.int64(3), step_db=0.05,
                                    limits=FomLimits(0.05, 0.2, 2.0))
        assert type(cfg.rng_seed) is int
        tolerance_search(0.7 * lam, 591 * lam, wave, cfg, ChamberSpec(tz_radius_lambda=2.0))
        per_call = np.diff(before + [len(streams)]).tolist()
        assert len(per_call) > 2 and per_call == [0] + [1] * (len(per_call) - 1)

    def test_violation_mask_order(self):
        mask = FomLimits(sigma_mag_max=0.25, r_mag_max=1.0, r_phs_max=10.0).violations(
            np.array([2.0]), np.array([0.1]), np.array([20.0]))
        assert mask[:, 0].tolist() == [True, False, True]
