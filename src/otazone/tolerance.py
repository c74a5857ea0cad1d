"""Monte-Carlo search for the largest tolerated complex excitation error.

The error of each element is a complex Gaussian, eps = N(0, s) + j*N(0, s),
applied multiplicatively as (1 + eps) * taper. The dB-scale deviation maps
to linear scale as s = 10^(s_dB/20) - 1. The search raises s_dB in fixed
steps until a level fails; two level-fail rules are available:

  "any"      - a level fails as soon as one of its n_mc realizations
               violates any figure of merit: a lower bound at the default
               n_mc = 100. The mean over seeds of n_mc = 1 searches (config
               ``n_mc_tolerance: 1``) matches the paper's table (README);
  "majority" - a level fails when at least half of its realizations
               violate: an estimate of the deviation at which half violate,
               above those n_mc = 1 means (seed 0: 0.08 to 0.65 dB).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .field import ArrayLayout, WaveSpec, checked_int, element_fields
from .testzone import (FOM_ORDER, ChamberSpec, FomLimits, TIER1, TestZoneMesh, build_mesh,
                       element_field_blocks, fom_values)

# 20 * log10(DBL_MAX): from here on the linear scale 10^(sigma_db/20) overflows
_MAX_SIGMA_DB = 20.0 * math.log10(np.finfo(float).max)


@dataclass(frozen=True)
class ExcitationErrorModel:
    """Complex Gaussian excitation error with dB-parameterized deviation."""

    sigma_db: float

    def __post_init__(self):
        if not 0 <= self.sigma_db < _MAX_SIGMA_DB:
            raise ValueError(f"sigma_db must be >= 0 and below {_MAX_SIGMA_DB:.2f} dB")

    @property
    def sigma_linear(self) -> float:
        return 10.0 ** (self.sigma_db / 20.0) - 1.0


# numpy's SeedSequence hash and PCG64 multiplier (in 64-bit halves); NEP 19 keeps both stable
_M32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 2**32 - 1, 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(entry: int) -> tuple:
    """The little-endian 32-bit words SeedSequence splits a non-negative int into (0 is one)."""
    return tuple((entry >> shift) & _M32 for shift in range(0, max(entry.bit_length(), 1), 32))


def _pcg64_states(rows: Sequence[tuple]) -> Tuple[list, list]:
    """The PCG64 states and incs of ``default_rng(row)`` per tuple of non-negative ints."""
    if max(itertools.chain.from_iterable(rows), default=0) > _M32:  # some entry is split
        rows = [r if max(r, default=0) <= _M32 else sum(map(_uint32_words, r), ()) for r in rows]
    # SeedSequence's hash, on all rows at once in wrapping uint32 arithmetic; entropy shorter
    # than the 4-word pool mixes as if zero-padded
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    width = lens.max()
    columns = itertools.chain.from_iterable(itertools.zip_longest(*rows, fillvalue=0))
    words = np.zeros((max(width, 4), len(rows)), dtype=np.uint32)
    words[:width] = np.fromiter(columns, np.uint32, width * len(rows)).reshape(width, len(rows))
    lens = lens.clip(4)
    h = [_INIT_A, _MULT_A]

    def hashmix(v, k):  # k successive hashmix calls, one per row of the result
        c = [h[0] * pow(h[1], j, 2**32) & _M32 for j in range(k + 1)]  # h0 * mult**j
        h[0], c = c[-1], np.array(c, dtype=np.uint32)[:, None]
        v = (v ^ c[:-1]) * c[1:]
        return v ^ (v >> np.uint32(16))

    pool = hashmix(words[:4], 4)
    for src in range(len(words)):  # the pool, then each row's entropy beyond it
        dst = [d for d in range(4) if d != src]
        m = (np.uint32(_MIX_L) * pool[dst]
             - np.uint32(_MIX_R) * hashmix(pool[src] if src < 4 else words[src], len(dst)))
        pool[dst] = np.where(lens > src, m ^ (m >> np.uint32(16)), pool[dst])
    h[:] = _INIT_B, _MULT_B
    out = hashmix(np.tile(pool, (2, 1)), 8).astype(np.uint64)
    a, b, c, d = out[0::2] | out[1::2] << np.uint64(32)  # seed a:b, sequence c:d, high first
    # PCG64's seeding mod 2**128, on (high, low) 64-bit halves: inc = 2 * sequence + 1 and
    # state = (seed + inc) * mult + inc
    inc = c << 1 | d >> 63, d << 1 | 1
    hi, lo = _add128((a, b), inc)
    state = _add128((hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi(lo, _PCG_MULT_LO),
                     lo * _PCG_MULT_LO), inc)

    def join(high, low):  # the 128-bit Python ints of (high, low) halves
        return [x << 64 | y for x, y in zip(high.tolist(), low.tolist())]

    return join(*state), join(*inc)


def _add128(x, y):
    """x + y mod 2**128 for (high, low) pairs of uint64 arrays."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _mulhi(x, y):
    """The high 64 bits of x * y for a uint64 array x and an int y < 2**64, by 32-bit halves."""
    x1, x0, y1, y0 = x >> 32, x & _M32, y >> 32, y & _M32
    lo_lo, hi_lo = x0 * y0, x1 * y0
    cross = (lo_lo >> 32) + (hi_lo & _M32) + x0 * y1
    return x1 * y1 + (hi_lo >> 32) + (cross >> 32)


def draw_errors(model: ExcitationErrorModel, n: int, keys: Sequence) -> np.ndarray:
    """One row of n i.i.d. complex errors per key, each part N(0, sigma_linear).

    Row i is ``default_rng(keys[i]).standard_normal((2, n))`` bit for bit.
    Each key is a non-negative int or a tuple of them (else TypeError or
    ValueError); all are seeded at once and one generator is re-keyed per
    row. At zero deviation no stream is built and no key is checked.
    """
    s = model.sigma_linear
    rows = [(k,) if type(k) is int else k for k in keys]
    if s == 0.0 or not rows:
        return np.zeros((len(rows), n), dtype=complex)
    entries = itertools.chain.from_iterable
    if not ({tuple} >= set(map(type, rows)) and {int} >= set(map(type, entries(rows)))
            and min(entries(rows), default=0) >= 0):
        for key, row in zip(keys, rows):  # the first bad key names the error
            if type(row) is not tuple or not all(type(e) is int for e in row):
                raise TypeError(f"key {key!r} is not a non-negative int or a tuple of them")
            if min(row, default=0) < 0:
                raise ValueError(f"key {key!r} has a negative entry")
    parts = np.empty((len(keys), 2, n))
    gen = np.random.default_rng(keys[0])  # key 0's own stream, re-keyed per row
    pcg = {}  # one state dict, refilled per row
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}
    bits, draw = gen.bit_generator, gen.standard_normal
    for row, pcg["state"], pcg["inc"] in zip(parts, *_pcg64_states(rows)):
        bits.state = state
        draw(out=row)
    out = np.empty((len(keys), n), dtype=complex)
    np.multiply(parts[:, 0], s, out=out.real)
    np.multiply(parts[:, 1], s, out=out.imag)
    return out


@dataclass(frozen=True)
class ToleranceSearchConfig:
    step_db: float = 0.01
    n_mc: int = 100
    limits: FomLimits = TIER1
    rng_seed: int = 0
    max_sigma_db: float = 2.0
    fail_rule: str = "any"

    def __post_init__(self):
        if not 0 < self.step_db < np.inf:
            raise ValueError("step_db must be positive and finite")
        if not self.step_db <= self.max_sigma_db < _MAX_SIGMA_DB:
            raise ValueError(f"max_sigma_db must be at least one step_db and below "
                             f"{_MAX_SIGMA_DB:.2f} dB")
        for name, least in (("n_mc", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        if self.fail_rule not in ("any", "majority"):
            raise ValueError("fail_rule must be 'any' or 'majority'")


@dataclass(frozen=True)
class ToleranceResult:
    tolerated_sigma_db: float
    first_failing_fom: Optional[str]
    failing_sigma_db: Optional[float]


# Rows of errors in level_fom_batch's largest piece. Each worker keeps the memory of its
# largest piece: pieces of 8 rows peaked 8 MB higher than pieces of 6 on the tolerance
# benchmark.
_PIECE_ROWS = 6
# _factor's singular-value cut, relative to the largest, and its factor tolerance, relative
# to ||contrib||_F (the factors miss contrib by 1-2e-13 of that on the reference geometries)
_RANK_CUT, _FACTOR_TOL = 1e-13, 1e-12
# Rows per block when _factor reads a matrix that is already formed
_MATRIX_BLOCK_ROWS = 1024


def _sample_rows(n_points: int, n_elements: int) -> slice:
    """The rows of contrib that ``_factor`` samples: every s-th, leaving >= 4 * n_elements."""
    return slice(None, None, max(1, n_points // (4 * n_elements)))


def _factor(sample: np.ndarray, blocks, n_points: int):
    """``(f0, B, V)`` with contrib ~ B @ V and f0 = contrib.sum(axis=1), the error-free field.

    Each piece's fields are then E = f0 + (eps @ V^T) @ B^T. contrib,
    (n_points, n_elements), is never held: ``sample`` is its
    ``_sample_rows`` and ``blocks()`` yields (rows, contrib[rows]) for
    slices that cover every row once. V holds the right singular vectors
    of the sample whose singular values exceed _RANK_CUT of the largest.
    One pass over the blocks writes each block's rows of f0 and of
    B = contrib @ V^H and adds its share of ||contrib||_F and
    ||contrib - B @ V||_F, both scaled by the top sample singular value so
    no square overflows; no block is held while the next is read. If V
    keeps all n_elements rows, or the residual exceeds _FACTOR_TOL of the
    norm, a second pass runs with V = I and copies each block into B, so
    the factors are (contrib.sum(axis=1), contrib, I), the full product.
    """
    s, vh = np.linalg.svd(sample, full_matrices=False)[1:]
    del sample  # neither it nor its left singular vectors are held through the pass
    v, eye = vh[s > _RANK_CUT * s[0]], np.eye(vh.shape[1])
    for v in ([v] if len(v) < len(eye) else []) + [eye]:
        # B is the transpose of a C-ordered (k, n_points) array: B C-ordered as
        # (n_points, k) made the pieces' products (eps @ V^T) @ B^T slower
        f0, bt = np.empty(n_points, dtype=complex), np.empty((len(v), n_points), dtype=complex)
        v_conj, v_scaled = v.conj(), v / s[0]
        resid = norm = 0.0
        for rows, block in blocks():
            f0[rows] = block.sum(axis=1)
            if v is eye:
                bt[:, rows] = block.T
            else:
                bt[:, rows] = v_conj @ block.T
                block = block / s[0]
                norm += np.vdot(block, block).real
                block -= bt[:, rows].T @ v_scaled
                resid += np.vdot(block, block).real
            del block  # not held while the next block is read
        if v is eye or resid <= _FACTOR_TOL ** 2 * norm:
            return f0, bt.T, v
        del f0, bt  # not held beside the second pass's


def _matrix_factors(contrib: np.ndarray):
    """``_factor`` of a formed (n_points, n_elements) matrix, read in its own row slices."""
    def blocks():
        for lo in range(0, len(contrib), _MATRIX_BLOCK_ROWS):
            yield slice(lo, lo + _MATRIX_BLOCK_ROWS), contrib[lo:lo + _MATRIX_BLOCK_ROWS]

    return _factor(contrib[_sample_rows(*contrib.shape)], blocks, len(contrib))


def _blas_threads() -> Optional[int]:
    """The thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            count = getattr(lib, name, None)
            if count is not None:
                count.restype = ctypes.c_int
                return count()
    return None


def _workers() -> int:
    """Workers of ``_pool``: the CPUs the process may use, over the threads BLAS runs.

    Where BLAS's count cannot be asked, it is taken to run one thread per
    CPU, so the pool has one worker. Measured on 2 CPUs only: two workers
    with BLAS pinned to one thread, one worker with BLAS unpinned, where
    two workers beside BLAS's two threads ran acceptance 4 about 13%
    slower than one.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // (_blas_threads() or cpus))


@functools.cache
def _pool():
    """The thread pool that forms and scores pieces, with ``_workers()`` workers.

    Built on first use, so importing the CLI loads no ``concurrent.futures``,
    and kept for the life of the process: pools made and joined per call
    left each level's fresh threads new malloc arenas, about 8 MB more peak
    RSS over the five reference searches. A worker thread starts only when
    a piece finds none idle.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_workers())


def _piece_foms(factors, mesh: TestZoneMesh, piece: np.ndarray):
    """FoM triples of one piece of rows: fields f0 + (piece @ V^T) @ B^T, then ``fom_values``."""
    f0, b, v = factors
    values = (piece @ v.T) @ b.T
    values += f0
    return fom_values(mesh, values)


def level_fom_batch(contrib, mesh: TestZoneMesh,
                    eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FoM triples for a batch of error realizations.

    ``contrib`` is the ``_factor`` triple (f0, B, V) of the (n_points,
    n_elements) error-free per-element field matrix, or that matrix, which
    is factored first (``_matrix_factors``); ``eps`` is (batch,
    n_elements), one realization per row. Returns per-realization arrays
    (r_mag, sigma_mag, r_phs), each of length batch.

    The rows go in near-equal pieces of at most _PIECE_ROWS (100 rows are
    17 pieces of 5 or 6). Each piece, its product and then its scoring, is
    one task of ``_pool()``; numpy and BLAS release the interpreter lock
    for both, so with BLAS on one thread the pieces run on every CPU at
    once, and with BLAS on every CPU one worker runs them. The results are
    joined in piece order. On any error the pieces not yet started are
    cancelled and the running ones awaited before the error is raised.
    """
    from concurrent.futures import wait

    if not isinstance(contrib, tuple):
        contrib = _matrix_factors(contrib)
    pool = _pool()
    pieces = np.array_split(eps, max(1, -(-len(eps) // _PIECE_ROWS)))
    tasks = [pool.submit(_piece_foms, contrib, mesh, piece) for piece in pieces]
    try:
        parts = [task.result() for task in tasks]
    except BaseException:
        for task in tasks:
            task.cancel()
        wait(tasks)
        raise
    return tuple(np.concatenate(f) for f in zip(*parts))


def _failing_level_counts(factors, mesh, eps, cfg) -> Optional[np.ndarray]:
    """Per-FoM violation counts over the realizations (rows of ``eps``) of a failing level.

    None if the level passes. ``level_fom_batch`` scores the first
    n - need_fail + 1 rows, the whole level under "any"; under "majority"
    it scores the rest only if those held a violation, since without one
    the level can no longer fail. Each row is scored at most once.
    """
    n = len(eps)
    need_fail = 1 if cfg.fail_rule == "any" else (n + 1) // 2
    stride = n - need_fail + 1
    viol = cfg.limits.violations(*level_fom_batch(factors, mesh, eps[:stride]))
    if stride < n and viol.any():
        viol = np.hstack([viol, cfg.limits.violations(*level_fom_batch(factors, mesh,
                                                                       eps[stride:]))])
    return viol.sum(axis=1) if viol.any(axis=0).sum() >= need_fail else None


def _zone_factors(layout: ArrayLayout, wave: WaveSpec, mesh: TestZoneMesh):
    """contrib's ``_factor`` triple from ``element_field_blocks``, read on the calling thread.

    ``perfbench/tracer.py`` keeps one span stack for all threads, so no field is read on the pool.
    """
    return _factor(element_fields(layout, wave,
                                  mesh.points[_sample_rows(mesh.n_points, layout.n_elements)]),
                   lambda: element_field_blocks(layout, wave, mesh), mesh.n_points)


def tolerance_search(ies: float, distance: float, wave: WaveSpec,
                     cfg: ToleranceSearchConfig,
                     chamber: ChamberSpec = ChamberSpec()) -> ToleranceResult:
    """Largest error deviation (dB) the geometry tolerates at every FoM.

    ``chamber`` gives the array at spacing ``ies`` and the test zone at
    ``distance``. Level 0 is one error-free realization, keyed (seed, 0, 0);
    level k > 0 runs ``n_mc`` fresh ones at k steps. Each level fails per
    ``cfg.fail_rule``. Realization streams are keyed by (seed, level,
    realization), so results do not depend on evaluation order, piece size
    or thread count. ``level_fom_batch`` scores them from ``_zone_factors``'s
    triple, whose fields agree with the full product to about 1e-12 relative.

    Returns the last passing level and the failing FoM attributed by
    majority vote over the violating realizations at the failing level
    (ties broken in the order R_mag, sigma_mag, R_phs); a failing level 0
    tolerates 0 dB. If nothing fails up to ``max_sigma_db`` there is no
    failing FoM (the search hit the cap).
    """
    layout = chamber.layout(ies)
    mesh = build_mesh(chamber.zone(wave, distance))
    factors = _zone_factors(layout, wave, mesh)
    for level in itertools.count():
        sigma_db = level * cfg.step_db
        if sigma_db > cfg.max_sigma_db + 1e-12:
            return ToleranceResult((level - 1) * cfg.step_db, None, None)
        keys = [(cfg.rng_seed, level, r) for r in range(cfg.n_mc if level else 1)]
        eps = draw_errors(ExcitationErrorModel(sigma_db), layout.n_elements, keys)
        counts = _failing_level_counts(factors, mesh, eps, cfg)
        if counts is not None:
            failing = FOM_ORDER[int(np.argmax(counts))]
            return ToleranceResult(max(level - 1, 0) * cfg.step_db, failing, sigma_db)
