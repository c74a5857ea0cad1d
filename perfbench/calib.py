"""Machine-speed calibration kernel, timed in a helper process.

The benchmark's host is a small shared VM whose CPU speed drifts by 20-40%
over tens of seconds as other tenants come and go; raw op times of the same
work then spread by 10-25% between runs. A program-independent kernel
that slows down with the ops lets the benchmark take most of that drift
out: each timed invocation is bracketed by one call of ``kernel`` and the
benchmark reports

    normalized seconds = wall seconds * REF_S / mean(kernel before, kernel after),

the wall time on a machine where the kernel takes REF_S. The kernel uses
numpy only, never otazone, so a change to the program cannot move it.

It runs the three workloads' kinds of work at their scale: element-field
superposition over 15 000 points with dB statistics, a 30 000 x 100
complex excitation matmul with dB and circular-phase statistics, and two
thousand small keyed RNG streams with combiner algebra. Kernels with small
working sets tracked the memory-bound ops poorly, and this one tracked all
three workloads at least as well as a kernel that copies one workload's
work (README.md gives the measurements). Its working set is about 160 MB,
more than a precode op's, so it runs in a helper process: the workload
process's peak resident memory, a metric, stays the op's own. REF_S is
the kernel's typical time on the 2-vCPU x86-64 VM the benchmark was
defined on; it only fixes the scale.

    python3 calib.py    # the helper: one kernel time per line read on stdin
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

REF_S = 0.2
_LAMBDA = 299792458.0 / 28e9
_K = 2.0 * math.pi / _LAMBDA
_XE = (np.arange(100) - 49.5) * 0.7 * _LAMBDA
_PX = np.linspace(-12.0, 12.0, 15000) * _LAMBDA
_PY = 400.0 * _LAMBDA
_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((1000, 100)) + 1j * _RNG.standard_normal((1000, 100))
_B = 1.0 + 0.01 * (_RNG.standard_normal((100, 32)) + 1j * _RNG.standard_normal((100, 32)))
_H = _RNG.standard_normal((2, 49)) + 1j * _RNG.standard_normal((2, 49))
_W = 1.0 + 0.01 * _RNG.standard_normal((1000, 49, 2))


def kernel() -> None:
    """Field superposition, Monte-Carlo FoM statistics, keyed streams and combiners."""
    r = np.hypot(_PX[:, None] - _XE[None, :], _PY)
    amp = 1.0 / r
    e = np.empty(r.shape, dtype=complex)
    e.real = amp * np.cos(_K * r)
    e.imag = -amp * np.sin(_K * r)
    np.std(20.0 * np.log10(np.abs(e.sum(axis=1))))

    v = np.tile(_A, (30, 1)) @ _B
    (10.0 * np.log10(v.real ** 2 + v.imag ** 2)).std(axis=0)
    ph = np.degrees(np.arctan2(v.imag, v.real)) % 360.0
    np.sort(ph.reshape(300, 100, 32), axis=1)
    for i in range(100):
        np.random.default_rng([0, 1, i]).standard_normal((2, 100))

    for i in range(2000):
        np.random.default_rng([0, 0, 1, 2, i]).standard_normal((2, 98))
    g = np.einsum("un,mnv->muv", _H, _H.conj().T[None, :, :] * _W)
    np.log2(1.0 + np.abs(g[:, 0, 0]) ** 2).mean()


class Calibrator:
    """Times the kernel in a helper process; ``normalize`` scales a wall time to REF_S speed.

    Use it as a context manager. The helper exits when its stdin closes,
    which also happens when the workload process dies.
    """

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.sample()  # the first call pays for first-touch costs
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with {self._proc.wait()}")
        return float(line)

    @staticmethod
    def normalize(wall_s: float, before_s: float, after_s: float) -> float:
        return wall_s * REF_S / (0.5 * (before_s + after_s))


if __name__ == "__main__":
    for _ in sys.stdin:
        t0 = perf_counter()
        kernel()
        print(perf_counter() - t0, flush=True)
