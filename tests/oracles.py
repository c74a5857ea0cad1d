"""Independent reference implementations used to cross-check the library.

These deliberately avoid the production code paths: the field oracle sums
per-element terms in 40-digit arithmetic with mpmath, the combiner oracle
goes through SVD-based pseudo-inversion, the SINR oracle estimates
signal/interference/noise powers from simulated symbols, and the frontier
oracle compares every pair of compliant cells.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 40

_C = mp.mpf(299792458)


def field_oracle(frequency, ies_lambda, taper, point_lambda):
    """E_z by direct high-precision summation; geometry given in wavelengths."""
    lam = _C / mp.mpf(frequency)
    k = 2 * mp.pi / lam
    n = len(taper)
    ies = mp.mpf(str(ies_lambda)) * lam
    px = mp.mpf(str(point_lambda[0])) * lam
    py = mp.mpf(str(point_lambda[1])) * lam
    total = mp.mpc(0)
    for i in range(n):
        x = (mp.mpf(i) - mp.mpf(n - 1) / 2) * ies
        r = mp.sqrt((px - x) ** 2 + py ** 2)
        total += mp.mpf(str(taper[i])) * mp.e ** (-1j * k * r) / (4 * mp.pi * r)
    return complex(total)


def taper_db_oracle(n_elements, n_edge, depth_db, endpoint="inclusive"):
    """Per-element dB profile evaluated straight from the ramp definition."""
    db = [mp.mpf(0)] * n_elements
    for m in range(n_edge):
        if endpoint == "inclusive":
            ramp = mp.mpf(depth_db) * m / (n_edge - 1) if n_edge > 1 else mp.mpf(depth_db)
        else:
            ramp = mp.mpf(depth_db) * (m + 1) / n_edge
        db[n_edge - 1 - m] = ramp
        db[n_elements - n_edge + m] = ramp
    return [float(10 ** (d / 20)) for d in db]


def zf_oracle(h):
    """Right pseudo-inverse via SVD (numpy.linalg.pinv)."""
    return np.linalg.pinv(h)


def sinr_symbol_oracle(h, w, snr_db, n_symbols=1_000_000, seed=1234):
    """Estimate per-user SINR by transmitting random QPSK-like symbols.

    Unit-variance complex Gaussian symbols per user at power rho, unit
    noise per receive element, linear combining with the columns of w.
    """
    rng = np.random.default_rng(seed)
    rho = 10.0 ** (snr_db / 10.0)
    n_users, n_rx = h.shape
    s = (rng.standard_normal((n_users, n_symbols)) +
         1j * rng.standard_normal((n_users, n_symbols))) / np.sqrt(2)
    out = []
    for u in range(n_users):
        v = 1 - u
        # separate passes isolate signal, interference, and noise powers
        sig = np.sqrt(rho) * (h[u] @ w[:, u]) * s[u]
        intf = np.sqrt(rho) * (h[v] @ w[:, u]) * s[v]
        noise = ((rng.standard_normal((n_rx, n_symbols)) +
                  1j * rng.standard_normal((n_rx, n_symbols))) / np.sqrt(2))
        nz = w[:, u] @ noise
        out.append(np.mean(np.abs(sig) ** 2) /
                   (np.mean(np.abs(intf) ** 2) + np.mean(np.abs(nz) ** 2)))
    return tuple(out)


def circular_range_bruteforce(phases_deg):
    """Circular phase spread by testing every rotation of the circle."""
    ph = np.mod(np.asarray(phases_deg, dtype=float), 360.0)
    best = 360.0
    for cut in ph:
        shifted = np.mod(ph - cut, 360.0)
        best = min(best, shifted.max() - shifted.min())
    return min(best, 180.0)


def compact_frontier_bruteforce(cmap, tier_index):
    """Pareto-minimal compliant (L, D) pairs, each checked against every other."""
    compliant = [(c.length, c.d) for c in cmap.cells if c.reports[tier_index].passed]
    frontier = []
    for l1, d1 in compliant:
        dominated = any(
            (l2 <= l1 and d2 <= d1 and (l2 < l1 or d2 < d1))
            for l2, d2 in compliant)
        if not dominated:
            frontier.append((l1, d1))
    return sorted(set(frontier))
