"""Independent routes to the spectra the library computes from (W, R).

The library evaluates every 2x2 spectrum through one resultant kernel.
These oracles take the long way round (pairwise cosines, assembled
matrices, trace and half-gap eigenvalues) so tests can compare the two.
"""

import itertools
import math

import numpy as np

TIE_TOL = 1e-12
RANK_TOL_SCALE = 1e-12


def pair_cosine_sum_loop(angles, idx) -> float:
    """S = sum over index pairs j < l of cos 2(t_l - t_j), term by term."""
    t = angles.angles
    idx = tuple(idx)
    s = 0.0
    for j, a in enumerate(idx):
        for b in idx[j + 1 :]:
            s += math.cos(2.0 * (t[b] - t[a]))
    return s


def eigenvalues_2x2(m) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric 2x2 matrix from its trace and half-gap."""
    mid = 0.5 * (m[0][0] + m[1][1])
    half_gap = math.hypot(0.5 * (m[0][0] - m[1][1]), m[0][1])
    return max(mid - half_gap, 0.0), mid + half_gap


def gram_eigenvalues_direct(angles, idx) -> tuple[float, float]:
    """Gram spectrum of a subset from G = sum a_i a_i^T, accumulated column by column."""
    g00 = g01 = g11 = 0.0
    for i in idx:
        c = math.cos(angles.angles[i])
        s = math.sin(angles.angles[i])
        g00 += c * c
        g01 += c * s
        g11 += s * s
    return eigenvalues_2x2([[g00, g01], [g01, g11]])


def fim_matrix_direct(scenario, idx, prefactor=1.0) -> np.ndarray:
    """prefactor * sum over the sensors of rel rel^T / d^4, one sensor at a time."""
    z = np.asarray(scenario.source, dtype=float)
    mat = np.zeros((2, 2))
    for i in idx:
        rel = np.asarray(scenario.sensor_positions[i], dtype=float) - z
        mat += np.outer(rel, rel) / float(rel @ rel) ** 2
    return prefactor * mat


def worst_fim_direct(scenario, k) -> tuple[tuple[int, ...], float]:
    """Worst-conditioned FIM subset by the tie rule, scoring each subset's direct matrix."""
    scored = []
    for idx in itertools.combinations(range(scenario.n), k):
        m = fim_matrix_direct(scenario, idx)
        lo, hi = eigenvalues_2x2(m)
        cond = math.inf if lo <= RANK_TOL_SCALE * (m[0, 0] + m[1, 1]) else hi / lo
        scored.append((cond, idx))
    top = max(c for c, _ in scored)
    floor = top if math.isinf(top) else top - TIE_TOL * max(1.0, abs(top))
    return next((idx, c) for c, idx in scored if c >= floor)
