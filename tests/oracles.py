"""Independent routes to the spectra the library computes from (W, R).

The library evaluates every 2x2 spectrum through one resultant kernel.
These oracles take the long way round (pairwise cosines, assembled
matrices, trace and half-gap eigenvalues, a linear solve for the
closed-form recovery operator) so tests can compare the two.
The grid search's per-block evaluator is kept here too, as the reference
its grouped tables must match bit for bit, and so is a row-at-a-time
draw of the noise tables, which the one-call tables must match, and the
exhaustive scan of the localization grid start, which the pruned scan must
match node for node, over node readings recomputed from the geometry, and
the gradient of the localization residual with a central-difference Hessian
built from it, against which the solver's closed-form Hessian is checked.
"""

import itertools
import math

import numpy as np
from numpy.random import SeedSequence, default_rng

from sensedesign.core import _pair_sum
from sensedesign.search import _first_tied, _tie_floor

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


def recovery_solve(angles, idx) -> np.ndarray:
    """(A_S A_S^T)^-1 A_S by an LAPACK solve on the Gram matrix assembled from the selected columns."""
    t = np.asarray(angles.angles)[list(idx)]
    cols = np.vstack([np.cos(t), np.sin(t)])
    return np.linalg.solve(cols @ cols.T, cols)


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


def grid_block_search(n, k, g):
    """(per-block minima, coarse fixed-plus-free tuple) of the grid search, one block per outer tuple.

    The reference evaluator: every outer tuple rebuilds its whole u-v table
    from the windows that hold both free angles, then takes the row and
    column windows.  ``sensedesign.search`` must reproduce its minima bit
    for bit and its tie-rule pick.
    """
    grid = np.arange(g) * (math.pi / g)
    phasor = np.exp(2j * grid)
    ph = phasor.tolist()
    # u-v term Re(P_u conj P_v) of every free pair, +inf below the diagonal (v < u)
    cross = (phasor[:, None] * phasor.conj()).real
    cross[np.tril_indices(g, -1)] = math.inf

    # Sorted, the n-2 fixed angles (pinned 0, then the outer tuple) come first
    # and the free pair u <= v last; by the arc argument the worst subset is one
    # of the n circular windows.  Each window keeps its fixed positions and
    # whether it holds u (position n-2) and v (position n-1).
    m = n - 2
    windows = sorted({tuple(sorted((p + j) % n for j in range(k))) for p in range(n)})
    split = [([q for q in w if q < m], m in w, m + 1 in w) for w in windows]

    def block(fixed: tuple[int, ...]) -> np.ndarray:
        """Worst window S of (*fixed, u, v) for grid points fixed[-1] <= u <= v; +inf where v < u."""
        r0 = fixed[-1]
        free = phasor[r0:]
        both, rows, cols = -math.inf, np.full(g - r0, -math.inf), np.full(g - r0, -math.inf)
        for own, has_u, has_v in split:
            r = sum(ph[fixed[q]] for q in own)
            s = _pair_sum(len(own), r)
            if not (has_u or has_v):  # a constant; folding it into the u rows is exact
                np.maximum(rows, s, out=rows)
                continue
            a = r.real * free.real + r.imag * free.imag  # Re(conj(r) P) for each free angle P
            if has_u and has_v:
                both = np.maximum(both, (s + a)[:, None] + a)
            else:
                side = rows if has_u else cols
                np.maximum(side, s + a, out=side)
        out = both + cross[r0:, r0:]
        np.maximum(out, rows[:, None], out=out)
        return np.maximum(out, cols, out=out)

    def fixed_tuples():
        return ((0, *outer) for outer in itertools.combinations_with_replacement(range(g), n - 3))

    # tie rule: the first block, in enumeration order, whose minimum is tied
    # with the smallest, then its first row-major entry at or below the ceiling
    minima = np.fromiter((block(fixed).min() for fixed in fixed_tuples()), float)
    fixed = next(itertools.islice(fixed_tuples(), _first_tied(-minima), None))
    ceiling = -_tie_floor(-float(minima.min()))
    u, v = divmod(int(np.argmax(block(fixed) <= ceiling)), g - fixed[-1])
    return minima, (*fixed, fixed[-1] + u, fixed[-1] + v)


def trial_noise(key, trials, size) -> np.ndarray:
    """Standard normal (trials, size) table, rows drawn one at a time from default_rng(SeedSequence(key))."""
    rng = default_rng(SeedSequence(key))
    return np.array([rng.standard_normal(size) for _ in range(trials)])


def node_readings(table) -> tuple[np.ndarray, np.ndarray]:
    """Predicted readings mu (k, nodes) at the start table's nodes, and their squared norms mu_sq.

    Recomputed from the geometry, ln A - path_loss * ln hypot(sensor - node),
    not gathered back from the table's tiles; mu_sq adds the squares sensor by
    sensor, left to right.
    """
    pos, nodes = table.pos, table.nodes
    d = np.hypot(pos[:, :1] - nodes[:, 0], pos[:, 1:] - nodes[:, 1])
    mu = table.log_amplitude - table.path_loss * np.log(d)
    mu_sq = mu[0] * mu[0]
    for row in mu[1:]:
        mu_sq = mu_sq + row * row
    return mu, mu_sq


def grid_start(table, y) -> np.ndarray:
    """Best grid node of every row of y by scoring every node, eight rows at a time.

    The score is mu_sq - 2 sum_i y_i mu_i over ``node_readings``, computed
    elementwise as y_0 mu_0, += y_i mu_i, *= -2, += mu_sq, and ``argmin`` takes
    the first minimum.
    """
    mu, mu_sq = node_readings(table)
    score = np.empty((min(len(y), 8), len(table.nodes)))
    term = np.empty_like(score)
    best = np.empty(len(y), dtype=np.intp)
    for lo in range(0, len(y), 8):
        block = y[lo : lo + 8]
        s, t = score[: len(block)], term[: len(block)]
        np.multiply(block[:, :1], mu[0], out=s)
        for i in range(1, block.shape[1]):
            s += np.multiply(block[:, i : i + 1], mu[i], out=t)
        s *= -2.0
        s += mu_sq
        best[lo : lo + len(block)] = np.argmin(s, axis=1)
    return best


def rss_gradient(p, sensors, c, beta) -> list[float]:
    """Gradient of sum_i r_i^2, r_i = c_i + beta ln |p - s_i|, added sensor by sensor in Python floats.

    Each term is 2 r_i beta (p - s_i) / |p - s_i|^2.
    """
    g = [0.0, 0.0]
    for (sx, sy), ci in zip(sensors, c):
        dx, dy = p[0] - sx, p[1] - sy
        q = dx * dx + dy * dy
        r = ci + 0.5 * beta * math.log(q)
        g[0] += 2.0 * r * beta * dx / q
        g[1] += 2.0 * r * beta * dy / q
    return g


def rss_hessian(p, sensors, c, beta) -> np.ndarray:
    """Hessian of sum_i r_i^2 at p by central differences of ``rss_gradient``: column k is d(gradient)/dp_k.

    The step is 1e-4 of the distance from p to its nearest sensor, the length over which the residual's
    curvature changes.
    """
    step = 1e-4 * min(math.hypot(p[0] - sx, p[1] - sy) for sx, sy in sensors)
    cols = []
    for k in range(2):
        hi, lo = [float(p[0]), float(p[1])], [float(p[0]), float(p[1])]
        hi[k] += step
        lo[k] -= step
        plus, minus = rss_gradient(hi, sensors, c, beta), rss_gradient(lo, sensors, c, beta)
        cols.append([(a - b) / (hi[k] - lo[k]) for a, b in zip(plus, minus)])
    return np.array(cols).T
