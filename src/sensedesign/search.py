"""Worst-subset scan and minimax search over angle configurations.

The design objective is the worst (largest) pair-cosine sum S over all
K-column subsets; by the closed-form spectrum, maximizing S is the same as
maximizing the Gram condition number and minimizing sigma_min, so a single
scan serves all three views.

``worst_subset`` never enumerates the C(n, K) subsets.  With equal weights,
2*S + K = |R|^2 for the resultant R of the doubled-angle phasors exp(2i t).
If R* is the resultant of a worst subset and phi its direction, then
|R*| = Re(exp(-i phi) R*) is at most the sum of the K largest values of
cos(2 t_j - phi) over all lines, and those K lines form an arc of the
doubled-angle circle: a contiguous circular window in sorted-line order.
That window's resultant is at least as long, so some window is a worst
subset, and every worst subset is a window whose two end lines may be only
partly taken.  Sorting plus one cumulative sum scores all n windows, and
the windows within a screening slack of the best are re-scored from their
own K phasors, so a scan costs O(n log n + n K) (n K log K when every
window ties, for sorting the candidate index tuples).

Tie rule: subsets whose S lies within ``TIE_TOL * max(1, |S|)`` of the
largest count as tied, and the lexicographically smallest index tuple among
*all* tied K-subsets is reported.  Lines closer than ``LINE_TOL`` (mod pi,
so the line next to pi wraps onto the one at 0) are one line; any of their
indices may fill a window, so each end line contributes its smallest.

``minimax_grid_search`` minimizes that worst case over configurations.  The
objective is invariant under a common rotation and under relabeling, so the
first angle is pinned at 0 and the remaining n-1 angles are enumerated as
non-decreasing tuples on a uniform grid over [0, pi).  The non-decreasing
restriction is lossless and cuts the grid by about (n-1)!, which is what
makes n = 5 at the default density tractable.  The last two angles are
evaluated as one vectorized block per outer tuple, over the n windows of
each sorted configuration rather than all C(n, K) of its subsets.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AngleSet, SpectralSummary, SubsetSelection, _pair_sum, _summary

# hard ceiling on grid configurations actually evaluated
EVALUATION_GUARD = 1_000_000_000
# lines closer than this (radians, mod pi) are one line for the tie rule
LINE_TOL = 1e-12
# relative tolerance of the tie rule (see _tie_floor)
TIE_TOL = 1e-12
# local refinement halves its step after a sweep without improvement
REFINE_SHRINK = 0.5
EPS = sys.float_info.epsilon


class ResourceLimitError(RuntimeError):
    """Raised when a search would exceed the evaluation budget."""


@dataclass(frozen=True)
class WorstCaseReport:
    """Worst K-subset of one configuration, with its spectrum."""

    worst_subset: SubsetSelection
    objective: float
    summary: SpectralSummary
    subsets_evaluated: int


@dataclass(frozen=True)
class MinimaxSearchConfig:
    n: int
    k: int = 3
    grid_points_per_angle: int = 180
    refine_iterations: int = 200

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"search needs n >= 3, got n={self.n}")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if self.grid_points_per_angle < 2:
            raise ValueError("grid_points_per_angle must be at least 2")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be nonnegative")


def _tie_floor(top: float) -> float:
    """Lowest score tied with ``top``: within TIE_TOL * max(1, |top|) of it, or equal when it is inf."""
    return top if math.isinf(top) else top - TIE_TOL * max(1.0, abs(top))


def _first_tied(scores: Sequence[float]) -> int:
    """Index of the first score tied with the largest one (0 when NaN scores compare with none)."""
    floor = _tie_floor(max(scores))
    return next((i for i, v in enumerate(scores) if v >= floor), 0)


def _worst_window(angles: AngleSet, k: int) -> tuple[tuple[int, ...], complex, int]:
    """(indices, resultant R, subsets scored) of the worst K-subset; see the module notes."""
    n = angles.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    t = angles.angles
    phasor = [cmath.exp(2j * a) for a in t]
    if k == n:
        return tuple(range(n)), sum(phasor), 1

    # lines in circular sorted order, each listing its indices ascending
    order = sorted(range(n), key=t.__getitem__)
    lines = [[order[0]]]
    for a, b in zip(order, order[1:]):
        if t[b] - t[a] > LINE_TOL:
            lines.append([])
        lines[-1].append(b)
    if len(lines) > 1 and t[order[0]] + math.pi - t[order[-1]] <= LINE_TOL:
        lines[0] += lines.pop()  # the line next to pi is the line at 0
    seq, line_of, head = [], [], []
    for number, members in enumerate(lines):
        head.append(len(seq))
        seq += sorted(members)
        line_of += [number] * len(members)

    # every window's resultant from one cumulative sum of doubled-angle phasors
    csum = [0j, *itertools.accumulate(phasor[i] for i in seq + seq[: k - 1])]
    s = [_pair_sum(k, csum[p + k] - csum[p]) for p in range(n)]
    # screen below the tie floor: cumsum rounding grows like (n + k)^2 * eps per
    # component, and a window takes its lines' members by index, not by angle
    floor = _tie_floor(max(s)) - k * (4.0 * LINE_TOL + 8.0 * (n + k) ** 2 * EPS)

    # a window may take any members of its end lines; the smallest indices of
    # the line it starts in go first, the other lines' heads are already smallest
    candidates = set()
    for p in range(n):
        if s[p] >= floor:
            start = line_of[p]
            others = [seq[q % n] for q in range(p, p + k) if line_of[q % n] != start]
            own = seq[head[start] : head[start] + k - len(others)]
            candidates.add(tuple(sorted(own + others)))
    candidates = sorted(candidates)

    # re-score each distinct candidate from its own phasors, then the tie rule
    resultant = [sum(phasor[i] for i in c) for c in candidates]
    pick = _first_tied([_pair_sum(k, r) for r in resultant])
    return candidates[pick], resultant[pick], n + len(candidates)


def worst_subset(angles: AngleSet, k: int = 3) -> WorstCaseReport:
    """Worst K-subset: the one maximizing the pair-cosine sum S.

    Scores the n contiguous circular windows in sorted-line order, not the
    C(n, K) subsets (see the module notes for why a worst subset is always
    a window, the cost and the tie rule).  Ties go to the lexicographically
    smallest index tuple over all tied K-subsets.  ``objective`` and
    ``summary`` come from the reported subset's resultant, so ``objective``
    equals its ``pair_cosine_sum``; ``subsets_evaluated`` counts the n
    windows plus the distinct candidates re-scored (1 when K = n).
    """
    idx, r, scored = _worst_window(angles, k)
    summary = _summary(k, r)
    return WorstCaseReport(
        worst_subset=SubsetSelection(idx),
        objective=summary.pair_cosine_sum,
        summary=summary,
        subsets_evaluated=scored,
    )


def grid_evaluations(config: MinimaxSearchConfig) -> int:
    """Number of configurations the grid search will evaluate."""
    g = config.grid_points_per_angle
    return math.comb(g + config.n - 2, config.n - 1)


def minimax_grid_search(config: MinimaxSearchConfig) -> tuple[AngleSet, WorstCaseReport]:
    """Exhaustive minimax over the gauge-fixed, sorted angle grid.

    Returns the refined configuration and its worst-subset report.  The
    enumeration order (lexicographic over sorted tuples, row-major within
    each block) fixes tie-breaking, so results are reproducible.
    """
    n, k, g = config.n, config.k, config.grid_points_per_angle
    total = grid_evaluations(config)
    if total > EVALUATION_GUARD:
        raise ResourceLimitError(
            f"grid search for n={n} at {g} points/angle needs {total} "
            f"evaluations (budget {EVALUATION_GUARD}); lower the density or n"
        )

    grid = np.arange(g) * (math.pi / g)
    # T[i, j] = cos 2(grid_i - grid_j); every pair term is a lookup here
    diff = grid[:, None] - grid[None, :]
    table = np.cos(2.0 * diff)

    lower_mask = np.tril(np.ones((g, g), dtype=bool), k=-1)

    # Sorted, the fixed angles come first and the free pair u <= v last, so
    # by the arc argument the worst subset is one of these windows: k-2
    # fixed angles around the wrap with u and v, the last k-1 fixed with u,
    # v with the first k-1 fixed, or k fixed in a row.
    m = n - 2  # fixed angles per outer tuple: pinned 0 plus n-3 outer
    both = [tuple(range(k - 2 - j)) + tuple(range(m - j, m)) for j in range(k - 1)]
    only_u = tuple(range(m - k + 1, m)) if k <= m + 1 else None
    only_v = tuple(range(k - 1)) if k <= m + 1 else None
    neither = [tuple(range(p, p + k)) for p in range(m - k + 1)]

    best_val = math.inf
    best_tuple: tuple[int, ...] | None = None

    for outer in itertools.combinations_with_replacement(range(g), n - 3):
        fixed = (0,) + outer
        r0 = fixed[-1]
        length = g - r0
        rows = table[list(fixed)][:, r0:]  # (m, length)

        def fixed_pair_sum(members: tuple[int, ...]) -> float:
            return sum(
                table[fixed[a], fixed[b]] for i, a in enumerate(members) for b in members[i + 1 :]
            )

        def free_terms(members: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
            """Each free angle's terms with the fixed members, plus their pair sum."""
            rs = rows[list(members)].sum(axis=0) if members else np.zeros(length)
            return rs, rs + fixed_pair_sum(members)

        block = None
        for members in both:
            rs, with_base = free_terms(members)
            w = with_base[:, None] + rs[None, :]
            block = w if block is None else np.maximum(block, w)
        block = block + table[r0:, r0:]

        if only_u is not None:
            np.maximum(block, free_terms(only_u)[1][:, None], out=block)
            np.maximum(block, free_terms(only_v)[1][None, :], out=block)

        if neither:
            np.maximum(block, max(fixed_pair_sum(w) for w in neither), out=block)

        block[lower_mask[:length, :length]] = math.inf
        flat = int(block.argmin())
        val = float(block.flat[flat])
        if val < best_val:
            u, v = divmod(flat, length)
            best_val = val
            best_tuple = outer + (r0 + u, r0 + v)

    coarse = AngleSet((0.0,) + tuple(grid[t] for t in best_tuple))
    refined = local_refine(
        coarse,
        k,
        iterations=config.refine_iterations,
        initial_step=math.pi / g,
    )
    return refined, worst_subset(refined, k)


def local_refine(
    angles: AngleSet,
    k: int = 3,
    iterations: int = 200,
    initial_step: float | None = None,
) -> AngleSet:
    """Coordinate descent on the worst-subset objective.

    Each sweep tries +-step on every angle and keeps strict improvements;
    the step halves after a sweep with no improvement.  The objective
    never increases, but tied plateaus (where any single-angle move leaves
    some maximizing subset untouched) are fixed points.
    """
    if not 1 <= k <= angles.n:
        raise ValueError(f"need 1 <= k <= {angles.n}, got k={k}")
    step = math.pi / 180.0 if initial_step is None else float(initial_step)
    if step <= 0.0:
        raise ValueError("initial_step must be positive")
    current = list(angles.angles)
    best = _pair_sum(k, _worst_window(AngleSet(current), k)[1])
    for _ in range(iterations):
        improved = False
        for i in range(len(current)):
            for delta in (step, -step):
                trial = current.copy()
                trial[i] = trial[i] + delta
                obj = _pair_sum(k, _worst_window(AngleSet(trial), k)[1])
                if obj < best:
                    best = obj
                    current = [a for a in AngleSet(trial).angles]
                    improved = True
        if not improved:
            step *= REFINE_SHRINK
            if step < 1e-12:
                break
    return AngleSet(current)
