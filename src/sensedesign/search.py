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
makes n = 5 at the default density feasible.  The last two angles are
evaluated as one vectorized block per outer tuple, over the n windows of
each sorted configuration rather than all C(n, K) of its subsets.  Each
window is scored from resultants, like the scan: ``_pair_sum`` of its fixed
members' resultant r, plus Re(conj(r) P) for each free angle's phasor P it
holds, plus the u-v term when it holds both.  The coarse pick follows the
same tie rule: the first configuration in enumeration order whose worst S
is within TIE_TOL of the minimum (``_tie_floor``).
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
    coarse configuration is the first in enumeration order (lexicographic
    over sorted tuples, row-major within each block) whose worst S lies
    within TIE_TOL of the minimum, so ties do not hinge on rounding.
    """
    n, k, g = config.n, config.k, config.grid_points_per_angle
    total = grid_evaluations(config)
    if total > EVALUATION_GUARD:
        raise ResourceLimitError(
            f"grid search for n={n} at {g} points/angle needs {total} "
            f"evaluations (budget {EVALUATION_GUARD}); lower the density or n"
        )

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
            a = (r.conjugate() * free).real  # Re(conj(r) P) for each free angle P
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
    coarse = AngleSet(grid[[*fixed, fixed[-1] + u, fixed[-1] + v]])
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
