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
makes n = 5 at the default density feasible.

``_grid_search`` is the whole search.  It enumerates the fixed tuples (the
pinned 0, then the outer angles) once; each heads a block, every (u, v) on
the grid with fixed[-1] <= u <= v, scored over the n windows of each sorted
configuration rather than all C(n, K) of its subsets.  Each window is scored
from resultants, like the scan: ``_pair_sum`` of its fixed members'
resultant r, plus Re(conj(r) P) for each free angle's phasor P it holds,
plus the u-v term when it holds both.  ``_window_split`` sorts the windows
by what they hold, a function of (n, K) alone.

The windows holding both u and v (pair windows) make a block's u-v table,
and they read few fixed positions (at K = 3 only the pinned 0 and the last
fixed angle), so the blocks that agree there and in the last fixed angle,
where u and v start (the key positions), share one table.  Sorted by their
key values, each group of blocks is one run.  The worst S at (u, v) is the
largest of the table entry, the block's u row (its u-only and constant
windows) and its v column (its v-only windows).  Max and min only select,
so the minimum over u first, then v, is the same number, and the order in
which the windows are folded in moves no bit.  The table is a full square
over the free grid points so that the u rows and v columns broadcast
against it.  Its v < u triangle holds configurations outside the sorted
enumeration (the block already has each as (v, u)), so it is +inf, and
neither the minimum nor the pick can land there.

The rows and columns of a whole group are built one side window (one that
holds u or v but not both) at a time.  At K = n-1 a u-only and a v-only window
hold the same fixed angles; their one line is maxed into both.  The block
resultants are ``_sum`` of the gathered member phasors, in window order
(Python's ``sum`` order), and S is one ``_pair_sum`` call on that (blocks, 1)
array.  Every window term, S and Re(conj(r) P) = Re r Re P + Im r Im P alike,
is built from real products, sums and differences, each rounded on its own, so
a batched window gives the same bits as a scalar resultant per block.  When
every fixed position is a key (K = 4 at n = 5), each group holds one block.

A window that holds at most one outer angle depends on the block through
that angle alone, so it is scored once per search, over the full grid of
free angles.  The pair window that holds none (the pinned 0 alone at K = 3,
the empty window at K = 2) is one g x g u-v part, and each group's table
takes its [r0:, r0:] slice, r0 the last fixed angle, for that window.  A side
window with at most one outer member is one table of lines, row j its line
with that member on grid point j (a single row when it holds the pinned 0
alone); each group gathers its blocks' rows with one fancy index, sliced at
r0.  At n = 5, K = 3 that is the v-only window (0, a): 180 lines, where a
line per block in every group would be ~1M entries.  The bits do not move:
each entry is the same elementwise formula on the same inputs, a slice of a
full-grid line equals the line computed on that slice, and max and min only
select.

Only the blocks that can still tie the minimum are scored in full.  Each
block's minimum is at least its bound
max(min_u max(row[u], table[u].min()), min_v max(col[v], table[:, v].min())),
since every (u, v) entry is at least both terms; max and min only select, so
this holds for the computed numbers bit for bit.  The bound costs O(w) per
block against O(w^2) for the full (blocks, u, v) pass.  A running ceiling,
the tie ceiling of the smallest exact minimum so far, decides: a block whose
bound is above it cannot be tied with the final minimum, so only the others
are scored, in chunks of about _CHUNK_ELEMENTS values, and the rest keep
their bound.  The ceiling starts at the tie ceiling of one real block's
exact minimum, the uniform layout's (0, floor(g/n), ..., floor((n-3) g/n)),
scored alone by the same scorer, which gives it the bits it gets in its
group.  Floor keeps the block sorted and every entry below g for every
(n, K, g); rounding would put the last entry on g once n >= 6g (n = 12,
g = 2).  A seed computed any other way (the closed-form design, or
``worst_subset`` on the snapped angles) may differ in the last bit and
prune a tied block.

Cheaper bounds come first.  Before the group loop, every block gets a screen
from the parts scored once per search: for its r0, the smallest entry of the
u-v part plus the u-v term over r0 <= u <= v (a suffix minimum over rows),
and the S of each constant window.  Every (u, v) entry is at least each of
these: max and min only select, and rounding is monotone, so
fl(max(a, b) + c) = max(fl(a + c), fl(b + c)).  The tabulated lines' minima
bound it too but never changed which blocks pass (n = 3..7, every K, g from
7 to 180), so the screen reads none.  A block whose screen is above the
ceiling keeps it as its bound and never reaches ``sides``: at n = 5, K = 3 on
180 points ``sides`` builds 4,461 block rows in 55 calls, the seed and the
pick among them.  A search with none of these parts (K = n for n >= 4,
K = n - 1 for n >= 5) screens every block at -inf, so all reach ``score``.

Then, before a group's table, the looser bound max(min row, min col) of
every block is taken, and when none reaches the ceiling the table is not
built at all (at K = n-1 each table serves one block, and most are skipped).
Otherwise the table spans only the u (v) from the first to the last point
where some live block's u row (v column) is at or below the ceiling.  Every
(u, v) outside that span is above the ceiling through its row or column, so
a live block's minimum over the span is its minimum when it is at or below
the ceiling, and min(that result, its row and column minima outside the
span) bounds it otherwise.  At n = 4, K = 3 on 180 points the tables hold
0.31M entries, the seed's and the pick's full squares among them.  At n = 5,
K = 3 on 180 points 154 of the 16,290 blocks are scored in full (the seed
among them).

The ceiling only falls and never drops below the final one, so every block
tied with the final minimum was scored exactly, and the minimum, the tied
set and the pick are those of the full search.  The minima are written back
in enumeration order, and the pick follows the same tie rule: the first
block in enumeration order whose minimum is at or below the final tie
ceiling (``_tie_floor``), found with one comparison over the minima,
re-scored by the same scorer, then its first row-major (u, v) at or below
that ceiling.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AngleSet, SpectralSummary, SubsetSelection, _check_int, _pair_sum, _sum, _summary

# hard ceiling on the grid configurations a search covers
EVALUATION_GUARD = 1_000_000_000
# hard ceiling on the grid search's g x g tables (the u-v term, the u-v part and
# the lines scored once per search, a group's table, a chunk): their tracemalloc
# peak at g = 1024 is about 40 bytes per entry at n = 4, K = 3 and 32 at n = 3,
# so ~540 MB at this ceiling, g = 4096, where only n = 3 is under EVALUATION_GUARD
_TABLE_ENTRIES = 1 << 24
# lines closer than this (radians, mod pi) are one line for the tie rule
LINE_TOL = 1e-12
# relative tolerance of the tie rule (see _tie_floor)
TIE_TOL = 1e-12
# the grid search scores a group's blocks in chunks of about this many values
# (small, so that a chunk adds little to the tables' memory)
_CHUNK_ELEMENTS = 1 << 14
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

    def __post_init__(self):
        for name in ("n", "k", "grid_points_per_angle"):
            _check_int(name, getattr(self, name), 1, type_only=True)
        if self.n < 3:
            raise ValueError(f"search needs n >= 3, got n={self.n}")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if self.grid_points_per_angle < 2:
            raise ValueError("grid_points_per_angle must be at least 2")


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
    _check_int("k", k, 1, type_only=True)
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
    """Number of configurations the grid search covers."""
    g = config.grid_points_per_angle
    return math.comb(g + config.n - 2, config.n - 1)


def _check_budget(config: MinimaxSearchConfig) -> None:
    """Raise ResourceLimitError when ``config``'s grid search exceeds EVALUATION_GUARD or _TABLE_ENTRIES.

    Every table the search holds has at most g x g entries, so the one
    ceiling on g * g bounds them all.
    """
    g = config.grid_points_per_angle
    total = grid_evaluations(config)
    if total > EVALUATION_GUARD:
        raise ResourceLimitError(
            f"grid search for n={config.n} at {g} points/angle "
            f"needs {total} evaluations (budget {EVALUATION_GUARD}); lower the density or n"
        )
    if g * g > _TABLE_ENTRIES:
        raise ResourceLimitError(
            f"grid search at {g} points/angle needs {g * g} table entries "
            f"(ceiling {_TABLE_ENTRIES}); lower the density"
        )


def _window_split(n: int, k: int) -> tuple[list, list, list]:
    """(pair windows, side windows, key positions) of the grid search's blocks; see the module notes.

    Sorted, the n-2 fixed angles (pinned 0, then the outer tuple) come first
    and the free pair u <= v last; by the arc argument the worst subset is
    one of the n circular windows.  A pair window holds both u (position
    n-2) and v (position n-1) and is listed by its fixed positions.  The
    other windows are side windows, listed once per set of fixed positions
    as (fixed positions, some window holds u, some window holds v): at
    K = n-1 a u-only and a v-only window hold the same fixed angles, and
    their one line feeds both the u rows and the v columns.  The key
    positions are the fixed positions the pair windows read, plus the last
    fixed angle, where u and v start.
    """
    m = n - 2
    windows = sorted({tuple(sorted((p + j) % n for j in range(k))) for p in range(n)})
    split = [(tuple(q for q in w if q < m), m in w, m + 1 in w) for w in windows]
    pair = [own for own, has_u, has_v in split if has_u and has_v]
    side = {}
    for own, has_u, has_v in split:
        if not (has_u and has_v):
            u, v = side.get(own, (False, False))
            side[own] = (u or has_u, v or has_v)
    keys = sorted({m - 1, *(q for own in pair for q in own)})
    return pair, [(own, u, v) for own, (u, v) in side.items()], keys


def _grid_search(n: int, k: int, g: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(grid tuple, per-block minimum or bound in enumeration order); see the module notes.

    A block is every (*fixed, u, v) with fixed = (0, *outer) and grid points
    fixed[-1] <= u <= v < g.  The grid tuple is the first configuration in
    enumeration order whose worst S is tied with the smallest (``_tie_floor``).
    The second value holds, for each block, its smallest worst-window S where
    that is at or below the final tie ceiling (so its minimum is the global
    one, bit for bit), and otherwise a lower bound on it above that ceiling.
    The running ceiling starts from the uniform layout's block, scored alone
    by the same scorer, so it is always some block's exact minimum.
    """
    pair, side, keys = _window_split(n, k)
    phasor = np.exp(2j * (np.arange(g) * (math.pi / g)))
    ph = phasor.tolist()
    # u-v term Re(P_u conj P_v) of every free pair, +inf below the diagonal (v < u)
    cross = (phasor[:, None] * phasor.conj()).real.copy()  # contiguous, the product freed
    cross[np.tril_indices(g, -1)] = math.inf

    def side_line(own: Sequence[int], members, free: np.ndarray | None) -> np.ndarray:
        """S of a side window with each free angle in ``free``, or of its fixed members alone when None.

        ``members[q]`` holds position q's phasors as a column, one row per
        block or per grid value.  ``_sum`` adds them in window order, as
        Python's sum does for one block, so each row gets its scalar bits.
        """
        r = _sum([members[q] for q in own])
        s = _pair_sum(len(own), r)
        if free is None:
            return s
        line = r.real * free.real  # Re(conj(r) P) + s, summed in place (a sum commutes bit for bit)
        line += r.imag * free.imag
        line += s
        return line

    def pair_part(
        own: Sequence[int], block: Sequence[int], free_u: np.ndarray, free_v: np.ndarray
    ) -> np.ndarray:
        """A pair window's u-v term over the free angles free_u x free_v, from the block's resultant."""
        r = sum(ph[block[q]] for q in own)
        a_u, a_v = (r.real * free.real + r.imag * free.imag for free in (free_u, free_v))  # Re(conj(r) P)
        return (_pair_sum(len(own), r) + a_u)[:, None] + a_v

    count = math.comb(g + n - 4, n - 3)
    fixed = np.zeros((count, n - 2), dtype=np.intp)
    outer = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(g), n - 3))
    fixed[:, 1:] = np.fromiter(outer, np.intp, count * (n - 3)).reshape(count, -1)
    # sorted by their values at the key positions, the blocks of each group (one
    # u-v table) form a run; each run is gathered through order, so fixed stays
    # the only full copy of the blocks
    order = np.lexsort(fixed[:, keys].T)
    starts = np.flatnonzero(np.diff(fixed[order[:, None], keys], axis=0).any(axis=1)) + 1
    bounds = [0, *starts.tolist(), count]

    # scored once per search (see the module notes): the one pair window that holds
    # no outer angle (K <= 3) as a full-grid u-v part, and each side window that
    # holds at most one as a table of lines, row j for that member on grid point j;
    # built after the grouping, so they take the memory its temporaries freed
    base = next((pair_part(own, [0], phasor, phasor) for own in pair if not any(own)), None)
    pair = [own for own in pair if any(own)]
    by_value = [phasor[:1, None], *[phasor[:, None]] * (n - 3)]  # position q's phasors, a row per grid value
    lines = {
        own: side_line(own, by_value, phasor)
        for own, has_u, has_v in side
        if (has_u or has_v) and sum(map(bool, own)) <= 1
    }
    constants = [own for own, has_u, has_v in side if not (has_u or has_v)]

    def sides(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u rows and v columns (blocks, w) of one group, one pass or one gather per side window."""
        r0 = group[0, -1]
        free = phasor[r0:]
        rows, cols = np.full((2, len(group), len(free)), -math.inf)
        members = phasor[group.T][..., None]  # (position, block, 1)
        for own, has_u, has_v in side:
            if not (has_u or has_v):  # a constant; folding it into the u rows is exact
                np.maximum(rows, side_line(own, members, None), out=rows)
                continue
            # a tabulated line is its outer member's row (the pinned 0's is row 0), sliced at r0
            line = lines[own][group[:, own[-1]], r0:] if own in lines else side_line(own, members, free)
            for target in [rows] * has_u + [cols] * has_v:
                np.maximum(target, line, out=target)
            del line  # freed before the next window's line is built
        return rows, cols

    def table_of(block: Sequence[int], us: slice = slice(None), vs: slice = slice(None)) -> np.ndarray:
        """The u-v table (u, v) that a block shares with its group, over the free points us x vs.

        The running maximum is kept in the latest pair window's fresh part,
        so ``base`` is only read.
        """
        r0 = block[-1]
        free_u, free_v = phasor[r0:][us], phasor[r0:][vs]
        table = None if base is None else base[r0:, r0:][us, vs]
        for own in pair:
            part = pair_part(own, block, free_u, free_v)
            table = part if table is None else np.maximum(table, part, out=part)
        return np.add(table, cross[r0:, r0:][us, vs], out=table if pair else None)

    def span(side: np.ndarray, ceiling: float) -> tuple[slice, np.ndarray]:
        """(free points from the first to the last where some block's side is <= ceiling, minima outside)."""
        at = np.flatnonzero((side <= ceiling).any(axis=0))
        lo, hi = at[0], at[-1] + 1
        below, above = side[:, :lo].min(axis=1, initial=math.inf), side[:, hi:].min(axis=1, initial=math.inf)
        return slice(lo, hi), np.minimum(below, above)

    def score(group: np.ndarray, ceiling: float) -> np.ndarray:
        """Each block's minimum where its bound is at or below ``ceiling``, else the bound."""
        rows, cols = sides(group)
        bound = np.maximum(rows.min(axis=1), cols.min(axis=1))
        live = np.flatnonzero(bound <= ceiling)
        if not len(live):
            return bound  # no block can tie the minimum: skip the table
        # the table spans the u and v that some live block holds at or below the ceiling;
        # every (u, v) outside is above it through its u row or v column
        (us, rows_out), (vs, cols_out) = span(rows[live], ceiling), span(cols[live], ceiling)
        rows, cols = rows[live, us], cols[live, vs]
        table = table_of(group[0].tolist(), us, vs)
        inner = np.maximum(
            np.maximum(rows, table.min(axis=1)).min(axis=1), np.maximum(cols, table.min(axis=0)).min(axis=1)
        )
        exact = np.flatnonzero(inner <= ceiling)
        step = max(1, _CHUNK_ELEMENTS // table.size)
        out = np.empty((min(step, len(exact)), *table.shape))
        for lo in range(0, len(exact), step):
            chunk = exact[lo : lo + step]
            under = np.maximum(table, rows[chunk, :, None], out=out[: len(chunk)])
            # min over u of the rows under the table, then the v columns, then min over v
            inner[chunk] = np.maximum(cols[chunk], under.min(axis=1)).min(axis=1)
        bound[live] = np.minimum(inner, np.minimum(rows_out, cols_out))
        return bound

    # the smallest exact minimum so far, seeded with the uniform layout's block
    # scored by the same scorer, so it is a real block's computed minimum;
    # floor division keeps it sorted and on the grid
    seed = [i * g // n for i in range(n - 2)]
    best = float(score(np.array([seed]), math.inf)[0])

    def screen() -> np.ndarray:
        """Each block's lower bound from the parts scored once per search (see the module notes)."""
        last = fixed[:, -1]
        bound = np.full(count, -math.inf)
        if base is not None:
            # min of base + cross over each row u's v >= u, a chunk of rows at a time, then over u >= r0
            step = max(1, _CHUNK_ELEMENTS // g)
            low = [(base[lo : lo + step] + cross[lo : lo + step]).min(axis=1) for lo in range(0, g, step)]
            bound = np.minimum.accumulate(np.concatenate(low)[::-1])[::-1][last]
        step = max(1, _CHUNK_ELEMENTS // (2 * n))  # a chunk's member phasors: about _CHUNK_ELEMENTS values
        for lo in range(0, count, step):
            block, chunk = fixed[lo : lo + step], bound[lo : lo + step]
            members = phasor[block.T] if constants else None
            for own in constants:
                np.maximum(chunk, side_line(own, members, None), out=chunk)
        return bound

    minima = screen()
    for lo, hi in zip(bounds, bounds[1:]):
        run = order[lo:hi]
        ceiling = -_tie_floor(-best)
        run = run[minima[run] <= ceiling]
        if not len(run):
            continue  # every block keeps its screen, above the ceiling
        minima[run] = score(fixed[run], ceiling)
        best = min(best, float(minima[run].min()))  # a bound above the ceiling never lowers it

    # tie rule: the first block, in enumeration order, whose minimum is tied
    # with the smallest, then its first row-major entry at or below the ceiling
    ceiling = -_tie_floor(-best)
    block = fixed[np.argmax(minima <= ceiling)].tolist()
    rows, cols = sides(np.array([block]))
    worst = np.maximum(np.maximum(table_of(block), rows[0, :, None]), cols[0])
    u, v = divmod(int(np.argmax(worst <= ceiling)), g - block[-1])
    return (*block, block[-1] + u, block[-1] + v), minima


def minimax_grid_search(config: MinimaxSearchConfig) -> tuple[AngleSet, WorstCaseReport]:
    """Exhaustive minimax over the gauge-fixed, sorted angle grid: the best design on the grid.

    Returns the grid's pick and its worst-subset report.  The pick is the
    first configuration in enumeration order (lexicographic over sorted
    tuples, row-major within each block) whose worst S lies within TIE_TOL
    of the minimum, so ties do not hinge on rounding.  Its worst S is the
    grid's minimum to within TIE_TOL, and so an upper bound on the minimax
    over all designs.
    """
    _check_budget(config)
    g = config.grid_points_per_angle
    grid, _ = _grid_search(config.n, config.k, g)
    angles = AngleSet(np.array(grid) * (math.pi / g))
    return angles, worst_subset(angles, config.k)
