import collections
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from oracles import TIE_TOL, grid_block_search, pair_cosine_sum_loop

from sensedesign import (
    AngleSet,
    EVALUATION_GUARD,
    MinimaxSearchConfig,
    ResourceLimitError,
    baseline_circle,
    baseline_semicircle,
    build_design,
    design_optimal,
    grid_evaluations,
    minimax_grid_search,
    spectral_summary,
    worst_subset,
)
from sensedesign import search
from sensedesign.cli import main
from sensedesign.search import _TABLE_ENTRIES, _check_budget, _grid_search, _window_split


def brute_worst(angles: AngleSet, k: int):
    """(S, indices) of the lexicographically smallest subset tied with the worst.

    Every K-subset is scored with the pairwise-cosine loop; those within
    TIE_TOL * max(1, |S_max|) of the largest S tie.
    """
    scored = [(pair_cosine_sum_loop(angles, idx), idx) for idx in itertools.combinations(range(angles.n), k)]
    top = max(s for s, _ in scored)
    floor = top - TIE_TOL * max(1.0, abs(top))
    return min(((s, idx) for s, idx in scored if s >= floor), key=lambda pair: pair[1])


def sides_calls(monkeypatch) -> list[int]:
    """Blocks in each u-row and v-column build (``sides``) of the grid search: its (2, blocks, w) np.full."""
    calls = []
    full = np.full

    def counted(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3 and shape[0] == 2:
            calls.append(shape[1])
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", counted)
    return calls


def grid_pick(n: int, k: int, g: int) -> AngleSet:
    """The grid search's pick, from ``_grid_search`` alone: what ``minimax_grid_search`` returns."""
    return AngleSet(np.array(_grid_search(n, k, g)[0]) * (math.pi / g))


def seeded_grid_cases():
    """(n, K, g) grid searches: every K from 2 to n for n = 3..6, two distinct grid sizes in [5, 24] each."""
    rng = np.random.default_rng(5)
    pairs = [(n, k) for n in range(3, 7) for k in range(2, n + 1)]
    return [(n, k, int(g)) for n, k in pairs for g in rng.choice(np.arange(5, 25), 2, replace=False)]


SEEDED_GRID_CASES = seeded_grid_cases()
# every K from 2 to n for n = 3..7, two distinct grid sizes in [2, 12] each
SCREEN_CASES = [
    (n, k, int(g))
    for n in range(3, 8)
    for k in range(2, n + 1)
    for g in np.random.default_rng(43 * n + k).choice(np.arange(2, 13), 2, replace=False)
]


def tie_rule_cases():
    """Designs for n <= 12 that tie often: symmetric ones and duplicate lines."""
    rng = np.random.default_rng(11)
    wrap = [0.0, math.nextafter(math.pi, 0.0), math.pi / 6, math.pi / 2, 5 * math.pi / 6]
    for n in range(3, 13):
        for _ in range(3):
            yield f"random n={n}", AngleSet(rng.uniform(0.0, math.pi, n))
        yield f"semicircle n={n}", baseline_semicircle(n)
        yield f"circle n={n}", baseline_circle(n)
        if n % 2 == 0 and n >= 4:
            yield f"theorem_even_a n={n}", build_design(n, "theorem_even_a")
            yield f"theorem_even_b n={n}", build_design(n, "theorem_even_b")
        for _ in range(3):
            # a coarse pi/6 grid over [-pi, 2pi): duplicate lines, equal up to rounding
            yield f"pi/6 grid n={n}", AngleSet(rng.integers(-6, 12, n) * (math.pi / 6))
            # the line just below pi is the line at 0
            yield f"wrap n={n}", AngleSet(rng.choice(wrap, n))


class TestWorstSubset:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = AngleSet(rng.uniform(0, math.pi, 7))
            report = worst_subset(a, 3)
            s, idx = brute_worst(a, 3)
            assert report.objective == pytest.approx(s, abs=1e-12)
            assert report.worst_subset.indices == idx
            # 7 windows plus the one best window re-scored
            assert report.subsets_evaluated == 8

    def test_tie_rule_matches_brute_force(self):
        mismatches = []
        for name, a in tie_rule_cases():
            for k in range(1, a.n + 1):
                report = worst_subset(a, k)
                s, idx = brute_worst(a, k)
                if report.worst_subset.indices != idx or abs(report.objective - s) > 1e-12:
                    mismatches.append((name, k, report.worst_subset.indices, idx))
        assert mismatches == []

    @pytest.mark.parametrize(
        "scheme, n, want",
        [
            ("theorem_even_b", 8, (0, 1, 4)),
            ("theorem_even_b", 12, (0, 1, 6)),
            ("baseline_semicircle", 9, (0, 1, 2)),
            ("theorem_even_a", 6, (0, 1, 3)),
        ],
    )
    def test_symmetric_designs_report_smallest_tied_subset(self, scheme, n, want):
        assert worst_subset(build_design(n, scheme)).worst_subset.indices == want

    def test_subsets_evaluated_at_most_two_per_angle(self):
        rng = np.random.default_rng(5)
        for name, a in itertools.chain(tie_rule_cases(), [("random n=40", AngleSet(rng.uniform(0, 3, 40)))]):
            for k in range(1, a.n):
                assert a.n < worst_subset(a, k).subsets_evaluated <= 2 * a.n, (name, k)
            assert worst_subset(a, a.n).subsets_evaluated == 1

    def test_objective_is_exact_pair_sum(self):
        a = design_optimal(9)
        report = worst_subset(a)
        assert report.objective == spectral_summary(a, report.worst_subset).pair_cosine_sum

    def test_tie_breaks_lexicographically(self):
        a = AngleSet([0.0, 0.0, math.pi / 2, math.pi / 2])
        report = worst_subset(a, 3)
        # all four triples tie at S = -1
        assert report.worst_subset.indices == (0, 1, 2)
        assert report.objective == pytest.approx(-1.0, abs=1e-15)

    def test_invalid_k(self):
        a = AngleSet([0.0, 1.0])
        with pytest.raises(ValueError):
            worst_subset(a, 3)
        with pytest.raises(ValueError):
            worst_subset(a, 0)


class TestLargeN:
    """n = 2000 finishes well within a generous time gate and beats random subsets."""

    @pytest.mark.parametrize("k", [3, 1000])
    def test_random_angles(self, k):
        rng = np.random.default_rng(2000)
        t = rng.uniform(0.0, math.pi, 2000)
        start = time.perf_counter()
        report = worst_subset(AngleSet(t), k)
        assert time.perf_counter() - start < 5.0
        picks = np.array([rng.choice(2000, size=k, replace=False) for _ in range(1000)])
        resultant = np.exp(2j * t)[picks].sum(axis=1)
        random_s = 0.5 * (np.abs(resultant) ** 2 - k)
        assert report.objective >= random_s.max()
        assert report.subsets_evaluated <= 4000

    def test_evaluate_circle_cli(self, tmp_path):
        out = tmp_path / "e.json"
        start = time.perf_counter()
        assert main(["evaluate", "--n", "2000", "--scheme", "circle", "--output", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        doc = json.loads(out.read_text())
        # lines i and i + 1000 coincide, so every window ties; the smallest
        # tied triple is line 0 (sensors 0 and 1000) plus sensor 1
        assert doc["worst_subset"] == [0, 1, 1000]
        assert doc["subsets_evaluated"] <= 4000


class TestGridSearch:
    def test_n3_hits_analytic_floor(self):
        angles, report = minimax_grid_search(
            MinimaxSearchConfig(n=3, grid_points_per_angle=60)
        )
        assert report.objective == pytest.approx(-1.5, abs=1e-9)
        assert report.objective >= -1.5 - 1e-12

    def test_n4_matches_optimal(self):
        _, report = minimax_grid_search(MinimaxSearchConfig(n=4, grid_points_per_angle=60))
        assert report.objective == pytest.approx(-1.0, abs=1e-9)

    def test_block_evaluator_agrees_with_enumeration(self):
        # tiny grid; replay the same sorted enumeration through worst_subset
        g, n = 12, 4
        report = worst_subset(grid_pick(n, 3, g), 3)
        grid = [i * math.pi / g for i in range(g)]
        best = math.inf
        for tup in itertools.combinations_with_replacement(range(g), n - 1):
            angles = AngleSet([0.0] + [grid[t] for t in tup])
            best = min(best, worst_subset(angles, 3).objective)
        assert report.objective == pytest.approx(best, abs=1e-10)

    @pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (5, 5)])
    def test_window_blocks_match_exhaustive_replay(self, n, k):
        # the block scores only windows; replay every grid point over all subsets
        g = 9
        angles = grid_pick(n, k, g)
        report = worst_subset(angles, k)
        grid = [i * math.pi / g for i in range(g)]
        tuples = list(itertools.combinations_with_replacement(range(g), n - 1))
        worst = [brute_worst(AngleSet([0.0] + [grid[t] for t in tup]), k)[0] for tup in tuples]
        best = min(worst)
        assert report.objective == pytest.approx(best, abs=1e-12)
        # tie rule: the first tuple in enumeration order within TIE_TOL of the minimum
        first = next(t for t, w in zip(tuples, worst) if w <= best + 1e-12 * max(1.0, abs(best)))
        assert angles.angles == pytest.approx([grid[t] for t in (0, *first)], abs=1e-15)

    @pytest.mark.parametrize(
        "n, k, g",
        [(3, 3, 180), (4, 3, 180), (5, 3, 60), (5, 2, 60), (5, 4, 60), (5, 5, 20), (4, 4, 30), (6, 3, 40),
         (6, 4, 30), (5, 3, 7), (5, 3, 180), (5, 4, 180), (4, 2, 30), (4, 2, 90),
         # coarse grids where many blocks tie
         (6, 4, 11), (5, 4, 9), (3, 3, 7), (5, 2, 9),
         # g < n: the uniform seed block repeats grid points
         (6, 3, 4), (5, 4, 3), (6, 4, 5), (4, 3, 2),
         # n >= 6g: rounding instead of floor would put the seed's last entry on g
         (12, 3, 2), (13, 3, 2),
         # the uniform seed block is far above the minimum
         (6, 3, 7), (5, 4, 7),
         # K = n-1: the u-only and v-only windows share one line of four fixed angles
         (6, 5, 12), (7, 6, 6),
         # a tabulated v line, (pinned 0, first outer), and a u line scored per group
         (7, 3, 10)],
    )
    def test_grouped_tables_match_per_block_oracle(self, n, k, g):
        # the blocks that can tie the minimum are scored exactly, the rest keep
        # a sound lower bound above the tie ceiling
        minima, pick = grid_block_search(n, k, g)
        found, found_minima = _grid_search(n, k, g)
        assert found == pick
        assert found_minima.min() == minima.min()
        ceiling = minima.min() + TIE_TOL * max(1.0, abs(minima.min()))
        tied = minima <= ceiling
        assert np.array_equal(found_minima[tied], minima[tied])
        assert (found_minima <= minima).all()
        bounded = found_minima != minima
        assert (minima[bounded] > ceiling).all()

    @pytest.mark.parametrize("n, k, g", SEEDED_GRID_CASES)
    def test_seeded_grids_match_per_block_oracle(self, n, k, g):
        minima, pick = grid_block_search(n, k, g)
        found, found_minima = _grid_search(n, k, g)
        assert found == pick
        assert found_minima.min() == minima.min()

    @pytest.mark.parametrize(
        "n, k, pick, minimum",
        [(3, 3, (0, 60, 120), -1.5), (4, 3, (0, 0, 90, 90), -1.0),
         (5, 3, (0, 36, 72, 108, 144), -0.19098300562505244), (5, 4, (0, 0, 60, 90, 120), -1.5)],
    )
    def test_paper_scale_picks_are_pinned(self, n, k, pick, minimum):
        # the 180-point picks and minima that the unpruned search gave
        found, found_minima = _grid_search(n, k, 180)
        assert found == pick
        assert found_minima.min() == minimum

    def test_tie_across_groups_goes_to_first_in_enumeration_order(self):
        # At n=6, K=4, g=11 the tied blocks fall in several groups, and the one
        # with the smallest last fixed angle, whose group is scored first, is
        # not the first tied block in enumeration order.
        n, k, g = 6, 4, 11
        angles = grid_pick(n, k, g)
        report = worst_subset(angles, k)
        grid = [i * math.pi / g for i in range(g)]
        tuples = list(itertools.combinations_with_replacement(range(g), n - 1))
        worst = [brute_worst(AngleSet([0.0] + [grid[t] for t in tup]), k)[0] for tup in tuples]
        best = min(worst)
        ceiling = best + TIE_TOL * max(1.0, abs(best))
        tied_blocks = list(dict.fromkeys((0, *t[: n - 3]) for t, w in zip(tuples, worst) if w <= ceiling))
        keys = _window_split(n, k)[2]
        assert len({tuple(block[q] for q in keys) for block in tied_blocks}) >= 2
        assert min(tied_blocks, key=lambda block: block[-1]) != tied_blocks[0]
        # the pick is still the first tied configuration in enumeration order
        assert report.objective == pytest.approx(best, abs=1e-12)
        first = next(t for t, w in zip(tuples, worst) if w <= ceiling)
        assert angles.angles == pytest.approx([grid[t] for t in (0, *first)], abs=1e-15)

    def test_grid_search_memory_is_bounded(self):
        # blocks grouped through one sorted index array, then one table and chunk at a time
        tracemalloc.start()
        try:
            minimax_grid_search(MinimaxSearchConfig(n=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6, peak

    def test_seeded_ceiling_prunes_most_blocks(self, monkeypatch):
        # the full table pass writes each chunk of blocks into a (blocks, u, v)
        # buffer; seeded with the uniform block's minimum, the ceiling lets few through
        scored = []
        maximum = np.maximum

        def counted(*args, **kwargs):
            out = kwargs.get("out")
            if out is not None and out.ndim == 3:
                scored.append(len(out))
            return maximum(*args, **kwargs)

        monkeypatch.setattr(np, "maximum", counted)
        _grid_search(5, 3, 180)
        assert 0 < sum(scored) <= 160, sum(scored)

    @pytest.mark.parametrize("n, k, tabulated, per_block", [(5, 3, 1, 1), (4, 3, 1, 0), (5, 4, 0, 1)])
    def test_side_lines_are_scored_once_per_member_set(self, monkeypatch, n, k, tabulated, per_block):
        # Counts the resultants scored for the side windows that hold one free
        # angle (k - 1 fixed ones).  At K = 3 the v-only window holds the pinned 0
        # and the first outer angle, so its line is tabulated once over that
        # angle's g values, not scored per block; at n = 4 the u-only window holds
        # the same two and shares the line.  The n = 5 u-only window (two outer
        # angles), and at K = 4 the one member set that the u-only and v-only
        # windows share, are scored once for each block that ``sides`` builds.
        # It builds each block at most once, plus the seed and the pick; the
        # screen leaves it fewer than all the blocks, except at n = 5, K = 4,
        # where nothing is scored once per search: every screen is -inf, and
        # every block reaches it.
        g = 30
        scored = collections.Counter()
        pair_sum = search._pair_sum

        def counted(size, resultant):
            scored[size] += np.size(resultant)
            return pair_sum(size, resultant)

        monkeypatch.setattr(search, "_pair_sum", counted)
        built = sides_calls(monkeypatch)
        blocks = len(_grid_search(n, k, g)[1])
        assert scored[k - 1] == tabulated * g + per_block * sum(built)
        if (n, k) == (5, 4):
            assert sum(built) == blocks + 2
        else:
            assert sum(built) < blocks

    @pytest.mark.parametrize("n, most", [(5, 60), (4, 95)])
    def test_screen_leaves_few_groups_to_sides(self, monkeypatch, n, most):
        # every group built its u rows and v columns before the screen: 182
        # builds (180 groups, the seed and the pick) at both n
        built = sides_calls(monkeypatch)
        _grid_search(n, 3, 180)
        assert len(built) <= most, len(built)

    @pytest.mark.parametrize("n, k, g", SCREEN_CASES)
    def test_every_screen_is_a_lower_bound(self, monkeypatch, n, k, g):
        # With a tie ceiling of -inf no table is built, so every block keeps a
        # bound from before any table: its screen, or, where nothing is scored
        # once per search (K = n for n >= 4, K = n - 1 for n >= 5) and every
        # screen is -inf, the row and column bound that ``score`` returns.
        minima, _ = grid_block_search(n, k, g)
        monkeypatch.setattr(search, "_tie_floor", lambda top: math.inf)
        _, screens = _grid_search(n, k, g)
        assert (screens <= minima).all()

    def test_grid_is_enumerated_once(self, monkeypatch):
        calls = []
        enumerate_tuples = itertools.combinations_with_replacement

        def counted(*args):
            calls.append(args)
            return enumerate_tuples(*args)

        monkeypatch.setattr(itertools, "combinations_with_replacement", counted)
        minimax_grid_search(MinimaxSearchConfig(n=5, grid_points_per_angle=30))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "n, k, g, grid_worst",
        [
            (3, 3, 7, -1.346010735815048),
            (4, 4, 9, -1.9927260400246556),
            (5, 4, 9, -1.266044443118978),
            (5, 2, 9, None),
            (5, 3, 180, None),
        ],
    )
    def test_returns_the_grid_pick(self, n, k, g, grid_worst):
        # on the coarse grids the pick stays above the closed form (-1.5, -2 and -1.5)
        angles, report = minimax_grid_search(MinimaxSearchConfig(n=n, k=k, grid_points_per_angle=g))
        assert angles.angles == grid_pick(n, k, g).angles
        if grid_worst is not None:
            assert report.objective == pytest.approx(grid_worst, abs=1e-12)

    def test_gauge_fixing_lossless(self):
        angles, report = minimax_grid_search(MinimaxSearchConfig(n=4, grid_points_per_angle=30))
        for delta in (0.3, 1.1, 2.9):
            shifted = worst_subset(AngleSet([a + delta for a in angles.angles]), 3).objective
            assert shifted == pytest.approx(report.objective, abs=1e-10)

    def test_resource_guard(self):
        big = MinimaxSearchConfig(n=6, grid_points_per_angle=180)
        assert grid_evaluations(big) > EVALUATION_GUARD
        with pytest.raises(ResourceLimitError):
            minimax_grid_search(big)

    def test_table_ceiling_bounds_memory(self):
        # n = 3 at 40,000 points is under the evaluation guard, but its g x g tables
        # would take ~38 GB; the ceiling refuses it before anything is allocated
        big = MinimaxSearchConfig(n=3, grid_points_per_angle=40_000)
        assert grid_evaluations(big) == 800_020_000 <= EVALUATION_GUARD
        with pytest.raises(ResourceLimitError, match="1600000000 table entries"):
            _check_budget(big)
        assert 4096 * 4096 == _TABLE_ENTRIES
        assert _check_budget(MinimaxSearchConfig(n=3, grid_points_per_angle=4096)) is None
        with pytest.raises(ResourceLimitError):
            _check_budget(MinimaxSearchConfig(n=3, grid_points_per_angle=4097))

    def test_evaluation_count_formula(self):
        config = MinimaxSearchConfig(n=5, grid_points_per_angle=180)
        assert grid_evaluations(config) == math.comb(183, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinimaxSearchConfig(n=2)
        with pytest.raises(ValueError):
            MinimaxSearchConfig(n=4, k=5)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 4.0},
            {"n": np.float64(5.0)},
            {"k": 3.0},
            {"grid_points_per_angle": 12.5},
        ],
    )
    def test_integer_fields_reject_non_integers(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            MinimaxSearchConfig(**{"n": 4, **kw})
        assert MinimaxSearchConfig(n=np.int64(4), k=np.int64(3)).n == 4


FOUR = AngleSet([0.0, 1.0, 2.0, 2.5])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: worst_subset(FOUR, k=2.0), "k"),
        (lambda: worst_subset(FOUR, k="2"), "k"),
        (lambda: MinimaxSearchConfig(n="4"), "n"),
        (lambda: MinimaxSearchConfig(n=4, k="3"), "k"),
    ],
    ids=["subset-float", "subset-str", "cfg-n", "cfg-k"],
)
def test_non_integer_counts_are_rejected_before_the_range_checks(call, name):
    # a string used to reach a range comparison, and a float a range() or slice: both raised TypeError
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: worst_subset(FOUR, 0), "need 1 <= k <= 4, got k=0"),
        (lambda: MinimaxSearchConfig(n=0), "search needs n >= 3, got n=0"),
        (lambda: MinimaxSearchConfig(n=4, k=1), "need 2 <= k <= n, got k=1, n=4"),
        (lambda: MinimaxSearchConfig(4, grid_points_per_angle=1), "grid_points_per_angle must be at least 2"),
    ],
    ids=["subset", "cfg-n", "cfg-k", "cfg-grid"],
)
def test_integer_counts_keep_their_range_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
