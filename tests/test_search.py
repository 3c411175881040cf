import itertools
import json
import math
import time

import numpy as np
import pytest
from oracles import TIE_TOL, pair_cosine_sum_loop

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
    local_refine,
    minimax_grid_search,
    pair_cosine_sum,
    worst_subset,
)
from sensedesign.cli import main


def brute_worst(angles: AngleSet, k: int):
    """(S, indices) of the lexicographically smallest subset tied with the worst.

    Every K-subset is scored with the pairwise-cosine loop; those within
    TIE_TOL * max(1, |S_max|) of the largest S tie.
    """
    scored = [(pair_cosine_sum_loop(angles, idx), idx) for idx in itertools.combinations(range(angles.n), k)]
    top = max(s for s, _ in scored)
    floor = top - TIE_TOL * max(1.0, abs(top))
    return min(((s, idx) for s, idx in scored if s >= floor), key=lambda pair: pair[1])


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
        assert report.objective == pair_cosine_sum(a, report.worst_subset)

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
        config = MinimaxSearchConfig(n=n, grid_points_per_angle=g, refine_iterations=0)
        _, report = minimax_grid_search(config)
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
        config = MinimaxSearchConfig(n=n, k=k, grid_points_per_angle=g, refine_iterations=0)
        angles, report = minimax_grid_search(config)
        grid = [i * math.pi / g for i in range(g)]
        tuples = list(itertools.combinations_with_replacement(range(g), n - 1))
        worst = [brute_worst(AngleSet([0.0] + [grid[t] for t in tup]), k)[0] for tup in tuples]
        best = min(worst)
        assert report.objective == pytest.approx(best, abs=1e-12)
        # tie rule: the first tuple in enumeration order within TIE_TOL of the minimum
        first = next(t for t, w in zip(tuples, worst) if w <= best + 1e-12 * max(1.0, abs(best)))
        assert angles.angles == pytest.approx([grid[t] for t in (0, *first)], abs=1e-15)

    def test_gauge_fixing_lossless(self):
        angles, report = minimax_grid_search(MinimaxSearchConfig(n=4, grid_points_per_angle=30))
        for delta in (0.3, 1.1, 2.9):
            shifted = worst_subset(angles.shifted(delta), 3).objective
            assert shifted == pytest.approx(report.objective, abs=1e-10)

    def test_resource_guard(self):
        big = MinimaxSearchConfig(n=6, grid_points_per_angle=180)
        assert grid_evaluations(big) > EVALUATION_GUARD
        with pytest.raises(ResourceLimitError):
            minimax_grid_search(big)

    def test_evaluation_count_formula(self):
        config = MinimaxSearchConfig(n=5, grid_points_per_angle=180)
        assert grid_evaluations(config) == math.comb(183, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinimaxSearchConfig(n=2)
        with pytest.raises(ValueError):
            MinimaxSearchConfig(n=4, k=5)


class TestLocalRefine:
    def test_never_increases(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = AngleSet(rng.uniform(0, math.pi, 5))
            before = worst_subset(a, 3).objective
            after = worst_subset(local_refine(a, 3, iterations=40), 3).objective
            assert after <= before + 1e-15

    def test_optimal_designs_are_fixed_points(self):
        for n in range(3, 11):
            d = design_optimal(n)
            before = worst_subset(d, 3).objective
            after = worst_subset(local_refine(d, 3, iterations=60), 3).objective
            assert after <= before + 1e-15
            assert after >= before - 1e-9

    def test_semicircle7_tied_plateau(self):
        # every angle move leaves >= 4 of the 7 maximizing triples untouched,
        # so strict coordinate descent cannot leave this configuration
        semi = baseline_semicircle(7)
        before = worst_subset(semi, 3).objective
        refined = local_refine(semi, 3, iterations=80)
        after = worst_subset(refined, 3).objective
        assert after == pytest.approx(before, abs=1e-15)

    def test_escapes_coarse_grid_point(self):
        # a perturbed three-angle set should descend toward the -1.5 floor
        start = AngleSet([0.0, math.pi / 3 + 0.05, 2 * math.pi / 3 - 0.07])
        before = worst_subset(start, 3).objective
        after = worst_subset(local_refine(start, 3, iterations=120, initial_step=0.05), 3).objective
        assert after < before
        assert after == pytest.approx(-1.5, abs=1e-6)

    def test_rejects_bad_args(self):
        a = AngleSet([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            local_refine(a, 4)
        with pytest.raises(ValueError):
            local_refine(a, 3, initial_step=0.0)
