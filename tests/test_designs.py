import math

import pytest

from sensedesign import (
    AngleSet,
    baseline_circle,
    baseline_semicircle,
    build_design,
    design_even,
    design_large_odd,
    design_optimal,
    design_small_odd,
    worst_subset,
)
from sensedesign.designs import SCHEMES

GOLDEN_RATIO_CONDITION = (3 + math.sqrt(5)) / (3 - math.sqrt(5))  # ~6.8541


def sorted_angles(a: AngleSet):
    return tuple(sorted(a.angles))


class TestEven:
    def test_variant_a_collapses_pairs(self):
        a = design_even(4, "a")
        assert a.angles == pytest.approx((0.0, math.pi / 2, 0.0, math.pi / 2), abs=1e-15)
        assert a.raw == a.angles

    def test_variant_b_keeps_full_circle_placement(self):
        b = design_even(4, "b")
        assert b.raw == pytest.approx((0.0, math.pi / 2, math.pi, 3 * math.pi / 2), abs=1e-15)
        assert b.angles == pytest.approx((0.0, math.pi / 2, 0.0, math.pi / 2), abs=1e-15)

    def test_variants_same_line_multiset(self):
        for n in (4, 6, 8, 10, 12):
            assert sorted_angles(design_even(n, "a")) == pytest.approx(
                sorted_angles(design_even(n, "b")), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            design_even(n)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            design_even(4, "c")

    def test_worst_case_n4_is_minus_one(self):
        assert worst_subset(design_even(4)).objective == pytest.approx(-1.0, abs=1e-12)


class TestSmallOdd:
    def test_n3(self):
        a = design_small_odd(3)
        assert a.angles == pytest.approx((0.0, math.pi / 3, 2 * math.pi / 3), abs=1e-15)

    def test_n5_worst_case(self):
        a = design_small_odd(5)
        assert a.angles == pytest.approx(tuple(math.pi * i / 5 for i in range(5)), abs=1e-15)
        report = worst_subset(a)
        # worst triple is three consecutive angles
        assert report.worst_subset.indices == (0, 1, 2)
        expected = 2 * math.cos(2 * math.pi / 5) + math.cos(4 * math.pi / 5)
        assert report.objective == pytest.approx(expected, abs=1e-12)
        assert report.objective == pytest.approx(-0.19098300562505244, abs=1e-12)

    def test_n3_floor(self):
        assert worst_subset(design_small_odd(3)).objective == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 7, 9])
    def test_rejects_other_n(self, n):
        with pytest.raises(ValueError):
            design_small_odd(n)


class TestLargeOdd:
    def test_n7_angles(self):
        a = design_large_odd(7)
        want = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 0.0, math.pi / 4, math.pi / 2)
        assert a.angles == pytest.approx(want, abs=1e-12)
        # placements stay distinct on the full circle
        assert len(set(a.raw)) == 7

    def test_n7_worst_case(self):
        report = worst_subset(design_large_odd(7))
        assert report.objective == pytest.approx(1.0, abs=1e-12)
        assert report.summary.gram_condition == pytest.approx(GOLDEN_RATIO_CONDITION, abs=1e-9)
        assert report.subsets_evaluated == 13  # 7 windows, 6 tied candidates

    @pytest.mark.parametrize("n", [1, 5, 6, 8])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            design_large_odd(n)


class TestBaselines:
    def test_semicircle(self):
        a = baseline_semicircle(7)
        assert a.angles == pytest.approx(tuple(math.pi * i / 7 for i in range(7)), abs=1e-15)

    def test_circle_normalizes(self):
        a = baseline_circle(5)
        assert all(0 <= t < math.pi for t in a.angles)
        assert a.raw == pytest.approx(tuple(2 * math.pi * i / 5 for i in range(5)), abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_min_n(self, n):
        with pytest.raises(ValueError):
            baseline_semicircle(n)
        with pytest.raises(ValueError):
            baseline_circle(n)

    def test_circle_equals_even_design_for_even_n(self):
        for n in (4, 6, 8, 10):
            assert baseline_circle(n).angles == design_even(n, "b").angles


class TestOptimalDispatch:
    def test_even_uses_full_circle_metadata(self):
        a = design_optimal(10)
        assert a.raw == design_even(10, "b").raw

    def test_small_odd(self):
        assert design_optimal(3).angles == design_small_odd(3).angles
        assert design_optimal(5).angles == design_small_odd(5).angles

    def test_large_odd(self):
        assert design_optimal(9).angles == design_large_odd(9).angles

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            design_optimal(2)

    def test_never_worse_than_baselines(self):
        for n in range(3, 16):
            opt = worst_subset(design_optimal(n)).objective
            semi = worst_subset(baseline_semicircle(n)).objective
            circ = worst_subset(baseline_circle(n)).objective
            assert opt <= semi + 1e-12
            assert opt <= circ + 1e-12


class TestBuildDesign:
    def test_known_schemes(self):
        assert build_design(7, "theorem_large_odd").angles == design_large_odd(7).angles
        assert build_design(4, "theorem_even_a").angles == design_even(4, "a").angles
        assert build_design(8, "optimal").angles == design_optimal(8).angles
        assert build_design(6, "semicircle").angles == baseline_semicircle(6).angles

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_design(5, "zigzag")

    @pytest.mark.parametrize("n", [8.0, "5", True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_integer_n_rejected(self, scheme, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build_design(n, scheme)

    def test_parity_violation_names_constraint(self):
        with pytest.raises(ValueError, match="even n >= 4"):
            build_design(7, "theorem_even_a")
