import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gram_eigenvalues_direct, pair_cosine_sum_loop

from sensedesign import (
    AngleSet,
    SubsetSelection,
    angles_to_matrix,
    design_optimal,
    normalize_angle,
    spectral_summary,
)
from sensedesign import core
from sensedesign.core import _pair_sum, _sum

finite_angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def brute_eigs(angles: AngleSet, idx) -> np.ndarray:
    cols = np.array([[math.cos(angles.angles[i]), math.sin(angles.angles[i])] for i in idx]).T
    return np.linalg.eigvalsh(cols @ cols.T)


class TestNormalizeAngle:
    def test_identity_on_range(self):
        assert normalize_angle(0.0) == 0.0
        assert normalize_angle(1.0) == 1.0

    def test_wraps(self):
        assert normalize_angle(math.pi) == 0.0
        assert normalize_angle(5 * math.pi / 4) == pytest.approx(math.pi / 4, abs=1e-15)
        assert normalize_angle(-math.pi / 4) == pytest.approx(3 * math.pi / 4, abs=1e-15)

    def test_tiny_negative_stays_in_range(self):
        r = normalize_angle(-1e-20)
        assert 0.0 <= r < math.pi

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            normalize_angle(bad)

    @given(finite_angles)
    @settings(derandomize=True)
    def test_always_in_range(self, theta):
        r = normalize_angle(theta)
        assert 0.0 <= r < math.pi


class TestAngleSet:
    def test_normalizes_and_keeps_raw(self):
        a = AngleSet([0.0, 5 * math.pi / 4, -0.5])
        assert a.angles[0] == 0.0
        assert a.angles[1] == pytest.approx(math.pi / 4)
        assert a.angles[2] == pytest.approx(math.pi - 0.5)
        assert a.raw == (0.0, 5 * math.pi / 4, -0.5)
        assert a.n == 3

    def test_full_circle_angle_kept_as_raw(self):
        a = AngleSet([0.0, 3 * math.pi / 2])
        assert a.raw == (0.0, 3 * math.pi / 2)
        assert a.angles == (0.0, math.pi / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AngleSet([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            AngleSet([0.0, math.nan])


class TestSubsetSelection:
    def test_valid(self):
        s = SubsetSelection([0, 2, 5])
        assert s.indices == (0, 2, 5)
        assert s.k == 3

    # the last four are not integers: int() would truncate or parse them into a valid subset
    @pytest.mark.parametrize(
        "bad",
        [[1, 1, 2], [2, 1], [-1, 0], [0.9, 1.5, 2.2], [0, 1.99, 2.5], ["0", "1", "2"], [False, True]],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError, match="subset ind"):
            SubsetSelection(bad)
        with pytest.raises(ValueError, match="subset ind"):
            spectral_summary(design_optimal(7), bad)

    def test_numpy_integer_indices_are_accepted(self):
        for dtype in (np.int64, np.int32, np.uint8):
            s = SubsetSelection(np.array([0, 2, 5], dtype=dtype))
            assert s.indices == (0, 2, 5) and all(type(i) is int for i in s.indices)
        angles = design_optimal(7)
        assert spectral_summary(angles, np.arange(3)) == spectral_summary(angles, [0, 1, 2])


class TestMatrix:
    def test_unit_columns(self):
        a = AngleSet([0.0, 1.0, 2.5])
        m = angles_to_matrix(a)
        assert m.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-15)
        assert m[0, 0] == 1.0 and m[1, 0] == 0.0


class TestPairCosineSum:
    def test_three_quarter_spread(self):
        a = AngleSet([0.0, math.pi / 4, math.pi / 2])
        assert spectral_summary(a, [0, 1, 2]).pair_cosine_sum == pytest.approx(-1.0, abs=1e-12)

    def test_singleton_is_zero(self):
        a = AngleSet([0.3, 0.7])
        assert spectral_summary(a, [1]).pair_cosine_sum == 0.0

    def test_out_of_range_raises_index_error(self):
        a = AngleSet([0.0, 1.0])
        with pytest.raises(IndexError):
            spectral_summary(a, [0, 2])

    @given(st.lists(finite_angles, min_size=3, max_size=6))
    @settings(derandomize=True)
    def test_lower_bound(self, values):
        a = AngleSet(values)
        k = 3
        s = spectral_summary(a, list(range(k))).pair_cosine_sum
        # K + 2S is a squared resultant, so S >= -K/2 up to rounding
        assert s >= -k / 2 - 1e-12

    @given(
        st.integers(1, 8),
        st.lists(st.complex_numbers(min_magnitude=1e-8, max_magnitude=1e3), min_size=1, max_size=50),
    )
    @settings(derandomize=True)
    def test_array_matches_scalar_bit_for_bit(self, k, resultants):
        # the grid search scores whole arrays of resultants; each entry must
        # round exactly as the scalar call does
        batched = _pair_sum(k, np.array(resultants))
        assert batched.tolist() == [_pair_sum(k, r) for r in resultants]


class TestSum:
    # K = 1..12 terms, past the 8 from which a numpy reduction along a contiguous axis goes pairwise
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_each_column_is_a_scalar_left_to_right_sum(self, k, dtype):
        rng = np.random.default_rng(k)

        def draw():  # magnitudes from 1e-8 to 1e8, so that the order of the adds shows in the bits
            return rng.standard_normal((k, 40)) * 10.0 ** rng.integers(-8, 9, (k, 40))

        values = draw() if dtype is np.float64 else draw() + 1j * draw()
        columns = values.T.tolist()
        want = np.array([functools.reduce(operator.add, c) for c in columns], dtype=dtype)
        if k >= 3:  # the data tells the orders apart: some column's reversed sum has other bits
            backward = np.array([functools.reduce(operator.add, c[::-1]) for c in columns], dtype=dtype)
            assert backward.tobytes() != want.tobytes()
        for terms in (np.ascontiguousarray(values), np.asfortranarray(values), list(values)):
            got = _sum(terms)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestEigenvalues:
    def test_quarter_spread_example(self):
        a = AngleSet([0.0, math.pi / 4, math.pi / 2])
        s = spectral_summary(a, [0, 1, 2])
        lo, hi = s.lambda_min, s.lambda_max
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_coincident_angles_collapse_rank(self):
        a = AngleSet([0.3, 0.3, 0.3])
        s = spectral_summary(a, [0, 1, 2])
        lo, hi = s.lambda_min, s.lambda_max
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = rng.uniform(-8, 8, 5)
            a = AngleSet(vals)
            idx = sorted(rng.choice(5, size=3, replace=False).tolist())
            s = spectral_summary(a, idx)
            ref = brute_eigs(a, idx)
            assert s.lambda_min == pytest.approx(ref[0], abs=1e-10)
            assert s.lambda_max == pytest.approx(ref[1], abs=1e-10)

    @given(st.lists(finite_angles, min_size=3, max_size=7), st.integers(0, 10_000))
    @settings(derandomize=True, max_examples=150)
    def test_closed_form_equals_direct(self, values, pick):
        a = AngleSet(values)
        combos = list(itertools.combinations(range(a.n), 3))
        idx = combos[pick % len(combos)]
        s = spectral_summary(a, idx)
        closed = (s.lambda_min, s.lambda_max)
        direct = gram_eigenvalues_direct(a, idx)
        assert closed[0] == pytest.approx(direct[0], abs=1e-10)
        assert closed[1] == pytest.approx(direct[1], abs=1e-10)
        # trace identity: the two eigenvalues always sum to K
        assert closed[0] + closed[1] == pytest.approx(3.0, abs=1e-12)


class TestResultant:
    def test_selection_is_used_as_given(self, monkeypatch):
        # a SubsetSelection was checked when it was built: the same bits, no second
        # construction, and the range against the angle count is still checked
        angles = design_optimal(9)
        sel = SubsetSelection([1, 4, 7])
        expected = repr(core._resultant(angles, [1, 4, 7]))
        built = []
        init = SubsetSelection.__init__

        def counted(self, indices):
            built.append(indices)
            init(self, indices)

        monkeypatch.setattr(SubsetSelection, "__init__", counted)
        assert repr(core._resultant(angles, sel)) == expected
        assert built == []
        with pytest.raises(IndexError, match="out of range for 5 items"):
            core._resultant(design_optimal(5), sel)
        assert repr(core._resultant(angles, (1, 4, 7))) == expected
        assert built == [(1, 4, 7)]  # any other sequence is wrapped, and checked, once
        with pytest.raises(ValueError, match="strictly increasing"):
            core._resultant(angles, [4, 1, 7])


class TestSpectralSummary:
    def test_fields_consistent(self):
        a = AngleSet([0.0, math.pi / 4, math.pi / 2])
        s = spectral_summary(a, [0, 1, 2])
        assert s.pair_cosine_sum == pytest.approx(pair_cosine_sum_loop(a, (0, 1, 2)), abs=1e-12)
        assert s.gram_condition == pytest.approx(2.0, abs=1e-12)
        assert s.matrix_condition == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_singular_reports_infinite_condition(self):
        a = AngleSet([0.7, 0.7, 0.7])
        s = spectral_summary(a, [0, 1, 2])
        assert math.isinf(s.gram_condition)
        assert math.isinf(s.matrix_condition)
        assert s.lambda_min == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(finite_angles, min_size=3, max_size=5), finite_angles)
    @settings(derandomize=True, max_examples=150)
    def test_shift_invariance(self, values, delta):
        base = AngleSet(values)
        moved = AngleSet([a + delta for a in base.angles])
        idx = list(range(3))
        s0 = spectral_summary(base, idx)
        s1 = spectral_summary(moved, idx)
        assert s1.pair_cosine_sum == pytest.approx(s0.pair_cosine_sum, abs=1e-10)
        assert s1.lambda_min == pytest.approx(s0.lambda_min, abs=1e-10)
        assert s1.lambda_max == pytest.approx(s0.lambda_max, abs=1e-10)

    @given(st.lists(finite_angles, min_size=3, max_size=5))
    @settings(derandomize=True, max_examples=100)
    def test_half_turn_invariance(self, values):
        base = AngleSet(values)
        bumped = AngleSet([values[0] + math.pi] + values[1:])
        idx = list(range(3))
        s0 = spectral_summary(base, idx)
        s1 = spectral_summary(bumped, idx)
        assert s1.pair_cosine_sum == pytest.approx(s0.pair_cosine_sum, abs=1e-12)
        assert s1.lambda_min == pytest.approx(s0.lambda_min, abs=1e-12)

    def test_monotone_link_argmax_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = AngleSet(rng.uniform(0, math.pi, 6))
            combos = list(itertools.combinations(range(6), 3))
            sums = [spectral_summary(a, c).pair_cosine_sum for c in combos]
            conds = [spectral_summary(a, c).gram_condition for c in combos]
            by_sum = max(range(len(combos)), key=lambda i: sums[i])
            # the subset with the largest pair-cosine sum is worst-conditioned
            assert conds[by_sum] == max(conds)
