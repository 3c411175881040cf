"""The paper's headline claim for every n from 3 to 300 and a few up to 10^4, through closed forms.

The paired-line design's worst window is two sensors on one line and one on the next, so its worst
pair-cosine sum is S_opt(n) = 1 + 2 cos(4 pi / m), with m = n for even n and m = n + 1 for odd n >= 7.
The uniform semicircle's worst window is three neighbouring lines: S_unif(n) = 2 cos(2 pi / n) +
cos(4 pi / n).  At n = 3 and 5 the paired lines lose to the semicircle, so the paper keeps the
semicircle there and S_opt = S_unif.

At even n the paired lines are optimal: every design with n >= 4 lines has worst S >= 1 + 2 cos(4 pi / n).
A window of three neighbouring lines with gaps a, b >= 0, s = a + b <= pi/2, has
f(a, b) = cos 2a + cos 2b + cos 2s = 2 cos s cos(a - b) + cos 2s >= 2 cos^2 s + cos 2s = 1 + 2 cos 2s,
since |a - b| <= s and cos s >= 0.  The n gaps x_i around the half-turn add to pi, so the n sums
x_i + x_{i+1} add to 2 pi and one is at most 2 pi / n <= pi/2; 1 + 2 cos 2s falls on [0, pi/2], so that
window's f is at least 1 + 2 cos(4 pi / n), and the worst window's is no less.  At even n that is S_opt(n).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensedesign import AngleSet, baseline_circle, build_design, design_optimal, worst_subset

N = [*range(3, 301), 1000, 1001, 3000, 3001, 10000, 10001]
TOL = 1e-13  # largest deviation measured over N: 1.8e-15


def paired_lines(m: int) -> float:
    return 1.0 + 2.0 * math.cos(4.0 * math.pi / m)


def s_unif(n: int) -> float:
    return 2.0 * math.cos(2.0 * math.pi / n) + math.cos(4.0 * math.pi / n)


def s_opt(n: int) -> float:
    if n in (3, 5):
        return s_unif(n)
    return paired_lines(n if n % 2 == 0 else n + 1)


def worst(n: int, scheme: str) -> float:
    return worst_subset(build_design(n, scheme), 3).objective


def test_optimal_design_has_the_closed_form():
    deviation = {n: abs(worst(n, "optimal") - s_opt(n)) for n in N}
    assert max(deviation.values()) <= TOL, max(deviation, key=deviation.get)


def test_semicircle_has_the_closed_form():
    deviation = {n: abs(worst(n, "semicircle") - s_unif(n)) for n in N}
    assert max(deviation.values()) <= TOL, max(deviation, key=deviation.get)


def test_optimal_design_beats_the_semicircle_at_every_odd_n_from_7():
    for n in (n for n in N if n >= 7 and n % 2):
        assert s_opt(n) < s_unif(n), n
        assert worst(n, "optimal") < worst(n, "semicircle"), n


def test_paired_lines_lose_to_the_semicircle_at_3_and_5():
    # the odd-n construction (the even one for n + 1, one direction left out) is worse there
    for n in (3, 5):
        lines = AngleSet(baseline_circle(n + 1).raw[:n])
        assert abs(worst_subset(lines, 3).objective - paired_lines(n + 1)) <= TOL
        assert paired_lines(n + 1) > s_unif(n), n


def even_bound(n: int) -> float:
    return 1.0 + 2.0 * math.cos(4.0 * math.pi / n)


@settings(derandomize=True, max_examples=500)
@given(st.floats(0.0, math.pi / 2), st.floats(0.0, 1.0))
def test_window_of_gaps_a_b_is_at_least_the_bound_of_their_sum(s, share):
    a = s * share
    b = s - a
    f = math.cos(2 * a) + math.cos(2 * b) + math.cos(2 * (a + b))
    assert f >= 1.0 + 2.0 * math.cos(2 * (a + b)) - 1e-14  # a few roundings of sums up to 3


def test_no_design_beats_the_even_bound():
    # uniform random designs, and the optimal design perturbed by 1e-6 to 1e-1 rad
    rng = np.random.default_rng(17)
    for n in range(4, 16):
        designs = [rng.uniform(0.0, 2 * math.pi, n) for _ in range(250)]
        base = np.array(design_optimal(n).raw)
        designs += [base + rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-6, -1) for _ in range(250)]
        lowest = min(worst_subset(AngleSet(d.tolist()), 3).objective for d in designs)
        assert lowest >= even_bound(n) - 1e-12, n


def test_optimal_design_attains_the_even_bound():
    for n in range(4, 16, 2):
        assert abs(worst_subset(design_optimal(n), 3).objective - even_bound(n)) <= 1e-13, n
