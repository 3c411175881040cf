"""The paper's headline claim for every n from 3 to 300 and a few up to 10^4, through closed forms.

The paired-line design's worst window is two sensors on one line and one on the next, so its worst
pair-cosine sum is S_opt(n) = 1 + 2 cos(4 pi / m), with m = n for even n and m = n + 1 for odd n >= 7.
The uniform semicircle's worst window is three neighbouring lines: S_unif(n) = 2 cos(2 pi / n) +
cos(4 pi / n).  At n = 3 and 5 the paired lines lose to the semicircle, so the paper keeps the
semicircle there and S_opt = S_unif.
"""

import math

from sensedesign import AngleSet, baseline_circle, build_design, worst_subset

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
