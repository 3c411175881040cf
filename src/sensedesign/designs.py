"""Closed-form angle placements and the baselines they are judged against.

The minimax-optimal constructions come in three families, split by the
parity and size of n:

* even n >= 4: angles 2*pi*(i-1)/n reduced mod pi, which collapses the n
  directions onto n/2 doubly-occupied lines;
* odd n in {3, 5}: the uniform semicircle pi*(i-1)/n;
* odd n >= 7: angles 2*pi*(i-1)/(n+1) reduced mod pi, i.e. the even
  construction for n+1 with one direction left out.

Baselines are the uniform semicircle and the uniform full circle.  Designs
normalized mod pi can still carry distinct physical placements; the
pre-reduction angle is kept in ``AngleSet.raw`` for that purpose.
"""

from __future__ import annotations

import math

from .core import AngleSet, _check_int

# convenience spellings accepted by build_design / the CLI
SCHEME_ALIASES = {
    "optimal": "optimal_auto",
    "semicircle": "baseline_semicircle",
    "circle": "baseline_circle",
}


def design_even(n: int, variant: str = "b") -> AngleSet:
    """Paired-line placement for even n >= 4.

    Variant "a" places sensors directly on the mod-pi angles (pairs of
    coincident placements); variant "b" spreads them over the full circle
    at 2*pi*(i-1)/n and keeps that placement in ``raw``.  Both normalize
    to the same multiset of lines.
    """
    _check_int("n", n, 1, type_only=True)
    if n < 4 or n % 2:
        raise ValueError(f"even design needs even n >= 4, got n={n}")
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    full = [2.0 * math.pi * i / n for i in range(n)]
    if variant == "a":
        return AngleSet([a % math.pi for a in full])
    return AngleSet(full)


def design_small_odd(n: int) -> AngleSet:
    """Uniform semicircle, optimal only for n = 3 and n = 5."""
    _check_int("n", n, 1, type_only=True)
    if n not in (3, 5):
        raise ValueError(f"small-odd design is defined for n in {{3, 5}}, got n={n}")
    return AngleSet([math.pi * i / n for i in range(n)])


def design_large_odd(n: int) -> AngleSet:
    """Even construction for n+1 with the last direction dropped; odd n >= 7."""
    _check_int("n", n, 1, type_only=True)
    if n < 7 or n % 2 == 0:
        raise ValueError(f"large-odd design needs odd n >= 7, got n={n}")
    return AngleSet([2.0 * math.pi * i / (n + 1) for i in range(n)])


def baseline_semicircle(n: int) -> AngleSet:
    """Uniform angles pi*(i-1)/n on the semicircle."""
    _check_int("n", n, 1, type_only=True)
    if n < 3:
        raise ValueError(f"baseline needs n >= 3, got n={n}")
    return AngleSet([math.pi * i / n for i in range(n)])


def baseline_circle(n: int) -> AngleSet:
    """Uniform placements 2*pi*(i-1)/n on the full circle, reduced mod pi."""
    _check_int("n", n, 1, type_only=True)
    if n < 3:
        raise ValueError(f"baseline needs n >= 3, got n={n}")
    return AngleSet([2.0 * math.pi * i / n for i in range(n)])


def design_optimal(n: int) -> AngleSet:
    """Minimax-optimal placement for any n >= 3, dispatched on n."""
    _check_int("n", n, 1, type_only=True)
    if n < 3:
        raise ValueError(f"optimal design needs n >= 3, got n={n}")
    if n % 2 == 0:
        return design_even(n, variant="b")
    if n in (3, 5):
        return design_small_odd(n)
    return design_large_odd(n)


# scheme name -> constructor; each lambda looks its function up at call time,
# so a rebound module function (a profiler's wrapper, a test patch) is the one called
_BUILDERS = {
    "theorem_even_a": lambda n: design_even(n, variant="a"),
    "theorem_even_b": lambda n: design_even(n, variant="b"),
    "theorem_small_odd": lambda n: design_small_odd(n),
    "theorem_large_odd": lambda n: design_large_odd(n),
    "baseline_semicircle": lambda n: baseline_semicircle(n),
    "baseline_circle": lambda n: baseline_circle(n),
    "optimal_auto": lambda n: design_optimal(n),
}
SCHEMES = tuple(_BUILDERS)


def build_design(n: int, scheme: str) -> AngleSet:
    """Construct a design by scheme name (aliases accepted)."""
    build = _BUILDERS.get(SCHEME_ALIASES.get(scheme, scheme))
    if build is None:
        raise ValueError(f"unknown scheme {scheme!r}; known schemes: {', '.join(SCHEMES)}")
    return build(n)
