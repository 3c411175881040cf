"""Angle sets, unit-column matrices and the one 2x2 spectrum they all share.

A sensing direction in the plane is a unit column u = (cos t, sin t) and
only its line matters, so angles live on [0, pi).  Every spectral quantity
in the package is an instance of one identity: for directions t_i with
weights w_i,

    sum_i w_i u_i u_i^T = (W I + [[Re R, Im R], [Im R, -Re R]]) / 2,
    W = sum_i w_i,  R = sum_i w_i exp(2i t_i),

so its eigenvalues are (W -+ |R|) / 2.  With unit weights this is the Gram
matrix A A^T of a K-column subset (W = K), and the pair-cosine sum
S = sum_{j<l} cos 2(t_l - t_j) equals (|R|^2 - K) / 2; the worst-subset
search, condition numbers, error bounds and the ring Fisher information
(w_i = 1 / d_i^2) are all built from the pair (W, R).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# lambda_min at or below this fraction of W counts as rank deficient
RANK_TOL_SCALE = 1e-12


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the line representative in [0, pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    r = math.fmod(theta, math.pi)
    if r < 0.0:
        r += math.pi
    if r >= math.pi:  # fmod(-eps, pi) + pi can round up to pi itself
        r = 0.0
    return r


@dataclass(frozen=True)
class AngleSet:
    """Ordered sensing angles, normalized to [0, pi) at construction.

    ``raw`` keeps the angles as given, before mod-pi reduction.  Designs
    that place physical sensors on a full circle pass the placement angles,
    which ``ring_positions`` reads from there; the normalized values are
    what every spectral quantity uses.
    """

    angles: tuple[float, ...]
    raw: tuple[float, ...] = field(default=())

    def __init__(self, angles: Iterable[float]):
        given = tuple(float(a) for a in angles)
        if not given:
            raise ValueError("AngleSet needs at least one angle")
        object.__setattr__(self, "angles", tuple(normalize_angle(a) for a in given))
        object.__setattr__(self, "raw", given)

    @property
    def n(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class SubsetSelection:
    """Strictly increasing column indices of a chosen submatrix."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        idx = tuple(indices)
        for i in idx:  # int() would truncate 1.99 to 1 and parse "1"
            _check_int("subset index", i, 0, type_only=True)
        idx = tuple(int(i) for i in idx)
        if any(i < 0 for i in idx):
            raise ValueError(f"subset indices must be nonnegative, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subset indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _check_range(subset: SubsetSelection, n: int) -> None:
    """IndexError unless every index of ``subset`` is below the item count ``n``."""
    if subset.indices and subset.indices[-1] >= n:
        raise IndexError(f"subset index {subset.indices[-1]} out of range for {n} items")


def _check_int(name: str, value, least: int, *, type_only: bool = False) -> None:
    """ValueError unless ``value`` is an int (numpy's too, but not a bool) of at least ``least``.

    ``type_only`` skips the bound, so a caller can reject a non-integer before its own range check
    (comparing a string raises TypeError) and keep that check's message for integers.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or (not type_only and value < least):
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def angles_to_matrix(angles: AngleSet) -> np.ndarray:
    """2xN matrix whose i-th column is (cos t_i, sin t_i)."""
    th = np.asarray(angles.angles)
    return np.vstack([np.cos(th), np.sin(th)])


def _resultant(
    angles: AngleSet, subset: SubsetSelection | Sequence[int]
) -> tuple[int, complex]:
    """(K, R) of a subset: its size and the sum of exp(2i t_j), in index order.

    A ``SubsetSelection`` is used as given (its indices were checked when it
    was built); any other sequence is wrapped, and checked, first.
    """
    sel = subset if isinstance(subset, SubsetSelection) else SubsetSelection(subset)
    _check_range(sel, angles.n)
    return sel.k, sum(cmath.exp(2j * angles.angles[i]) for i in sel.indices)


def _sum(terms: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Left-to-right sum of arrays, or of a 2-D array's rows: the package's one array sum.

    Each element gets the bits of a scalar left-to-right evaluation, whatever the layout, the batch
    or the numpy build (a numpy reduction or ``einsum`` may reorder or block its sums).
    """
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _pair_sum(k, resultant):
    """S = sum over pairs of cos 2(t_l - t_j) of K unit columns, (|R|^2 - K) / 2.

    Takes a complex scalar R or an array of them.  |R|^2 is formed from real
    products (Re R * Re R + Im R * Im R), each rounded on its own, so a
    Python scalar and each entry of an array give the same bits.
    """
    return 0.5 * (resultant.real * resultant.real + resultant.imag * resultant.imag - k)


def _spectrum(weight: float, resultant: complex) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, condition) of sum_i w_i u_i u_i^T from scalar (W, R).

    Takes Python scalars (real W, complex R) and returns Python floats.  The
    package's only rank rule: lambda_min <= RANK_TOL_SCALE * W counts as
    rank deficient, with an infinite condition number and no division.
    """
    m = abs(resultant)
    lo = max(0.5 * (weight - m), 0.0)
    hi = 0.5 * (weight + m)
    if lo <= RANK_TOL_SCALE * weight:
        return lo, hi, math.inf
    return lo, hi, hi / lo


def _matrix(weight, resultant: complex) -> np.ndarray:
    """sum_i w_i u_i u_i^T assembled from (W, R)."""
    c, s = resultant.real, resultant.imag
    return 0.5 * np.array([[weight + c, s], [s, weight - c]])


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral figures of one K-column submatrix.

    ``pair_cosine_sum`` is S = sum over index pairs j < l of
    cos 2(t_l - t_j), computed as (|R|^2 - K) / 2.  It ranges over
    [-K/2, K(K-1)/2]; the lower bound holds because K + 2*S is a squared
    resultant and cannot be negative.
    """

    pair_cosine_sum: float
    lambda_min: float
    lambda_max: float
    gram_condition: float
    matrix_condition: float


def _summary(k: int, resultant: complex) -> SpectralSummary:
    lo, hi, cond = _spectrum(k, resultant)
    return SpectralSummary(
        pair_cosine_sum=_pair_sum(k, resultant),
        lambda_min=lo,
        lambda_max=hi,
        gram_condition=cond,
        matrix_condition=math.sqrt(cond),
    )


def spectral_summary(
    angles: AngleSet, subset: SubsetSelection | Sequence[int]
) -> SpectralSummary:
    """Eigenvalues and condition numbers for one subset, from its (K, R).

    A subset whose lambda_min is at or below RANK_TOL_SCALE * K is treated
    as rank deficient and reports infinite condition numbers.
    """
    return _summary(*_resultant(angles, subset))
