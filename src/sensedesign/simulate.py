"""Monte Carlo studies driven by the worst-conditioned subset.

Two settings share the same geometric core:

* linear estimation y = A_S^T x + w on a K-column subset, where the
  recovery error x_hat - x = (A_S A_S^T)^-1 A_S w does not depend on x and
  obeys ||x_hat - x|| <= ||w|| / sigma_min(A_S) (a property test checks it
  on ``least_squares_estimate`` and ``spectral_summary``); the simulation
  averages the squared error unit noise leaves on the worst subset, next to
  the analytic K / (lambda_min * lambda_max), both per unit noise variance;
* source monitoring from log-RSS readings of ring sensors, where the
  triple with the worst Fisher-information condition number is activated
  and the source is located by Levenberg-Marquardt from a grid's best node.

Randomness policy: ``_trial_noise`` draws each noise table, one trial
per row, in one call from a single PCG64 stream seeded by
``SeedSequence(key)``; the key is the sweep's seed (plus the SNR point for
monitoring).  The table is filled row-major, so row t holds the stream's
normals t * size to (t + 1) * size - 1 and a T-row table is the first T
rows of any longer one.  Runs are therefore reproducible, a trial's draw
does not depend on the trial count, and trial order does not matter.
Seeds are nonnegative ints.  The two public studies, ``simulate_estimation``
and ``simulate_monitoring``, are sweeps: each takes a list of scenarios (a
command runs all its designs in one call), returns one result per scenario,
and draws each distinct table once, after every design's worst subset is
picked and before any recovery or solve (estimation also builds every
recovery operator first), so a refused subset count or a rank-deficient
worst subset draws nothing.  A table is fixed by its key, the scenario's
trial count and its row width (K, or n for monitoring), and every design
and row with the same three shares it.  The tables live only for the sweep call.

Localization: ``ml_locate`` and the monitoring sweep share one solver,
``_locate``, which solves the readings of every design of a sweep, one trial
per row, as one batch (``_LM_ROWS`` rows at a time).  Each row starts at its
design's best coarse-grid node, the nearest in reading space.  The search
for it is pruned by tile bounds but exact: it picks the node a scan of every
node picks (see ``_start``).  The row is then refined by Levenberg-Marquardt
on every row together: damped Newton steps on the closed-form Hessian of the
squared residual norm (J^T J plus the curvature term of the nonzero
residual), each a 2x2 solve by Cramer's rule, so the rows converge
quadratically; a gain predicted from step and gradient alone; Nielsen's
damping update; and MINPACK's xtol and ftol stopping tests, both at
``LM_TOL``.  A solution outside the search disc is solved again over the rim
angle, from its exit direction, on ``_disc_model``'s r and J, with J^T J
alone; no row goes to scipy.  A row still running after ``_LM_ITERATIONS``
steps keeps its last accepted iterate, and a row whose residual ends
non-finite, or above its grid node's, keeps the grid node.  Every residual
reported, the grid node's included, is ``_disc_model``'s at the reported
point, read once after the solves.  The estimate is a local minimiser of
that residual, not always the global one: ROADMAP item 10 found 2 of 560
benchmark-size rows and 72 of 28,000 paper-scale rows where a lower one
exists.  Each row carries its own sensor positions, path loss, centre and
radius; operations are elementwise and sums over sensors add rows left to
right (``.sum(axis=0)`` goes pairwise from K = 8 on a one-row batch), so a
row's bits do not depend on the rows or designs batched with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AngleSet,
    SubsetSelection,
    _check_int,
    _check_range,
    _matrix,
    _resultant,
    _spectrum,
)
from .search import ResourceLimitError, WorstCaseReport, _first_tied, worst_subset

MIN_SENSOR_DISTANCE = 1e-12
# hard ceiling on the subsets worst_fim_subset scores: it holds about 104 bytes per subset (measured),
# so ~1 GB at this ceiling, which admits n <= 392 at K = 3
_FIM_SUBSETS = 10**7


class SingularSubsetError(ValueError):
    """The chosen subset's Gram matrix is numerically rank deficient."""


class DegenerateGeometryError(ValueError):
    """Active sensors are collinear; the source is not identifiable."""


# ---------------------------------------------------------------------------
# linear estimation on the worst subset


@dataclass(frozen=True)
class EstimationScenario:
    angles: AngleSet
    k: int = 3
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_int("k", self.k, 1, type_only=True)
        if not 1 <= self.k <= self.angles.n:
            raise ValueError(f"need 1 <= k <= {self.angles.n}, got k={self.k}")
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)


def _check_pair(name: str, value) -> None:
    """ValueError unless ``value`` holds exactly two finite numbers (NaN fails)."""
    if len(value) != 2:
        raise ValueError(f"{name} must have exactly 2 entries, got {value!r}")
    if not all(map(math.isfinite, value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _stream(key) -> np.random.Generator:
    """The PCG64 stream default_rng(SeedSequence(key)).

    numpy.random is imported here, at the first noise draw, so the commands
    that draw none (design, evaluate, verify) never load it.
    """
    from numpy.random import SeedSequence, default_rng

    return default_rng(SeedSequence(key))


def _trial_noise(key: tuple[int, ...], trials: int, size: int) -> np.ndarray:
    """Standard normal (trials, size) table from the one stream SeedSequence(key), filled row by row."""
    return _stream(key).standard_normal((trials, size))


def _recovery(angles: AngleSet, sel: SubsetSelection) -> np.ndarray:
    """The recovery operator (A_S A_S^T)^-1 A_S in closed form; SingularSubsetError if rank deficient.

    With G = A_S A_S^T = (K I + M) / 2 and M = [[Re R, Im R], [Im R, -Re R]],
    M^2 = |R|^2 I, so G^-1 = (K I - M) / (2 lambda_min lambda_max): column i
    of the result is G^-1 (cos t_i, sin t_i), from the K selected angles
    alone and the (lambda_min, lambda_max) of ``_spectrum``, with no solve.
    """
    k, r = _resultant(angles, sel)
    lo, hi, cond = _spectrum(k, r)
    if math.isinf(cond):
        raise SingularSubsetError(f"subset {sel.indices} is rank deficient (lambda_min={lo:.3e})")
    t = np.asarray(angles.angles)[list(sel.indices)]
    c, s = np.cos(t), np.sin(t)
    return np.array([(k - r.real) * c - r.imag * s, (k + r.real) * s - r.imag * c]) / (2.0 * lo * hi)


def _estimates(recover: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """x_hat (2, trials) for readings given sensor by sensor, columns (K, trials): column t is trial t's y.

    Row j is recover[j, 0] * y_0 + recover[j, 1] * y_1 + ..., added left
    to right with one rounded multiply and one rounded add a term, so every
    trial gets the bits of a scalar evaluation of that sum, whatever the
    BLAS build and the trials computed with it (pinned by tests).
    """
    out = np.empty((2, columns.shape[1]))
    for j in range(2):
        np.multiply(recover[j, 0], columns[0], out=out[j])
        for i in range(1, len(columns)):
            out[j] += recover[j, i] * columns[i]
    return out


def least_squares_estimate(
    angles: AngleSet, subset: SubsetSelection | Sequence[int], y: Sequence[float]
) -> np.ndarray:
    """Least-squares recovery x_hat = (A_S A_S^T)^-1 A_S y, through the estimation sweep's two helpers."""
    sel = SubsetSelection(subset)
    obs = np.asarray(y, dtype=float)
    if obs.shape != (sel.k,):
        raise ValueError(f"y must have shape ({sel.k},), got {obs.shape}")
    return _estimates(_recovery(angles, sel), obs[:, None])[:, 0]


@dataclass(frozen=True)
class EstimationResult:
    """Worst-subset recovery MSE, its standard error and trace(G^-1), all per unit noise variance.

    For noise of standard deviation sigma, multiply all three by sigma^2.
    """

    mse: float
    std_error: float
    expected_mse: float
    report: WorstCaseReport


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (0 for one trial) of nonnegative per-trial values, finite if representable."""
    trials, scale = len(values), 1.0
    with np.errstate(over="ignore"):
        se = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
    if se == math.inf:  # std squared the deviations: redo it on the values over their maximum, scaled back
        scale = float(values.max())
        values = values / scale
        se = values.std(ddof=1) / math.sqrt(trials)
    return scale * float(values.mean()), scale * float(se)


def simulate_estimation(scenarios: Sequence[EstimationScenario]) -> list[EstimationResult]:
    """Average squared recovery error on each scenario's worst-conditioned subset.

    Returns one result per scenario, in order.  The error x_hat - x =
    (A_S A_S^T)^-1 A_S w is free of the signal x, so each trial recovers its
    unit-noise row; the result holds the mean squared error, its standard
    error and the closed form trace(G^-1) = K / (lambda_min * lambda_max) of
    the worst subset's Gram matrix G, all per unit noise variance.  Every
    scenario's worst subset and recovery operator come before the noise
    tables, so a rank-deficient subset raises SingularSubsetError with
    nothing drawn.  Each noise table is drawn once, and transposed once to
    one row per sensor: a table depends only on its ``_trial_noise`` key
    (seed,), the trial count and the row width K, so scenarios that share
    all three share it.
    """
    studies = []
    for scenario in scenarios:
        report = worst_subset(scenario.angles, scenario.k)
        studies.append((scenario, report, _recovery(scenario.angles, report.worst_subset)))
    keys = {((s.seed,), s.trials, s.k) for s in scenarios}
    tables = {key: np.ascontiguousarray(_trial_noise(*key).T) for key in keys}
    results = []
    for scenario, report, recover in studies:
        e0, e1 = _estimates(recover, tables[(scenario.seed,), scenario.trials, scenario.k])
        mse, se = _mean_and_se(e0 * e0 + e1 * e1)
        expected = scenario.k / (report.summary.lambda_min * report.summary.lambda_max)
        results.append(EstimationResult(mse=mse, std_error=se, expected_mse=expected, report=report))
    return results


# ---------------------------------------------------------------------------
# log-RSS monitoring


@dataclass(frozen=True)
class RssScenario:
    """Ring of log-RSS sensors around a roughly known source location."""

    sensor_positions: tuple[tuple[float, float], ...]
    source: tuple[float, float] = (0.0, 0.0)
    sensor_radius: float = 1.0
    amplitude: float = 1.0
    path_loss: float = 2.0
    shadow_std: float = 1.0
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        # every comparison is written so that NaN fails it
        if not 0 < self.sensor_radius < math.inf:
            raise ValueError(f"sensor_radius must be finite and positive, got {self.sensor_radius!r}")
        if not 0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and positive, got {self.amplitude!r}")
        if not 0 < self.path_loss < math.inf:
            raise ValueError(f"path_loss must be finite and positive, got {self.path_loss!r}")
        if not 0 <= self.shadow_std < math.inf:
            raise ValueError(f"shadow_std must be finite and nonnegative, got {self.shadow_std!r}")
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)
        _check_pair("source", self.source)
        pos = tuple(tuple(map(float, p)) for p in self.sensor_positions)
        if not pos:
            raise ValueError("at least one sensor position is required")
        for i, p in enumerate(pos):
            _check_pair(f"sensor position {i}", p)
        object.__setattr__(self, "sensor_positions", pos)
        sx, sy = map(float, self.source)
        for i, (px, py) in enumerate(pos):  # Python floats: a far sensor overflows without a warning
            x, y = px - sx, py - sy
            d2 = x * x + y * y
            if not d2 * d2 < math.inf:  # the Fisher terms divide by d^4, and it overflows
                raise ValueError(f"sensor {i} at distance {math.hypot(x, y):.6g} is too far from the source")
            d = math.sqrt(d2)
            if d < MIN_SENSOR_DISTANCE:
                near = f"within MIN_SENSOR_DISTANCE={MIN_SENSOR_DISTANCE:g} of the source"
                raise DegenerateGeometryError(f"sensor {i} at distance {d:.6g} is {near}")
            if d < self.sensor_radius * (1.0 - 1e-9):  # relative slack: any ring radius fits
                raise ValueError(
                    f"sensor {i} at distance {d:.6g} lies inside the radius-"
                    f"{self.sensor_radius:.6g} ring around the source"
                )

    @property
    def n(self) -> int:
        return len(self.sensor_positions)


def ring_positions(
    angles: AngleSet, radius: float = 1.0, center: tuple[float, float] = (0.0, 0.0)
) -> tuple[tuple[float, float], ...]:
    """Sensor placements on a circle, using the pre-normalization angles."""
    if not 0 < radius < math.inf:  # written so that NaN fails
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    _check_pair("center", center)
    cx, cy = float(center[0]), float(center[1])
    return tuple(
        (cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles.raw
    )


def _offsets(scenario: RssScenario) -> tuple[np.ndarray, np.ndarray]:
    """Sensor-minus-source offsets z = x_i - source as complex numbers, and |z|^2."""
    pos = np.asarray(scenario.sensor_positions, dtype=float)
    z = (pos[:, 0] - scenario.source[0]) + 1j * (pos[:, 1] - scenario.source[1])
    return z, z.real**2 + z.imag**2


def _rss_mean(scenario: RssScenario) -> np.ndarray:
    """Noiseless log-RSS readings ln A - path_loss * ln distance of every sensor."""
    return math.log(scenario.amplitude) - scenario.path_loss * np.log(np.sqrt(_offsets(scenario)[1]))


def rss_sample(scenario: RssScenario, rng: np.random.Generator | None = None) -> np.ndarray:
    """One draw of log-RSS readings: ln A - path_loss * ln distance + noise."""
    if rng is None:
        rng = _stream(scenario.seed)
    return _rss_mean(scenario) + scenario.shadow_std * rng.standard_normal(scenario.n)


@dataclass(frozen=True)
class FimSummary:
    matrix: np.ndarray
    lambda_min: float
    lambda_max: float
    condition: float


def _fim_sums(scenario: RssScenario, subsets):
    """(W, R) = (sum 1/d_i^2, sum z_i^2/d_i^4) of each subset in turn: Python-float sums in index order."""
    z, d2 = _offsets(scenario)
    w, p = (1.0 / d2).tolist(), (z**2 / d2**2).tolist()
    for c in subsets:
        yield sum(map(w.__getitem__, c)), sum(map(p.__getitem__, c))


def fim(scenario: RssScenario, subset: SubsetSelection | Sequence[int]) -> FimSummary:
    """Fisher information of the source location from the active sensors.

    The geometry term is sum (x_i - z)(x_i - z)^T / ||x_i - z||^4, the
    weighted direction sum of ``core`` with weights 1/d_i^2, and the scale
    is path_loss^2 / shadow_std^2, the natural-log model of ``rss_sample``,
    applied after the spectrum of the (W, R) that ``worst_fim_subset``
    scores: the condition is the one it ranks by, at any scale.  Raises
    ValueError when the scale is undefined (shadow_std = 0) or out of range.
    """
    sel = SubsetSelection(subset)
    _check_range(sel, scenario.n)
    if scenario.shadow_std == 0:
        raise ValueError("the Fisher information is undefined at shadow_std=0")
    # Python floats, a ratio and then a product: out of range they give 0 or inf, not an exception
    ratio = float(scenario.path_loss) / float(scenario.shadow_std)
    prefactor = ratio * ratio
    if not 0 < prefactor < math.inf:
        raise ValueError(f"path_loss / shadow_std = {ratio!r} puts the Fisher information out of float range")
    ((weight, r),) = _fim_sums(scenario, [sel.indices])
    lo, hi, cond = _spectrum(weight, r)
    # Python-float products: past float range they give inf, not a numpy overflow warning
    return FimSummary(_matrix(prefactor * weight, prefactor * r), prefactor * lo, prefactor * hi, cond)


def worst_fim_subset(scenario: RssScenario, k: int = 3) -> tuple[SubsetSelection, float]:
    """Active subset with the largest FIM condition number, and that condition.

    Each of the C(n, K) subsets is scored through the scalar kernel of
    ``core`` from its (W, R) of ``_fim_sums``, as ``fim`` is.  Conditions tie by the
    rule of ``search`` and the lexicographically smallest index tuple among
    them is reported; when some subset is rank deficient, the smallest such
    tuple is.  Raises ResourceLimitError, before any subset is scored, when
    C(n, K) exceeds ``_FIM_SUBSETS``.
    """
    _check_int("k", k, 2, type_only=True)
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if scenario.n < k:
        raise ValueError(f"need at least k={k} sensors, got {scenario.n}")
    total = math.comb(scenario.n, k)
    if total > _FIM_SUBSETS:
        raise ResourceLimitError(
            f"worst_fim_subset at n={scenario.n}, k={k} scores {total} subsets "
            f"(ceiling {_FIM_SUBSETS}); lower n"
        )
    combos = list(itertools.combinations(range(scenario.n), k))
    cond = [_spectrum(weight, r)[2] for weight, r in _fim_sums(scenario, combos)]
    pick = _first_tied(cond)
    return SubsetSelection(combos[pick]), cond[pick]


# ---------------------------------------------------------------------------
# maximum-likelihood source localization

GRID_POINTS_PER_AXIS = 101
SEARCH_RADIUS_FACTOR = 2.0
# xtol = ftol of the Levenberg-Marquardt solves inside the disc and on its rim (there is no other
# solver).  A row stops at the first of MINPACK's two tests: its step is at most xtol * (||x|| + xtol),
# or the actual and the predicted reduction of the squared residual norm, relative to it, are both at
# most ftol (and their ratio at most 2).  MINPACK's third test, on the gradient cosine (gtol), is left
# out: without it no row of the monitoring settings ends with other bits.  A zero-residual row stops
# after one step, since its step is exactly 0.  The disc solve's Newton steps end within ~1e-13 of
# stationarity (median |J^T r| at the benchmark size's interior estimates, seed 7: 4.8e-14).
LM_TOL = 1e-15
# Steps a row may take: 200, MINPACK's default evaluation budget 100 * (p + 1) for p = 2 parameters
# with an analytic Jacobian (scipy's max_nfev for method="lm").  The rows that reach it are disc rows
# at very low SNR that head for a minimum next to an active sensor, where the Hessian changes within a
# step and is often indefinite, so that about half their steps are rejected; a row still running then
# keeps its last accepted iterate, whose residual only went down.
_LM_ITERATIONS = 200
_LM_TAU = 1e-3  # first damping: tau times the largest |H_ii| of the model's Hessian H (Nielsen)
_START_TILE = 6  # grid nodes per side of a start tile: 6 x 6 nodes share one reading-space box
_START_ROWS = 64  # rows bounded against every tile at a time: a few 64 x tiles arrays of work memory
_START_PAIRS = 1024  # (row, tile) pairs scored at a time: a few 1024 x 36 arrays of work memory
# Pruning slack of _start, per row a multiple of M + |y|^2, M the largest mu_sq of the table.  With
# u = 2^-53 and K active sensors: a node's float score mu_sq - 2 y.mu differs from its exact value
# |mu - y|^2 - |y|^2 by at most (2K + 2) u (M + |y|^2) (mu_sq and y.mu are K-term sums, and
# 2 |y.mu| <= M + |y|^2); a tile's float bound differs from its exact value, at most
# 2 (M + |y|^2), by at most (K + 2) u times that; |y|^2 and the sum upper + |y|^2 + slack add
# K u |y|^2 and 6 u (M + |y|^2).  So a tile holding a node whose float score is at most the upper
# bound passes once the slack exceeds (5K + 12) u (M + |y|^2), below 1e-12 (M + |y|^2) for K < 1700.
# 1e-9 leaves a wide margin and costs almost no pruning: in the paper-scale monitoring run it adds
# one scored (row, tile) pair to the 228,671 that a zero slack scores.
_START_SLACK = 1e-9
_LM_ROWS = 4096  # rows in one Levenberg-Marquardt batch: bounds its work memory at paper scale


@dataclass(frozen=True)
class LocateResult:
    estimate: np.ndarray
    residual: float
    on_boundary: bool


@dataclass(frozen=True)
class _StartTable:
    """Coarse-grid start for one active set, independent of the noise level.

    ``nodes`` are the grid nodes inside the search disc that keep at least
    MIN_SENSOR_DISTANCE from every active sensor, grouped into tiles of
    ``_START_TILE`` x ``_START_TILE`` grid cells: ``tiles`` (tiles, slots)
    lists each tile's node indices cell by cell, so in ascending order, with
    the tile's first node in the cells that hold none.  ``tile_mu`` (k,
    tiles, slots) holds each slot's predicted readings mu = ln A - path_loss
    * ln d, one per active sensor, and ``tile_mu_sq`` their squared norm, so
    the best node for readings y minimises ``mu_sq - 2 y @ mu``; they are the
    table's only copy of the predictions.  ``lo``, ``hi`` (k, tiles) are the
    box of each tile's predictions per sensor.
    """

    pos: np.ndarray
    center: np.ndarray
    radius: float
    log_amplitude: float
    path_loss: float
    nodes: np.ndarray
    tiles: np.ndarray
    tile_mu: np.ndarray
    tile_mu_sq: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _start_table(scenario: RssScenario, sel: SubsetSelection) -> _StartTable:
    if sel.k < 3:
        raise ValueError(f"need at least 3 active sensors, got {sel.k}")
    _check_range(sel, scenario.n)
    pos = np.asarray(scenario.sensor_positions, dtype=float)[list(sel.indices)]
    # the centred positions z_i as complex numbers: sum_i z_i z_i^T has the spectrum of (W, R) =
    # (sum |z_i|^2, sum z_i^2), Python-float sums, so the package's one rank rule decides collinearity
    spread = [complex(x, y) for x, y in (pos - pos.mean(axis=0)).tolist()]
    weight = sum(z.real * z.real + z.imag * z.imag for z in spread)
    if _spectrum(weight, sum(z * z for z in spread))[2] == math.inf:
        raise DegenerateGeometryError(f"active sensors {sel.indices} are collinear")

    z = np.asarray(scenario.source, dtype=float)
    radius = SEARCH_RADIUS_FACTOR * scenario.sensor_radius
    axis = np.linspace(-radius, radius, GRID_POINTS_PER_AXIS)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()]) + z
    off = points - z
    inside = np.flatnonzero(np.einsum("ij,ij->i", off, off) <= radius**2)
    points = points[inside]
    d = np.hypot(pos[:, :1] - points[:, 0], pos[:, 1:] - points[:, 1])
    # a node on a sensor predicts an infinite reading; its score would be inf - inf
    keep = d.min(axis=0) >= MIN_SENSOR_DISTANCE
    log_amplitude = math.log(scenario.amplitude)
    mu = log_amplitude - scenario.path_loss * np.log(d[:, keep])
    _check_readings(mu, sel.k, f"path_loss={scenario.path_loss!r} is too large")
    mu_sq = np.einsum("ij,ij->j", mu, mu)
    # each node's index at its grid cell, and the cells cut into tiles of _START_TILE x _START_TILE
    n, side = len(mu_sq), -(-GRID_POINTS_PER_AXIS // _START_TILE)
    cell = np.full((side * _START_TILE) ** 2, n)
    row, col = np.divmod(inside[keep], GRID_POINTS_PER_AXIS)
    cell[row * side * _START_TILE + col] = np.arange(n)
    cell = cell.reshape(side, _START_TILE, side, _START_TILE).swapaxes(1, 2).reshape(side * side, -1)
    first = cell.min(axis=1)
    tiles = np.where(cell < n, cell, first[:, None])[first < n]  # empty cells hold the tile's first node
    tile_mu = mu.take(tiles, axis=1)
    by_slot = mu.take(tiles.T, axis=1)  # (k, slots, tiles): each box is a reduction along contiguous tiles
    return _StartTable(
        pos=pos,
        center=z,
        radius=radius,
        log_amplitude=log_amplitude,
        path_loss=scenario.path_loss,
        nodes=points[keep],
        tiles=tiles,
        tile_mu=tile_mu,
        tile_mu_sq=mu_sq.take(tiles),
        lo=by_slot.min(axis=1),
        hi=by_slot.max(axis=1),
    )


def _check_readings(values: np.ndarray, k: int, cause: str) -> None:
    """ValueError naming the cause unless 8 k max|values|^2 is finite: no sum of k squares overflows then."""
    m = float(np.abs(values).max())
    if not 8.0 * k * m * m < math.inf:  # Python floats: the product overflows to inf, not an exception
        raise ValueError(f"{cause}: the log-RSS readings leave float range")


def _sum(terms: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Left-to-right sum of per-sensor (or per-parameter) arrays, or of a 2-D array's rows."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _tile_bounds(table: _StartTable, y: np.ndarray) -> np.ndarray:
    """Squared distance from every row of y (rows, k) to every tile's box (rows, tiles), summed over sensors.

    No node of a tile lies nearer to y in reading space: the bound is at most |mu - y|^2 of each.
    """
    bound = np.zeros((len(y), len(table.tiles)))
    for yi, a, b in zip(y.T, table.lo, table.hi):
        gap = np.maximum(a - yi[:, None], yi[:, None] - b)
        np.maximum(gap, 0.0, out=gap)
        bound += np.multiply(gap, gap, out=gap)
    return bound


def _tile_scores(table: _StartTable, y: np.ndarray, rows: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Score mu_sq - 2 sum_i y_i mu_i of every slot of tile tiles[p] for row rows[p] of y: (pairs, slots).

    The ufuncs run in the exhaustive scan's order, y_0 mu_0, += y_i mu_i, *= -2, += mu_sq, elementwise.
    """
    score = table.tile_mu[0].take(tiles, axis=0)
    np.multiply(y[rows, :1], score, out=score)
    term = np.empty_like(score)
    for i in range(1, y.shape[1]):
        # the indices are in range; with the default mode="raise", take(out=...) copies through a buffer
        table.tile_mu[i].take(tiles, axis=0, out=term, mode="clip")
        score += np.multiply(y[rows, i : i + 1], term, out=term)
    score *= -2.0
    score += table.tile_mu_sq.take(tiles, axis=0, out=term, mode="clip")
    return score


def _start(table: _StartTable, y: np.ndarray) -> np.ndarray:
    """Best grid node of every row of y (rows, k): the first argmin of mu_sq - 2 sum_i y_i mu_i.

    The score is |mu - y|^2 - |y|^2, so the best node is the nearest in
    reading space.  For each block of ``_START_ROWS`` rows, the squared
    distance from y to a tile's box (summed over sensors) bounds the
    distance of its nodes from below; the least score of each row's tile of
    least bound is an upper bound on the best score.  Only the tiles whose
    bound is within the upper bound plus ``_START_SLACK`` * (M + |y|^2), M
    the largest ``mu_sq``, are live (see ``_START_SLACK``), the least-bound
    tile always; they are scored ``_START_PAIRS`` (row, tile) pairs at a
    time, in one pass.  The others hold no node as good as the upper bound,
    so no minimum or tie is lost.  Among the scored nodes the least float
    score wins, and among equal ones the smallest node index: the node
    ``argmin`` picks from all the scores.  Every score is computed
    elementwise, so a row's node does not depend on the rows scored with it.
    """
    best, n_tiles = np.empty(len(y), dtype=np.intp), len(table.tiles)
    mu_sq_max = float(table.tile_mu_sq.max())  # every node is in some tile
    for lo in range(0, len(y), _START_ROWS):
        block = y[lo : lo + _START_ROWS]
        rows = np.arange(len(block))
        bound = _tile_bounds(table, block)
        near = np.argmin(bound, axis=1)
        upper = _tile_scores(table, block, rows, near).min(axis=1)
        y_sq = _sum(block.T * block.T)
        bound[rows, near] = 0.0  # the tile that gave the upper bound is always live
        live = bound <= (upper + y_sq + _START_SLACK * (mu_sq_max + y_sq))[:, None]
        count, pairs = live.sum(axis=1), np.flatnonzero(live)  # every row has a live tile
        del bound, live  # (rows, tiles) arrays: freed before the pairs are scored
        low, arg = np.empty(len(pairs)), np.empty(len(pairs), dtype=np.intp)
        for p in range(0, len(pairs), _START_PAIRS):
            r, t = np.divmod(pairs[p : p + _START_PAIRS], n_tiles)
            score = _tile_scores(table, block, r, t)
            slot = np.argmin(score, axis=1)  # first minimum: the tile's smallest tied index
            low[p : p + len(slot)] = score[np.arange(len(slot)), slot]
            arg[p : p + len(slot)] = table.tiles[t, slot]
        starts = np.cumsum(count) - count  # each row's segment of the live pairs
        least = np.repeat(np.minimum.reduceat(low, starts), count)
        tied = np.where(low == least, arg, len(table.nodes))  # the row's minimum, else past every node
        best[lo : lo + len(block)] = np.minimum.reduceat(tied, starts)
    return best


def _disc_model(x, d: np.ndarray, jacobian: bool = True):
    """Residuals r (K, rows) at the points x = (px, py), their gradients j_i and Hessian shares of |r|^2 / 2.

    r_i = y_i - ln A + path_loss ln d_i.  Each column of d is one row's data: path loss, centre x and y,
    radius, then sensor x, sensor y and y_i - ln A, K entries each.  Sensor i's share is j_i j_i^T + r_i
    times the Hessian of r_i, (path_loss / d_i^2) I - (2 / path_loss) j_i j_i^T, and path_loss / d_i^2 =
    |j_i|^2 / path_loss: with t_i = r_i / path_loss its entries are j0^2 + t_i (j1^2 - j0^2),
    j1^2 + t_i (j0^2 - j1^2) and j0 j1 (1 - 2 t_i).
    """
    beta, (sx, sy, c) = d[0], d[4:].reshape(3, -1, d.shape[1])
    dx, dy = x[0] - sx, x[1] - sy
    q = dx * dx + dy * dy
    r = c + beta * np.log(np.sqrt(q))
    if not jacobian:
        return r, None
    j0, j1 = beta * dx / q, beta * dy / q
    h00, h11, t = j0 * j0, j1 * j1, r / beta  # (K, rows) arrays, updated in place to bound work memory
    tu = t * (h11 - h00)
    h00 += tu
    h11 -= tu
    del tu
    t *= -2.0
    t += 1.0
    return r, ((j0, j1), (h00, h11, np.multiply(j0 * j1, t, out=t)))


def _rim_points(d: np.ndarray, phi: np.ndarray):
    """Points (px, py) of each row's search circle at the angles phi, and R cos phi, R sin phi."""
    rc, rs = d[3] * np.cos(phi), d[3] * np.sin(phi)
    return (d[1] + rc, d[2] + rs), rc, rs


def _rim_model(x, d: np.ndarray, jacobian: bool = True):
    """``_disc_model``'s residuals at the rim angles x = (phi,), dr_i/dphi from its J, and its square."""
    points, rc, rs = _rim_points(d, x[0])
    r, model = _disc_model(points, d, jacobian)
    if not jacobian:
        return r, None
    (j0, j1), _ = model
    j = j1 * rc - j0 * rs
    return r, ((j,), (j * j,))


def _damped_step(hess, g, mu: np.ndarray) -> np.ndarray:
    """h solving (H + mu I) h = -g for p = 1 or 2 by Cramer's rule; H is (H_00,) or (H_00, H_11, H_01)."""
    if len(g) == 1:
        return np.array([-g[0] / (hess[0] + mu)])
    d0, d1, cross = hess[0] + mu, hess[1] + mu, hess[2]
    det = d0 * d1 - cross * cross
    return np.array([(cross * g[1] - d1 * g[0]) / det, (cross * g[0] - d0 * g[1]) / det])


def _lm_rows(model, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt on every row at once: x (p, rows) with p = 1 or 2, per-row data d (F, rows).

    The model gives the residuals r, the gradients J and each sensor's
    share of the Hessian H of |r|^2 / 2; a step h solves (H + mu I) h = -g,
    g = J^T r, so its predicted reduction of |r|^2, h^T H h + 2 mu |h|^2,
    is mu |h|^2 - h^T g: only the step and the first damping read H.
    H need not be positive definite far from a minimum, so a step is
    accepted only when that prediction is positive and the gain ratio rho
    of the actual reduction to it is too (so a lower residual).  Damping
    starts at ``_LM_TAU`` times the largest |H_ii| and follows Nielsen's
    rule per row: an accepted step scales it by max(1/3, 1 - (2 rho - 1)^3),
    a rejected one by nu, which then doubles.  Rows stop at the tests of
    ``LM_TOL`` or after ``_LM_ITERATIONS`` steps, and leave the batch when
    they stop.  Returns the last accepted x; its residual is the model's
    there, for the caller to read.  Every operation is elementwise and every
    sum over sensors or parameters is written out, so a row's arithmetic is
    the same in any batch.
    """
    out, rows, nu = np.empty_like(x), np.arange(x.shape[1]), np.full(x.shape[1], 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(_LM_ITERATIONS):
            r, (jac, terms) = model(x, d)
            s = _sum(r * r)
            g = [_sum(j * r) for j in jac]
            hess = [_sum(t) for t in terms]
            del r, jac, terms  # (K, rows) arrays: freed before the trial point's
            if step == 0:
                mu = _LM_TAU * np.abs(hess[: len(g)]).max(axis=0)  # the largest |H_ii|
            h = _damped_step(hess, g, mu)
            hh = _sum(h * h)
            pred = mu * hh - _sum([hi * gi for hi, gi in zip(h, g)])  # h^T H h + 2 mu |h|^2
            xn = x + h
            sn = _sum(np.square(model(xn, d, False)[0]))
            rho = (s - sn) / pred
            actual = 1.0 - sn / s
            accept = (rho > 0.0) & (pred > 0.0)
            stop = np.sqrt(hh) <= LM_TOL * (np.sqrt(_sum(x * x)) + LM_TOL)
            stop |= (np.abs(actual) <= LM_TOL) & (pred / s <= LM_TOL) & (rho <= 2.0)
            x = np.where(accept, xn, x)
            mu = np.where(accept, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), mu * nu)
            nu = np.where(accept, 2.0, 2.0 * nu)
            if stop.any():
                out[:, rows[stop]] = x[:, stop]
                go = np.flatnonzero(~stop)
                x, d, rows, mu, nu = x.take(go, axis=1), d.take(go, axis=1), rows[go], mu[go], nu[go]
                if not rows.size:
                    break
    out[:, rows] = x
    return out


def _locate(designs: Sequence[tuple[_StartTable, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates (rows, 2), residuals and on_boundary flags for the readings y (rows, k) of each (table, y).

    The designs' rows are stacked in order and solved together, at most
    ``_LM_ROWS`` at a time, each with its own design's data; every design in
    one call has the same active count k, so that their data stack.  Every
    residual, the grid node's included, is the squared norm of
    ``_disc_model`` at the returned estimate; see ml_locate.
    """
    start = np.concatenate([t.nodes[_start(t, y)] for t, y in designs]).T
    c = np.concatenate([y.T - t.log_amplitude for t, y in designs], axis=1)
    # per design: the rows of _disc_model's data that do not depend on the readings
    geo = np.array([[t.path_loss, *t.center, t.radius, *t.pos.T.ravel()] for t, _ in designs]).T
    which = np.repeat(np.arange(len(designs)), [len(y) for _, y in designs])
    est, residual, on_boundary = np.empty((len(which), 2)), np.empty(len(which)), np.empty(len(which), bool)
    for lo in range(0, len(which), _LM_ROWS):
        rows = slice(lo, lo + _LM_ROWS)
        node, d = start[:, rows], np.concatenate([geo[:, which[rows]], c[:, rows]])  # the batch's model data
        e = _lm_rows(_disc_model, node, d)
        off = e - d[1:3]
        rim = np.flatnonzero(_sum(off * off) > d[3] * d[3])
        if rim.size:  # the constrained optimum lies on the rim: minimise over it, from the exit direction
            phi, d_rim = np.arctan2(off[1:, rim], off[:1, rim]), d[:, rim]  # exit angles; rim rows' data
            e[:, rim] = _rim_points(d_rim, _lm_rows(_rim_model, phi, d_rim)[0])[0]
        res, grid = (_sum(np.square(_disc_model(p, d, False)[0])) for p in (e, node))
        keep = ~(res <= grid)  # a rim solution worse than the node, or a non-finite one: keep the node
        e[:, keep], res[keep] = node[:, keep], grid[keep]
        off = e - d[1:3]
        est[rows], residual[rows] = e.T, res
        on_boundary[rows] = np.sqrt(_sum(off * off)) >= d[3] - 2.0 * d[3] / (GRID_POINTS_PER_AXIS - 1)
    return est, residual, on_boundary


def ml_locate(
    scenario: RssScenario,
    samples: Sequence[float],
    active: SubsetSelection | Sequence[int],
) -> LocateResult:
    """Source estimate from the active sensors' readings: Levenberg-Marquardt from a grid's best node.

    The residual is sum_i (y_i - ln A + path_loss ln d_i)^2 over the disc of
    radius 2 * sensor_radius around the nominal source.  The start is the
    best node of a 101x101 grid over the disc (nodes on an active sensor
    excluded); Levenberg-Marquardt refines it with damped Newton steps on
    the closed-form Hessian, built from the analytic Jacobian path_loss
    (p - x_i) / d_i^2 and the residuals, and a solution that leaves the disc
    is solved again over the rim angle from its exit angle.  The estimate is a
    local minimiser, not always the global (maximum-likelihood) one: ROADMAP
    item 10 found a lower residual on 2 of 560 benchmark-size rows and 72 of
    28,000 paper-scale rows.  Both solves are the monitoring sweep's batched
    ones (see the module notes), run on this one row.  The returned residual
    is the model's at the returned estimate, the grid node included, and
    never exceeds the grid node's: a disc solve only accepts steps that
    lower it, and a rim solution that is worse, or a non-finite one,
    returns the grid node.  ``on_boundary`` flags estimates within one grid
    cell of the rim.  Readings of the active sensors must be finite, with
    8 K max|y|^2 in float range.
    """
    sel = SubsetSelection(active)
    table = _start_table(scenario, sel)
    obs = np.asarray(samples, dtype=float)
    if obs.shape != (scenario.n,):
        raise ValueError(f"samples must have shape ({scenario.n},), got {obs.shape}")
    y = obs[list(sel.indices)]
    if not np.all(np.isfinite(y)):
        raise ValueError(f"samples must be finite at the active sensors {sel.indices}, got {y.tolist()}")
    _check_readings(y, sel.k, f"samples {y.tolist()} at the active sensors {sel.indices} are too large")
    est, residual, on_boundary = _locate([(table, y[None])])
    return LocateResult(estimate=est[0], residual=float(residual[0]), on_boundary=bool(on_boundary[0]))


def minimize(*args, **kwargs):
    """SciPy's ``minimize``, imported on call; unused here, kept for the benchmark tracer (ROADMAP item 1)."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


# ---------------------------------------------------------------------------
# monitoring sweep


@dataclass(frozen=True)
class MonitoringPoint:
    snr_db: float
    noise_std: float
    mse: float
    std_error: float
    mse_db: float
    worst_subset: tuple[int, ...]


@dataclass(frozen=True)
class MonitoringResult:
    points: tuple[MonitoringPoint, ...]
    metadata: dict


def simulate_monitoring(
    scenarios: Sequence[RssScenario], snr_grid_db: Sequence[float]
) -> list[MonitoringResult]:
    """Localization MSE versus SNR with the worst FIM triple active.

    Returns one result per scenario, in order; each scenario runs
    ``scenario.trials`` trials at every SNR point.  The noise level for a
    point is set from SNR = 10 log10(P_s / sigma^2), where P_s is the mean
    squared noiseless log-RSS over the ring.  When the
    scenario makes every noiseless reading zero (unit amplitude at unit
    distance), P_s degenerates; the reference power falls back to 1 and the
    metadata says so.  A ring too large for ``worst_fim_subset`` raises its
    ResourceLimitError before any scenario's noise is drawn.

    Each noise table is drawn once: the table of SNR point pi depends only
    on its ``_trial_noise`` key (seed, pi), the scenario's trial count and
    its sensor count n, so scenarios that share all three share it.
    """
    snrs = [float(s) for s in snr_grid_db]
    if not snrs:
        raise ValueError("snr_grid_db must be nonempty")
    if not all(map(math.isfinite, snrs)):
        raise ValueError(f"SNR values must be finite, got {snrs}")
    studies = []
    for scenario in scenarios:
        clean = _rss_mean(scenario)
        _check_readings(clean, scenario.n, f"path_loss={scenario.path_loss!r} is too large")
        signal_power = float(np.mean(clean**2))
        if signal_power > 1e-30:
            reference = "mean_squared_noiseless_log_rss"
            p_ref = signal_power
        else:
            reference = "unit_log_power"
            p_ref = 1.0
        try:  # every noise level before the first solve; a too-low SNR overflows
            sigmas = [math.sqrt(p_ref * 10.0 ** (-snr / 10.0)) for snr in snrs]
        except OverflowError:
            sigmas = [math.inf]
        if not all(map(math.isfinite, sigmas)):
            raise ValueError(f"noise levels must be finite, but SNR values {snrs} dB are too low")

        sel, _ = worst_fim_subset(scenario, k=3)  # before the noise tables: a refused n allocates none
        studies.append((scenario, clean, sigmas, sel, reference, p_ref))
    if not studies:
        return []
    keys = {((s.seed, pi), s.trials, s.n) for s in scenarios for pi in range(len(snrs))}
    tables = {key: _trial_noise(*key) for key in keys}
    designs = []
    for scenario, clean, sigmas, sel, _, _ in studies:
        active = list(sel.indices)
        # every point's trials of the active sensors; row pi * trials + t is trial t of point pi
        drawn = [tables[(scenario.seed, pi), scenario.trials, scenario.n] for pi in range(len(snrs))]
        readings = np.concatenate([clean[active] + s * table[:, active] for s, table in zip(sigmas, drawn)])
        designs.append((_start_table(scenario, sel), readings))  # one start table for every point and trial
        _check_readings(readings, sel.k, f"SNR values {snrs} dB are too low")  # a path loss is blamed first
    # every design's rows in one batch: a row's solve does not depend on the rows batched with it
    est = np.split(_locate(designs)[0], np.cumsum([len(y) for _, y in designs])[:-1])
    results = []
    for (scenario, _, sigmas, sel, reference, p_ref), e in zip(studies, est):
        trials = scenario.trials
        z = np.asarray(scenario.source, dtype=float)
        sq = (e[:, 0] - z[0]) ** 2 + (e[:, 1] - z[1]) ** 2
        points = []
        for pi, (snr, sigma) in enumerate(zip(snrs, sigmas)):
            mse, se = _mean_and_se(sq[pi * trials : (pi + 1) * trials])
            mse_db = 10.0 * math.log10(mse) if mse > 0 else -math.inf
            points.append(MonitoringPoint(snr, sigma, mse, se, mse_db, sel.indices))
        metadata = {
            "snr_definition": "snr_db = 10*log10(reference_power / sigma^2)",
            "snr_reference": reference,
            "reference_power": p_ref,
            "noise_generator": "numpy PCG64 via SeedSequence((seed, point_index)), trials drawn in order",
            "active_subset": list(sel.indices),
            "trials": trials,
        }
        results.append(MonitoringResult(points=tuple(points), metadata=metadata))
    return results
