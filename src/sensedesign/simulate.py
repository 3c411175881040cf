"""Monte Carlo studies driven by the worst-conditioned subset.

Two settings share the same geometric core:

* linear estimation y = A_S^T x + w on a K-column subset, where the
  recovery error obeys ||x_hat - x|| <= ||w|| / sigma_min(A_S); the
  simulation averages the squared error on the worst subset;
* source monitoring from log-RSS readings of ring sensors, where the
  triple with the worst Fisher-information condition number is activated
  and the source is recovered by maximum likelihood.

Randomness policy: ``_trial_noise`` draws every trial's noise from its own
PCG64 stream, seeded by the sweep's key (the seed, plus the SNR point for
monitoring) and the trial index.  A sweep scores one such table per point,
so runs are reproducible and neither trial order nor trial count changes
the draws of a trial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng
from scipy.optimize import least_squares
from scipy.optimize import minimize  # noqa: F401  (not called; benchmarks/tracer.py wraps this binding)

from .core import (
    AngleSet,
    SubsetSelection,
    _check_range,
    _matrix,
    _resultant,
    _spectrum,
    angles_to_matrix,
)
from .search import WorstCaseReport, _first_tied, worst_subset

MIN_SENSOR_DISTANCE = 1e-12


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
    signal: tuple[float, float] = (9.0, 9.0)
    noise_std: float = 1.0
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.angles.n:
            raise ValueError(f"need 1 <= k <= {self.angles.n}, got k={self.k}")
        if not 0 <= self.noise_std < math.inf:  # written so that NaN fails
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std!r}")
        if not all(map(math.isfinite, self.signal)):
            raise ValueError(f"signal must be finite, got {self.signal!r}")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def _trial_noise(key: tuple[int, ...], trials: int, size: int) -> np.ndarray:
    """Standard normal (trials, size) table; row t comes from stream SeedSequence((*key, t))."""
    return np.array([default_rng(SeedSequence((*key, t))).standard_normal(size) for t in range(trials)])


def _recovery(angles: AngleSet, sel: SubsetSelection) -> tuple[np.ndarray, float]:
    """(A_S A_S^T)^-1 A_S, so x_hat = recover @ y, and lambda_min; raises if rank deficient."""
    k, r = _resultant(angles, sel)
    lo, _, cond = _spectrum(k, r)
    if math.isinf(cond):
        raise SingularSubsetError(f"subset {sel.indices} is rank deficient (lambda_min={lo:.3e})")
    return np.linalg.solve(_matrix(k, r), angles_to_matrix(angles)[:, list(sel.indices)]), lo


def least_squares_estimate(
    angles: AngleSet, subset: SubsetSelection | Sequence[int], y: Sequence[float]
) -> np.ndarray:
    """Least-squares recovery x_hat = (A_S A_S^T)^-1 A_S y."""
    sel = SubsetSelection(subset)
    obs = np.asarray(y, dtype=float)
    if obs.shape != (sel.k,):
        raise ValueError(f"y must have shape ({sel.k},), got {obs.shape}")
    return _recovery(angles, sel)[0] @ obs


def error_bound_check(
    angles: AngleSet, subset: SubsetSelection | Sequence[int], noise: Sequence[float]
) -> tuple[float, float]:
    """Recovery error for a given noise draw, with its bound ||w||/sigma_min."""
    sel = SubsetSelection(subset)
    w = np.asarray(noise, dtype=float)
    if w.shape != (sel.k,):
        raise ValueError(f"noise must have shape ({sel.k},), got {w.shape}")
    recover, lambda_min = _recovery(angles, sel)
    error = float(np.linalg.norm(recover @ w))
    bound = float(np.linalg.norm(w)) / math.sqrt(lambda_min)
    if not error <= bound + 1e-10:
        raise ArithmeticError(
            f"recovery error {error:.17g} exceeds its bound {bound:.17g} on subset {sel.indices}"
        )
    return error, bound


def expected_worst_case_mse(angles: AngleSet, k: int = 3, noise_std: float = 1.0) -> float:
    """Closed-form E||x_hat - x||^2 = noise_std^2 * trace(G^-1) on the worst subset."""
    return _expected_mse(worst_subset(angles, k), noise_std)


def _expected_mse(report: WorstCaseReport, noise_std: float) -> float:
    s = report.summary
    if math.isinf(s.gram_condition):
        return math.inf
    return noise_std**2 * report.worst_subset.k / (s.lambda_min * s.lambda_max)


@dataclass(frozen=True)
class EstimationResult:
    mse: float
    std_error: float
    expected_mse: float
    report: WorstCaseReport
    trials: int
    seed: int


def _mean_and_se(sq_errors: np.ndarray) -> tuple[float, float]:
    """Mean of per-trial squared errors and its standard error (0 for a single trial)."""
    trials = len(sq_errors)
    se = float(sq_errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(sq_errors.mean()), se


def simulate_worst_case_mse(scenario: EstimationScenario) -> EstimationResult:
    """Average squared recovery error on the worst-conditioned subset."""
    report = worst_subset(scenario.angles, scenario.k)
    sel = report.worst_subset
    recover, _ = _recovery(scenario.angles, sel)
    x = np.asarray(scenario.signal, dtype=float)
    clean = angles_to_matrix(scenario.angles)[:, list(sel.indices)].T @ x
    readings = clean + scenario.noise_std * _trial_noise((scenario.seed,), scenario.trials, sel.k)
    # one product per row: a single (trials, K) @ (K, 2) product rounds differently
    x_hat = np.array([recover @ y for y in readings])
    mse, se = _mean_and_se(np.sum((x_hat - x) ** 2, axis=1))
    return EstimationResult(
        mse=mse,
        std_error=se,
        expected_mse=_expected_mse(report, scenario.noise_std),
        report=report,
        trials=scenario.trials,
        seed=scenario.seed,
    )


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
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not all(map(math.isfinite, self.source)):
            raise ValueError(f"source must be finite, got {self.source!r}")
        pos = tuple((float(p[0]), float(p[1])) for p in self.sensor_positions)
        if not pos:
            raise ValueError("at least one sensor position is required")
        if not all(math.isfinite(c) for p in pos for c in p):
            raise ValueError("sensor positions must be finite")
        object.__setattr__(self, "sensor_positions", pos)
        for i, d in enumerate(np.sqrt(_offsets(self)[1]).tolist()):
            if d < MIN_SENSOR_DISTANCE:
                raise DegenerateGeometryError(f"sensor {i} coincides with the source")
            if d < self.sensor_radius - 1e-9:
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


def rss_sample(scenario: RssScenario, rng: Generator | None = None) -> np.ndarray:
    """One draw of log-RSS readings: ln A - path_loss * ln distance + noise."""
    if rng is None:
        rng = default_rng(SeedSequence(scenario.seed))
    return _rss_mean(scenario) + scenario.shadow_std * rng.standard_normal(scenario.n)


@dataclass(frozen=True)
class FimSummary:
    matrix: np.ndarray
    lambda_min: float
    lambda_max: float
    condition: float
    prefactor: float


def _fim_terms(scenario: RssScenario) -> tuple[np.ndarray, np.ndarray]:
    """Per sensor, the weight 1/d^2 and the weighted doubled-angle phasor exp(2i t)/d^2."""
    z, d2 = _offsets(scenario)
    return 1.0 / d2, z**2 / d2**2


def fim(
    scenario: RssScenario,
    subset: SubsetSelection | Sequence[int] | None = None,
    prefactor: float | None = None,
) -> FimSummary:
    """Fisher information of the source location from the active sensors.

    The geometry term is sum (x_i - z)(x_i - z)^T / ||x_i - z||^4, the
    weighted direction sum of ``core`` with weights 1/d_i^2.  The scale is
    path_loss^2 / shadow_std^2 for log-RSS in natural log units; readings
    in other units take an explicit prefactor (base-10 logs: divide by
    ln(10)^2).
    """
    sel = SubsetSelection(range(scenario.n) if subset is None else subset)
    _check_range(sel, scenario.n)
    if prefactor is None:
        if scenario.shadow_std == 0:
            raise ValueError("prefactor is undefined at shadow_std=0; pass it explicitly")
        prefactor = scenario.path_loss**2 / scenario.shadow_std**2
    if prefactor <= 0:
        raise ValueError("prefactor must be positive")
    w, p = _fim_terms(scenario)
    idx = list(sel.indices)
    weight, r = prefactor * float(w[idx].sum()), prefactor * complex(p[idx].sum())
    lo, hi, cond = _spectrum(weight, r)
    return FimSummary(
        matrix=_matrix(weight, r), lambda_min=lo, lambda_max=hi, condition=cond, prefactor=prefactor
    )


def worst_fim_subset(scenario: RssScenario, k: int = 3) -> tuple[SubsetSelection, float]:
    """Active subset with the largest FIM condition number, and that condition.

    Each of the C(n, K) subsets is scored through the scalar kernel of
    ``core`` from its summed weights and phasors.  Conditions tie by the
    rule of ``search`` and the lexicographically smallest index tuple among
    them is reported; when some subset is rank deficient, the smallest such
    tuple is.
    """
    if not 2 <= k <= scenario.n:
        raise ValueError(f"need 2 <= k <= {scenario.n}, got k={k}")
    w, p = (a.tolist() for a in _fim_terms(scenario))
    combos = list(itertools.combinations(range(scenario.n), k))
    cond = [_spectrum(sum(map(w.__getitem__, c)), sum(map(p.__getitem__, c)))[2] for c in combos]
    pick = _first_tied(cond)
    return SubsetSelection(combos[pick]), cond[pick]


# ---------------------------------------------------------------------------
# maximum-likelihood source localization

GRID_POINTS_PER_AXIS = 101
SEARCH_RADIUS_FACTOR = 2.0
LM_TOL = 1e-15  # xtol = ftol = gtol of every Levenberg-Marquardt solve


@dataclass(frozen=True)
class LocateResult:
    estimate: np.ndarray
    residual: float
    on_boundary: bool


@dataclass(frozen=True)
class _StartTable:
    """Coarse-grid start for one active set, independent of the noise level.

    ``nodes`` are the grid nodes inside the search disc that keep at least
    MIN_SENSOR_DISTANCE from every active sensor, ``mu`` their predicted
    readings ln A - path_loss * ln d (one column per node) and ``mu_sq`` the
    squared column norms, so the best node for readings y minimises
    ``mu_sq - 2 y @ mu``.
    """

    pos: np.ndarray
    center: np.ndarray
    radius: float
    log_amplitude: float
    path_loss: float
    nodes: np.ndarray
    mu: np.ndarray
    mu_sq: np.ndarray


def _start_table(scenario: RssScenario, sel: SubsetSelection) -> _StartTable:
    if sel.k < 3:
        raise ValueError(f"need at least 3 active sensors, got {sel.k}")
    _check_range(sel, scenario.n)
    pos = np.asarray(scenario.sensor_positions, dtype=float)[list(sel.indices)]
    spread = pos - pos.mean(axis=0)
    svals = np.linalg.svd(spread, compute_uv=False)
    if svals[-1] <= 1e-9 * svals[0]:
        raise DegenerateGeometryError(f"active sensors {sel.indices} are collinear")

    z = np.asarray(scenario.source, dtype=float)
    radius = SEARCH_RADIUS_FACTOR * scenario.sensor_radius
    axis = np.linspace(-radius, radius, GRID_POINTS_PER_AXIS)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()]) + z
    off = points - z
    points = points[np.einsum("ij,ij->i", off, off) <= radius**2]
    d = np.hypot(pos[:, :1] - points[:, 0], pos[:, 1:] - points[:, 1])
    # a node on a sensor predicts an infinite reading; its score would be inf - inf
    keep = d.min(axis=0) >= MIN_SENSOR_DISTANCE
    log_amplitude = math.log(scenario.amplitude)
    mu = log_amplitude - scenario.path_loss * np.log(d[:, keep])
    return _StartTable(
        pos=pos,
        center=z,
        radius=radius,
        log_amplitude=log_amplitude,
        path_loss=scenario.path_loss,
        nodes=points[keep],
        mu=mu,
        mu_sq=np.einsum("ij,ij->j", mu, mu),
    )


def _rss_residual(p: np.ndarray, table: _StartTable, y: np.ndarray) -> np.ndarray:
    """r_i = y_i - ln A + path_loss * ln ||p - x_i||."""
    d = np.sqrt(np.sum((p - table.pos) ** 2, axis=1))
    return y - table.log_amplitude + table.path_loss * np.log(d)


def _rss_jacobian(p: np.ndarray, table: _StartTable, y: np.ndarray) -> np.ndarray:
    """dr_i/dp = path_loss * (p - x_i) / ||p - x_i||^2."""
    rel = p - table.pos
    return table.path_loss * rel / np.sum(rel**2, axis=1)[:, None]


def _circle_point(table: _StartTable, phi: float) -> np.ndarray:
    return table.center + table.radius * np.array([math.cos(phi), math.sin(phi)])


def _circle_residual(phi: np.ndarray, table: _StartTable, y: np.ndarray) -> np.ndarray:
    return _rss_residual(_circle_point(table, phi[0]), table, y)


def _circle_jacobian(phi: np.ndarray, table: _StartTable, y: np.ndarray) -> np.ndarray:
    tangent = table.radius * np.array([-math.sin(phi[0]), math.cos(phi[0])])
    return _rss_jacobian(_circle_point(table, phi[0]), table, y) @ tangent[:, None]


def _lm(fun, jac, x0, table: _StartTable, y: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = least_squares(
            fun, x0, jac=jac, method="lm", xtol=LM_TOL, ftol=LM_TOL, gtol=LM_TOL, args=(table, y)
        )
    return fit.x


def _locate(table: _StartTable, y: np.ndarray) -> LocateResult:
    """Best grid node, refined by Levenberg-Marquardt inside the disc or on its rim."""
    best = int(np.argmin(table.mu_sq - 2.0 * (y @ table.mu)))
    start = table.nodes[best]
    grid_residual = float(np.sum((y - table.mu[:, best]) ** 2))

    est = _lm(_rss_residual, _rss_jacobian, start, table, y)
    off = est - table.center
    if float(off @ off) > table.radius**2:
        # the constrained optimum lies on the rim: minimise over it, from the exit direction
        phi = _lm(_circle_residual, _circle_jacobian, [math.atan2(off[1], off[0])], table, y)
        est = _circle_point(table, phi[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = float(np.sum(_rss_residual(est, table, y) ** 2))
    if not residual <= grid_residual:  # no progress (or a non-finite step): keep the grid node
        est, residual = start, grid_residual
    cell = 2.0 * table.radius / (GRID_POINTS_PER_AXIS - 1)
    on_boundary = float(np.linalg.norm(est - table.center)) >= table.radius - cell
    return LocateResult(estimate=np.asarray(est, dtype=float), residual=residual, on_boundary=on_boundary)


def ml_locate(
    scenario: RssScenario,
    samples: Sequence[float],
    active: SubsetSelection | Sequence[int],
) -> LocateResult:
    """Maximum-likelihood source estimate from the active sensors' readings.

    Minimises the log-RSS residual sum_i (y_i - ln A + path_loss ln d_i)^2
    over the disc of radius 2 * sensor_radius around the nominal source.
    The start is the best node of a 101x101 grid over the disc (nodes on an
    active sensor excluded).  Levenberg-Marquardt with the analytic Jacobian
    path_loss (p - x_i) / d_i^2 refines it; if that solution leaves the
    disc, a one-dimensional Levenberg-Marquardt solve over the rim angle,
    started at the exit angle, gives the constrained optimum.  The refined
    residual never exceeds the best grid residual: when it would, the grid
    node is returned.  ``on_boundary`` flags estimates within one grid cell
    of the rim.
    """
    sel = SubsetSelection(active)
    table = _start_table(scenario, sel)
    obs = np.asarray(samples, dtype=float)
    if obs.shape != (scenario.n,):
        raise ValueError(f"samples must have shape ({scenario.n},), got {obs.shape}")
    return _locate(table, obs[list(sel.indices)])


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
    scenario: RssScenario,
    snr_grid_db: Sequence[float],
    trials: int | None = None,
) -> MonitoringResult:
    """Localization MSE versus SNR with the worst FIM triple active.

    The noise level for each point is set from SNR = 10 log10(P_s / sigma^2)
    where P_s is the mean squared noiseless log-RSS over the ring.  When the
    scenario makes every noiseless reading zero (unit amplitude at unit
    distance), P_s degenerates; the reference power falls back to 1 and the
    metadata says so.
    """
    if trials is None:
        trials = scenario.trials
    if trials < 1:
        raise ValueError("trials must be positive")
    snrs = [float(s) for s in snr_grid_db]
    if not snrs:
        raise ValueError("snr_grid_db must be nonempty")
    if not all(map(math.isfinite, snrs)):
        raise ValueError(f"SNR values must be finite, got {snrs}")

    clean = _rss_mean(scenario)
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

    sel, _ = worst_fim_subset(scenario, k=3)
    table = _start_table(scenario, sel)  # shared by every SNR point and trial
    active = list(sel.indices)
    z = np.asarray(scenario.source, dtype=float)
    points = []
    for pi, (snr, sigma) in enumerate(zip(snrs, sigmas)):
        readings = clean + sigma * _trial_noise((scenario.seed, pi), trials, scenario.n)
        sq = np.array([np.sum((_locate(table, y[active]).estimate - z) ** 2) for y in readings])
        mse, se = _mean_and_se(sq)
        mse_db = 10.0 * math.log10(mse) if mse > 0 else -math.inf
        points.append(
            MonitoringPoint(
                snr_db=snr,
                noise_std=sigma,
                mse=mse,
                std_error=se,
                mse_db=mse_db,
                worst_subset=sel.indices,
            )
        )
    metadata = {
        "snr_definition": "snr_db = 10*log10(reference_power / sigma^2)",
        "snr_reference": reference,
        "reference_power": p_ref,
        "noise_generator": "numpy PCG64 via SeedSequence((seed, point_index, trial_index))",
        "active_subset": list(sel.indices),
        "trials": trials,
    }
    return MonitoringResult(points=tuple(points), metadata=metadata)
