import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng
from oracles import (
    fim_matrix_direct,
    grid_start,
    node_readings,
    recovery_solve,
    rss_gradient,
    rss_hessian,
    trial_noise,
    worst_fim_direct,
)
from scipy.optimize import least_squares, minimize

import sensedesign.simulate
from sensedesign import (
    AngleSet,
    ResourceLimitError,
    SubsetSelection,
    baseline_circle,
    baseline_semicircle,
    build_design,
    design_optimal,
    spectral_summary,
    worst_subset,
)
from sensedesign.simulate import (
    DegenerateGeometryError,
    EstimationScenario,
    RssScenario,
    SingularSubsetError,
    fim,
    least_squares_estimate,
    ml_locate,
    ring_positions,
    rss_sample,
    simulate_estimation,
    simulate_monitoring,
    worst_fim_subset,
)
from sensedesign.cli import main

TIGHT_FRAME = AngleSet([0.0, math.pi / 3, 2 * math.pi / 3])


def ring_scenario(n=10, radius=1.0, source=(0.0, 0.0), **kw) -> RssScenario:
    return RssScenario(
        sensor_positions=ring_positions(design_optimal(n), radius, source),
        source=source,
        sensor_radius=radius,
        **kw,
    )


def assert_start_is_exhaustive(table, y):
    """The pruned start picks the exhaustive scan's node for every row of y, with no tile bound too high.

    Each tile's float32 bound, times 2^2e (exact), is at most the float
    distance |mu - y|^2 of every node in it, with no tolerance.
    """
    sim = sensedesign.simulate
    assert sim._start(table, y).tolist() == grid_start(table, y).tolist()
    sample = y[::8]
    dist = sum((table.tile_mu[i] - sample[:, i, None, None]) ** 2 for i in range(sample.shape[1]))
    e, lo, hi, scaled = sim._scaled_boxes(table, sample)
    assert np.all(np.ldexp(sim._tile_bounds(lo, hi, scaled).astype(float), 2 * e) <= dist.min(axis=2))


def polar_scenario(phi, dist, source=(0.0, 0.0)) -> RssScenario:
    """Sensors at angles phi and distances dist from the source."""
    positions = [(source[0] + d * math.cos(a), source[1] + d * math.sin(a)) for a, d in zip(phi, dist)]
    return RssScenario(sensor_positions=positions, source=source, sensor_radius=1.0)


def grid_residuals(scn, samples, active):
    """Brute-force coarse grid: every in-disc node and its log-RSS residual (inf on a sensor)."""
    z = np.asarray(scn.source, dtype=float)
    radius = 2.0 * scn.sensor_radius
    axis = np.linspace(-radius, radius, 101)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()]) + z
    off = pts - z
    pts = pts[np.einsum("ij,ij->i", off, off) <= radius**2]
    pos = np.asarray(scn.sensor_positions)[list(active)]
    dist = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    with np.errstate(divide="ignore"):
        mu = math.log(scn.amplitude) - scn.path_loss * np.log(dist)
    y = np.asarray(samples, dtype=float)[list(active)]
    return pts, ((y[None, :] - mu) ** 2).sum(axis=1)


def nelder_mead_locate(scn, samples, active):
    """Reference solve: Nelder-Mead from the best grid node, penalised outside the disc.

    Returns (estimate, residual); the grid node when the simplex makes no progress.
    """
    pts, res = grid_residuals(scn, samples, active)
    start, grid_best = pts[int(np.argmin(res))], float(res.min())
    z = np.asarray(scn.source, dtype=float)
    radius = 2.0 * scn.sensor_radius
    pos = np.asarray(scn.sensor_positions)[list(active)]
    y = np.asarray(samples, dtype=float)[list(active)]

    def objective(p):
        r2 = float((p - z) @ (p - z))
        if r2 > radius**2:
            return 1e30 * (1.0 + r2)
        d = np.linalg.norm(pos - p, axis=1)
        if np.any(d < 1e-12):
            return 1e30
        mu = math.log(scn.amplitude) - scn.path_loss * np.log(d)
        return float(np.sum((y - mu) ** 2))

    opt = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-30, "maxiter": 2000, "maxfev": 4000},
    )
    if float(opt.fun) > grid_best:
        return start, grid_best
    return opt.x, float(opt.fun)


def scipy_locate(table, y, node):
    """Reference: scipy's least_squares from grid node ``node``, inside the disc and then on its rim.

    Returns the residual sum of squares; the grid node's when the refined one is worse or non-finite.
    """
    tol = sensedesign.simulate.LM_TOL

    def residual(p):
        d = np.sqrt(np.sum((p - table.pos) ** 2, axis=1))
        return y - table.log_amplitude + table.path_loss * np.log(d)

    def jacobian(p):
        rel = p - table.pos
        return table.path_loss * rel / np.sum(rel**2, axis=1)[:, None]

    def rim_point(phi):
        return table.center + table.radius * np.array([math.cos(phi[0]), math.sin(phi[0])])

    def rim_jacobian(phi):
        return jacobian(rim_point(phi)) @ (table.radius * np.array([[-math.sin(phi[0])], [math.cos(phi[0])]]))

    def lm(fun, jac, x0):
        return least_squares(fun, x0, jac=jac, method="lm", xtol=tol, ftol=tol, gtol=tol).x

    mu = node_readings(table)[0]
    grid = sum(float(y[i] - mu[i, node]) ** 2 for i in range(len(y)))
    with np.errstate(divide="ignore", invalid="ignore"):
        est = lm(residual, jacobian, table.nodes[node])
        off = est - table.center
        if float(off @ off) > table.radius**2:
            phi = lm(lambda phi: residual(rim_point(phi)), rim_jacobian, [math.atan2(off[1], off[0])])
            est = rim_point(phi)
        refined = float(np.sum(residual(est) ** 2))
    return refined if refined <= grid else grid


def grid_node_scenario():
    """Four sensors, each exactly on a node of the 101x101 start grid (as in test_sensor_on_grid_node)."""
    axis = np.linspace(-2.0, 2.0, 101)
    positions = ((axis[75], axis[50]), (axis[50], axis[75]), (axis[25], axis[50]), (axis[50], axis[25]))
    return RssScenario(sensor_positions=positions, sensor_radius=1.0, shadow_std=0.5)


def sweep_draws(per_point):
    """Seeded cases (scenario, active triple, readings stacked one trial per row).

    Both n=10 designs at 0, 10 and 30 dB (unit amplitude at unit distance, so
    sigma^2 = 10^(-snr/10)), each trial drawn from its own SeedSequence((5, point, t))
    stream (the sweep draws one stream per table; these tests only need seeded
    readings), and the sensors-on-grid-nodes geometry: its four sign patterns and
    seeded draws.
    """
    cases = []
    for design in (design_optimal(10), baseline_semicircle(10)):
        base = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        active, _ = worst_fim_subset(base)
        for pi, snr in enumerate((0.0, 10.0, 30.0)):
            scn = replace(base, shadow_std=math.sqrt(10.0 ** (-snr / 10.0)))
            rows = [rss_sample(scn, default_rng(SeedSequence((5, pi, t)))) for t in range(per_point)]
            cases.append((scn, active, np.array(rows)))
    scn = grid_node_scenario()
    signs = [(1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)]
    rows = [np.array(sg + (1,), dtype=float) * np.array([0.7, 0.4, 0.3, 0.2]) for sg in signs]
    rows += [rss_sample(scn, default_rng(SeedSequence((5, 3, t)))) for t in range(per_point)]
    cases.append((scn, SubsetSelection([0, 1, 2]), np.array(rows)))
    return cases


def disc_data(table, y):
    """_disc_model's data (F, rows) for the readings y (rows, k) of the start table's design."""
    geo = np.array([table.path_loss, *table.center, table.radius, *table.pos.T.ravel()])
    return np.concatenate([np.repeat(geo[:, None], len(y), axis=1), y.T - table.log_amplitude])


def disc_rss(table, y, points):
    """Squared norm of _disc_model's residuals at points (2, rows) for the readings y (rows, k), per row."""
    r = sensedesign.simulate._disc_model(points, disc_data(table, y), False)[0]
    return sensedesign.simulate._sum(r * r)


class TestTrialNoise:
    @pytest.mark.parametrize("size", [1, 3, 10])
    @pytest.mark.parametrize("trials", [1, 2000])
    @pytest.mark.parametrize(
        "key",
        [
            (0,),
            (7, 3),
            (2**32 + 5,),  # a seed of two 32-bit words
            (2**96 + 2**64 * 3 + 12345, 6),  # four seed words and an SNR index: the words past the pool
        ],
    )
    def test_matches_per_row_seed_sequences(self, key, trials, size):
        table = sensedesign.simulate._trial_noise(key, trials, size)
        assert np.array_equal(table, trial_noise(key, trials, size))

    @settings(derandomize=True, deadline=None)
    @given(
        key=st.lists(st.integers(min_value=0, max_value=2**130 - 1), min_size=1, max_size=3).map(tuple),
        trials=st.integers(min_value=1, max_value=40),
        size=st.integers(min_value=1, max_value=12),
    )
    def test_matches_per_row_seed_sequences_for_any_key(self, key, trials, size):
        table = sensedesign.simulate._trial_noise(key, trials, size)
        assert np.array_equal(table, trial_noise(key, trials, size))

    @settings(derandomize=True, deadline=None)
    @given(
        key=st.lists(st.integers(min_value=0, max_value=2**130 - 1), min_size=1, max_size=3).map(tuple),
        trials=st.integers(min_value=1, max_value=40),
        extra=st.integers(min_value=0, max_value=40),
        size=st.integers(min_value=1, max_value=12),
    )
    def test_shorter_table_is_a_prefix_of_a_longer_one(self, key, trials, extra, size):
        # a trial's draw does not depend on the trial count
        short = sensedesign.simulate._trial_noise(key, trials, size)
        long = sensedesign.simulate._trial_noise(key, trials + extra, size)
        assert np.array_equal(short, long[:trials])

    def test_sweeps_build_one_seed_sequence_per_table(self, monkeypatch):
        # one stream per distinct table, however many rows and designs share it
        made = []
        monkeypatch.setattr(
            np.random, "SeedSequence", lambda *a, **kw: made.append(a) or SeedSequence(*a, **kw)
        )
        simulate_estimation(
            [EstimationScenario(angles=d(7), trials=2000) for d in (design_optimal, baseline_semicircle)]
        )
        simulate_monitoring([ring_scenario(n=6, amplitude=3.0, trials=20)], [5.0, 15.0])
        assert sorted(made) == [((0,),), ((0, 0),), ((0, 1),)]


class TestLeastSquares:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = AngleSet(rng.uniform(0.1, math.pi - 0.1, 5))
            x = rng.normal(size=2)
            idx = [0, 2, 4]
            cols = np.array([[math.cos(a.angles[i]), math.sin(a.angles[i])] for i in idx]).T
            y = cols.T @ x
            got = least_squares_estimate(a, idx, y)
            np.testing.assert_allclose(got, x, atol=1e-9)

    def test_singular_subset_raises(self):
        a = AngleSet([0.5, 0.5, 0.5, 1.0])
        with pytest.raises(SingularSubsetError):
            least_squares_estimate(a, [0, 1, 2], [1.0, 1.0, 1.0])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            least_squares_estimate(TIGHT_FRAME, [0, 1, 2], [1.0, 2.0])

    def test_signal_cancels_from_the_error(self):
        # x_hat - x = (A_S A_S^T)^-1 A_S w for every signal x: the estimation sweep recovers the noise alone
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            a = AngleSet(rng.uniform(0.0, math.pi, n))
            idx = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
            if spectral_summary(a, idx).lambda_min < 1e-2:  # keep the signal's rounding below the tolerance
                continue
            r, phi = rng.uniform(0.0, 1e3), rng.uniform(0.0, 2 * math.pi)
            x = np.array([r * math.cos(phi), r * math.sin(phi)])
            w = rng.standard_normal(len(idx))
            clean = [math.cos(a.angles[i]) * x[0] + math.sin(a.angles[i]) * x[1] for i in idx]
            got = least_squares_estimate(a, idx, clean + w) - x
            np.testing.assert_allclose(got, least_squares_estimate(a, idx, w), rtol=0, atol=1e-9)
            checked += 1
        assert checked > 100

    def test_non_integer_columns_are_rejected(self):
        # int() would truncate (0, 1.99, 2.5) to the columns (0, 1, 2) and solve on them
        with pytest.raises(ValueError, match="subset index must be a nonnegative integer"):
            least_squares_estimate(AngleSet([0.0, 0.4, 1.1, 2.0]), [0, 1.99, 2.5], [1.0, 2.0, 3.0])


class TestErrorBound:
    """||x_hat - x|| <= ||w|| / sigma_min(A_S) on the public recovery and spectrum."""

    @staticmethod
    def error_and_bound(angles, idx, w):
        # math.hypot scales before squaring, so norms of ~1e300 noise do not overflow
        error = math.hypot(*least_squares_estimate(angles, idx, w))
        return error, math.hypot(*w) / math.sqrt(spectral_summary(angles, idx).lambda_min)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, math.pi, exclude_max=True), min_size=n, max_size=n),
                st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True),
            )
        ),
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        st.floats(-300.0, 300.0),
    )
    @example(
        ([0.0, math.pi / 3, 2 * math.pi / 3], [0, 1, 2]), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 200.0
    )
    def test_bound_holds(self, design, unit_noise, s):
        raw, idx = design
        angles, idx = AngleSet(raw), sorted(idx)
        assume(spectral_summary(angles, idx).lambda_min >= 1e-6)
        w = [u * 10.0**s for u in unit_noise[: len(idx)]]
        error, bound = self.error_and_bound(angles, idx, w)
        assert error <= bound * (1 + 1e-9)

    def test_values(self):
        error, bound = self.error_and_bound(TIGHT_FRAME, [0, 1, 2], [0.3, 0.0, 0.0])
        # sigma_min = sqrt(3/2) for the tight frame
        assert bound == pytest.approx(0.3 / math.sqrt(1.5), abs=1e-12)
        assert error <= bound

class TestWorstCaseMse:
    def test_expected_mse_tight_frame(self):
        result = simulate_estimation([EstimationScenario(angles=TIGHT_FRAME, trials=1)])[0]
        assert result.expected_mse == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_simulation_matches_expectation(self):
        scenario = EstimationScenario(angles=TIGHT_FRAME, trials=2000, seed=42)
        result = simulate_estimation([scenario])[0]
        assert result.expected_mse == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert abs(result.mse - 4.0 / 3.0) <= 3 * result.std_error

    def test_seed_reproducibility(self):
        scenario = EstimationScenario(angles=design_optimal(7), trials=100, seed=5)
        a = simulate_estimation([scenario])[0]
        b = simulate_estimation([scenario])[0]
        assert a.mse == b.mse
        assert a.std_error == b.std_error
        c = simulate_estimation([EstimationScenario(angles=design_optimal(7), trials=100, seed=6)])[0]
        assert c.mse != a.mse

    @pytest.mark.parametrize("trials", [1, 17, 40])
    def test_trial_streams_independent_of_trial_count(self, trials):
        # trial t's error recovers the (t+1)-th row of noise from the one stream SeedSequence((seed,))
        angles = design_optimal(7)
        scenario = EstimationScenario(angles=angles, trials=trials, seed=3)
        result = simulate_estimation([scenario])[0]
        idx = result.report.worst_subset.indices
        errors = []
        rng = default_rng(SeedSequence((3,)))
        for t in range(trials):
            w = rng.standard_normal(len(idx))
            errors.append(np.sum(least_squares_estimate(angles, idx, w) ** 2))
        assert result.mse == pytest.approx(np.mean(errors), rel=1e-12, abs=1e-12)

    def test_mean_and_se_finite_where_std_squares_overflow(self):
        # deviations of 1e153 square to 1e306, and 20,000 of them sum past float max; the figures do not
        values = np.full(20000, 1e153)
        values[::2] = 3e153
        mean, se = sensedesign.simulate._mean_and_se(values)
        assert mean == pytest.approx(2e153, rel=1e-15)
        assert se == pytest.approx(1e153 / math.sqrt(19999), rel=1e-12)
        # values that do not overflow keep the bits of the plain mean and std
        ordinary = default_rng(1).standard_normal(500) ** 2
        want = (float(ordinary.mean()), float(ordinary.std(ddof=1) / math.sqrt(500)))
        assert sensedesign.simulate._mean_and_se(ordinary) == want

    def test_single_scan_per_simulation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return worst_subset(*args, **kwargs)

        monkeypatch.setattr(sensedesign.simulate, "worst_subset", counting)
        result = simulate_estimation([EstimationScenario(angles=design_optimal(7), trials=10)])[0]
        assert len(calls) == 1
        assert result.expected_mse == 3.0000000000000004  # the README tour's value

    def test_batched_recovery_matches_per_row(self):
        # the sweep's one-product-a-row recovery gives each row the bits of least_squares_estimate alone
        sim = sensedesign.simulate
        checked = 0
        for n, k in ((n, k) for n in range(3, 16) for k in range(2, min(n, 9) + 1)):
            for angles in (design_optimal(n), baseline_semicircle(n)):
                sel = worst_subset(angles, k).worst_subset
                try:
                    recover = sim._recovery(angles, sel)
                except SingularSubsetError:
                    continue
                clean = [9.0 * (math.cos(angles.angles[i]) + math.sin(angles.angles[i])) for i in sel.indices]
                readings = clean + sim._trial_noise((n, k), 200, k)
                want = np.array([least_squares_estimate(angles, sel, y) for y in readings])
                assert sim._estimates(recover, readings.T).T.tobytes() == want.tobytes(), (n, k, angles.raw)
                checked += 1
        assert checked == 155  # of 166: design_optimal's worst pair is singular for every n >= 4 but 5

    def test_recovery_sums_are_scalar_sums(self):
        # each trial's x_hat_j is sum_i recover[j][i] * y[i] in Python floats, left to right: no BLAS kernel
        # and no fused multiply-add, so the bits do not depend on the numpy build
        sim = sensedesign.simulate
        checked = 0
        for n, k in ((n, k) for n in range(3, 16) for k in range(2, min(n, 9) + 1)):
            for angles in (design_optimal(n), baseline_semicircle(n)):
                try:
                    recover = sim._recovery(angles, worst_subset(angles, k).worst_subset)
                except SingularSubsetError:
                    continue
                noise = sim._trial_noise((n, k), 50, k)
                got = sim._estimates(recover, np.ascontiguousarray(noise.T)).T.tolist()
                rows = recover.tolist()
                want = [[sum(rows[j][i] * y[i] for i in range(k)) for j in (0, 1)] for y in noise.tolist()]
                assert got == want, (n, k, angles.raw)
                checked += 1
        assert checked == 155

    def test_recovery_matches_the_solve(self):
        # the closed form (K I - M) A_S / (2 lambda_min lambda_max) against solve(A_S A_S^T, A_S), to within
        # 8 units of roundoff times the condition number (60,000 such cases peaked at 1.9), on designs from
        # tight to nearly singular
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        for _ in range(400):
            n = int(rng.integers(2, 9))
            base = rng.uniform(0.0, math.pi)
            spread = 10.0 ** rng.uniform(-6.0, 0.5)
            angles = AngleSet(base + spread * rng.uniform(0.0, 1.0, n))
            idx = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
            summary = spectral_summary(angles, idx)
            if math.isinf(summary.gram_condition):
                continue
            got = sensedesign.simulate._recovery(angles, SubsetSelection(idx))
            want = recovery_solve(angles, idx)
            tol = 8 * eps * summary.gram_condition * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=str((angles.raw, idx)))

    def test_sweep_matches_single_scenarios(self):
        # neighbours that differ only in seed, trials or K must not share a noise table
        cases = itertools.product((1, 2), (30, 50), (2, 3, 4))
        designs = (design_optimal(5), baseline_semicircle(6))
        scenarios = [
            EstimationScenario(angles=designs[i % 2], k=k, trials=t, seed=seed)
            for i, (seed, t, k) in enumerate(cases)
        ]
        results = simulate_estimation(scenarios)
        assert len(results) == len(scenarios) == 12
        for scenario, result in zip(scenarios, results):
            assert result == simulate_estimation([scenario])[0], scenario

    def test_singular_worst_subset_draws_nothing(self, monkeypatch):
        # design_optimal(4)'s worst pair (0, 2) is rank deficient: every scenario's operator is built before
        # the first table is drawn, so the call raises with no draw, though a good scenario comes first
        draws = []
        draw = sensedesign.simulate._trial_noise
        monkeypatch.setattr(sensedesign.simulate, "_trial_noise", lambda *a: draws.append(a) or draw(*a))
        good = EstimationScenario(angles=design_optimal(5), k=2, trials=20)
        bad = EstimationScenario(angles=design_optimal(4), k=2, trials=20)
        with pytest.raises(SingularSubsetError, match=r"\(0, 2\)"):
            simulate_estimation([good, bad])
        assert draws == []
        simulate_estimation([good])
        assert draws == [((0,), 20, 2)]

    def test_singular_worst_subset_raises(self):
        with pytest.raises(SingularSubsetError):
            simulate_estimation(
                [EstimationScenario(angles=AngleSet([0.2, 0.2, 0.2, 1.0]), trials=10)]
            )

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            EstimationScenario(angles=TIGHT_FRAME, k=4)
        with pytest.raises(ValueError):
            EstimationScenario(angles=TIGHT_FRAME, trials=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            EstimationScenario(angles=TIGHT_FRAME, seed=seed)
        assert EstimationScenario(angles=TIGHT_FRAME, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_a_positive_int(self, trials):
        with pytest.raises(ValueError, match="trials"):
            EstimationScenario(angles=TIGHT_FRAME, trials=trials)
        assert EstimationScenario(angles=TIGHT_FRAME, trials=np.int64(3)).trials == 3

    @pytest.mark.parametrize("k", [3.0, np.float64(2.0), True])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            EstimationScenario(angles=TIGHT_FRAME, k=k)
        assert EstimationScenario(angles=TIGHT_FRAME, k=np.int64(2)).k == 2


class TestRssModel:
    def test_scenario_rejects_inside_ring(self):
        for kw in (
            {"sensor_positions": ((0.5, 0.0),), "sensor_radius": 1.0},
            # a sensor on the source of a tiny ring (fim would be NaN)
            {"sensor_positions": ((0, 0), (1, 0), (0, 1), (-1, -1)), "sensor_radius": 1e-10},
        ):
            with pytest.raises(ValueError):
                RssScenario(**kw)

    def test_rings_of_every_size_construct(self):
        # the ring check's slack is relative: an absolute 1e-9 rejected 26 of these 39 rings at R = 1e8
        for e in range(-6, 77):
            radius = 10.0**e
            for n, scheme in itertools.product(range(3, 16), ("optimal", "semicircle", "circle")):
                positions = ring_positions(build_design(n, scheme), radius)
                RssScenario(sensor_positions=positions, sensor_radius=radius)

    @pytest.mark.parametrize("far", [1e80, 1e200])
    def test_scenario_rejects_sensor_whose_d4_overflows(self, far):
        # the Fisher terms divide by d^4, which overflows above ~1.16e77; no RuntimeWarning comes first
        with pytest.raises(ValueError, match=re.escape(f"sensor 3 at distance {far:.6g} is too far")):
            RssScenario(sensor_positions=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (far, 0.0)))

    @pytest.mark.parametrize(
        "kw",
        [
            {"sensor_radius": math.nan},
            {"amplitude": math.nan},
            {"path_loss": math.inf},
            {"shadow_std": math.nan},
            {"source": (math.nan, 0.0)},
            {"sensor_positions": ((math.nan, 2.0),)},
        ],
    )
    def test_scenario_rejects_non_finite(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            RssScenario(**{"sensor_positions": ((2.0, 0.0),), **kw})

    @pytest.mark.parametrize("source", [(0.0, 0.0, 5.0), (0.0,)])
    def test_source_must_be_a_pair(self, source):
        with pytest.raises(ValueError, match="source must have exactly 2 entries"):
            RssScenario(sensor_positions=((2.0, 0.0),), source=source)

    @pytest.mark.parametrize("position", [(2.0, 0.0, 1.0), (2.0,)])
    def test_sensor_positions_must_be_pairs(self, position):
        with pytest.raises(ValueError, match="sensor position 1 must have exactly 2 entries"):
            RssScenario(sensor_positions=((0.0, 2.0), position))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            RssScenario(sensor_positions=((2.0, 0.0),), seed=seed)
        assert RssScenario(sensor_positions=((2.0, 0.0),), seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_a_positive_int(self, trials):
        with pytest.raises(ValueError, match="trials"):
            RssScenario(sensor_positions=((2.0, 0.0),), trials=trials)
        assert RssScenario(sensor_positions=((2.0, 0.0),), trials=np.int64(3)).trials == 3

    def test_sweep_rejects_non_finite_snr(self):
        with pytest.raises(ValueError, match="must be finite"):
            simulate_monitoring([ring_scenario(n=6, trials=2)], [10.0, math.nan])

    # -4000 dB overflows 10 ** (-snr / 10); at -3080 dB the power is finite but P_ref * power is not
    @pytest.mark.parametrize("snr", [-4000.0, -3080.0])
    def test_sweep_rejects_overflowing_noise_level(self, monkeypatch, snr):
        def no_solve(*args):
            raise AssertionError("a solve ran before every noise level was checked")

        monkeypatch.setattr(sensedesign.simulate, "_locate", no_solve)
        with pytest.raises(ValueError, match="must be finite"):
            simulate_monitoring([ring_scenario(n=6, amplitude=10.0, trials=2)], [10.0, snr])

    def test_ring_positions_use_raw_angles(self):
        d = design_optimal(10)
        pos = ring_positions(d, radius=2.0, center=(1.0, -1.0))
        assert len(pos) == 10
        assert len(set(pos)) == 10  # distinct placements on the full circle
        for p in pos:
            assert math.hypot(p[0] - 1.0, p[1] + 1.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"radius": -1.0}, "radius must be finite and positive"),
            ({"radius": 0.0}, "radius must be finite and positive"),
            ({"radius": math.nan}, "radius must be finite and positive"),
            ({"radius": math.inf}, "radius must be finite and positive"),
            ({"center": (math.nan, 0.0)}, "center must be finite"),
            ({"center": (0.0, math.inf)}, "center must be finite"),
            ({"center": (1.0, 2.0, 3.0)}, "center must have exactly 2 entries"),
            ({"center": (1.0,)}, "center must have exactly 2 entries"),
        ],
        ids=["radius-negative", "radius-zero", "radius-nan", "radius-inf", "center-nan", "center-inf",
             "center-3-entries", "center-1-entry"],
    )
    def test_ring_positions_rejects_bad_ring(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ring_positions(TIGHT_FRAME, **kw)

    def test_noiseless_samples(self):
        scn = ring_scenario(n=6, radius=2.0, amplitude=3.0, path_loss=1.5, shadow_std=0.0)
        samples = rss_sample(scn)
        want = math.log(3.0) - 1.5 * math.log(2.0)
        np.testing.assert_allclose(samples, want, atol=1e-12)

    def test_seeded_reproducibility(self):
        scn = ring_scenario(n=6, shadow_std=0.7, seed=12)
        np.testing.assert_array_equal(rss_sample(scn), rss_sample(scn))


class TestFim:
    def test_tight_frame_is_isotropic(self):
        scn = RssScenario(
            sensor_positions=ring_positions(TIGHT_FRAME), sensor_radius=1.0, shadow_std=2.0
        )  # shadow_std == path_loss: the prefactor is exactly 1
        summary = fim(scn, [0, 1, 2])
        np.testing.assert_allclose(summary.matrix, 1.5 * np.eye(2), atol=1e-12)
        assert summary.condition == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("prefactor", [10.0**e for e in range(-15, 7)])
    def test_condition_is_scale_free(self, prefactor):
        # path_loss^2 / shadow_std^2 takes the parametrized value at path_loss = 1
        scn = RssScenario(
            sensor_positions=ring_positions(TIGHT_FRAME),
            sensor_radius=1.0,
            path_loss=1.0,
            shadow_std=1.0 / math.sqrt(prefactor),
        )
        assert fim(scn, [0, 1, 2]).condition == pytest.approx(1.0, rel=1e-12)
        # the spectrum is taken before the scale: the condition is the prefactor-1 one, bit for bit
        assert fim(scn, [0, 1, 2]).condition == fim(replace(scn, shadow_std=1.0), [0, 1, 2]).condition

    def test_matches_per_sensor_sum(self):
        # the weighted case of the kernel: w_i = path_loss^2 / (shadow_std^2 d_i^2) at unequal distances
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            source = tuple(rng.uniform(-1.0, 1.0, 2))
            scn = polar_scenario(rng.uniform(0.0, 2 * math.pi, n), rng.uniform(1.0, 4.0, n), source)
            scn = replace(scn, shadow_std=float(10.0 ** rng.uniform(-1.5, 1.5)))
            idx = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            got = fim(scn, idx).matrix
            want = fim_matrix_direct(scn, idx, scn.path_loss**2 / scn.shadow_std**2)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_noise_needs_explicit_prefactor(self):
        scn = ring_scenario(n=6, shadow_std=0.0)
        with pytest.raises(ValueError):
            fim(scn, [0, 1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [{"shadow_std": 1e-200}, {"shadow_std": 5e-324}, {"path_loss": 1e160}, {"path_loss": 1e-170}],
    )
    def test_out_of_range_scale_is_a_value_error(self, kwargs):
        # path_loss^2 / shadow_std^2 overflows or underflows for these scenarios, which RssScenario accepts
        with pytest.raises(ValueError, match="out of float range"):
            fim(ring_scenario(n=6, **kwargs), [0, 1, 2])

    def test_psd_and_symmetric(self):
        scn = ring_scenario(n=8, shadow_std=1.0)
        summary = fim(scn, range(8))
        assert summary.lambda_min >= 0.0
        np.testing.assert_allclose(summary.matrix, summary.matrix.T, atol=1e-15)

    def test_out_of_range_subset(self):
        scn = ring_scenario(n=6)
        with pytest.raises(IndexError):
            fim(scn, [0, 1, 6])


class TestWorstFimSubset:
    def test_ordering_matches_gram_condition(self):
        # at equal sensor distance, FIM condition and Gram condition sort
        # subsets identically (ties allowed both ways)
        design = baseline_semicircle(7)
        scn = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        combos = list(itertools.combinations(range(7), 3))
        fim_cond = [fim(scn, c).condition for c in combos]
        gram_cond = [spectral_summary(design, c).gram_condition for c in combos]
        for i in range(len(combos)):
            for j in range(i + 1, len(combos)):
                df = fim_cond[i] - fim_cond[j]
                dg = gram_cond[i] - gram_cond[j]
                if abs(df) < 1e-9 or abs(dg) < 1e-9:
                    continue
                assert (df > 0) == (dg > 0)

    @pytest.mark.parametrize(
        "design, want",
        [
            (design_optimal(10), (0, 1, 5)),
            (baseline_semicircle(10), (0, 1, 2)),
            (design_optimal(6), (0, 1, 3)),
        ],
    )
    def test_ring_ties_report_smallest_subset(self, design, want):
        scn = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        assert worst_fim_subset(scn)[0].indices == want

    def test_tie_rule_matches_direct_oracle(self):
        rng = np.random.default_rng(17)
        line = np.random.default_rng(23)
        cases = []
        for n in range(3, 11):
            for build in (design_optimal, baseline_semicircle, baseline_circle):
                cases.append(RssScenario(sensor_positions=ring_positions(build(n)), sensor_radius=1.0))
            for _ in range(2):
                cases.append(polar_scenario(rng.uniform(0.0, 2 * math.pi, n), rng.uniform(1.0, 3.0, n)))
            # three sensors on one line through the source: a rank-deficient triple
            phi = np.concatenate([[0.5, 0.5 + math.pi, 0.5], rng.uniform(0.0, 2 * math.pi, n - 3)])
            dist = np.concatenate([[1.0, 2.0, 3.0], rng.uniform(1.0, 3.0, n - 3)])
            order = rng.permutation(n)
            cases.append(polar_scenario(phi[order], dist[order]))
            # every sensor on one line through the source: every subset is rank deficient
            cases.append(polar_scenario(0.5 + math.pi * line.integers(0, 2, n), line.uniform(1.0, 3.0, n)))
        mismatches = []
        for scn in cases:
            for k in range(2, scn.n + 1):
                sel, cond = worst_fim_subset(scn, k)
                idx, want = worst_fim_direct(scn, k)
                if sel.indices != idx or cond != pytest.approx(want, rel=1e-9):
                    mismatches.append((scn.n, k, sel.indices, idx, cond, want))
        assert mismatches == []

    def test_fim_reports_the_condition_it_ranks_by(self):
        # fim and worst_fim_subset form (W, R) one way, so the reported subset's fim condition is the
        # reported one exactly: off-centre rings at K = 3 under a prefactor of 9, and K = 8..n, where a
        # numpy reduction of the per-sensor terms would go pairwise
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(8, 12))
            centre = tuple(rng.uniform(-0.5, 0.5, 2))
            ring = ring_positions(AngleSet(rng.uniform(0.0, 2 * math.pi, n)), 1.0, centre)
            scn = RssScenario(sensor_positions=ring, sensor_radius=0.25)
            for case, k in [(replace(scn, path_loss=3.0), 3)] + [(scn, k) for k in range(8, n + 1)]:
                sel, cond = worst_fim_subset(case, k)
                assert fim(case, sel).condition == cond, (n, k, case.path_loss)

    def test_worst_value_matches_gram_worst(self):
        design = design_optimal(10)
        scn = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        _, cond = worst_fim_subset(scn)
        gram = worst_subset(design).summary.gram_condition
        assert cond == pytest.approx(gram, rel=1e-9)

    def test_subset_ceiling_refuses_before_scoring(self):
        # C(400, 3) = 10,586,800 subsets would hold about 1.1 GB of index tuples and conditions
        scn = ring_scenario(n=400)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="10586800 subsets"):
            worst_fim_subset(scn)
        assert time.perf_counter() - start < 0.5
        # the ceiling's basis: a scan holds its index tuples and one condition a subset, about 104 B each
        tracemalloc.start()
        try:
            worst_fim_subset(ring_scenario(n=120))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 110 * math.comb(120, 3)

    def test_subset_ceiling_is_inclusive(self, monkeypatch):
        scn = ring_scenario(n=10)
        monkeypatch.setattr(sensedesign.simulate, "_FIM_SUBSETS", math.comb(10, 3))
        assert worst_fim_subset(scn)[0].indices == (0, 1, 5)
        monkeypatch.setattr(sensedesign.simulate, "_FIM_SUBSETS", math.comb(10, 3) - 1)
        with pytest.raises(ResourceLimitError):
            worst_fim_subset(scn)


@pytest.mark.parametrize(
    "call",
    [
        lambda: EstimationScenario(angles=TIGHT_FRAME, k="2"),
        lambda: worst_fim_subset(ring_scenario(n=6), k="3"),
        lambda: worst_fim_subset(ring_scenario(n=6), k=3.0),
    ],
    ids=["scenario-str", "fim-str", "fim-float"],
)
def test_non_integer_k_is_rejected_before_the_range_check(call):
    # a string used to reach a range comparison, and a float itertools.combinations: both raised TypeError
    with pytest.raises(ValueError, match="k must be a positive integer"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EstimationScenario(angles=TIGHT_FRAME, k=0), "need 1 <= k <= 3, got k=0"),
        (lambda: EstimationScenario(angles=TIGHT_FRAME, k=4), "need 1 <= k <= 3, got k=4"),
        (lambda: worst_fim_subset(ring_scenario(n=6), k=1), "need k >= 2, got k=1"),
        (lambda: worst_fim_subset(ring_scenario(n=6), k=7), "need at least k=7 sensors, got 6"),
        # rings with fewer sensors than k: the range 2 <= k <= n would read "2 <= k <= 1"
        (lambda: worst_fim_subset(polar_scenario([0.0], [1.0])), "need at least k=3 sensors, got 1"),
        # k below 2 is refused for itself, whatever the ring's size
        (lambda: worst_fim_subset(polar_scenario([0.0], [1.0]), k=1), "need k >= 2, got k=1"),
        (
            lambda: worst_fim_subset(polar_scenario([0.0, 1.0], [1.0, 2.0])),
            "need at least k=3 sensors, got 2",
        ),
        (
            lambda: simulate_monitoring([polar_scenario([0.0, 1.0], [1.0, 2.0])], [10.0]),
            "need at least k=3 sensors, got 2",
        ),
    ],
    ids=[
        "scenario-low",
        "scenario-high",
        "fim-low",
        "fim-high",
        "fim-one-sensor",
        "fim-one-sensor-low",
        "fim-two-sensors",
        "monitoring-two-sensors",
    ],
)
def test_integer_k_keeps_its_range_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


class TestMlLocate:
    def test_noiseless_recovery(self):
        scn = ring_scenario(n=10, shadow_std=0.0)
        samples = rss_sample(scn)
        sel, _ = worst_fim_subset(scn)
        result = ml_locate(scn, samples, sel)
        assert np.linalg.norm(result.estimate - np.array(scn.source)) <= 1e-7
        assert result.residual <= 1e-12
        assert not result.on_boundary

    def test_zero_residual_row_stops_after_one_step(self, monkeypatch):
        # the source sits on grid node (0, 0), where the noiseless readings leave a residual of exactly
        # 0; the disc solve's first step is exactly 0 and the step test stops the row there
        sim = sensedesign.simulate
        scn = ring_scenario(n=10, shadow_std=0.0)
        sel, _ = worst_fim_subset(scn)
        samples = rss_sample(scn)
        steps, damped = [], sim._damped_step
        monkeypatch.setattr(sim, "_damped_step", lambda *args: steps.append(1) or damped(*args))
        result = ml_locate(scn, samples, sel)
        assert len(steps) == 1
        assert result.estimate.tobytes() == np.zeros(2).tobytes()
        assert result.residual == 0.0 and not result.on_boundary
        # the same bits in a batch with noisy rows
        y = samples[list(sel.indices)]
        noisy = y + default_rng(5).standard_normal((6, 3))
        est, res, edge = sim._locate([(sim._start_table(scn, sel), np.vstack([noisy[:3], y, noisy[3:]]))])
        assert est[3].tobytes() == result.estimate.tobytes()
        assert res[3] == 0.0 and not edge[3]
        assert (res[[0, 1, 2, 4, 5, 6]] > 0.0).all()

    def test_offset_source_frame(self):
        scn = ring_scenario(n=10, source=(2.0, -1.5), shadow_std=0.0)
        samples = rss_sample(scn)
        result = ml_locate(scn, samples, [0, 1, 2])
        np.testing.assert_allclose(result.estimate, [2.0, -1.5], atol=1e-7)

    def test_collinear_sensors_rejected(self):
        scn = RssScenario(
            sensor_positions=((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),
            sensor_radius=1.0,
            shadow_std=0.0,
        )
        with pytest.raises(DegenerateGeometryError):
            ml_locate(scn, rss_sample(scn), [0, 1, 2])

    @pytest.mark.parametrize("bend, rejected", [(1e-8, True), (1e-5, False)])
    def test_near_collinear_sensors_follow_the_rank_rule(self, bend, rejected):
        # the centred positions' lambda_min <= RANK_TOL_SCALE * W: a 1e-8 bend (lambda_min ~ 7e-17,
        # W ~ 2) is collinear, a 1e-5 bend (lambda_min ~ 7e-11) is not
        scn = RssScenario(
            sensor_positions=((1.0, 0.0), (2.0, bend), (3.0, 0.0)), sensor_radius=1.0, shadow_std=0.0
        )
        if rejected:
            with pytest.raises(DegenerateGeometryError, match="collinear"):
                sensedesign.simulate._start_table(scn, SubsetSelection([0, 1, 2]))
        else:
            table = sensedesign.simulate._start_table(scn, SubsetSelection([0, 1, 2]))
            assert len(table.nodes) > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_rejected(self, bad):
        scn = ring_scenario(n=6, shadow_std=0.5)
        samples = rss_sample(scn)
        samples[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ml_locate(scn, samples, [0, 1, 2])

    def test_reading_out_of_float_range_rejected(self):
        # a reading of 1e160 would overflow the start's squared distances
        scn = ring_scenario(n=6, shadow_std=0.5)
        samples = rss_sample(scn)
        samples[1] = 1e160
        with pytest.raises(ValueError, match="too large: the log-RSS readings leave float range"):
            ml_locate(scn, samples, [0, 1, 2])

    def test_needs_three_active(self):
        scn = ring_scenario(n=6)
        with pytest.raises(ValueError):
            ml_locate(scn, rss_sample(scn), [0, 1])

    def test_boundary_warning_for_far_source(self):
        # readings generated by a source outside the search disc
        scn = ring_scenario(n=6, shadow_std=0.0)
        far = np.array([3.5, 0.0])
        pos = np.asarray(scn.sensor_positions)
        d = np.linalg.norm(pos - far, axis=1)
        samples = math.log(scn.amplitude) - scn.path_loss * np.log(d)
        result = ml_locate(scn, samples, [0, 1, 2])
        assert result.on_boundary

    def test_residual_never_worse_than_grid(self):
        scn = ring_scenario(n=6, shadow_std=0.8, seed=3)
        samples = rss_sample(scn)
        result = ml_locate(scn, samples, [0, 1, 2])
        _, res = grid_residuals(scn, samples, [0, 1, 2])
        assert result.residual <= res.min() + 1e-12

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)])
    def test_sensor_on_grid_node(self, signs):
        # every active sensor sits exactly on a grid node, where the predicted reading is infinite
        axis = np.linspace(-2.0, 2.0, 101)
        positions = (
            (axis[75], axis[50]),
            (axis[50], axis[75]),
            (axis[25], axis[50]),
            (axis[50], axis[25]),
        )
        scn = RssScenario(sensor_positions=positions, sensor_radius=1.0, shadow_std=0.5)
        samples = np.array(signs + (1,), dtype=float) * np.array([0.7, 0.4, 0.3, 0.2])
        result = ml_locate(scn, samples, [0, 1, 2])
        _, res = grid_residuals(scn, samples, [0, 1, 2])
        assert np.all(np.isfinite(result.estimate))
        assert math.isfinite(result.residual)
        assert result.residual <= res.min() + 1e-12

    def test_never_worse_than_nelder_mead(self):
        # n=10 ring, worst triple active, unit amplitude at unit distance so sigma^2 = 10^(-snr/10);
        # one SeedSequence((3, point, t)) stream per trial, not the sweep's one stream per table
        semicircle_rim_draws = 0
        for name, design in (("optimal", design_optimal(10)), ("semicircle", baseline_semicircle(10))):
            base = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
            active, _ = worst_fim_subset(base)
            for pi, snr in enumerate((0.0, 10.0, 30.0)):
                scn = replace(base, shadow_std=math.sqrt(10.0 ** (-snr / 10.0)))
                for t in range(12):
                    samples = rss_sample(scn, default_rng(SeedSequence((3, pi, t))))
                    result = ml_locate(scn, samples, active)
                    _, oracle = nelder_mead_locate(scn, samples, active.indices)
                    assert result.residual <= oracle + 1e-12, (name, snr, t, result.residual, oracle)
                    semicircle_rim_draws += name == "semicircle" and result.on_boundary
        assert semicircle_rim_draws >= 3  # semicircle optima on the rim of the search disc

    def test_batch_matches_row_by_row(self):
        # one stacked _locate call gives, bit for bit, what ml_locate gives each row alone
        interior = rim = 0
        for scn, active, rows in sweep_draws(50):
            table = sensedesign.simulate._start_table(scn, active)
            y = rows[:, list(active.indices)]
            est, residual, on_boundary = sensedesign.simulate._locate([(table, y)])
            for i, samples in enumerate(rows):
                alone = ml_locate(scn, samples, active)
                assert est[i].tolist() == alone.estimate.tolist(), (scn.shadow_std, i)
                assert residual[i] == alone.residual, (scn.shadow_std, i)
                assert on_boundary[i] == alone.on_boundary, (scn.shadow_std, i)
            dist = np.linalg.norm(est - table.center, axis=1)
            interior += int(np.sum(~on_boundary))
            rim += int(np.sum(np.abs(dist - table.radius) <= 1e-12))
        assert interior >= 100 and rim >= 5, (interior, rim)

    def test_start_ties_do_not_depend_on_the_batch(self):
        # readings halfway between the predictions of two adjacent grid nodes tie them exactly,
        # so only the rounding of the documented score order decides which node wins
        sim = sensedesign.simulate
        base = RssScenario(sensor_positions=ring_positions(design_optimal(10)), sensor_radius=1.0)
        active, _ = worst_fim_subset(base)
        table = sim._start_table(base, active)
        mu, mu_sq = node_readings(table)
        a = default_rng(SeedSequence(11)).choice(len(table.nodes) - 1, size=3000, replace=False)
        y = 0.5 * (mu[:, a] + mu[:, a + 1]).T
        want, tied = [], []
        for i, row in enumerate(y):
            y0, y1, y2 = row.tolist()
            score = mu_sq - 2.0 * ((y0 * mu[0] + y1 * mu[1]) + y2 * mu[2])
            if np.sum(score <= max(score[a[i]], score[a[i] + 1])) == 2:  # a and a + 1 are the two best
                tied.append(i)
                want.append(int(np.argmin(score)))  # the first minimum wins
        y = y[tied]
        second = sum(w == j + 1 for w, j in zip(want, a[tied].tolist()))
        assert len(tied) >= 1000 and 0 < second < len(tied), (len(tied), second)
        stacked = sim._start(table, y)
        alone = [int(sim._start(table, row[None])[0]) for row in y]
        assert stacked.tolist() == alone == want

    @pytest.mark.parametrize(
        "scn",
        [
            ring_scenario(10),
            RssScenario(sensor_positions=ring_positions(baseline_semicircle(10)), sensor_radius=1.0),
            ring_scenario(7, radius=2.5, source=(1.5, -2.0), amplitude=3.0, path_loss=3.5),
        ],
        ids=["optimal", "semicircle", "offset"],
    )
    def test_start_table_holds_one_tile_major_copy(self, scn):
        # the tiles are the table's only copy of the predictions: they are the readings recomputed from
        # the geometry, gathered by tiles, bit for bit; every node sits in its own cell of exactly one
        # tile, and every other slot is padding that repeats the tile's first node
        sim = sensedesign.simulate
        table = sim._start_table(scn, worst_fim_subset(scn)[0])
        mu, mu_sq = node_readings(table)
        tiles, size = table.tiles, sim._START_TILE
        assert table.tile_mu.shape == (3, *tiles.shape) and tiles.shape[1] == size * size
        assert table.tile_mu.tobytes() == mu.take(tiles, axis=1).tobytes()
        assert table.tile_mu_sq.tobytes() == mu_sq.take(tiles).tobytes()
        assert table.lo.tolist() == table.tile_mu.min(axis=2).tolist()
        assert table.hi.tolist() == table.tile_mu.max(axis=2).tolist()
        assert np.unique(tiles).tolist() == list(range(len(table.nodes)))
        step = 2.0 * table.radius / (sim.GRID_POINTS_PER_AXIS - 1)
        cell = np.rint((table.nodes - table.center + table.radius) / step).astype(int)  # grid (row, col)
        own = (cell[:, 0] % size * size + cell[:, 1] % size)[tiles] == np.arange(size * size)
        assert np.all(own | (tiles == tiles.min(axis=1)[:, None]))
        assert np.unique(tiles[own]).size == own.sum() == len(table.nodes) and not own.all()
        assert all(len(np.unique(cell[row] // size, axis=0)) == 1 for row in tiles)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(3, 9),
        phase=st.floats(0.0, 2.0 * math.pi),
        jitter=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
        spread=st.lists(st.floats(1.0, 1.8), min_size=9, max_size=9),
        source=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        radius=st.floats(0.2, 4.0),
        amplitude=st.floats(0.05, 20.0),
        path_loss=st.floats(0.5, 6.0),
        sigma=st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_start_matches_the_exhaustive_scan(
        self, k, phase, jitter, spread, source, radius, amplitude, path_loss, sigma, seed
    ):
        # the pruned scan picks the node of the exhaustive scan, the first minimum of the documented
        # score: for noisy readings, readings at node predictions and readings tying adjacent nodes
        sim = sensedesign.simulate
        angles = [phase + 2.0 * math.pi * (i + jitter[i]) / k for i in range(k)]
        positions = [
            (source[0] + radius * r * math.cos(a), source[1] + radius * r * math.sin(a))
            for a, r in zip(angles, spread)
        ]
        scn = RssScenario(
            sensor_positions=positions,
            source=source,
            sensor_radius=radius,
            amplitude=amplitude,
            path_loss=path_loss,
            shadow_std=0.0,
        )
        table = sim._start_table(scn, SubsetSelection(range(k)))
        rng = default_rng(seed)
        a = rng.choice(len(table.nodes) - 1, size=40)
        mu = node_readings(table)[0]
        y = np.concatenate(
            [
                rss_sample(scn) + sigma * rng.standard_normal((120, k)),
                mu[:, a].T,
                0.5 * (mu[:, a] + mu[:, a + 1]).T,
            ]
        )
        assert_start_is_exhaustive(table, y)

    @pytest.mark.parametrize(
        "path_loss, sigma", [(1e150, 1.0), (2.0, 1e150)], ids=["path-loss-1e150", "snr-3000"]
    )
    def test_start_matches_the_exhaustive_scan_at_huge_readings(self, path_loss, sigma):
        # readings near 1e150, from the CLI's --path-loss 1e150 or the noise of --snr=-3000, leave float32
        # range: the bounds run on boxes and readings over a power of two, and stay exact
        sim = sensedesign.simulate
        scn = ring_scenario(7, path_loss=path_loss)
        table = sim._start_table(scn, SubsetSelection([0, 2, 4]))
        rng = default_rng(3)
        a = rng.choice(len(table.nodes) - 1, size=40)
        mu = node_readings(table)[0]
        clean = sim._rss_mean(scn)[[0, 2, 4]]
        y = np.concatenate(
            [clean + sigma * rng.standard_normal((120, 3)), mu[:, a].T, 0.5 * (mu[:, a] + mu[:, a + 1]).T]
        )
        assert np.abs(y).max() > 1e149
        assert_start_is_exhaustive(table, y)

    @pytest.mark.parametrize("cap", [0, 1, 3, 10])
    def test_rows_at_the_step_cap(self, monkeypatch, cap):
        # a row still running at the cap keeps its last accepted iterate: inside the closed disc,
        # never worse than the grid, and the same bits in a batch as alone
        sim = sensedesign.simulate
        monkeypatch.setattr(sim, "_LM_ITERATIONS", cap)
        for scn, active, rows in sweep_draws(20):
            table = sim._start_table(scn, active)
            est, residual, on_boundary = sim._locate([(table, rows[:, list(active.indices)])])
            assert np.all(np.linalg.norm(est - table.center, axis=1) <= table.radius), scn.shadow_std
            for i, samples in enumerate(rows):
                _, grid = grid_residuals(scn, samples, active.indices)
                assert residual[i] <= grid.min() + 1e-12, (scn.shadow_std, i, residual[i], grid.min())
                alone = ml_locate(scn, samples, active)
                assert est[i].tolist() == alone.estimate.tolist(), (scn.shadow_std, i)
                assert residual[i] == alone.residual, (scn.shadow_std, i)
                assert on_boundary[i] == alone.on_boundary, (scn.shadow_std, i)

    def test_every_residual_is_the_model_at_the_estimate(self, monkeypatch):
        # the stress setting's optimal design, and the same setting on the n = 11 optimal ring, have rows at
        # the step cap, rim rows and rows that keep their grid node; every residual, the kept nodes'
        # included, is _disc_model's at the returned estimate
        sim = sensedesign.simulate
        calls, locate = [], sim._locate
        monkeypatch.setattr(sim, "_locate", lambda designs: calls.append(designs) or locate(designs))
        scenarios = [
            RssScenario(
                sensor_positions=ring_positions(design_optimal(n)),
                sensor_radius=1.0,
                amplitude=5.0,
                trials=300,
                seed=3,
            )
            for n in (12, 11)
        ]
        simulate_monitoring(scenarios, [-20.0, -5.0, 60.0, 120.0])
        [designs] = calls
        kept_rows = 0
        for scn, (table, y) in zip(scenarios, designs):
            est, residual, _ = locate([(table, y)])
            assert residual.tolist() == disc_rss(table, y, est.T).tolist()
            kept = np.flatnonzero(np.all(est == table.nodes[sim._start(table, y)], axis=1))
            kept_rows += kept.size
            active = list(worst_fim_subset(scn)[0].indices)
            for i in [*kept, *range(0, len(y), 97)]:
                samples = np.zeros(scn.n)
                samples[active] = y[i]
                result = ml_locate(scn, samples, active)
                want = disc_rss(table, y[i : i + 1], result.estimate[:, None])[0]
                assert result.residual == want, (scn.n, i)
        assert kept_rows >= 10, kept_rows

    def test_lm_makes_no_model_call_after_the_cap(self, monkeypatch):
        # with a cap of 3 steps, rows still running at the cap cost 3 Jacobian evaluations, one per step
        sim = sensedesign.simulate
        monkeypatch.setattr(sim, "_LM_ITERATIONS", 3)
        calls, model = [], sim._disc_model

        def counted(x, d, jacobian=True):
            calls.append(jacobian)
            return model(x, d, jacobian)

        scn = ring_scenario(n=10, shadow_std=1.0)
        table = sim._start_table(scn, SubsetSelection([0, 1, 2]))
        y = rss_sample(scn, default_rng(8))[None, :3]
        d = disc_data(table, y)
        node = table.nodes[sim._start(table, y)].T
        capped = sim._lm_rows(counted, node, d)
        assert calls.count(True) == 3 and calls.count(False) == 3, calls
        monkeypatch.undo()
        assert not np.array_equal(sim._lm_rows(model, node, d), capped)  # the row was still running

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(3, 6),
        center=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        radius=st.floats(0.2, 4.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        spread=st.lists(st.floats(1.0, 1.8), min_size=6, max_size=6),
        path_loss=st.floats(0.5, 6.0),
        c=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
        where=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)),
        near=st.sampled_from([None, 1e-2, 1e-5]),
    )
    def test_disc_hessian_matches_central_differences(
        self, k, center, radius, phase, spread, path_loss, c, where, near
    ):
        # the Hessian of |r|^2 / 2 that the disc solve steps on, summed from _disc_model's per-sensor
        # shares, is half the central-difference Hessian of |r|^2 built from its analytic gradient: on
        # off-centre rings of uneven radius, anywhere in the search disc and next to a sensor, where the
        # curvature term of a large residual dominates
        sim = sensedesign.simulate
        angles = [phase + 2.0 * math.pi * i / k for i in range(k)]
        sensors = [
            (center[0] + radius * r * math.cos(a), center[1] + radius * r * math.sin(a))
            for a, r in zip(angles, spread)
        ]
        reach, base = (where[0] * radius, center) if near is None else (near * radius, sensors[0])
        p = (base[0] + reach * math.cos(where[1]), base[1] + reach * math.sin(where[1]))
        dist = [math.hypot(p[0] - sx, p[1] - sy) for sx, sy in sensors]
        assume(min(dist) > 1e-6 * radius)
        geo = [path_loss, *center, 2.0 * radius, *(s[0] for s in sensors), *(s[1] for s in sensors)]
        d = np.array([*geo, *c[:k]])[:, None]
        _, (_, terms) = sim._disc_model(np.array(p)[:, None], d)
        h00, h11, h01 = (float(sim._sum(t)[0]) for t in terms)
        want = rss_hessian(p, sensors, c[:k], path_loss) / 2.0
        # the size of the terms: |j_i|^2 = path_loss^2 / d_i^2 times 1 + 2 |r_i| / path_loss
        scale = sum(
            path_loss**2 / q * (1.0 + 2.0 * abs(ci + path_loss * math.log(q) / 2.0) / path_loss)
            for q, ci in zip((x * x for x in dist), c)
        )
        for got, ref in ((h00, want[0, 0]), (h11, want[1, 1]), (h01, want[0, 1]), (h01, want[1, 0])):
            assert abs(got - ref) <= 1e-6 * scale, (got, ref, scale)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(3, 6),
        center=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        radius=st.floats(0.2, 4.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        spread=st.lists(st.floats(1.0, 1.8), min_size=6, max_size=6),
        path_loss=st.floats(0.5, 6.0),
        c=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
        where=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)),
        log_mu=st.floats(-12.0, 3.0),
    )
    def test_predicted_gain_is_read_from_the_step(
        self, k, center, radius, phase, spread, path_loss, c, where, log_mu
    ):
        # h solves (H + mu I) h = -g, so the gain _lm_rows predicts, mu |h|^2 - h^T g, is h^T H h +
        # 2 mu |h|^2 with H summed from the model's shares: in the search disc of off-centre rings, where
        # H may be indefinite, and on its rim, to 1e-12 of the terms' size |h|^T |H| |h| + 2 mu |h|^2
        sim = sensedesign.simulate
        angles = [phase + 2.0 * math.pi * i / k for i in range(k)]
        sensors = [
            (center[0] + radius * r * math.cos(a), center[1] + radius * r * math.sin(a))
            for a, r in zip(angles, spread)
        ]
        reach = where[0] * radius
        p = (center[0] + reach * math.cos(where[1]), center[1] + reach * math.sin(where[1]))
        assume(min(math.hypot(p[0] - sx, p[1] - sy) for sx, sy in sensors) > 1e-6 * radius)
        geo = [path_loss, *center, 2.0 * radius, *(s[0] for s in sensors), *(s[1] for s in sensors)]
        d = np.array([*geo, *c[:k]])[:, None]
        mu = np.array([10.0**log_mu])
        for model, x in ((sim._disc_model, np.array(p)[:, None]), (sim._rim_model, np.array([[where[1]]]))):
            r, (jac, terms) = model(x, d)
            g = [sim._sum(j * r) for j in jac]
            hess = [sim._sum(t) for t in terms]
            h = sim._damped_step(hess, g, mu)
            hh = sim._sum(h * h)
            pred = mu * hh - sim._sum([hi * gi for hi, gi in zip(h, g)])
            quad = [hess[i] * h[i] * h[i] for i in range(len(h))]
            if len(h) == 2:
                quad.append(2.0 * hess[2] * h[0] * h[1])
            want = sum(quad) + 2.0 * mu * hh
            size = sum(map(abs, quad)) + 2.0 * mu * hh
            assert abs(pred - want) <= 1e-12 * size, (model.__name__, pred, want, size)

    def test_scipy_path_is_the_oracle(self):
        # the batched solve is never worse than scipy's least_squares from the same start node
        sim = sensedesign.simulate
        for scn, active, rows in sweep_draws(50):
            table = sim._start_table(scn, active)
            y = rows[:, list(active.indices)]
            nodes = sim._start(table, y)
            oracle = [scipy_locate(table, yi, node) for yi, node in zip(y, nodes)]
            _, residual, _ = sim._locate([(table, y)])
            for i, want in enumerate(oracle):
                assert residual[i] <= want + 1e-12, (scn.shadow_std, i, residual[i], want)


class TestMinimizeBinding:
    """``simulate.minimize`` forwards to scipy and leaves scipy unloaded until it is called."""

    def test_same_solution_as_scipy(self):
        def quadratic(x):
            return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2 + x[0] * x[1]

        want = minimize(quadratic, [2.0, 2.0], method="BFGS")
        got = sensedesign.simulate.minimize(quadratic, [2.0, 2.0], method="BFGS")
        assert got.success and got.x.tolist() == want.x.tolist() and got.fun == want.fun

    def test_scipy_loaded_by_the_call(self):
        script = textwrap.dedent(
            """
            import sys
            import sensedesign.simulate
            def loaded():
                return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
            before = loaded()
            sensedesign.simulate.minimize(lambda x: (x[0] - 1.0) ** 2, [0.0])
            print(before, loaded())
            """
        )
        src = os.path.dirname(os.path.dirname(sensedesign.simulate.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]


class TestMonitoring:
    def test_metadata_unit_fallback(self):
        scn = ring_scenario(n=6, trials=4, seed=1)  # amplitude 1 at distance 1
        result = simulate_monitoring([scn], [10.0, 20.0])[0]
        assert result.metadata["snr_reference"] == "unit_log_power"
        assert result.metadata["reference_power"] == 1.0
        assert result.points[0].noise_std == pytest.approx(10 ** (-0.5), abs=1e-12)

    def test_metadata_signal_power(self):
        scn = ring_scenario(n=6, amplitude=10.0, trials=4, seed=1)
        result = simulate_monitoring([scn], [10.0])[0]
        assert result.metadata["snr_reference"] == "mean_squared_noiseless_log_rss"
        assert result.metadata["reference_power"] == pytest.approx(math.log(10.0) ** 2, abs=1e-12)

    @pytest.mark.parametrize("source", [(1.5, -2.0), (-30.0, 40.0), (1e3, -7e2)])
    def test_moving_the_scene_keeps_its_snr_reference(self, source):
        # moving the ring and the source together only rounds the zero readings of the default scene,
        # which must still take the unit reference, not one built from rounding
        origin, moved = (
            simulate_monitoring([ring_scenario(source=s, trials=40, seed=7)], [0.0, 30.0])[0]
            for s in ((0.0, 0.0), source)
        )
        assert moved.metadata["snr_reference"] == origin.metadata["snr_reference"] == "unit_log_power"
        assert [p.noise_std for p in moved.points] == [p.noise_std for p in origin.points]
        assert [p.worst_subset for p in moved.points] == [p.worst_subset for p in origin.points]
        for p, q in zip(moved.points, origin.points):
            assert p.mse == pytest.approx(q.mse, rel=1e-7)

    def test_underflowing_signal_power_takes_the_unit_reference(self):
        # readings ~7e-301 lie above their rounding floor, but their squares underflow to a zero power
        scn = ring_scenario(n=6, radius=2.0, path_loss=1e-300, trials=4, seed=1)
        assert simulate_monitoring([scn], [10.0])[0].metadata["snr_reference"] == "unit_log_power"

    def test_deterministic(self):
        scn = ring_scenario(n=6, trials=5, seed=9)
        a = simulate_monitoring([scn], [15.0])[0]
        b = simulate_monitoring([scn], [15.0])[0]
        assert a.points[0].mse == b.points[0].mse

    def test_point_rebuilt_from_trial_streams(self):
        # trial t of point p draws the (t+1)-th row of readings from the one stream SeedSequence((seed, p))
        scn = ring_scenario(n=6, amplitude=3.0, trials=3, seed=4)
        point = simulate_monitoring([scn], [5.0, 15.0])[0].points[1]
        noisy = replace(scn, shadow_std=point.noise_std)
        rng = default_rng(SeedSequence((4, 1)))
        sq = []
        for t in range(3):
            samples = rss_sample(noisy, rng)
            estimate = ml_locate(noisy, samples, point.worst_subset).estimate
            sq.append(np.sum((estimate - np.asarray(scn.source)) ** 2))
        assert point.mse == float(np.mean(sq))

    def test_point_fields(self):
        scn = ring_scenario(n=6, trials=5, seed=9)
        point = simulate_monitoring([scn], [18.0])[0].points[0]
        assert point.snr_db == 18.0
        assert point.mse > 0
        assert point.mse_db == pytest.approx(10 * math.log10(point.mse), abs=1e-12)
        assert len(point.worst_subset) == 3

    def test_sweep_matches_single_scenarios(self, monkeypatch):
        # designs that differ in seed, n or trials must not share a noise table; the n = 6 seed-4 designs
        # with 6 trials do
        scenarios = [
            ring_scenario(n=6, amplitude=3.0, trials=6, seed=4),
            ring_scenario(n=6, amplitude=3.0, trials=6, seed=5),
            ring_scenario(n=7, amplitude=3.0, trials=6, seed=4),
            RssScenario(
                sensor_positions=ring_positions(baseline_semicircle(6)), amplitude=3.0, trials=6, seed=4
            ),
            ring_scenario(n=6, amplitude=3.0, trials=4, seed=4),
        ]
        calls = []
        draw = sensedesign.simulate._trial_noise
        monkeypatch.setattr(sensedesign.simulate, "_trial_noise", lambda *a: calls.append(a) or draw(*a))
        results = simulate_monitoring(scenarios, [5.0, 15.0])
        assert len(calls) == 2 * 4, calls  # four distinct (seed, trials, n) of the five designs
        monkeypatch.undo()
        assert len(results) == len(scenarios)
        for scenario, result in zip(scenarios, results):
            assert result == simulate_monitoring([scenario], [5.0, 15.0])[0], scenario

    def test_one_batch_over_differing_scenarios(self):
        # the rows of designs that differ in ring, n, amplitude, path loss, radius and source share one
        # batch, and each design's result is, bit for bit, what it gets alone
        def ring(build, n, radius=1.0, source=(0.0, 0.0), **kw):
            return RssScenario(
                sensor_positions=ring_positions(build(n), radius, source),
                source=source,
                sensor_radius=radius,
                trials=6,
                seed=4,
                **kw,
            )

        scenarios = [
            ring(design_optimal, 6, amplitude=3.0),
            ring(baseline_semicircle, 6, amplitude=3.0),
            ring(design_optimal, 7, amplitude=5.0, path_loss=3.5),
            ring(baseline_semicircle, 9, radius=2.5, source=(1.5, -2.0), path_loss=2.7),
            ring(design_optimal, 8, radius=0.6, source=(-0.3, 0.4), amplitude=0.5),
        ]
        sim = sensedesign.simulate
        calls, solve = [], sim._lm_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_lm_rows", lambda model, *a: calls.append(model.__name__) or solve(model, *a))
            results = simulate_monitoring(scenarios, [-5.0, 10.0, 40.0])
        assert calls[0] == "_disc_model" and calls[1:] in ([], ["_rim_model"]), calls
        for scenario, result in zip(scenarios, results):
            assert result == simulate_monitoring([scenario], [-5.0, 10.0, 40.0])[0], scenario

    def test_benchmark_size_command_is_one_batch(self, monkeypatch, tmp_path):
        # 2 designs x 7 SNR points x 40 trials = 560 rows: one disc solve, and at most one rim solve
        sim = sensedesign.simulate
        assert 560 <= sim._LM_ROWS
        calls, solve = [], sim._lm_rows

        def counted(model, x, d):
            calls.append((model.__name__, x.shape[1]))
            return solve(model, x, d)

        monkeypatch.setattr(sim, "_lm_rows", counted)
        argv = ["simulate-monitoring", "--n", "10", "--snr", "0,5,10,15,20,25,30", "--trials", "40"]
        assert main([*argv, "--seed", "7", "--output", str(tmp_path / "m.csv")]) == 0
        assert calls[0] == ("_disc_model", 560) and [c[0] for c in calls[1:]] in ([], ["_rim_model"]), calls

    def test_benchmark_size_disc_solve_converges_quadratically(self, monkeypatch, tmp_path):
        # the benchmark-size command at seed 7: the disc solve's Newton steps stop every row within 30
        # steps (72 with J^T J alone), and at the rows that end inside the disc off their grid node the
        # median |J^T r| is at most 1e-12 (1.0e-10 with J^T J alone, which stops short of stationarity)
        sim = sensedesign.simulate
        solves, steps, located = [], [], []
        solve, damped, locate = sim._lm_rows, sim._damped_step, sim._locate

        def counted(model, x, d):
            solves.append(model.__name__)
            steps.append(0)
            return solve(model, x, d)

        def stepped(*args):
            steps[-1] += 1
            return damped(*args)

        monkeypatch.setattr(sim, "_lm_rows", counted)
        monkeypatch.setattr(sim, "_damped_step", stepped)
        monkeypatch.setattr(sim, "_locate", lambda designs: located.append(designs) or locate(designs))
        argv = ["simulate-monitoring", "--n", "10", "--snr", "0,5,10,15,20,25,30", "--trials", "40"]
        assert main([*argv, "--seed", "7", "--output", str(tmp_path / "m.csv")]) == 0
        assert solves[0] == "_disc_model" and steps[0] <= 30, (solves, steps)
        [designs] = located
        monkeypatch.undo()
        est = iter(locate(designs)[0])
        gradients = []
        for table, y in designs:
            for yi, node in zip(y, table.nodes[sim._start(table, y)]):
                e = next(est)
                inside = math.hypot(*(e - table.center)) < table.radius * (1.0 - 1e-9)
                if inside and not np.array_equal(e, node):
                    g = rss_gradient(e, table.pos, yi - table.log_amplitude, table.path_loss)
                    gradients.append(math.hypot(*g) / 2.0)  # the gradient of |r|^2 is 2 J^T r
        assert len(gradients) >= 500, len(gradients)
        assert np.median(gradients) <= 1e-12, np.median(gradients)

    def test_batches_of_97_rows_give_the_same_bits(self, monkeypatch):
        # the stress setting's two designs (2,400 rows) have rim rows, rows at the step cap and rows
        # that keep their grid node; in 25 batches of 97 rows each batch reads its own rim rows' data
        sim = sensedesign.simulate
        scenarios = [
            RssScenario(
                sensor_positions=ring_positions(build_design(12, label)), amplitude=5.0, trials=300, seed=3
            )
            for label in ("optimal", "semicircle")
        ]
        designs, locate = [], sim._locate
        monkeypatch.setattr(sim, "_locate", lambda d: designs.extend(d) or locate(d))
        simulate_monitoring(scenarios, [-20.0, -5.0, 60.0, 120.0])
        monkeypatch.setattr(sim, "_locate", locate)
        whole = locate(designs)
        assert sum(len(y) for _, y in designs) == 2400 <= sim._LM_ROWS
        solves, steps, solve, damped = [], [], sim._lm_rows, sim._damped_step

        def counted(model, x, d):
            solves.append(model.__name__)
            steps.append(0)
            return solve(model, x, d)

        def stepped(*args):
            steps[-1] += 1
            return damped(*args)

        monkeypatch.setattr(sim, "_LM_ROWS", 97)
        monkeypatch.setattr(sim, "_lm_rows", counted)
        monkeypatch.setattr(sim, "_damped_step", stepped)
        batched = locate(designs)
        for a, b in zip(whole, batched):
            assert a.tobytes() == b.tobytes()
        assert solves.count("_disc_model") == 25
        assert "_rim_model" in solves[solves.index("_disc_model", 1) :]  # rim rows past the first batch
        assert sim._LM_ITERATIONS in steps  # some solve ran to the step cap
        nodes = np.concatenate([t.nodes[sim._start(t, y)] for t, y in designs])
        assert (whole[0] == nodes).all(axis=1).any()  # some rows keep their grid node

    def test_sweep_work_memory_is_bounded(self):
        # the start grid has 7,839 nodes: scoring all 2,800 rows at once would take 176 MB
        scn = RssScenario(
            sensor_positions=ring_positions(baseline_semicircle(10)), sensor_radius=1.0, trials=400
        )
        tracemalloc.start()
        try:
            simulate_monitoring([scn], [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak

    def test_start_with_every_tile_live(self, monkeypatch):
        # at a path loss of 1e-12 all nodes predict nearly the same readings, so no tile's bound clears
        # the upper bound and every tile of every row is scored: the nodes still match the exhaustive
        # scan, and the work memory stays within the bound above
        sim = sensedesign.simulate
        scn = RssScenario(
            sensor_positions=ring_positions(baseline_semicircle(10)),
            sensor_radius=1.0,
            trials=400,
            amplitude=math.e,
            path_loss=1e-12,
        )
        calls, scored, start, scores = [], [], sim._start, sim._tile_scores

        def recorded(table, y):
            calls.append((table, y))
            return start(table, y)

        def counted(table, y, rows, tiles):
            scored.append(len(rows))
            return scores(table, y, rows, tiles)

        monkeypatch.setattr(sim, "_start", recorded)
        monkeypatch.setattr(sim, "_tile_scores", counted)
        tracemalloc.start()
        try:
            simulate_monitoring([scn], [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak
        [(table, y)] = calls
        assert sum(scored) == len(y) * (len(table.tiles) + 1)  # each row's upper-bound tile, then all
        assert start(table, y).tolist() == grid_start(table, y).tolist()

    def test_benchmark_size_start_scores_few_nodes(self, monkeypatch, tmp_path):
        # the exhaustive scan scores 2 designs x 280 rows x 7,839 or 7,840 nodes; the tile bounds leave
        # under 20% of those (row, node) pairs
        sim = sensedesign.simulate
        exhaustive, scored, start, scores = [], [], sim._start, sim._tile_scores

        def recorded(table, y):
            exhaustive.append(len(y) * len(table.nodes))
            return start(table, y)

        def counted(*args):
            score = scores(*args)
            scored.append(score.size)
            return score

        monkeypatch.setattr(sim, "_start", recorded)
        monkeypatch.setattr(sim, "_tile_scores", counted)
        argv = ["simulate-monitoring", "--n", "10", "--snr", "0,5,10,15,20,25,30", "--trials", "40"]
        assert main([*argv, "--seed", "7", "--output", str(tmp_path / "m.csv")]) == 0
        assert exhaustive == [280 * 7839, 280 * 7840]  # nodes on active sensors: 2 (optimal), 1 (semicircle)
        assert sum(scored) < 0.2 * sum(exhaustive), sum(scored)

    def test_empty_grid_rejected(self):
        scn = ring_scenario(n=6)
        with pytest.raises(ValueError):
            simulate_monitoring([scn], [])

    def test_no_scenarios_gives_no_results(self):
        assert simulate_monitoring([], [0.0, 10.0]) == []
        with pytest.raises(ValueError, match="snr_grid_db must be nonempty"):
            simulate_monitoring([], [])
