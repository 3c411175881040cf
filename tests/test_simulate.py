import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from oracles import fim_matrix_direct, worst_fim_direct
from scipy.optimize import minimize

import sensedesign.simulate
from sensedesign import (
    AngleSet,
    DegenerateGeometryError,
    EstimationScenario,
    RssScenario,
    SingularSubsetError,
    baseline_circle,
    baseline_semicircle,
    design_optimal,
    error_bound_check,
    expected_worst_case_mse,
    fim,
    least_squares_estimate,
    ml_locate,
    ring_positions,
    rss_sample,
    simulate_monitoring,
    simulate_worst_case_mse,
    spectral_summary,
    worst_fim_subset,
    worst_subset,
)

TIGHT_FRAME = AngleSet([0.0, math.pi / 3, 2 * math.pi / 3])


def ring_scenario(n=10, radius=1.0, source=(0.0, 0.0), **kw) -> RssScenario:
    return RssScenario(
        sensor_positions=ring_positions(design_optimal(n), radius, source),
        source=source,
        sensor_radius=radius,
        **kw,
    )


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


class TestErrorBound:
    def test_bound_holds_for_random_noise(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = AngleSet(rng.uniform(0, math.pi, 6))
            idx = sorted(rng.choice(6, 3, replace=False).tolist())
            if spectral_summary(a, idx).lambda_min < 1e-6:
                continue
            err, bound = error_bound_check(a, idx, rng.normal(size=3))
            assert err <= bound + 1e-10

    def test_values(self):
        err, bound = error_bound_check(TIGHT_FRAME, [0, 1, 2], [0.3, 0.0, 0.0])
        # sigma_min = sqrt(3/2) for the tight frame
        assert bound == pytest.approx(0.3 / math.sqrt(1.5), abs=1e-12)
        assert err <= bound

    def test_violation_raises_under_optimize_flag(self):
        # python -O strips assert statements; the check must survive it
        script = textwrap.dedent(
            """
            import math, sys
            import numpy as np
            from sensedesign import AngleSet, error_bound_check
            if sys.flags.optimize != 1:
                sys.exit("not running under -O")
            solve = np.linalg.solve
            np.linalg.solve = lambda a, b: 10.0 * solve(a, b)
            frame = AngleSet([0.0, math.pi / 3, 2 * math.pi / 3])
            try:
                error_bound_check(frame, [0, 1, 2], [0.3, 0.0, 0.0])
            except ArithmeticError:
                print("raised")
            """
        )
        src = os.path.dirname(os.path.dirname(sensedesign.simulate.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestWorstCaseMse:
    def test_expected_mse_tight_frame(self):
        assert expected_worst_case_mse(TIGHT_FRAME, 3, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_expected_mse_scales_with_noise(self):
        assert expected_worst_case_mse(TIGHT_FRAME, 3, 2.0) == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_singular_design_reports_infinite(self):
        assert math.isinf(expected_worst_case_mse(AngleSet([0.1, 0.1, 0.1]), 3))

    def test_simulation_matches_expectation(self):
        scenario = EstimationScenario(angles=TIGHT_FRAME, trials=2000, seed=42)
        result = simulate_worst_case_mse(scenario)
        assert result.expected_mse == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert abs(result.mse - 4.0 / 3.0) <= 3 * result.std_error
        assert result.trials == 2000

    def test_seed_reproducibility(self):
        scenario = EstimationScenario(angles=design_optimal(7), trials=100, seed=5)
        a = simulate_worst_case_mse(scenario)
        b = simulate_worst_case_mse(scenario)
        assert a.mse == b.mse
        assert a.std_error == b.std_error
        c = simulate_worst_case_mse(EstimationScenario(angles=design_optimal(7), trials=100, seed=6))
        assert c.mse != a.mse

    @pytest.mark.parametrize("trials", [1, 17, 40])
    def test_trial_streams_independent_of_trial_count(self, trials):
        # trial t draws its noise from SeedSequence((seed, t)) alone
        angles = design_optimal(7)
        result = simulate_worst_case_mse(
            EstimationScenario(angles=angles, signal=(1.5, -2.0), noise_std=0.5, trials=trials, seed=3)
        )
        idx = result.report.worst_subset.indices
        x = np.array([1.5, -2.0])
        clean = [math.cos(angles.angles[i]) * x[0] + math.sin(angles.angles[i]) * x[1] for i in idx]
        errors = []
        for t in range(trials):
            w = 0.5 * default_rng(SeedSequence((3, t))).standard_normal(len(idx))
            errors.append(np.sum((least_squares_estimate(angles, idx, clean + w) - x) ** 2))
        assert result.mse == pytest.approx(np.mean(errors), rel=1e-12, abs=1e-12)

    def test_single_scan_per_simulation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return worst_subset(*args, **kwargs)

        monkeypatch.setattr(sensedesign.simulate, "worst_subset", counting)
        result = simulate_worst_case_mse(EstimationScenario(angles=design_optimal(7), trials=10))
        assert len(calls) == 1
        assert result.expected_mse == expected_worst_case_mse(design_optimal(7), 3, 1.0)

    def test_singular_worst_subset_raises(self):
        with pytest.raises(SingularSubsetError):
            simulate_worst_case_mse(
                EstimationScenario(angles=AngleSet([0.2, 0.2, 0.2, 1.0]), trials=10)
            )

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            EstimationScenario(angles=TIGHT_FRAME, k=4)
        with pytest.raises(ValueError):
            EstimationScenario(angles=TIGHT_FRAME, noise_std=-1.0)
        with pytest.raises(ValueError):
            EstimationScenario(angles=TIGHT_FRAME, trials=0)

    @pytest.mark.parametrize(
        "kw", [{"noise_std": math.nan}, {"noise_std": math.inf}, {"signal": (math.nan, 1.0)}]
    )
    def test_non_finite_scenario_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            EstimationScenario(angles=TIGHT_FRAME, **kw)


class TestRssModel:
    def test_scenario_rejects_inside_ring(self):
        for kw in (
            {"sensor_positions": ((0.5, 0.0),), "sensor_radius": 1.0},
            # below ~1e-9 the ring check alone admits a sensor on the source (fim would be NaN)
            {"sensor_positions": ((0, 0), (1, 0), (0, 1), (-1, -1)), "sensor_radius": 1e-10},
        ):
            with pytest.raises(ValueError):
                RssScenario(**kw)

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

    def test_sweep_rejects_non_finite_snr(self):
        with pytest.raises(ValueError, match="must be finite"):
            simulate_monitoring(ring_scenario(n=6), [10.0, math.nan], trials=2)

    # -4000 dB overflows 10 ** (-snr / 10); at -3080 dB the power is finite but P_ref * power is not
    @pytest.mark.parametrize("snr", [-4000.0, -3080.0])
    def test_sweep_rejects_overflowing_noise_level(self, monkeypatch, snr):
        def no_solve(*args):
            raise AssertionError("a solve ran before every noise level was checked")

        monkeypatch.setattr(sensedesign.simulate, "_locate", no_solve)
        with pytest.raises(ValueError, match="must be finite"):
            simulate_monitoring(ring_scenario(n=6, amplitude=10.0), [10.0, snr], trials=2)

    def test_ring_positions_use_raw_angles(self):
        d = design_optimal(10)
        pos = ring_positions(d, radius=2.0, center=(1.0, -1.0))
        assert len(pos) == 10
        assert len(set(pos)) == 10  # distinct placements on the full circle
        for p in pos:
            assert math.hypot(p[0] - 1.0, p[1] + 1.0) == pytest.approx(2.0, abs=1e-12)

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
            sensor_positions=ring_positions(TIGHT_FRAME), sensor_radius=1.0
        )
        summary = fim(scn, [0, 1, 2], prefactor=1.0)
        np.testing.assert_allclose(summary.matrix, 1.5 * np.eye(2), atol=1e-12)
        assert summary.condition == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_conventions(self):
        scn = ring_scenario(n=6, shadow_std=0.5, path_loss=2.0)
        natural = fim(scn, [0, 1, 2])
        log10 = fim(scn, [0, 1, 2], prefactor=natural.prefactor / math.log(10) ** 2)
        assert natural.prefactor == pytest.approx(4.0 / 0.25, abs=1e-12)
        np.testing.assert_allclose(
            log10.matrix * math.log(10) ** 2, natural.matrix, atol=1e-12
        )
        assert log10.condition == pytest.approx(natural.condition, rel=1e-12)

    @pytest.mark.parametrize("prefactor", [10.0**e for e in range(-15, 7)])
    def test_condition_is_scale_free(self, prefactor):
        scn = RssScenario(sensor_positions=ring_positions(TIGHT_FRAME), sensor_radius=1.0)
        assert fim(scn, [0, 1, 2], prefactor=prefactor).condition == pytest.approx(1.0, rel=1e-12)

    def test_matches_per_sensor_sum(self):
        # the weighted case of the kernel: w_i = prefactor / d_i^2 at unequal distances
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            source = tuple(rng.uniform(-1.0, 1.0, 2))
            scn = polar_scenario(rng.uniform(0.0, 2 * math.pi, n), rng.uniform(1.0, 4.0, n), source)
            prefactor = float(10.0 ** rng.uniform(-3.0, 3.0))
            idx = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            got = fim(scn, idx, prefactor=prefactor).matrix
            want = fim_matrix_direct(scn, idx, prefactor)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_noise_needs_explicit_prefactor(self):
        scn = ring_scenario(n=6, shadow_std=0.0)
        with pytest.raises(ValueError):
            fim(scn, [0, 1, 2])
        assert fim(scn, [0, 1, 2], prefactor=2.0).prefactor == 2.0

    def test_psd_and_symmetric(self):
        scn = ring_scenario(n=8, shadow_std=1.0)
        summary = fim(scn)
        assert summary.lambda_min >= 0.0
        np.testing.assert_allclose(summary.matrix, summary.matrix.T, atol=1e-15)

    def test_out_of_range_subset(self):
        scn = ring_scenario(n=6)
        with pytest.raises(IndexError):
            fim(scn, [0, 1, 6], prefactor=1.0)


class TestWorstFimSubset:
    def test_ordering_matches_gram_condition(self):
        # at equal sensor distance, FIM condition and Gram condition sort
        # subsets identically (ties allowed both ways)
        design = baseline_semicircle(7)
        scn = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        combos = list(itertools.combinations(range(7), 3))
        fim_cond = [fim(scn, c, prefactor=1.0).condition for c in combos]
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
        mismatches = []
        for scn in cases:
            for k in range(2, scn.n + 1):
                sel, cond = worst_fim_subset(scn, k)
                idx, want = worst_fim_direct(scn, k)
                if sel.indices != idx or cond != pytest.approx(want, rel=1e-9):
                    mismatches.append((scn.n, k, sel.indices, idx, cond, want))
        assert mismatches == []

    def test_worst_value_matches_gram_worst(self):
        design = design_optimal(10)
        scn = RssScenario(sensor_positions=ring_positions(design), sensor_radius=1.0)
        _, cond = worst_fim_subset(scn)
        gram = worst_subset(design).summary.gram_condition
        assert cond == pytest.approx(gram, rel=1e-9)


class TestMlLocate:
    def test_noiseless_recovery(self):
        scn = ring_scenario(n=10, shadow_std=0.0)
        samples = rss_sample(scn)
        sel, _ = worst_fim_subset(scn)
        result = ml_locate(scn, samples, sel)
        assert np.linalg.norm(result.estimate - np.array(scn.source)) <= 1e-7
        assert result.residual <= 1e-12
        assert not result.on_boundary

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
        # seeded draws as the monitoring sweep makes them: n=10 ring, worst triple active,
        # unit amplitude at unit distance so sigma^2 = 10^(-snr/10)
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


class TestMonitoring:
    def test_metadata_unit_fallback(self):
        scn = ring_scenario(n=6, trials=4, seed=1)  # amplitude 1 at distance 1
        result = simulate_monitoring(scn, [10.0, 20.0], trials=4)
        assert result.metadata["snr_reference"] == "unit_log_power"
        assert result.metadata["reference_power"] == 1.0
        assert result.points[0].noise_std == pytest.approx(10 ** (-0.5), abs=1e-12)

    def test_metadata_signal_power(self):
        scn = ring_scenario(n=6, amplitude=10.0, trials=4, seed=1)
        result = simulate_monitoring(scn, [10.0], trials=4)
        assert result.metadata["snr_reference"] == "mean_squared_noiseless_log_rss"
        assert result.metadata["reference_power"] == pytest.approx(math.log(10.0) ** 2, abs=1e-12)

    def test_deterministic(self):
        scn = ring_scenario(n=6, trials=5, seed=9)
        a = simulate_monitoring(scn, [15.0], trials=5)
        b = simulate_monitoring(scn, [15.0], trials=5)
        assert a.points[0].mse == b.points[0].mse

    def test_point_rebuilt_from_trial_streams(self):
        # trial t of point p draws its readings from SeedSequence((seed, p, t)) alone
        scn = ring_scenario(n=6, amplitude=3.0, seed=4)
        point = simulate_monitoring(scn, [5.0, 15.0], trials=3).points[1]
        noisy = replace(scn, shadow_std=point.noise_std)
        sq = []
        for t in range(3):
            samples = rss_sample(noisy, default_rng(SeedSequence((4, 1, t))))
            estimate = ml_locate(noisy, samples, point.worst_subset).estimate
            sq.append(np.sum((estimate - np.asarray(scn.source)) ** 2))
        assert point.mse == float(np.mean(sq))

    def test_point_fields(self):
        scn = ring_scenario(n=6, trials=5, seed=9)
        point = simulate_monitoring(scn, [18.0], trials=5).points[0]
        assert point.snr_db == 18.0
        assert point.mse > 0
        assert point.mse_db == pytest.approx(10 * math.log10(point.mse), abs=1e-12)
        assert len(point.worst_subset) == 3

    def test_empty_grid_rejected(self):
        scn = ring_scenario(n=6)
        with pytest.raises(ValueError):
            simulate_monitoring(scn, [])
