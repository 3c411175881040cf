"""End-to-end acceptance checks.

Each test is one numbered claim about the package as a whole: formula
agreement, search optimality, design separations, simulation statistics,
and CLI reproducibility.  Tolerances are part of the contract; loosening
them is an API change, not a test fix.
"""

import json
import math
import time

import numpy as np
import pytest
from oracles import gram_eigenvalues_direct

from sensedesign import (
    AngleSet,
    EstimationScenario,
    MinimaxSearchConfig,
    RssScenario,
    baseline_circle,
    baseline_semicircle,
    design_large_odd,
    design_optimal,
    minimax_grid_search,
    ml_locate,
    rss_sample,
    simulate_estimation,
    simulate_monitoring,
    spectral_summary,
    worst_fim_subset,
    worst_subset,
)
from sensedesign.cli import main

GOLDEN_RATIO_CONDITION = (3 + math.sqrt(5)) / (3 - math.sqrt(5))  # 6.854101966249686
SEMICIRCLE_7_CONDITION = 6.967911665634092


def test_criterion_1_eigenvalue_formulas_agree():
    """Gram eigenvalues from the (K, R) kernel match the direct 2x2 computation to 1e-10
    over 100000 random angle-set/triple draws.  Runs in well under 10 s."""
    rng = np.random.default_rng(20260819)
    start = time.monotonic()
    worst_gap = 0.0
    for _ in range(100_000):
        n = int(rng.integers(3, 9))
        angles = AngleSet(rng.uniform(-10.0, 10.0, n))
        subset = sorted(rng.choice(n, 3, replace=False).tolist())
        summary = spectral_summary(angles, subset)
        c_min, c_max = summary.lambda_min, summary.lambda_max
        d_min, d_max = gram_eigenvalues_direct(angles, subset)
        gap = max(abs(c_min - d_min), abs(c_max - d_max))
        if gap > worst_gap:
            worst_gap = gap
        assert gap <= 1e-10
        # trace identity pins the eigenvalue sum to the subset size
        assert c_min + c_max == pytest.approx(3.0, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: worst eigenvalue gap {worst_gap:.3e} in {elapsed:.1f}s")


def test_criterion_2_grid_search_attains_closed_form():
    """Exhaustive 180-points-per-angle grid search lands within
    1e-4 of the closed-form placements for n = 3, 4, 5; n = 3 hits the
    analytic floor of -3/2 exactly."""
    start = time.monotonic()
    for n in (3, 4, 5):
        config = MinimaxSearchConfig(n=n, grid_points_per_angle=180)
        _, report = minimax_grid_search(config)
        reference = worst_subset(design_optimal(n)).objective
        assert report.objective <= reference + 1e-4
        assert report.objective >= reference - 1e-4
        if n == 3:
            assert report.objective == pytest.approx(-1.5, abs=1e-9)
            assert report.objective >= -1.5 - 1e-12  # analytic floor
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 2 PASS: grid search matched closed form in {elapsed:.1f}s")


def test_criterion_3_odd_n_design_beats_semicircle():
    """For odd n in 7..15 the staggered full-circle placement has strictly
    smaller worst-case Gram condition than the uniform semicircle.  The n = 7
    endpoints are frozen reference values; the quoted 7.1586 figure circulated
    for the semicircle does not survive exhaustive enumeration, which gives
    6.9679 (the inequality is unaffected)."""
    for n in (7, 9, 11, 13, 15):
        opt = worst_subset(design_large_odd(n)).summary.gram_condition
        semi = worst_subset(baseline_semicircle(n)).summary.gram_condition
        assert opt < semi, f"n={n}: {opt} !< {semi}"
    opt7 = worst_subset(design_large_odd(7)).summary.gram_condition
    semi7 = worst_subset(baseline_semicircle(7)).summary.gram_condition
    assert opt7 == pytest.approx(GOLDEN_RATIO_CONDITION, abs=1e-9)
    assert semi7 == pytest.approx(SEMICIRCLE_7_CONDITION, abs=1e-9)
    print(f"criterion 3 PASS: n=7 conditions {opt7:.6f} < {semi7:.6f}")


def test_criterion_4_even_n_circle_matches_design():
    """For even n the full-circle baseline folds onto the even closed-form
    placement, so worst-case objectives and conditions agree to 1e-12."""
    for n in range(4, 21, 2):
        a = worst_subset(design_optimal(n))
        b = worst_subset(baseline_circle(n))
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.summary.gram_condition == pytest.approx(
            b.summary.gram_condition, abs=1e-12
        )
    print("criterion 4 PASS: even-n circle baseline matches closed form")


def test_criterion_5_tight_frame_mse_matches_analytic_value():
    """Worst-subset recovery MSE for the three-direction tight frame with unit
    noise converges to 4/3 (trace of the inverse Gram) within 3 standard
    errors over 2000 trials."""
    scenario = EstimationScenario(
        angles=AngleSet([0.0, math.pi / 3, 2 * math.pi / 3]), trials=2000, seed=11
    )
    start = time.monotonic()
    result = simulate_estimation([scenario])[0]
    elapsed = time.monotonic() - start
    assert result.expected_mse == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(result.mse - 4.0 / 3.0) <= 3 * result.std_error
    assert elapsed < 5.0
    print(
        f"criterion 5 PASS: mse {result.mse:.4f} vs 4/3, se {result.std_error:.4f},"
        f" {elapsed:.1f}s"
    )


def test_criterion_6_estimation_mse_ordering_across_n():
    """Across n = 3..15 with unit noise (the recovery error does not depend
    on the signal), the closed-form design never loses to the semicircle
    baseline by more than 3 combined standard errors, and for odd n >= 7 its
    expected worst-case MSE is strictly smaller."""
    start = time.monotonic()
    for n in range(3, 16):
        opt = simulate_estimation(
            [EstimationScenario(angles=design_optimal(n), trials=2000, seed=100 + n)]
        )[0]
        semi = simulate_estimation(
            [EstimationScenario(angles=baseline_semicircle(n), trials=2000, seed=200 + n)]
        )[0]
        band = 3 * math.hypot(opt.std_error, semi.std_error)
        assert opt.mse <= semi.mse + band, f"n={n}: {opt.mse} vs {semi.mse} (band {band})"
        if n >= 7 and n % 2 == 1:
            assert opt.expected_mse < semi.expected_mse, f"n={n} not strictly separated"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 6 PASS: ordering holds for n=3..15 in {elapsed:.1f}s")


def test_criterion_7_monitoring_mse_ordering_over_snr():
    """Ten-sensor ring monitoring sweep over seven SNR points at 500 trials:
    the staggered placement tracks at or below the semicircle placement at
    every point (3 combined standard errors), and both curves are
    non-increasing in SNR within the same band."""
    snr_points = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    start = time.monotonic()
    curves = {}
    for label, design in (
        ("optimal", design_optimal(10)),
        ("semicircle", baseline_semicircle(10)),
    ):
        scenario = RssScenario(
            sensor_positions=tuple(
                (math.cos(r), math.sin(r)) for r in design.raw
            ),
            trials=500,
            seed=31,
        )
        curves[label] = simulate_monitoring([scenario], snr_points)[0].points
    for p_opt, p_semi in zip(curves["optimal"], curves["semicircle"]):
        band = 3 * math.hypot(p_opt.std_error, p_semi.std_error)
        assert p_opt.mse <= p_semi.mse + band, (
            f"snr={p_opt.snr_db}: {p_opt.mse} vs {p_semi.mse} (band {band})"
        )
    for label, points in curves.items():
        for lo, hi in zip(points[1:], points):
            band = 3 * math.hypot(lo.std_error, hi.std_error)
            assert lo.mse <= hi.mse + band, (
                f"{label} curve rises at snr={lo.snr_db}: {lo.mse} vs {hi.mse}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7 PASS: monitoring sweep ordered in {elapsed:.1f}s")


def test_criterion_8_noiseless_localization_is_exact():
    """With zero shadowing, maximum-likelihood localization recovers 100
    random sources inside the unit disc to 1e-6, in under 30 s."""
    rng = np.random.default_rng(77)
    design = design_optimal(10)
    start = time.monotonic()
    worst_err = 0.0
    for _ in range(100):
        r = math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2 * math.pi)
        source = (r * math.cos(phi), r * math.sin(phi))
        spin = rng.uniform(0.0, 2 * math.pi)
        positions = tuple(
            (source[0] + math.cos(a + spin), source[1] + math.sin(a + spin))
            for a in design.raw
        )
        scenario = RssScenario(
            sensor_positions=positions, source=source, shadow_std=0.0
        )
        samples = rss_sample(scenario)
        subset, _ = worst_fim_subset(scenario)
        result = ml_locate(scenario, samples, subset)
        err = float(np.linalg.norm(result.estimate - np.asarray(source)))
        worst_err = max(worst_err, err)
        assert err <= 1e-6, f"source {source}: error {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 8 PASS: worst error {worst_err:.2e} in {elapsed:.1f}s")


def test_criterion_9_cli_outputs_are_reproducible(tmp_path):
    """Every subcommand rewrites byte-identical data files on a re-run with
    the same arguments (manifest sidecars carry the only timestamp), and the
    recorded manifest config is sufficient to reproduce the file."""

    def run_twice(name, argv):
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
        return first

    run_twice("design", ["design", "--n", "10"])
    run_twice("evaluate", ["evaluate", "--n", "7"])
    run_twice(
        "verify",
        ["verify", "--n-min", "3", "--n-max", "4", "--grid-max-n", "3", "--grid-points", "60"],
    )
    est = run_twice(
        "estimation",
        ["simulate-estimation", "--n-min", "3", "--n-max", "4", "--trials", "25", "--seed", "5"],
    )
    mon = run_twice(
        "monitoring",
        ["simulate-monitoring", "--n", "6", "--snr", "10,20", "--trials", "3", "--seed", "5"],
    )

    # the manifest's recorded config reproduces the data file byte for byte
    manifest = json.loads((est.parent / (est.name + ".manifest.json")).read_text())
    cfg = manifest["config"]
    replay = tmp_path / "replay.out"
    argv = [
        "simulate-estimation",
        "--n-min", str(cfg["n_min"]),
        "--n-max", str(cfg["n_max"]),
        "--k", str(cfg["k"]),
        "--trials", str(cfg["trials"]),
        "--seed", str(cfg["seed"]),
        "--format", cfg["format"],
        "--output", str(replay),
    ]
    assert main(argv) == 0
    assert replay.read_bytes() == est.read_bytes()

    # seeds matter: a different seed must change the simulated bytes
    for name, argv in (
        ("estimation", ["simulate-estimation", "--n-min", "3", "--n-max", "4", "--trials", "25"]),
        ("monitoring", ["simulate-monitoring", "--n", "6", "--snr", "10,20", "--trials", "3"]),
    ):
        other = tmp_path / f"{name}_seed9.out"
        assert main(argv + ["--seed", "9", "--output", str(other)]) == 0
        baseline = tmp_path / f"{name}_1.out"
        assert other.read_bytes() != baseline.read_bytes()
    print("criterion 9 PASS: all subcommands byte-stable under re-runs")
