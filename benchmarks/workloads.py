"""The four benchmark workloads: inputs, work items and correctness checks.

Each workload is one researcher regenerating one paper artifact through
``sensedesign.cli.main``: a pass is the list of commands below, run one
after another (a closed loop with one client).  Inputs come from the seed
alone.  Checks read the data files a pass wrote; they never run inside the
timed region.  See README.md for why each workload exists and which layer
metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Monitoring trials per (design, SNR) point.  The paper uses 2000 (about
# 15 min per pass).  Fewer would not do: about one Nelder-Mead solve in six
# stops at maxfev=4000 against ~240 evaluations for the rest, so the cost of
# a pass follows a binomial count of capped solves that only many distinct
# trials per run average out across seeds.
MONITORING_TRIALS = 40
SNRS = "0,5,10,15,20,25,30"
MONITORING_N = 10
RADIUS = 1.0  # simulate-monitoring's default sensor radius
PROBE_SOURCES = 5
SCAN_DESIGNS = [(scheme, n) for n in (40, 60) for scheme in ("optimal", "semicircle", "circle")]
SCAN_RANDOM = [(60, 3), (30, 4)]  # (n, K) of the seeded random angle files


@dataclass(frozen=True)
class Command:
    argv: list[str]
    output: str


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # user-visible items completed by one pass
    build: Callable[[int, str], list[Command]]  # (seed, workdir) -> one pass
    check: Callable[[list[bytes], int], list[list[str]]]  # (files, seed) -> problems per command
    ref_dev: Callable[[list[bytes], object], float] | None = None
    probe: Callable[[int, object], list[str]] | None = None


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


# ---------------------------------------------------------------------------
# verify: the design-certification table


def _verify_build(seed, workdir):
    out = os.path.join(workdir, "verify.csv")
    argv = ["verify", "--n-min", "3", "--n-max", "15", "--grid-max-n", "5", "--output", out]
    return [Command(argv, out)]


def _verify_check(files, seed):
    problems = []
    rows = _csv_rows(files[0])
    if [int(r["n"]) for r in rows] != list(range(3, 16)):
        problems.append(f"rows cover n={[r['n'] for r in rows]}, expected 3..15")
    for r in rows:
        n = int(r["n"])
        optimal = float(r["optimal_objective"])
        if not optimal <= float(r["semicircle_objective"]):
            problems.append(f"n={n}: optimal objective above the semicircle's")
        if n <= 5:
            gap = float(r["grid_objective"]) - optimal
            if not -1e-9 <= gap <= 1e-6:
                problems.append(f"n={n}: grid minus optimal objective {gap!r} outside [-1e-9, 1e-6]")
    return [problems]


# ---------------------------------------------------------------------------
# estimation: the worst-subset recovery-MSE table


def _estimation_build(seed, workdir):
    out = os.path.join(workdir, "estimation.csv")
    argv = ["simulate-estimation", "--n-min", "3", "--n-max", "15", "--trials", "2000"]
    return [Command(argv + ["--seed", str(seed), "--output", out], out)]


def _estimation_check(files, seed):
    problems = []
    rows = _csv_rows(files[0])
    if len(rows) != 26:
        problems.append(f"{len(rows)} rows, expected 26")
    for r in rows:
        mse, se, ref = float(r["mse"]), float(r["std_error"]), float(r["expected_mse"])
        if not abs(mse - ref) <= 4.0 * se:
            problems.append(f"n={r['n']} {r['design']}: mse {mse!r} more than 4 SE from {ref!r}")
    return [problems]


def _estimation_ref_dev(files, sd):
    rows = _csv_rows(files[0])
    return statistics.median(abs(math.log(float(r["mse"]) / float(r["expected_mse"]))) for r in rows)


# ---------------------------------------------------------------------------
# monitoring: the log-RSS localization sweep


def _monitoring_build(seed, workdir):
    out = os.path.join(workdir, "monitoring.csv")
    argv = ["simulate-monitoring", "--n", str(MONITORING_N), "--snr", SNRS]
    argv += ["--trials", str(MONITORING_TRIALS), "--seed", str(seed), "--output", out]
    return [Command(argv, out)]


def _monitoring_check(files, seed):
    problems = []
    rows = _csv_rows(files[0])
    if len(rows) != 14:
        problems.append(f"{len(rows)} rows, expected 14")
    limit = (2.0 * RADIUS) ** 2  # largest squared error inside the search disc
    for r in rows:
        mse = float(r["mse"])
        if not (math.isfinite(mse) and mse <= limit):
            problems.append(f"snr={r['snr_db']} {r['design']}: mse {mse!r} not in [0, {limit}]")
    return [problems]


def _optimal_ring(sd, shadow_std=1.0):
    angles = sd.designs.design_optimal(MONITORING_N)
    scenario = sd.simulate.RssScenario(
        sensor_positions=sd.simulate.ring_positions(angles, RADIUS),
        sensor_radius=RADIUS,
        shadow_std=shadow_std,
    )
    active, _ = sd.simulate.worst_fim_subset(scenario)
    return scenario, active


def _monitoring_ref_dev(files, sd):
    """Median over rows of |ln(mse / CRB)|, with the optimal design's CRB at the row's noise."""
    scenario, active = _optimal_ring(sd)
    devs = []
    for r in _csv_rows(files[0]):
        scn = sd.simulate.RssScenario(
            sensor_positions=scenario.sensor_positions,
            sensor_radius=RADIUS,
            shadow_std=float(r["noise_std"]),
        )
        crb = float(np.trace(np.linalg.inv(sd.simulate.fim(scn, active).matrix)))
        devs.append(abs(math.log(float(r["mse"]) / crb)))
    return statistics.median(devs)


def _monitoring_probe(seed, sd):
    """Noiseless ml_locate on seeded off-grid sources must recover each to 1e-6."""
    scenario, active = _optimal_ring(sd, shadow_std=0.0)
    pos = np.asarray(scenario.sensor_positions)
    rng = np.random.default_rng([seed, 1])
    outcomes = []
    for _ in range(PROBE_SOURCES):
        r = 0.5 * RADIUS * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        source = np.array([r * math.cos(phi), r * math.sin(phi)])
        samples = math.log(scenario.amplitude) - scenario.path_loss * np.log(
            np.linalg.norm(pos - source, axis=1)
        )
        err = float(np.linalg.norm(sd.simulate.ml_locate(scenario, samples, active).estimate - source))
        outcomes.append("" if err <= 1e-6 else f"noiseless source {source.tolist()}: error {err!r}")
    return outcomes


# ---------------------------------------------------------------------------
# scan: worst-subset evaluation of large designs


def random_angles(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, n]).uniform(0.0, math.pi, n)


def design_angles(scheme: str, n: int) -> np.ndarray:
    """The benchmark's own copy of the CLI designs used by ``scan`` (n even)."""
    i = np.arange(n)
    if scheme == "semicircle":
        return math.pi * i / n
    return 2.0 * math.pi * i / n  # circle, and optimal for even n


def brute_force_worst(angles, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All K-subsets (rows, lexicographic) and their pair-cosine sums, vectorized."""
    t = np.asarray(angles, dtype=float)
    cos2 = np.cos(2.0 * (t[:, None] - t[None, :]))
    combos = np.array(list(itertools.combinations(range(len(t)), k)), dtype=np.intp)
    sums = np.zeros(len(combos))
    for a, b in itertools.combinations(range(k), 2):
        sums += cos2[combos[:, a], combos[:, b]]
    return combos, sums


def _scan_build(seed, workdir):
    commands = []
    for scheme, n in SCAN_DESIGNS:
        out = os.path.join(workdir, f"scan_{scheme}_{n}.json")
        commands.append(Command(["evaluate", "--n", str(n), "--scheme", scheme, "--k", "3", "--output", out], out))
    for n, k in SCAN_RANDOM:
        path = os.path.join(workdir, f"random_n{n}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("angle_rad\n" + "".join(f"{a!r}\n" for a in random_angles(seed, n).tolist()))
        out = os.path.join(workdir, f"scan_random_{n}_k{k}.json")
        commands.append(Command(["evaluate", "--angles-file", path, "--k", str(k), "--output", out], out))
    return commands


def _scan_check(files, seed):
    cases = [(design_angles(scheme, n), 3) for scheme, n in SCAN_DESIGNS]
    cases += [(random_angles(seed, n), k) for n, k in SCAN_RANDOM]
    verdicts = []
    for (angles, k), data in zip(cases, files):
        report = json.loads(data)
        combos, sums = brute_force_worst(angles, k)
        best = float(sums.max())
        subset = report["worst_subset"]
        rows = np.flatnonzero((combos == np.asarray(subset)).all(axis=1)) if len(subset) == k else []
        attained = float(sums[rows[0]]) if len(rows) else -math.inf
        problems = []
        if not abs(report["pair_cosine_sum"] - best) <= 1e-9:
            problems.append(f"objective {report['pair_cosine_sum']!r}, oracle {best!r}")
        if not abs(attained - best) <= 1e-9:
            problems.append(f"subset {subset} reaches {attained!r}, oracle maximum {best!r}")
        verdicts.append(problems)
    return verdicts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            13,
            _verify_build,
            _verify_check,
        ),
        Workload(
            "estimation",
            2 * 13 * 2000,
            _estimation_build,
            _estimation_check,
            ref_dev=_estimation_ref_dev,
        ),
        Workload(
            "monitoring",
            2 * 7 * MONITORING_TRIALS,
            _monitoring_build,
            _monitoring_check,
            ref_dev=_monitoring_ref_dev,
            probe=_monitoring_probe,
        ),
        Workload(
            "scan",
            len(SCAN_DESIGNS) + len(SCAN_RANDOM),
            _scan_build,
            _scan_check,
        ),
    )
}
