"""Benchmark of the sensedesign paper artifacts, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads are ``verify``, ``estimation``, ``monitoring`` and ``scan`` (see
README.md).  With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the end-to-end ones (``wall_s``, ``items_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones from a traced run.  Lines before it give a readable table, including
the uncalibrated ``raw_wall_s`` and ``raw_setup_s``, ``failed_frac`` and,
for estimation and monitoring, ``ref_dev``.  A result file with the machine
record is written under ``.bench_work/results``.  Pass and set-up times are
calibrated against a fixed kernel timed around and inside every pass (see
``child.py``).

The work happens in fresh interpreters started from ``child.py`` with
BLAS/OpenMP pinned to one thread: ``SETUP_PROBES`` of them only import the
package and build the inputs (set-up time is the median over those and the
measuring one), then one measuring process runs the passes.  The exit code
is 0 when every output was correct, 1 when a check failed or the measuring
process broke, and 2 when the checkout has no ``src/sensedesign`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def start_child(argv: list[str], timeout: float) -> dict:
    """Run child.py to completion and parse its last stdout line."""
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(
        [sys.executable, CHILD, *argv],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(child: dict, setup: list[float]) -> dict:
    wall = statistics.median(child["walls"])
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (child["items_per_pass"] / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024.0, "MB"),
    }


def print_table(workload: str, metrics: dict, counts: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:<11} {name:<52} {value:>16.6g} {unit:<6} n={counts.get(name, 1)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sensedesign", "cli.py")):
        print(f"no src/sensedesign in {root}; run from the root of a checkout", file=sys.stderr)
        return 2

    base = os.path.join(root, ".bench_work")
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--root", root, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        for i in range(SETUP_PROBES):
            probe_dir = os.path.join(workdir, f"setup{i}")
            os.mkdir(probe_dir)
            probes.append(start_child(common + ["--workdir", probe_dir, "--setup-only"], 60))
        run_dir = os.path.join(workdir, "run")
        os.mkdir(run_dir)
        measure = ["--workdir", run_dir, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans-out", os.path.join(base, "results", f"{tag}.spans.jsonl")]
        child = start_child(common + measure, CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(child)
    setup = [probe["setup_s"] for probe in probes]

    e2e = end_to_end(child, setup)
    report = {
        **e2e,
        "raw_wall_s": (statistics.median(child["raw_walls"]), "s"),
        "raw_setup_s": (statistics.median(probe["raw_setup_s"] for probe in probes), "s"),
        "failed_frac": (child["failed"] / child["attempted"], "ratio"),
    }
    passes = len(child["walls"])
    counts = {"wall_s": passes, "items_per_s": passes, "raw_wall_s": passes}
    counts.update(setup_s=len(setup), raw_setup_s=len(setup))
    if child["ref_dev"] is not None:
        report["ref_dev"] = (child["ref_dev"], "ln")
    if args.trace:
        metrics = {name: tuple(v) for name, v in child["layers"].items()}
        # ref_dev is defined for estimation and monitoring only; it reads 0 elsewhere
        metrics["quality.ref_dev"] = (child["ref_dev"] or 0.0, "ln")
        counts = {name: len(child["traced_walls"]) for name in metrics}
        print_table(args.workload, metrics, counts)
    else:
        metrics = e2e
        print_table(args.workload, report, counts)
    for failure in child["failures"]:
        print(f"FAILED: {failure}")

    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        "pass_walls_s": child["walls"],
        "raw_pass_walls_s": child["raw_walls"],
        "traced_pass_walls_s": child["traced_walls"],
        "traced_raw_pass_walls_s": child["traced_raw_walls"],
        "setup_samples_s": setup,
        "raw_setup_samples_s": [probe["raw_setup_s"] for probe in probes],
        "failures": child["failures"],
        "environment": child["env"],
    }
    with open(os.path.join(base, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
