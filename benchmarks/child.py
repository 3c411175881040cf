"""Measuring process of the benchmark: one fresh interpreter per start.

``run.py`` starts this script with BLAS/OpenMP threads pinned to one and the
checkout's ``src`` first on the import path.  With ``--setup-only`` it
imports the package and its CLI, builds the workload's inputs, prints how
long that took and exits.  Otherwise it goes on to run the workload:
timed passes for ``--seconds`` (the second half of them traced when
``--trace 1``), then the correctness checks outside any timed region, and
prints one JSON line.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from run import PINNED_ENV  # noqa: E402


def load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sensedesign
    import sensedesign.cli  # noqa: F401

    if not os.path.abspath(sensedesign.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"sensedesign came from {sensedesign.__file__}, not from {src}")
    return sensedesign


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: deps.get(k) for k in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "seed": seed,
        "thread_pinning": {k: os.environ.get(k) for k in PINNED_ENV},
    }


# Calibrated pass times.  On a shared machine the speed available to this
# process drifts by tens of percent, in phases from milliseconds to over a
# minute, so raw pass times of unchanged code spread by 20% or more between
# runs.  A fixed calibration kernel (never touching sensedesign) is therefore
# timed EDGE_SAMPLES times before and after each pass and, through a SIGALRM
# timer, every PROBE_INTERVAL_S inside it; Python runs the handler between
# bytecodes.  The handler's own time is taken off the pass, and the rest is
# scaled by CAL_REF_S over the mean kernel time, so a pass reads in seconds
# on a machine where the kernel takes CAL_REF_S.  The mean, not the median,
# matches how a slowdown adds up over a pass.
CAL_REF_S = 0.0012
PROBE_INTERVAL_S = 0.1
EDGE_SAMPLES = 3
SETUP_SAMPLES = 10


def calibration_kernel() -> float:
    """Time one run of fixed mixed Python and numpy work (about 1.2 ms)."""
    import math

    import numpy

    start = time.perf_counter()
    x = numpy.linspace(0.0, 1.0, 2000)
    acc = 0.0
    for i in range(5000):
        acc += math.cos(i * 1e-3)
    for i in range(25):
        acc += float(numpy.sin(x + i).sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples and handler time around and inside one timed region."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibration_kernel())
        self.inside_s += time.perf_counter() - start

    def time(self, fn) -> tuple[float, float]:
        """Run ``fn()``; returns its raw wall time and its calibrated time."""
        self.samples += [calibration_kernel() for _ in range(EDGE_SAMPLES)]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples += [calibration_kernel() for _ in range(EDGE_SAMPLES)]
        own = wall - self.inside_s
        return own, own * CAL_REF_S / statistics.fmean(self.samples)


class Session:
    """Runs passes of one workload and records each command's outcome per pass."""

    def __init__(self, sd, commands):
        self.sd = sd
        self.commands = commands
        self.outcomes = [[] for _ in commands]  # per command: one message per pass, "" if ok
        self.first = [None] * len(commands)  # data file bytes of the first pass

    def run_pass(self) -> tuple[float, float]:
        """One pass; returns its raw and calibrated wall times."""
        sink = io.StringIO()
        codes = []

        def commands():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for command in self.commands:
                    try:
                        # looked up per call, so traced passes reach the wrapper
                        codes.append(self.sd.cli.main(command.argv))
                    except SystemExit as exc:
                        codes.append(f"exit {exc.code}")
                    except Exception as exc:  # an operation that raises counts as failed
                        codes.append(f"raised {exc!r}")

        times = SpeedProbe().time(commands)
        for i, (command, code) in enumerate(zip(self.commands, codes)):
            self.outcomes[i].append(self._verdict(i, command, code, sink.getvalue()))
        return times

    def _verdict(self, i, command, code, log) -> str:
        if code != 0:
            return f"{command.argv[0]}: returned {code}: {log[-300:]}"
        try:
            with open(command.output, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"{command.argv[0]}: no data file: {exc}"
        if self.first[i] is None:
            self.first[i] = data
        elif data != self.first[i]:
            return f"{command.argv[0]}: data file differs from the first pass's"
        return ""

    def timed(self, seconds: float, min_passes: int) -> tuple[list[float], list[float]]:
        """Whole passes until ``seconds`` have elapsed and ``min_passes`` are done.

        Returns the raw pass times and the calibrated ones.
        """
        raw, scaled = [], []
        start = time.perf_counter()
        while len(raw) < min_passes or time.perf_counter() - start < seconds:
            wall, calibrated = self.run_pass()
            raw.append(wall)
            scaled.append(calibrated)
        return raw, scaled


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sd = load_package(args.root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    commands = workload.build(args.seed, args.workdir)
    raw_setup_s = time.perf_counter() - T0
    # numpy is only importable mid-import, so set-up is calibrated from after
    speed = [calibration_kernel() for _ in range(SETUP_SAMPLES)]
    setup_s = raw_setup_s * CAL_REF_S / statistics.fmean(speed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    # No warm-up pass: the median over passes absorbs first-call costs, and a
    # run needs at least two passes so the byte-identity check has a partner.
    session = Session(sd, commands)
    traced_raw, traced_walls, layers = [], [], {}
    if args.trace:
        import tracer

        raw, walls = session.timed(args.seconds / 2, 1)
        recorder = tracer.Recorder()
        undo = tracer.install(recorder)
        try:
            traced_raw, traced_walls = session.timed(args.seconds / 2, 1)
        finally:
            tracer.restore(undo)
        layers = tracer.layer_metrics(recorder, len(traced_raw))
        layers["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0,
            "ratio",
        )
        if args.spans_out:
            recorder.write_spans(args.spans_out)
    else:
        raw, walls = session.timed(args.seconds, 2)

    # correctness, outside every timed region
    failures = []
    try:
        problems = (
            workload.check(session.first, args.seed)
            if all(f is not None for f in session.first)
            else [["no data file from the first pass"]] * len(commands)
        )
    except Exception as exc:  # a malformed data file fails every command
        problems = [[f"check raised {exc!r}"]] * len(commands)
    attempted = failed = 0
    for command, outcomes, found in zip(commands, session.outcomes, problems):
        failures += [f"{command.argv[0]}: {msg}" for msg in found]
        failures += [msg for msg in outcomes if msg]
        attempted += len(outcomes)
        failed += sum(1 for msg in outcomes if msg or found)
    if workload.probe is not None:
        try:
            probes = workload.probe(args.seed, sd)
        except Exception as exc:
            probes = [f"probe raised {exc!r}"]
        attempted += len(probes)
        failed += sum(1 for msg in probes if msg)
        failures += [msg for msg in probes if msg]
    ref_dev = None
    if workload.ref_dev is not None and not failed:
        try:
            ref_dev = workload.ref_dev(session.first, sd)
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"ref_dev: {exc!r}")

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "raw_setup_s": raw_setup_s,
                "raw_walls": raw,
                "walls": walls,
                "traced_raw_walls": traced_raw,
                "traced_walls": traced_walls,
                "items_per_pass": workload.items,
                "attempted": attempted,
                "failed": failed,
                "failures": failures[:20],
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "ref_dev": ref_dev,
                "layers": layers,
                "env": environment(args.seed),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
