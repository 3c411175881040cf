"""Tests of the benchmark's own machinery: span arithmetic, restoring, oracle."""

import contextlib
import io
import sys

import numpy as np

import tracer
import workloads
from sensedesign import AngleSet, worst_subset


def test_self_time_subtracts_child_spans_and_timed_leaves():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    inner = rec.wrap("search.inner", lambda: None)
    leaf = rec.wrap("core.pair_cosine_sum", lambda: None)  # a timed leaf

    def body():
        inner()  # 1 -> 3
        inner()  # 4 -> 5
        leaf()  # 6 -> 8

    outer = rec.wrap("search.outer", body)
    outer()  # 0 -> 10
    assert rec.self_times() == {"search.outer": 5.0, "search.inner": 3.0}
    assert [s[tracer.PARENT] for s in rec.spans] == [-1, 0, 0]
    assert rec.calls["core.pair_cosine_sum"] == 1
    assert rec.leaf_s["core.pair_cosine_sum"] == 2.0


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "sensedesign" or name.startswith("sensedesign."))
        for attr, value in vars(mod).items()
    }


def test_restore_leaves_no_wrapper_behind(tmp_path):
    import sensedesign.cli

    before = _bindings()
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        # one function, several bindings: all wrapped, by the same wrapper
        assert sensedesign.simulate.worst_subset is not before["sensedesign.search", "worst_subset"]
        assert sensedesign.cli.worst_subset is sensedesign.search.worst_subset
        assert sensedesign.simulate.minimize is not before["sensedesign.simulate", "minimize"]
    finally:
        tracer.restore(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    argv = ["evaluate", "--n", "6", "--output", str(tmp_path / "e.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert sensedesign.cli.main(argv) == 0
    assert rec.spans == [] and not rec.calls and not rec.counters


def test_oracle_matches_worst_subset_without_ties():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, min(n, 4) + 1))
        angles = rng.uniform(0.0, np.pi, n)
        combos, sums = workloads.brute_force_worst(angles, k)
        report = worst_subset(AngleSet(angles), k)
        best = int(sums.argmax())
        assert tuple(combos[best]) == report.worst_subset.indices
        assert abs(sums[best] - report.objective) <= 1e-9


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile([float(i) for i in range(100)])[0] == 90.0
    assert tracer.tail_percentile([float(i) for i in range(1000)])[0] == 99.0
    assert tracer.tail_percentile([1.0] * 19) == (0.0, 0.0)
