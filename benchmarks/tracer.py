"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of ``sensedesign.core``,
``designs``, ``search``, ``simulate`` and ``cli`` from outside the package.
A function is often bound under several names (``search.worst_subset`` is
also ``simulate.worst_subset``, ``cli.worst_subset`` and
``sensedesign.worst_subset``), so every binding in every ``sensedesign.*``
namespace is replaced, and ``restore`` puts every original back.
``sensedesign.simulate.minimize`` (SciPy's optimizer as the package binds
it) is wrapped too, to read ``nfev``/``nit``/``status`` from its result.

Each span records its name, start, end and parent, and the time its
children cover, so its self time is ``end - start - covered``.  Spans stay
in memory until ``write_spans``.  Hot leaves are not spans: a scan of tens
of thousands of subsets would otherwise allocate a span per subset.
``TIMED_LEAVES`` get a call count and a time (which the enclosing span
counts as covered); ``COUNTED_LEAVES`` get only a call count.  No timed
leaf may call another timed leaf, or its time would be covered twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sensedesign"
LAYERS = ("core", "designs", "search", "simulate", "cli")

TIMED_LEAVES = frozenset({"core.pair_cosine_sum"})
COUNTED_LEAVES = frozenset(
    {
        "core.spectral_summary",
        "core.as_subset",
        "core.normalize_angle",
        "simulate.fim",
        "cli.fmt_cell",
        "cli.sanitize_json",
    }
)

NAME, START, END, PARENT, COVERED = range(5)


def _original(layer, name):
    return inspect.unwrap(getattr(sys.modules[f"{PACKAGE}.{layer}"], name))


def _write_bytes(args, kwargs):
    data = kwargs["data"] if "data" in kwargs else args[1]
    return len(data.encode("utf-8"))


# span name -> (counter key, value read from (args, kwargs, result))
COUNTERS = {
    "search.worst_subset": [("subsets", lambda a, k, r: r.subsets_evaluated)],
    "search.minimax_grid_search": [
        ("configs", lambda a, k, r: _original("search", "grid_evaluations")(a[0]))
    ],
    "simulate.simulate_worst_case_mse": [("trials", lambda a, k, r: a[0].trials)],
    "simulate.ml_locate": [("boundary", lambda a, k, r: int(bool(r.on_boundary)))],
    "simulate.minimize": [
        ("nfev", lambda a, k, r: r.nfev),
        ("nit", lambda a, k, r: r.nit),
        ("unconverged", lambda a, k, r: int(r.status != 0)),
    ],
    "cli.write_atomic": [("bytes", lambda a, k, r: _write_bytes(a, k))],
}


class Recorder:
    """Spans and counters of one traced run; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, covered]
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # leaf calls
        self.leaf_s: defaultdict = defaultdict(float)  # timed-leaf time
        self.counters: Counter = Counter()  # (span name, key) -> sum

    def wrap(self, name, fn):
        if name in TIMED_LEAVES:
            return self._timed_leaf(name, fn)
        if name in COUNTED_LEAVES:
            return self._counted_leaf(name, fn)
        return self._span(name, fn)

    def _span(self, name, fn):
        rec, clock = self, self.clock
        reads = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            entry = [name, 0.0, 0.0, parent, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(entry)
            entry[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[END] = clock()
                rec.stack.pop()
                if parent >= 0:
                    rec.spans[parent][COVERED] += entry[END] - entry[START]
            for key, read in reads:
                rec.counters[name, key] += read(args, kwargs, result)
            return result

        return wrapper

    def _timed_leaf(self, name, fn):
        rec, clock = self, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec.calls[name] += 1
                rec.leaf_s[name] += elapsed
                if rec.stack:
                    rec.spans[rec.stack[-1]][COVERED] += elapsed

        return wrapper

    def _counted_leaf(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START] - span[COVERED]
        return dict(out)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent index, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "self_s": span[END] - span[START] - span[COVERED],
                        }
                    )
                    + "\n"
                )


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(recorder: Recorder) -> list[tuple]:
    """Replace every binding of every public layer function; returns the undo list."""
    wrappers: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{attr}", fn))
    minimize = getattr(sys.modules.get(f"{PACKAGE}.simulate"), "minimize", None)
    if callable(minimize):
        wrappers[id(minimize)] = (minimize, recorder.wrap("simulate.minimize", minimize))
    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, entry[1])
    return undo


def restore(undo: list[tuple]) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def tail_percentile(samples: list[float], min_beyond: int = 10) -> tuple[float, float]:
    """Highest of p50/p90/p95/p99/p99.9 with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``; ``(0.0, 0.0)`` when no level qualifies.
    """
    ordered = sorted(samples)
    best = (0.0, 0.0)
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        beyond = len(ordered) - 1 - int(pct / 100.0 * (len(ordered) - 1))
        if beyond < min_beyond:
            break
        best = (pct, _quantile(ordered, pct / 100.0))
    return best


def _quantile(ordered: list[float], q: float) -> float:
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: Recorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, from the spans and counters of ``passes`` passes.

    A ``.share`` is the function's inclusive time over that of the root
    spans (the ``cli.main`` calls), so it is a share of the program's time.
    """
    spans = rec.spans
    self_s = rec.self_times()
    incl: defaultdict = defaultdict(float)
    calls: Counter = Counter(rec.calls)
    locate_ms = []
    traced_wall_s = 0.0
    for span in spans:
        duration = span[END] - span[START]
        incl[span[NAME]] += duration
        if span[PARENT] < 0:
            traced_wall_s += duration
        calls[span[NAME]] += 1
        if span[NAME] == "simulate.ml_locate":
            locate_ms.append(duration * 1e3)

    def parent_name(span):
        return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

    def under(span, name):
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            if span[NAME] == name:
                return True
        return False

    scans = [s for s in spans if s[NAME] == "search.worst_subset"]
    refine_scans = sum(1 for s in scans if parent_name(s) == "search.local_refine")
    mse_scans = sum(1 for s in scans if under(s, "simulate.simulate_worst_case_mse"))
    cli_other = sum(
        t
        for name, t in self_s.items()
        if name.startswith("cli.") and name not in ("cli.write_atomic", "cli.write_manifest")
    )
    count = rec.counters
    per = 1.0 / passes
    tail_pct, tail_ms = tail_percentile(locate_ms)
    mse_calls = calls["simulate.simulate_worst_case_mse"]
    ml_calls = calls["simulate.ml_locate"]
    solves = calls["simulate.minimize"]
    return {
        "core.pair_cosine_sum.calls": (calls["core.pair_cosine_sum"] * per, "count"),
        "core.pair_cosine_sum.self_s": (rec.leaf_s["core.pair_cosine_sum"] * per, "s"),
        "core.spectral_summary.calls": (calls["core.spectral_summary"] * per, "count"),
        "designs.build_design.self_s": (self_s.get("designs.build_design", 0.0) * per, "s"),
        "search.worst_subset.calls": (calls["search.worst_subset"] * per, "count"),
        "search.worst_subset.self_s": (self_s.get("search.worst_subset", 0.0) * per, "s"),
        "search.worst_subset.subsets": (count["search.worst_subset", "subsets"] * per, "count"),
        "search.worst_subset.ns_per_subset": (
            _ratio(incl["search.worst_subset"] * 1e9, count["search.worst_subset", "subsets"]),
            "ns",
        ),
        "search.worst_subset.share": (_ratio(incl["search.worst_subset"], traced_wall_s), "ratio"),
        "search.minimax_grid_search.self_s": (
            self_s.get("search.minimax_grid_search", 0.0) * per,
            "s",
        ),
        "search.minimax_grid_search.configs": (
            count["search.minimax_grid_search", "configs"] * per,
            "count",
        ),
        "search.minimax_grid_search.configs_per_s": (
            _ratio(
                count["search.minimax_grid_search", "configs"],
                self_s.get("search.minimax_grid_search", 0.0),
            ),
            "1/s",
        ),
        "search.minimax_grid_search.share": (
            _ratio(incl["search.minimax_grid_search"], traced_wall_s),
            "ratio",
        ),
        "search.local_refine.self_s": (self_s.get("search.local_refine", 0.0) * per, "s"),
        "search.local_refine.worst_subset_calls": (refine_scans * per, "count"),
        "simulate.simulate_worst_case_mse.self_s": (
            self_s.get("simulate.simulate_worst_case_mse", 0.0) * per,
            "s",
        ),
        "simulate.simulate_worst_case_mse.trials_per_s": (
            _ratio(
                count["simulate.simulate_worst_case_mse", "trials"],
                incl["simulate.simulate_worst_case_mse"],
            ),
            "1/s",
        ),
        "simulate.simulate_worst_case_mse.scans_per_call": (_ratio(mse_scans, mse_calls), "count"),
        "simulate.expected_worst_case_mse.self_s": (
            self_s.get("simulate.expected_worst_case_mse", 0.0) * per,
            "s",
        ),
        "simulate.worst_fim_subset.self_s": (
            self_s.get("simulate.worst_fim_subset", 0.0) * per,
            "s",
        ),
        "simulate.fim.calls": (calls["simulate.fim"] * per, "count"),
        "simulate.rss_sample.self_s": (self_s.get("simulate.rss_sample", 0.0) * per, "s"),
        "simulate.ml_locate.calls": (ml_calls * per, "count"),
        "simulate.ml_locate.self_s": (self_s.get("simulate.ml_locate", 0.0) * per, "s"),
        "simulate.ml_locate.p50_ms": (_quantile(sorted(locate_ms), 0.5) if locate_ms else 0.0, "ms"),
        "simulate.ml_locate.tail_ms": (tail_ms, "ms"),
        "simulate.ml_locate.tail_pct": (tail_pct, "%"),
        "simulate.ml_locate.samples": (float(len(locate_ms)), "count"),
        "simulate.ml_locate.boundary_frac": (
            _ratio(count["simulate.ml_locate", "boundary"], ml_calls),
            "ratio",
        ),
        "simulate.ml_locate.share": (_ratio(incl["simulate.ml_locate"], traced_wall_s), "ratio"),
        "simulate.minimize.self_s": (self_s.get("simulate.minimize", 0.0) * per, "s"),
        "simulate.minimize.nfev_mean": (_ratio(count["simulate.minimize", "nfev"], solves), "count"),
        "simulate.minimize.nit_mean": (_ratio(count["simulate.minimize", "nit"], solves), "count"),
        "simulate.minimize.unconverged": (
            count["simulate.minimize", "unconverged"] * per,
            "count",
        ),
        "cli.write_atomic.self_s": (self_s.get("cli.write_atomic", 0.0) * per, "s"),
        "cli.write_atomic.bytes": (count["cli.write_atomic", "bytes"] * per, "B"),
        "cli.write_manifest.self_s": (self_s.get("cli.write_manifest", 0.0) * per, "s"),
        "cli.cmd.self_s": (cli_other * per, "s"),
    }
