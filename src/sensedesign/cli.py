"""Command-line front end: design tables, evaluation reports, simulations.

Every command writes one machine-readable data file (CSV or JSON) plus a
``<output>.manifest.json`` sidecar, both through ``emit``.  The manifest
records the command, the seed, the tool version, a UTC timestamp, the
``runtime`` (Python and numpy versions, CPU count) and a ``config``
holding every parsed option plus the resolved ``output`` path.
Data files contain no timestamp, so a re-run with the same arguments
reproduces them byte for byte; the sidecar is the only thing that differs.

Exit codes: 0 success, 2 usage error or unwritable output (printed as
``error: ...``), 3 input parse error, 4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__, simulate
from .core import AngleSet
from .designs import SCHEME_ALIASES, SCHEMES, build_design
from .search import MinimaxSearchConfig, ResourceLimitError, _check_budget, minimax_grid_search, worst_subset

OUTPUT_DIR_ENV = "SENSEDESIGN_OUTPUT_DIR"


class InputParseError(Exception):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}, line {line}: {message}")
        self.path = path
        self.line = line


def fmt_cell(value) -> str:
    """CSV cell rendering; floats keep full round-trip precision, infinities read as in JSON, None is ""."""
    value = sanitize_json(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return "" if value is None else str(value)


def sanitize_json(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: sanitize_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(v) for v in value]
    return value


def write_atomic(path: str, data: str) -> None:
    """Write ``data`` to a new temporary file beside ``path``, then rename it over ``path``.

    The file is created with mode 0o666, so it ends up with the permissions
    the umask allows, like any new file.  A path that cannot be written
    raises ValueError and leaves no temporary file behind.
    """
    parent = os.path.dirname(path) or "."
    tmp = os.path.join(parent, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    try:
        os.makedirs(parent, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_manifest(output_path: str, command: str, config: dict, seed: int | None) -> None:
    manifest = {
        "command": command,
        "config": sanitize_json(config),
        "seed": seed,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "runtime": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    write_atomic(output_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def emit(args, name: str, header, rows, doc=None, **extra_config) -> tuple[str, str]:
    """Write a command's data file and its manifest; returns the path written and the file's text.

    CSV renders ``header`` and ``rows``, JSON renders ``doc``: by default the
    command, ``extra_config`` and the rows as header-keyed objects.  The path is
    ``--output`` or ``<name>.<format>`` under $SENSEDESIGN_OUTPUT_DIR.  The
    manifest config is every parsed option, the resolved ``output`` and
    ``extra_config``; its seed is ``--seed``, or null for a command without one.
    """
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt_cell(v) for v in row] for row in rows)
        payload = buf.getvalue()
    else:
        if doc is None:
            doc = {"command": args.subcommand, **extra_config, "rows": [dict(zip(header, r)) for r in rows]}
        payload = json.dumps(sanitize_json(doc), indent=2, allow_nan=False) + "\n"
    path = args.output or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), f"{name}.{args.format}")
    write_atomic(path, payload)
    config = {k: v for k, v in vars(args).items() if k != "subcommand"}
    seed = getattr(args, "seed", None)  # the simulations' --seed
    write_manifest(path, args.subcommand, {**config, "output": path, **extra_config}, seed)
    return path, payload


def read_angle_file(path: str) -> AngleSet:
    """Angle list from a CSV file with an ``angle_rad`` column."""
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputParseError(path, 0, f"cannot open file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputParseError(path, 1, "empty file; expected a header with angle_rad") from None
        names = [h.strip() for h in header]
        if "angle_rad" not in names:
            raise InputParseError(path, 1, f"no angle_rad column in header {names}")
        col = names.index("angle_rad")
        values = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if col >= len(row):
                raise InputParseError(path, line_no, f"row has no column {col + 1}")
            text = row[col].strip()
            try:
                value = float(text)
            except ValueError:
                raise InputParseError(path, line_no, f"could not parse {text!r} as angle_rad") from None
            if not math.isfinite(value):
                raise InputParseError(path, line_no, f"angle_rad must be finite, got {text!r}")
            values.append(value)
    if not values:
        raise InputParseError(path, 1, "no angle rows in file")
    return AngleSet(values)


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def parse_pair(text: str) -> tuple[float, float]:
    parts = parse_float_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args) -> int:
    design = build_design(args.n, args.scheme)
    rows = [
        (i, a, r, math.cos(r), math.sin(r))
        for i, (a, r) in enumerate(zip(design.angles, design.raw))
    ]
    header = ["index", "angle_rad", "angle_rad_raw", "x", "y"]
    doc = {
        "command": "design",
        "n": args.n,
        "scheme": args.scheme,
        "angles": [dict(zip(header, row)) for row in rows],
    }
    path, _ = emit(args, f"design_n{args.n}_{args.scheme}", header, rows, doc)
    print(f"wrote {path} ({len(rows)} angles)")
    return 0


def evaluation_report(angles: AngleSet, k: int, source: str) -> dict:
    report = worst_subset(angles, k)
    return {
        "command": "evaluate",
        "input": source,
        "n": angles.n,
        "k": k,
        "worst_subset": list(report.worst_subset.indices),
        **vars(report.summary),  # a flat frozen dataclass: its fields in order, not deep-copied
        "subsets_evaluated": report.subsets_evaluated,
    }


def cmd_evaluate(args) -> int:
    if bool(args.angles_file) == (args.n is not None):
        raise ValueError("evaluate needs exactly one of --angles-file or --n")
    if args.angles_file:
        angles = read_angle_file(args.angles_file)
        source = args.angles_file
        name = "evaluate_" + os.path.splitext(os.path.basename(args.angles_file))[0]
    else:
        angles = build_design(args.n, args.scheme)
        source = f"{args.scheme}(n={args.n})"
        name = f"evaluate_n{args.n}_{args.scheme}"
    report = evaluation_report(angles, args.k, source)
    keys = [k for k in report if k != "command"]
    path, payload = emit(args, name, keys, [[report[k] for k in keys]], report)
    if args.format == "csv":  # stdout shows the report as the JSON file would hold it
        payload = json.dumps(sanitize_json(report), indent=2) + "\n"
    print(f"{payload}wrote {path}")
    return 0


def _check_n_range(args) -> None:
    if args.n_min < 3 or args.n_max < args.n_min:
        raise ValueError(f"need 3 <= n-min <= n-max, got {args.n_min}..{args.n_max}")


def cmd_verify(args) -> int:
    _check_n_range(args)
    schemes = ("optimal", "semicircle", "circle")
    header = ["n"]
    for scheme in schemes:
        header += [f"{scheme}_objective", f"{scheme}_gram_condition"]
    header += ["grid_objective", "grid_minus_optimal"]
    # every row's config, so the grid options are checked even when no row is
    # searched, and an over-budget n is refused before any search runs
    configs = {
        n: MinimaxSearchConfig(n=n, k=args.k, grid_points_per_angle=args.grid_points)
        for n in range(args.n_min, args.n_max + 1)
    }
    searched = range(args.n_min, min(args.n_max, args.grid_max_n) + 1)
    for n in searched:
        _check_budget(configs[n])
    rows = []
    for n, config in configs.items():
        reports = [worst_subset(build_design(n, scheme), args.k) for scheme in schemes]
        row = [n]
        for report in reports:
            row += [report.objective, report.summary.gram_condition]
        optimal = reports[0].objective
        if n in searched:
            _, grid_report = minimax_grid_search(config)
            row += [grid_report.objective, grid_report.objective - optimal]
        else:
            row += [None, None]
        rows.append(row)
        print(f"n={n}: optimal objective {optimal:.6f}")
    path, _ = emit(args, f"verify_n{args.n_min}-{args.n_max}", header, rows)
    print(f"wrote {path}")
    return 0


def cmd_simulate_estimation(args) -> int:
    _check_n_range(args)
    header = ["n", "design", "worst_subset", "mse", "std_error", "expected_mse"]
    cases = [(n, label) for n in range(args.n_min, args.n_max + 1) for label in ("optimal", "semicircle")]
    scenarios = [
        simulate.EstimationScenario(
            angles=build_design(n, label),
            k=args.k,
            trials=args.trials,
            seed=args.seed,
        )
        for n, label in cases
    ]
    rows = [
        [n, label, r.report.worst_subset.indices, r.mse, r.std_error, r.expected_mse]
        for (n, label), r in zip(cases, simulate.simulate_estimation(scenarios))
    ]
    path, _ = emit(args, f"estimation_n{args.n_min}-{args.n_max}", header, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_simulate_monitoring(args) -> int:
    header = ["snr_db", "design", "noise_std", "mse", "std_error", "mse_db", "worst_subset"]
    labels = ("optimal", "semicircle")
    scenarios = [
        simulate.RssScenario(
            sensor_positions=simulate.ring_positions(build_design(args.n, label), args.radius, args.source),
            source=args.source,
            sensor_radius=args.radius,
            amplitude=args.amplitude,
            path_loss=args.path_loss,
            trials=args.trials,
            seed=args.seed,
        )
        for label in labels
    ]
    results = simulate.simulate_monitoring(scenarios, args.snr)
    metadata = {label: result.metadata for label, result in zip(labels, results)}
    rows = [
        [pt.snr_db, label, pt.noise_std, pt.mse, pt.std_error, pt.mse_db, pt.worst_subset]
        for label, result in zip(labels, results)
        for pt in result.points
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    path, _ = emit(args, f"monitoring_n{args.n}", header, rows, metadata=metadata)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------


def _add_command(sub, name: str, help: str, fmt: str = "csv") -> argparse.ArgumentParser:
    """A subcommand parser with the shared --output and --format options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--output")
    p.add_argument("--format", default=fmt, choices=["csv", "json"])
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Callers must not change the returned parser: every ``main`` call in the
    process parses with it.  Its defaults are immutable, so no parse can
    leak a value into the next.
    """
    parser = argparse.ArgumentParser(
        prog="sensedesign",
        description="Design and evaluate planar sensing directions by their worst-case conditioning.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    scheme_choices = list(SCHEMES) + sorted(SCHEME_ALIASES)

    p = _add_command(sub, "design", "emit a closed-form angle placement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", default="optimal_auto", choices=scheme_choices)

    p = _add_command(sub, "evaluate", "worst-subset spectral report for a design or angle file", fmt="json")
    p.add_argument("--angles-file")
    p.add_argument("--n", type=int)
    p.add_argument("--scheme", default="optimal_auto", choices=scheme_choices)
    p.add_argument("--k", type=int, default=3)

    p = _add_command(sub, "verify", "closed-form designs vs baselines vs grid search")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--grid-max-n", type=int, default=5)
    p.add_argument("--grid-points", type=int, default=180)

    p = _add_command(sub, "simulate-estimation", "worst-subset recovery MSE versus n")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = _add_command(sub, "simulate-monitoring", "localization MSE versus SNR on ring placements")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--snr", type=parse_float_list, default=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0))
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--path-loss", type=float, default=2.0)
    p.add_argument("--source", type=parse_pair, default=(0.0, 0.0))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, so a replaced ``cmd_*`` (a test stub, a tracing
    # wrapper) runs even though the parser was built before it
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        return command(args)
    except InputParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
