import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sensedesign
from sensedesign import design_optimal, worst_subset
from sensedesign.cli import build_parser, evaluation_report, main


def run(tmp_path, *argv) -> int:
    return main([str(a) for a in argv])


class TestDesign:
    def test_csv_contents(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(tmp_path, "design", "--n", 4, "--scheme", "theorem_even_b", "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,angle_rad,angle_rad_raw,x,y"
        assert len(lines) == 5
        raw = [float(line.split(",")[2]) for line in lines[1:]]
        assert raw == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-12)
        folded = [float(line.split(",")[1]) for line in lines[1:]]
        assert folded == pytest.approx([0.0, math.pi / 2, 0.0, math.pi / 2], abs=1e-12)
        # x,y follow the raw (full-circle) angle, not the folded one
        assert float(lines[3].split(",")[3]) == pytest.approx(-1.0, abs=1e-12)

    def test_json_format(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(tmp_path, "design", "--n", 7, "--format", "json", "--output", out) == 0
        doc = json.loads(out.read_text())
        assert doc["scheme"] == "optimal_auto"
        assert len(doc["angles"]) == 7

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        run(tmp_path, "design", "--n", 4, "--output", out)
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert set(manifest) == {"command", "config", "seed", "tool_version", "timestamp_utc", "runtime"}
        assert manifest["runtime"] == {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        }
        assert manifest["command"] == "design"
        assert manifest["config"]["n"] == 4

    def test_parity_violation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(tmp_path, "design", "--n", 7, "--scheme", "theorem_even_a", "--output", out) == 2
        assert "even" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scheme_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "design", "--n", 4, "--scheme", "nope")
        assert exc.value.code == 2

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SENSEDESIGN_OUTPUT_DIR", str(tmp_path))
        assert run(tmp_path, "design", "--n", 5) == 0
        assert (tmp_path / "design_n5_optimal_auto.csv").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "d.csv"
        previous = os.umask(umask)
        try:
            assert run(tmp_path, "design", "--n", 4, "--output", out) == 0
        finally:
            os.umask(previous)
        for path in (out, tmp_path / "d.csv.manifest.json"):
            assert path.stat().st_mode & 0o777 == mode, path

    @pytest.mark.parametrize("target", ["under_a_file", "a_directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        out = tmp_path / "file" / "x.csv" if target == "under_a_file" else tmp_path / "dir"
        assert run(tmp_path, "design", "--n", 4, "--output", out) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []


class TestEvaluate:
    def test_round_trip_matches_in_process(self, tmp_path):
        d = tmp_path / "design.csv"
        run(tmp_path, "design", "--n", 7, "--output", d)
        out = tmp_path / "eval.json"
        assert run(tmp_path, "evaluate", "--angles-file", d, "--output", out) == 0
        doc = json.loads(out.read_text())
        want = evaluation_report(design_optimal(7), 3, "x")
        assert doc["worst_subset"] == list(want["worst_subset"])
        assert doc["pair_cosine_sum"] == want["pair_cosine_sum"]
        assert doc["gram_condition"] == want["gram_condition"]
        assert doc["subsets_evaluated"] == 13  # 7 windows, 6 tied candidates

    def test_by_scheme(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(tmp_path, "evaluate", "--n", 7, "--scheme", "semicircle", "--output", out) == 0
        doc = json.loads(out.read_text())
        assert doc["gram_condition"] == pytest.approx(6.967911665634092, abs=1e-9)

    def test_singular_design_serializes_inf(self, tmp_path):
        src = tmp_path / "angles.csv"
        src.write_text("angle_rad\n0.2\n0.2\n0.2\n")
        out = tmp_path / "eval.json"
        assert run(tmp_path, "evaluate", "--angles-file", src, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert doc["gram_condition"] == "+inf"
        assert doc["lambda_min"] == 0.0

    def test_malformed_file_exits_3_with_line(self, tmp_path, capsys):
        src = tmp_path / "angles.csv"
        src.write_text("angle_rad\n0.2\nbanana\n")
        assert run(tmp_path, "evaluate", "--angles-file", src) == 3
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "banana" in err

    def test_byte_order_mark_is_read(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM
        docs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            src = tmp_path / f"{name}.csv"
            src.write_bytes(prefix + b"angle_rad\n0.2\n0.4\n0.9\n1.7\n")
            out = tmp_path / f"{name}.json"
            assert run(tmp_path, "evaluate", "--angles-file", src, "--output", out) == 0
            doc = json.loads(out.read_text())
            assert doc.pop("input") == str(src)
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_missing_column_exits_3(self, tmp_path, capsys):
        src = tmp_path / "angles.csv"
        src.write_text("theta\n0.2\n")
        assert run(tmp_path, "evaluate", "--angles-file", src) == 3
        assert "angle_rad" in capsys.readouterr().err

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        src = tmp_path / "angles.csv"
        src.write_text("angle_rad\n0.2\n0.4\n0.9\n")
        assert run(tmp_path, "evaluate", "--angles-file", src, "--n", 5) == 2
        assert run(tmp_path, "evaluate") == 2

    def test_n_zero_with_angles_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "angles.csv"
        src.write_text("angle_rad\n0.2\n0.4\n0.9\n")
        out = tmp_path / "eval.json"
        assert run(tmp_path, "evaluate", "--angles-file", src, "--n", 0, "--output", out) == 2
        assert "exactly one" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert run(tmp_path, "evaluate", "--n", 5, "--output", out, "--format", "csv") == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["worst_subset"] == "0;1;2"
        assert float(cols["pair_cosine_sum"]) == pytest.approx(-0.19098300562505244, abs=1e-12)


class TestVerify:
    def test_small_run(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run(
            tmp_path,
            "verify",
            "--n-min", 3, "--n-max", 4,
            "--grid-max-n", 3, "--grid-points", 60,
            "--output", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "n" and header[-1] == "grid_minus_optimal"
        row3 = dict(zip(header, lines[1].split(",")))
        row4 = dict(zip(header, lines[2].split(",")))
        assert float(row3["optimal_objective"]) == pytest.approx(-1.5, abs=1e-12)
        assert abs(float(row3["grid_minus_optimal"])) <= 1e-4
        # grid columns are blank above --grid-max-n
        assert row4["grid_objective"] == "" and row4["grid_minus_optimal"] == ""
        assert float(row4["optimal_objective"]) == pytest.approx(-1.0, abs=1e-12)

    def test_unsearched_grid_cells_are_json_null(self, tmp_path):
        out = tmp_path / "verify.json"
        argv = ["verify", "--n-min", 3, "--n-max", 4, "--grid-max-n", 3, "--grid-points", 30]
        assert run(tmp_path, *argv, "--format", "json", "--output", out) == 0
        row3, row4 = json.loads(out.read_text())["rows"]
        assert isinstance(row3["grid_objective"], float) and isinstance(row3["grid_minus_optimal"], float)
        assert row4["grid_objective"] is None and row4["grid_minus_optimal"] is None

    def test_resource_guard_exits_4(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run(
            tmp_path,
            "verify",
            "--n-min", 6, "--n-max", 6,
            "--grid-max-n", 6, "--grid-points", 180,
            "--output", out,
        )
        assert code == 4
        assert "resource limit" in capsys.readouterr().err

    def test_resource_guard_checked_before_any_search(self, tmp_path, capsys):
        # n = 3..5 would search for over a second before n = 6 trips the guard
        out = tmp_path / "verify.csv"
        start = time.perf_counter()
        code = run(tmp_path, "verify", "--n-min", 3, "--n-max", 6, "--grid-max-n", 6, "--output", out)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert "resource limit" in captured.err and "n=6" in captured.err
        assert captured.out == ""

    def test_table_ceiling_exits_4(self, tmp_path, capsys):
        # under the evaluation guard, but its g x g tables would take ~38 GB
        out = tmp_path / "verify.csv"
        start = time.perf_counter()
        code = run(
            tmp_path,
            "verify",
            "--n-min", 3, "--n-max", 3,
            "--grid-max-n", 3, "--grid-points", 40000,
            "--output", out,
        )
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert not out.exists()
        assert "table entries" in capsys.readouterr().err

    def test_bad_range_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "--n-min", 5, "--n-max", 4) == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--grid-points", 1, "grid_points_per_angle must be at least 2"),
            ("--k", 1, "need 2 <= k <= n"),
        ],
        ids=["grid-points", "k"],
    )
    def test_grid_options_checked_when_no_row_is_searched(self, tmp_path, capsys, option, value, message):
        # every n is above --grid-max-n, so no search would reach the bad value
        out = tmp_path / "verify.csv"
        assert run(tmp_path, "verify", "--n-min", 6, "--n-max", 7, option, value, "--output", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSimulateEstimation:
    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate-estimation", "--n-min", 3, "--n-max", 4, "--trials", 25, "--seed", 7]
        assert run(tmp_path, *args, "--output", a) == 0
        assert run(tmp_path, *args, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert run(tmp_path, *args[:-1], 8, "--output", c) == 0
        assert c.read_bytes() != a.read_bytes()

    def test_row_layout(self, tmp_path):
        out = tmp_path / "est.csv"
        run(tmp_path, "simulate-estimation", "--n-min", 3, "--n-max", 3, "--trials", 10, "--output", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,design,worst_subset,mse,std_error,expected_mse"
        assert len(lines) == 3  # optimal + semicircle for the single n
        assert lines[1].split(",")[1] == "optimal"
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["trials"] == 10


class TestSimulateMonitoring:
    def test_tiny_run_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate-monitoring", "--n", 6, "--snr", "15,25", "--trials", 3, "--seed", 2]
        assert run(tmp_path, *args, "--output", a) == 0
        assert run(tmp_path, *args, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "snr_db,design,noise_std,mse,std_error,mse_db,worst_subset"
        assert len(lines) == 1 + 2 * 2  # two SNR points, two designs
        # rows sorted by (snr, design)
        assert [l.split(",")[1] for l in lines[1:]] == ["optimal", "semicircle"] * 2
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["config"]["metadata"]["optimal"]["snr_reference"] == "unit_log_power"

    def test_bad_n_exits_2(self, tmp_path):
        assert run(tmp_path, "simulate-monitoring", "--n", 2) == 2

    # the ring check's slack is relative, so a radius-1e8 ring is accepted; at 1e78 the Fisher terms'
    # d^4 overflows and the ring is rejected before any warning or output
    @pytest.mark.parametrize("radius, code", [("1e8", 0), ("1e78", 2)])
    def test_ring_radius(self, tmp_path, capsys, radius, code):
        out = tmp_path / "m.csv"
        args = ["simulate-monitoring", "--n", 7, "--snr", 10, "--trials", 3, "--radius", radius]
        assert run(tmp_path, *args, "--output", out) == code
        assert out.exists() == (code == 0)
        if code:
            assert "sensor 0 at distance 1e+78 is too far from the source" in capsys.readouterr().err

    # a radius-1e77 ring gives squared errors near 1e154, whose deviations overflow when std squares them:
    # the mean and standard error are taken over the maximum and scaled back, finite and with no warning
    def test_huge_ring_statistics_finite(self, tmp_path):
        out = tmp_path / "m.csv"
        args = ["simulate-monitoring", "--n", 6, "--snr", 0, "--trials", 20, "--radius", "1e77"]
        assert run(tmp_path, *args, "--output", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row[3:5])

    # readings, noiseless, predicted or noisy, whose squares overflow are refused with the cause named, before
    # any warning or output; a path loss of 1e150 and an SNR of -3000 dB keep them in range and run
    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["--snr", 10, "--path-loss", "1e160"], "path_loss=1e+160 is too large"),
            (["--snr", 10, "--path-loss", "1e200"], "path_loss=1e+200 is too large"),
            (["--snr=-3080"], "SNR values [-3080.0] dB are too low"),
            (["--snr", 10, "--path-loss", "1e150"], None),
            (["--snr=-3000"], None),
        ],
        ids=["path-loss-1e160", "path-loss-1e200", "snr-3080", "path-loss-1e150", "snr-3000"],
    )
    def test_readings_out_of_float_range_exit_2(self, tmp_path, capsys, argv, cause):
        out = tmp_path / "m.csv"
        code = run(tmp_path, "simulate-monitoring", "--n", 6, "--trials", 5, *argv, "--output", out)
        assert (code, out.exists()) == ((2, False) if cause else (0, True))
        if cause:
            assert f"error: {cause}: the log-RSS readings leave float range" in capsys.readouterr().err

    def test_subset_ceiling_exits_4(self, tmp_path, monkeypatch, capsys):
        # C(400, 3) worst-triple candidates are over the ceiling: refused before any noise table
        draws = []
        monkeypatch.setattr(sensedesign.simulate, "_trial_noise", lambda *args: draws.append(args))
        out = tmp_path / "m.csv"
        start = time.perf_counter()
        code = run(tmp_path, "simulate-monitoring", "--n", 400, "--trials", 1, "--snr", 10, "--output", out)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert draws == [] and not out.exists()
        assert "resource limit" in capsys.readouterr().err


def test_rank_deficient_worst_pair_exits_2_before_any_draw(tmp_path, monkeypatch, capsys):
    # design_optimal(4)'s worst pair (0, 2) is singular: refused with no table drawn
    draws = []
    monkeypatch.setattr(sensedesign.simulate, "_trial_noise", lambda *args: draws.append(args))
    out = tmp_path / "e.csv"
    assert run(tmp_path, "simulate-estimation", "--k", 2, "--output", out) == 2
    assert draws == [] and not out.exists()
    assert "subset (0, 2) is rank deficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, draws",
    [
        # 26 rows share the key (seed,), 50 trials and K = 3
        (["simulate-estimation", "--n-min", 3, "--n-max", 15, "--trials", 50], 1),
        # both designs share the keys (seed, point) of the three SNR points, 5 trials and n = 6
        (["simulate-monitoring", "--n", 6, "--snr", "0,10,20", "--trials", 5], 3),
    ],
)
def test_each_noise_table_drawn_once_per_command(tmp_path, monkeypatch, argv, draws):
    calls = []
    draw = sensedesign.simulate._trial_noise

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(sensedesign.simulate, "_trial_noise", counting)
    assert run(tmp_path, *argv, "--output", tmp_path / "out.csv") == 0
    assert len(calls) == draws, calls


@pytest.mark.parametrize("command", ["simulate-estimation", "simulate-monitoring"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert run(tmp_path, command, "--trials", 2, "--seed", -1, "--output", out) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


# the library's own checks are the only ones: the command exits 2 with their message and writes nothing
@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--n", 5, "--k", 9], "need 1 <= k <= 5, got k=9"),
        (["simulate-monitoring", "--n", 2], "optimal design needs n >= 3, got n=2"),
        # a tiny ring, and a source so far out that ring and source round to one point
        (
            ["simulate-monitoring", "--radius", "1e-13"],
            "sensor 0 at distance 1e-13 is within MIN_SENSOR_DISTANCE=1e-12 of the source",
        ),
        (
            ["simulate-monitoring", "--source=1e300,0"],
            "sensor 0 at distance 0 is within MIN_SENSOR_DISTANCE=1e-12 of the source",
        ),
    ],
)
def test_library_message_on_bad_size(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run(tmp_path, *argv, "--output", out) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


class TestWorstSubsetReexport:
    def test_consistency_with_cli_report(self):
        report = worst_subset(design_optimal(7))
        want = evaluation_report(design_optimal(7), 3, "x")
        assert list(report.worst_subset.indices) == want["worst_subset"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-monitoring", "--radius", "nan"],
        ["simulate-monitoring", "--source", "nan,0"],
        ["simulate-monitoring", "--snr", "nan"],
        ["simulate-monitoring", "--amplitude", "nan"],
        ["simulate-monitoring", "--path-loss", "nan"],
        ["simulate-monitoring", "--snr", "-4000"],
    ],
    ids=["radius-nan", "source-nan", "snr-nan", "amplitude-nan", "path-loss-nan", "snr-overflow"],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(tmp_path, *argv, "--n", 4, "--trials", 2, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not out.exists()


REPLAY_COMMANDS = [
    ["design", "--n", 5, "--scheme", "circle"],
    ["evaluate", "--n", 6, "--scheme", "semicircle", "--k", 4, "--format", "csv"],
    ["verify", "--n-min", 3, "--n-max", 4, "--grid-max-n", 3, "--grid-points", 30, "--format", "json"],
    ["simulate-estimation", "--n-min", 3, "--n-max", 4, "--trials", 20, "--seed", 4],
    ["simulate-monitoring", "--n", 5, "--snr", "10,20.5", "--trials", 2, "--seed", 3,
     "--radius", 1.5, "--source", "0.25,-0.5", "--format", "json"],
]


@pytest.mark.parametrize("argv", REPLAY_COMMANDS, ids=lambda argv: argv[0])
def test_manifest_replay(tmp_path, argv):
    """The manifest config names every parser option, and replaying it rewrites the file."""
    first = tmp_path / "first.out"
    assert run(tmp_path, *argv, "--output", first) == 0
    config = json.loads((tmp_path / "first.out.manifest.json").read_text())["config"]
    required = ["--n", "1"] if argv[0] == "design" else []
    options = set(vars(build_parser().parse_args([argv[0], *required]))) - {"subcommand"}
    assert "output" in options and options <= set(config)

    replay = tmp_path / "replay.out"
    replay_argv = [argv[0], "--output", replay]
    for key in sorted(options - {"output"}):
        value = config[key]
        if value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            replay_argv += ["--" + key.replace("_", "-"), text]
    assert run(tmp_path, *replay_argv) == 0
    assert replay.read_bytes() == first.read_bytes()
    replayed = json.loads((tmp_path / "replay.out.manifest.json").read_text())["config"]
    assert {**replayed, "output": config["output"]} == config


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    """``main`` builds its parser on the first call and every later call parses with the same one."""
    build_parser.cache_clear()
    add_subparsers = argparse.ArgumentParser.add_subparsers
    builds = []

    def counting(self, *args, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    assert run(tmp_path, "design", "--n", 5, "--output", tmp_path / "d.csv") == 0
    assert run(tmp_path, "evaluate", "--n", 6, "--output", tmp_path / "e.json") == 0
    verify = ["verify", "--n-min", 3, "--n-max", 3, "--grid-max-n", 3, "--grid-points", 12]
    assert run(tmp_path, *verify, "--output", tmp_path / "v.csv") == 0
    assert builds == ["sensedesign"]
    assert build_parser() is build_parser()


def test_command_looked_up_at_call_time(tmp_path, monkeypatch):
    """A ``cmd_*`` replaced after the parser was built is the one that runs."""
    assert run(tmp_path, "design", "--n", 4, "--output", tmp_path / "first.csv") == 0
    seen = []
    monkeypatch.setattr("sensedesign.cli.cmd_design", lambda args: seen.append(args.n) or 0)
    assert run(tmp_path, "design", "--n", 5, "--output", tmp_path / "d.csv") == 0
    assert seen == [5]
    assert not (tmp_path / "d.csv").exists()


OTHER_OPTIONS = [
    ["design", "--n", 6, "--format", "json"],
    ["evaluate", "--n", 7, "--k", 2],
    ["verify", "--n-min", 3, "--n-max", 3, "--grid-max-n", 3, "--grid-points", 12],
    ["simulate-estimation", "--n-min", 3, "--n-max", 3, "--trials", 10, "--format", "json"],
    ["simulate-monitoring", "--n", 7, "--snr", "0,10,40", "--trials", 5, "--seed", 11, "--radius", 2.5,
     "--amplitude", 3, "--path-loss", 3.5, "--source=1.5,-2"],
    ["simulate-monitoring", "--n", 5, "--snr", 5, "--trials", 2, "--source", "0.1,0", "--format", "csv"],
    # at its default --snr, just after a run with --snr 5
    ["simulate-monitoring", "--n", 4, "--trials", 1],
]


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    """Parses in one process leak nothing into later ones.

    Every ``REPLAY_COMMANDS`` setting runs again after the same command with
    other options, and the last ``OTHER_OPTIONS`` setting runs at the default
    ``--snr`` just after ``--snr 5``; each of those runs matches a fresh process's.
    """
    settings = [[str(a) for a in argv] for argv in REPLAY_COMMANDS + OTHER_OPTIONS]
    sequence = list(range(len(settings))) + list(range(len(REPLAY_COMMANDS)))
    for step, i in enumerate(sequence):
        assert main([*settings[i], "--output", str(tmp_path / f"in{step}.out")]) == 0
    checked = list(enumerate(sequence))[len(settings) - 1:]
    src_dir = os.path.dirname(os.path.dirname(sensedesign.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    for _, i in checked:
        output = ["--output", str(tmp_path / f"fresh{i}.out")]
        proc = subprocess.run(
            [sys.executable, "-m", "sensedesign.cli", *settings[i], *output],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (settings[i], proc.stderr)

    def config(path):
        return {k: v for k, v in json.loads(path.read_text())["config"].items() if k != "output"}

    for step, i in checked:
        ours, fresh = tmp_path / f"in{step}.out", tmp_path / f"fresh{i}.out"
        assert ours.read_bytes() == fresh.read_bytes(), settings[i]
        assert config(tmp_path / f"in{step}.out.manifest.json") == config(
            tmp_path / f"fresh{i}.out.manifest.json"
        ), settings[i]
    default_snr = config(tmp_path / f"in{len(settings) - 1}.out.manifest.json")["snr"]
    assert default_snr == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


def test_process_exit_codes(tmp_path):
    """``python -m sensedesign.cli`` maps outcomes to exit codes end to end."""
    bad = tmp_path / "bad.csv"
    bad.write_text("angle_rad\nbanana\n")
    src_dir = os.path.dirname(os.path.dirname(sensedesign.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir, "SENSEDESIGN_OUTPUT_DIR": str(tmp_path)}
    cases = [
        (0, ["design", "--n", "4"]),
        (2, ["verify", "--n-min", "5", "--n-max", "4"]),
        (3, ["evaluate", "--angles-file", str(bad)]),
        (4, ["verify", "--n-min", "6", "--n-max", "6", "--grid-max-n", "6"]),
    ]
    for code, argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "sensedesign.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, (argv, proc.stderr)
    assert (tmp_path / "design_n4_optimal_auto.csv").exists()


def test_no_command_loads_scipy(tmp_path):
    """scipy is a test-only dependency: importing the CLI and running every command never loads it."""
    script = """
import sys
from sensedesign.cli import main
commands = [
    ["design", "--n", "5"],
    ["evaluate", "--n", "8"],
    ["verify", "--n-min", "3", "--n-max", "5", "--grid-max-n", "4", "--grid-points", "24"],
    ["simulate-estimation", "--n-min", "3", "--n-max", "5", "--trials", "20"],
    ["simulate-monitoring", "--n", "6", "--snr", "10", "--trials", "5"],
]
codes = [main(argv) for argv in commands]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src_dir = os.path.dirname(os.path.dirname(sensedesign.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir, "SENSEDESIGN_OUTPUT_DIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
    assert len(list(tmp_path.glob("*.manifest.json"))) == 5


def test_commands_without_noise_load_no_random_or_openssl(tmp_path):
    """design, evaluate and verify load neither numpy.random nor OpenSSL; a noise draw loads numpy.random.

    Modules that ``import numpy`` loads by itself are exempt: a numpy that imports numpy.random eagerly
    (and numpy.random imports secrets) leaves nothing for the package to defer.
    """
    script = """
import sys, typing
import numpy
by_numpy = set(sys.modules)
from sensedesign.cli import main
import sensedesign.simulate
def loaded():
    return sorted(m for m in set(sys.modules) - by_numpy
                  if m.split(".")[:2] == ["numpy", "random"] or m in ("secrets", "hashlib", "_hashlib"))
commands = [
    ["design", "--n", "5"],
    ["evaluate", "--n", "8"],
    ["verify", "--n-min", "3", "--n-max", "5", "--grid-max-n", "4", "--grid-points", "24"],
]
quiet = [main(argv) for argv in commands], loaded()
drawn = main(["simulate-estimation", "--n-max", "3", "--trials", "5"]), "numpy.random" in sys.modules
hint = typing.get_type_hints(sensedesign.simulate.rss_sample)["rng"] == (numpy.random.Generator | None)
print(quiet, drawn, hint)
"""
    src_dir = os.path.dirname(os.path.dirname(sensedesign.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir, "SENSEDESIGN_OUTPUT_DIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "([0, 0, 0], []) (0, True) True"
