"""Command line contract: output shapes, exit codes, and reproducibility.

Exit convention: 0 on success, 1 when a computation or verification fails,
2 for bad usage (including out-of-domain evaluation points).
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import conevac
from conevac import Cone, ConvergenceError, DomainError, cli, stress_at, stress_t0
from conevac.cli import main
from conevac.oracles import SUITE_VERSION

PI = math.pi
DATA_DIR = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(text.splitlines()))


class TestEval:
    def test_kernel_at_zero_cutoff_with_separated_points(self, capsys):
        code, out, _ = run(capsys, "eval", "--geometry", "dowker",
                           "--r", "2", "--rprime", "1", "--t", "0",
                           "--kernel-only")
        assert code == 0
        payload = json.loads(out)
        assert payload["what"] == "kernel"
        assert payload["rprime"] == 1.0
        want = -1.0 / (3.0 * PI ** 2 * math.log(2.0))
        assert payload["tbar"] == pytest.approx(want, rel=1e-13)

    def test_flat_vacuum_is_zero_in_both_renorm_modes(self, capsys):
        for renorm in ("kernel", "component"):
            code, out, _ = run(capsys, "eval", "--geometry", "minkowski",
                               "--r", "1.5", "--t", "0.5", "--renorm", renorm)
            assert code == 0
            stress = json.loads(out)["stress"]
            assert all(abs(v) <= 1e-12 for v in stress.values())

    def test_raw_mode_reports_zero_point_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--geometry", "minkowski",
                           "--r", "1.0", "--t", "1.0", "--renorm", "raw")
        assert code == 0
        stress = json.loads(out)["stress"]
        assert stress["t00"] == pytest.approx(3.0 / (2.0 * PI ** 2), rel=1e-10)

    def test_extrapolated_stress_carries_error_estimate(self, capsys):
        code, out, _ = run(capsys, "eval", "--geometry", "cone",
                           "--theta1", "3.0", "--r", "1.0",
                           "--what", "stress-t0")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["error_estimate"]) == set(payload["stress"])
        assert all(e >= 0.0 for e in payload["error_estimate"].values())

    def test_wedge_component_mode_matches_kernel_mode(self, capsys):
        stresses = {}
        for renorm in ("kernel", "component"):
            code, out, _ = run(capsys, "eval", "--geometry", "wedge", "--theta0", str(PI / 2),
                               "--r", "1", "--theta", "0.5", "--t", "0.4", "--renorm", renorm)
            assert code == 0
            stresses[renorm] = json.loads(out)["stress"]
        for name, value in stresses["kernel"].items():
            assert stresses["component"][name] == pytest.approx(value, rel=1e-10)

    @staticmethod
    def _right_wedge_kernel(capsys, theta, thetaprime):
        code, out, _ = run(capsys, "eval", "--geometry", "wedge", "--theta0", str(PI / 2),
                           "--what", "kernel", "--t", "0.3", "--r", "1", "--rprime", "1.4",
                           "--theta", repr(theta), "--thetaprime", repr(thetaprime))
        assert code == 0
        return json.loads(out)["tbar"]

    def test_dirichlet_wedge_kernel_vanishes_on_the_walls(self, capsys):
        interior = abs(self._right_wedge_kernel(capsys, 0.5, 1.2))
        for wall in (0.0, PI / 2):
            assert abs(self._right_wedge_kernel(capsys, wall, 1.2)) <= 1e-12 * interior

    def test_right_wedge_kernel_is_four_cartesian_images(self, capsys):
        # the full kernel: direct source, two mirror images, one double mirror
        t, th, thp = 0.3, 0.5, 1.2
        x, y = math.cos(th), math.sin(th)
        xp, yp = 1.4 * math.cos(thp), 1.4 * math.sin(thp)

        def flat(xs, ys):
            return -1.0 / (2.0 * PI ** 2 * (t * t + (x - xs) ** 2 + (y - ys) ** 2))

        images = flat(xp, yp) - flat(xp, -yp) - flat(-xp, yp) + flat(-xp, -yp)
        assert self._right_wedge_kernel(capsys, th, thp) == pytest.approx(images, rel=1e-12)

    def test_cone_needs_its_angle(self, capsys):
        code, _, err = run(capsys, "eval", "--geometry", "cone",
                           "--r", "1", "--t", "0.5")
        assert code == 2
        assert err

    def test_wedge_needs_its_opening(self, capsys):
        code, out, err = run(capsys, "eval", "--geometry", "wedge", "--r", "1", "--theta", "0.3")
        assert (code, out, err) == (2, "", "error: --theta0 is required for --geometry wedge\n")

    @pytest.mark.parametrize("flags", [("--beta", "0", "--xi", "0.3"),
                                       ("--xi", "0.3", "--coupling", "conformal")])
    def test_one_coupling_flag_at_most(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--geometry", "cone", "--theta1", "3",
                             "--r", "1", *flags)
        assert (code, out, err) == (2, "", "error: give at most one of --beta, --xi, --coupling\n")

    def test_flat_kernel(self, capsys):
        code, out, _ = run(capsys, "eval", "--geometry", "minkowski", "--r", "1.2",
                           "--rprime", "0.7", "--theta", "0.4", "--t", "0.5", "--what", "kernel")
        assert code == 0
        pair = conevac.PointPair(t=0.5, r=1.2, rp=0.7, theta=0.4, thetap=0.4)
        assert json.loads(out)["tbar"] == conevac.tbar_minkowski(pair)
        assert json.loads(out)["tbar"] == pytest.approx(-1.0 / (2.0 * PI**2 * (0.25 + 0.25)))

    def test_primed_coordinates_are_kernel_only(self, capsys):
        code, _, _ = run(capsys, "eval", "--geometry", "minkowski",
                         "--r", "1", "--rprime", "2", "--t", "0.5")
        assert code == 2

    @pytest.mark.parametrize("what, flag, err", [
        ("kernel", ("--renorm", "raw"), "--renorm applies to --what stress only, not kernel"),
        ("stress-t0", ("--renorm", "raw"),
         "--renorm applies to --what stress only, not stress-t0"),
        ("stress-t0", ("--t", "0.3"),
         "--t does not apply to --what stress-t0, the t -> 0 limit"),
    ])
    def test_flag_its_what_does_not_read_is_a_usage_error(self, capsys, what, flag, err):
        code, out, stderr = run(capsys, "eval", "--geometry", "cone", "--theta1", "3",
                                "--r", "1", "--what", what, *flag)
        assert code == 2
        assert out == ""
        assert stderr == f"error: {err}\n"

    @pytest.mark.parametrize("what", ["stress", "stress-t0"])
    def test_kernel_only_with_another_what_is_a_usage_error(self, capsys, what):
        code, out, stderr = run(capsys, "eval", "--geometry", "cone", "--theta1", "3",
                                "--r", "1", "--what", what, "--kernel-only")
        assert code == 2
        assert out == ""
        assert stderr == f"error: --kernel-only means --what kernel, not --what {what}\n"

    def test_kernel_only_is_what_kernel(self, capsys):
        outs = [run(capsys, "eval", "--geometry", "cone", "--theta1", "3", "--r", "1.2",
                    "--theta", "0.4", *flags)
                for flags in (("--kernel-only",), ("--kernel-only", "--what", "kernel"),
                              ("--what", "kernel"))]
        assert outs[0] == outs[1] == outs[2]
        code, out, err = outs[0]
        assert code == 0 and err == "" and json.loads(out)["what"] == "kernel"

    @pytest.mark.parametrize("what, defaults", [
        ("kernel", ("--t", "1")), ("stress", ("--t", "1", "--renorm", "kernel"))])
    def test_omitted_flags_read_as_their_defaults(self, capsys, what, defaults):
        outs = [run(capsys, "eval", "--geometry", "cone", "--theta1", "3", "--r", "1.2",
                    "--theta", "0.4", "--what", what, *flags)[1]
                for flags in ((), defaults)]
        assert outs[0] == outs[1] != ""

    def test_wall_point_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--geometry", "wedge",
                         "--theta0", str(PI / 2), "--r", "1",
                         "--theta", "0", "--t", "0.5")
        assert code == 2

    @pytest.mark.parametrize("what", ["stress", "stress-t0"])
    def test_bad_radius_is_a_usage_error(self, capsys, what):
        code, out, err = run(capsys, "eval", "--geometry", "cone", "--theta1", "2",
                             "--r", "-1", "--what", what)
        assert code == 2
        assert out == ""
        assert err == "error: radii must be positive, got r=-1.0, rp=-1.0\n"

    def test_nonconvergent_extrapolation_is_a_runtime_failure(self, capsys):
        code, _, _ = run(capsys, "eval", "--geometry", "wedge",
                         "--theta0", str(PI / 2), "--coupling", "conformal",
                         "--r", "8", "--theta", str(0.005 * PI),
                         "--what", "stress-t0")
        assert code == 1

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_rejects_nonfinite_beta(self, capsys, beta):
        code, out, err = run(capsys, "eval", "--geometry", "cone",
                             "--theta1", "3", "--r", "1", "--beta", beta)
        assert code == 2
        assert out == ""
        assert "beta must be finite" in err

    def test_huge_radius_is_an_out_of_range_error(self, capsys):
        # the t -> 0 ladder's t**4 overflows: a DomainError like its
        # underflowing twin at tiny radii, not a traceback
        code, out, err = run(capsys, "eval", "--geometry", "dowker", "--r", "1e100",
                             "--what", "stress-t0")
        assert code == 2
        assert out == ""
        assert err == ("error: the t -> 0 ladder from t=2.5e+99 leaves the range "
                       "of double precision (t**4 overflows)\n")

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--geometry", "minkowski", "--r", "1",
                  "--t", "0.5", "--bogus"])
        assert exc.value.code == 2


class TestScan:
    CONE = ("scan", "--geometry", "cone", "--theta1", "3.0",
            "--sweep", "r", "--lo", "1", "--hi", "2", "--points", "3",
            "--t", "0.5")

    def test_stdout_csv_shape(self, capsys):
        code, out, _ = run(capsys, *self.CONE)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("r,t00_t0.5,")
        assert lines[0].endswith(",t_zz_t0")
        rows = rows_of(out)
        assert [float(row["r"]) for row in rows] == [1.0, 1.5, 2.0]
        assert all(math.isfinite(float(v)) for row in rows
                   for v in row.values())

    def test_full_angle_cone_scans_to_zero(self, capsys):
        code, out, _ = run(capsys, "scan", "--geometry", "cone",
                           "--theta1", str(2.0 * PI), "--sweep", "r",
                           "--lo", "1", "--hi", "2", "--points", "2",
                           "--t", "0.5")
        assert code == 0
        for row in rows_of(out):
            for name, value in row.items():
                if name != "r":
                    assert abs(float(value)) < 1e-12

    def test_component_selection_limits_columns(self, capsys):
        code, out, _ = run(capsys, *self.CONE, "--components", "t00")
        assert code == 0
        assert out.splitlines()[0] == "r,t00_t0.5,t00_t0"

    def test_rejects_single_point_grid(self, capsys):
        code, _, _ = run(capsys, "scan", "--geometry", "cone", "--theta1", "3",
                         "--sweep", "r", "--lo", "1", "--hi", "2",
                         "--points", "1")
        assert code == 2

    @pytest.mark.parametrize("components, shown", [("t01", "'t01'"), ("t00,,t_rr", "''")])
    def test_rejects_unknown_component(self, capsys, components, shown):
        code, _, err = run(capsys, *self.CONE, "--components", components)
        assert code == 2
        assert err.startswith(f"error: unknown components: {shown};")

    def test_rejects_log_grid_through_zero(self, capsys):
        code, _, _ = run(capsys, "scan", "--geometry", "cone", "--theta1", "3",
                         "--sweep", "r", "--lo", "-1", "--hi", "2",
                         "--points", "2", "--log")
        assert code == 2

    @pytest.mark.parametrize("endpoints, named", [
        (("--lo", "1", "--hi", "-1", "--log"), "--hi -1.0"),
        (("--lo", "1", "--hi", "0", "--log"), "--hi 0.0"),
        (("--lo", "1", "--hi", "inf"), "--hi must be finite, got inf"),
        (("--lo", "nan", "--hi", "2"), "--lo must be finite, got nan"),
        (("--lo=-inf", "--hi", "2", "--log"), "--lo must be finite, got -inf"),
        (("--lo=-1e308", "--hi", "1e308"), "--lo -1e+308 to --hi 1e+308"),
    ], ids=["log-negative-hi", "log-zero-hi", "infinite-hi", "nan-lo", "log-infinite-lo",
            "overflowing-span"])
    def test_rejects_bad_grid_endpoints(self, capsys, endpoints, named):
        # as under `python -W error`: a numpy warning on the way would raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "scan", "--geometry", "cone", "--theta1", "2",
                               "--sweep", "r", "--points", "3", *endpoints)
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_linear_grid_through_the_axis_is_a_usage_error(self, capsys, tmp_path, workers):
        # the grid is valid, its point at r = -1 is not: nothing is written
        out_csv = tmp_path / "scan.csv"
        for out in ((), ("--out", str(out_csv))):
            code, stdout, err = run(capsys, "scan", "--geometry", "cone", "--theta1", "2",
                                    "--sweep", "r", "--lo", "-1", "--hi", "1", "--points", "3",
                                    "--workers", workers, *out)
            assert (code, stdout) == (2, "")
            assert err == "error: radii must be positive, got r=-1.0, rp=-1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [("--beta", "1e17"), ("--xi", "0.3"),
                                      ("--coupling", "conformal")])
    def test_correction_takes_no_coupling(self, capsys, flag):
        # the correction is per unit beta at every coupling; a huge beta once
        # merged beta and beta + 1 and printed the stress itself
        code, out, err = run(capsys, "scan", "--geometry", "cone", "--theta1", "2",
                             "--sweep", "r", "--lo", "1", "--hi", "2", "--points", "2",
                             *flag, "--correction", "--components", "t00")
        assert (code, out) == (2, "")
        assert err == "error: --correction reads no coupling; drop --beta, --xi and --coupling\n"

    def test_angle_sweep_needs_a_radius(self, capsys):
        code, _, _ = run(capsys, "scan", "--geometry", "cone", "--theta1", "3",
                         "--sweep", "theta", "--lo", "0", "--hi", "1",
                         "--points", "2")
        assert code == 2

    def test_nonconvergent_points_leave_cells_empty(self, capsys):
        # conformal coupling this close to the wall is below the ladder's
        # noise floor: finite-cutoff columns stay populated, extrapolated
        # cells go empty, and the scan still succeeds
        code, out, err = run(capsys, "scan", "--geometry", "wedge",
                             "--theta0", str(PI / 2), "--coupling",
                             "conformal", "--sweep", "theta",
                             "--lo", str(0.001 * PI), "--hi", str(0.01 * PI),
                             "--points", "2", "--r", "8", "--t", "0.5")
        assert code == 0
        assert "warning:" in err
        rows = rows_of(out)
        assert any(row["t00_t0"] == "" for row in rows)
        assert all(row["t00_t0.5"] != "" for row in rows)

    def test_correction_column_is_unit_coupling_difference(self, capsys):
        base = ("scan", "--geometry", "cone", "--theta1", "3.0",
                "--sweep", "r", "--lo", "1", "--hi", "2", "--points", "2",
                "--t", "0.5", "--components", "t00")
        _, corr_out, _ = run(capsys, *base, "--correction")
        _, b0_out, _ = run(capsys, *base, "--beta", "0")
        _, b1_out, _ = run(capsys, *base, "--beta", "1")
        for corr, b0, b1 in zip(rows_of(corr_out), rows_of(b0_out),
                                rows_of(b1_out)):
            for col in ("t00_t0.5", "t00_t0"):
                want = float(b1[col]) - float(b0[col])
                assert float(corr[col]) == pytest.approx(want, rel=1e-9,
                                                         abs=1e-14)

    def test_output_files_and_sidecar(self, capsys, tmp_path):
        out_csv = tmp_path / "cone.csv"
        code, _, _ = run(capsys, *self.CONE, "--out", str(out_csv))
        assert code == 0
        assert out_csv.exists()
        sidecar = json.loads((tmp_path / "cone.json").read_text())
        assert sidecar["file"] == "cone.csv"
        assert sidecar["sweep"]["coordinate"] == "r"
        assert sidecar["series"][0]["geometry"] == {"kind": "cone",
                                                    "theta1": 3.0}
        assert sidecar["cutoffs"] == {"finite_t": 0.5, "extrapolated": True}
        assert sidecar["build"]["oracle_suite_version"] == SUITE_VERSION
        assert "created_utc" in sidecar

    def test_rejects_nonfinite_beta(self, capsys):
        code, out, err = run(capsys, *self.CONE, "--beta", "inf")
        assert code == 2
        assert out == ""
        assert "beta must be finite" in err

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf", "half"])
    def test_rejects_cutoffs_that_are_not_positive(self, capsys, t):
        # a zero cutoff would empty the finite-cutoff group and name its
        # columns like the extrapolated t0 group
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--geometry", "cone", "--theta1", "3",
                  "--sweep", "r", "--lo", "1", "--hi", "2", "--t", t])
        assert exc.value.code == 2
        assert "--t" in capsys.readouterr().err

    def test_scan_bytes_do_not_depend_on_workers(self, capsys, tmp_path):
        blobs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            out_csv = tmp_path / f"{tag}.csv"
            code, _, _ = run(capsys, *self.CONE, "--out", str(out_csv),
                             "--workers", workers)
            assert code == 0
            blobs.append(out_csv.read_bytes())
        assert blobs[0] == blobs[1]

    TINY_RADII = {
        # r * r underflows in the assembly
        "dowker": ("--geometry", "dowker", "--sweep", "r", "--lo", "1e-300"),
        # and, at the second point, a derivative factor overflows
        "wedge": ("--geometry", "wedge", "--theta0", "1", "--theta", "0.5",
                  "--sweep", "r", "--lo", "1e-200"),
        "cone": ("--geometry", "cone", "--theta1", "2", "--sweep", "r",
                 "--lo", "1e-170"),
    }

    @pytest.mark.parametrize("name", list(TINY_RADII))
    def test_tiny_radii_leave_empty_cells(self, capsys, name):
        argv = (*self.TINY_RADII[name], "--hi", "1", "--log", "--points", "4")
        outputs = set()
        for workers in ("1", "2"):
            code, out, err = run(capsys, "scan", *argv, "--workers", workers)
            assert code == 0
            outputs.add((out, err))
        assert len(outputs) == 1
        rows = rows_of(out)
        assert [row[key] for row in rows[:2] for key in row if key != "r"] == [""] * 16
        assert "nan" not in [cell.lower() for row in rows for cell in row.values()]
        assert all(rows[-1].values())
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert sum("leaves the range of double precision" in line for line in lines) >= 4


    def test_huge_radius_leaves_empty_limit_cells(self, capsys):
        code, out, err = run(capsys, "scan", "--geometry", "dowker", "--sweep", "r",
                             "--lo", "1", "--hi", "1e100", "--log", "--points", "3")
        assert code == 0
        rows = rows_of(out)
        assert [row["r"] for row in rows] == ["1.0", "1e+50", "1e+100"]
        # the t = 1 cells too: (t / 2r^2)^2 underflows there, and t00 once
        # read -1/(2 pi^2) where the exact value is below 1e-300
        assert [value for key, value in rows[-1].items() if key != "r"] == [""] * 8
        assert all(rows[0].values()) and all(rows[1].values())
        assert err == ("warning: r=1e+100 (t=1): the stress at r=1e+100 leaves the range "
                       "of double precision (t / (2 r**2) squared underflows)\n"
                       "warning: r=1e+100 (t0): the t -> 0 ladder from t=2.5e+99 "
                       "leaves the range of double precision (t**4 overflows)\n")


class TestGeometryFlags:
    """A geometry flag of another geometry, or the flag of the swept coordinate, is a
    usage error, raised before any output."""

    SCAN = ("scan", "--lo", "1", "--hi", "2", "--r", "1", "--points", "2")
    EVAL = ("eval", "--r", "1")
    CASES = {
        "wedge-theta1-sweep": (SCAN + ("--geometry", "wedge", "--theta0", "1",
                                       "--sweep", "theta1"),
                               "a theta1 sweep needs --geometry cone"),
        "minkowski-theta1-sweep": (SCAN + ("--geometry", "minkowski", "--sweep", "theta1"),
                                   "a theta1 sweep needs --geometry cone"),
        "eval-minkowski-theta1": (EVAL + ("--geometry", "minkowski", "--theta1", "3"),
                                  "--theta1 applies to --geometry cone only"),
        "scan-dowker-theta1": (SCAN + ("--geometry", "dowker", "--sweep", "r", "--theta1", "3"),
                               "--theta1 applies to --geometry cone only"),
        "eval-cone-theta0": (EVAL + ("--geometry", "cone", "--theta1", "2", "--theta0", "1"),
                             "--theta0 applies to --geometry wedge only"),
        "cone-theta1-sweep-theta0": (SCAN + ("--geometry", "cone", "--sweep", "theta1",
                                             "--theta0", "1"),
                                     "--theta0 applies to --geometry wedge only"),
        "eval-cone-bc": (EVAL + ("--geometry", "cone", "--theta1", "2", "--bc", "neumann"),
                         "--bc applies to --geometry wedge only"),
        "scan-minkowski-bc": (SCAN + ("--geometry", "minkowski", "--sweep", "r",
                                      "--bc", "dirichlet"),
                              "--bc applies to --geometry wedge only"),
        # the grid sets the swept coordinate: its flag was once ignored
        "r-sweep-r": (SCAN + ("--geometry", "cone", "--theta1", "3", "--sweep", "r"),
                      "--r does not apply to --sweep r, which varies it"),
        "theta-sweep-theta": (SCAN + ("--geometry", "cone", "--theta1", "3", "--sweep",
                                      "theta", "--theta", "0.9"),
                              "--theta does not apply to --sweep theta, which varies it"),
        "theta1-sweep-theta1": (SCAN + ("--geometry", "cone", "--sweep", "theta1",
                                        "--theta1", "3"),
                                "--theta1 does not apply to --sweep theta1, which varies it"),
    }

    @pytest.mark.parametrize("argv, message", CASES.values(), ids=CASES.keys())
    def test_exits_two_and_writes_nothing(self, capsys, tmp_path, argv, message):
        if argv[0] == "scan":
            argv += ("--out", str(tmp_path / "scan.csv"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_wedge_reads_no_bc_as_dirichlet(self, capsys):
        argv = ("eval", "--geometry", "wedge", "--theta0", "1.5", "--r", "1", "--theta", "0.5")
        outs = [run(capsys, *argv, *bc)[:2] for bc in ((), ("--bc", "dirichlet"))]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert json.loads(outs[0][1])["geometry"]["bc"] == "dirichlet"


class TestParserCache:
    ARGVS = [
        ["eval", "--geometry", "cone", "--theta1", "3.0", "--r", "1.0",
         "--what", "stress-t0"],
        ["scan", "--geometry", "dowker", "--sweep", "r", "--lo", "1", "--hi", "2",
         "--points", "2"],
        ["eval", "--geometry", "minkowski", "--r", "2.0", "--t", "0.5"],
        ["verify", "--only", "flat_zero", "--json"],
        ["figure", "--list"],
    ]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_parses_match_a_fresh_parser(self):
        parser = cli._build_parser()
        for argv in self.ARGVS + self.ARGVS[::-1]:
            fresh = cli._build_parser.__wrapped__()
            assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv))

    def test_repeated_main_calls_give_the_same_output(self, capsys):
        def untimed(result):
            # verify --json times each oracle; everything else must repeat
            code, out, err = result
            return code, re.sub(r'"wall_s": [0-9.e-]+', '"wall_s"', out), err

        first = [untimed(run(capsys, *argv)) for argv in self.ARGVS]
        again = [untimed(run(capsys, *argv)) for argv in self.ARGVS[::-1]][::-1]
        assert all(code == 0 for code, _, _ in first)
        assert first == again


class TestFigure:
    def test_list_names_every_figure(self, capsys):
        code, out, _ = run(capsys, "figure", "--list")
        assert code == 0
        for fid in ("fig1", "fig2mis", "fig3b", "coneang2", "fig5b", "fig7b"):
            assert f"{fid}:" in out

    def test_requires_an_id(self, capsys):
        code, _, _ = run(capsys, "figure")
        assert code == 2

    def test_rejects_unknown_id(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "nope", "--outdir", str(tmp_path))
        assert code == 2

    def test_emits_csv_and_sidecar(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure", "fig1", "fig5", "coneang1", "--points", "5",
                           "--outdir", str(tmp_path))
        assert code == 0
        assert "wrote" in out
        rows = rows_of((tmp_path / "fig1.csv").read_text())
        assert len(rows) == 5
        sidecar = json.loads((tmp_path / "fig1.json").read_text())
        assert sidecar["figure"] == "fig1"
        assert sidecar["sweep"]["points"] == 5
        geometries = {
            name: json.loads((tmp_path / name).read_text())["series"][0]["geometry"]
            for name in ("fig1.json", "fig5_xi14.json", "coneang1.json")
        }
        assert geometries == {
            "fig1.json": {"kind": "dowker"},
            "fig5_xi14.json": {"kind": "wedge", "theta0": PI / 2, "bc": "dirichlet"},
            "coneang1.json": {"kind": "cone", "theta1": "swept"},
        }

    def test_reruns_are_byte_identical_except_timestamp(self, capsys,
                                                        tmp_path):
        dirs = []
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            outdir = tmp_path / tag
            code, _, _ = run(capsys, "figure", "fig1", "--points", "5",
                             "--outdir", str(outdir), "--workers", workers)
            assert code == 0
            dirs.append(outdir)
        blobs = [(d / "fig1.csv").read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2]
        sidecars = [json.loads((d / "fig1.json").read_text()) for d in dirs]
        for sc in sidecars:
            sc.pop("created_utc")
        assert sidecars[0] == sidecars[1] == sidecars[2]

    def test_handles_several_ids_in_one_call(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "fig1", "fig1b", "--points", "4",
                         "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1b.csv").exists()

    def test_all_figures_match_the_frozen_digest(self, tmp_path):
        maker = _digest_maker()
        frozen = json.loads((DATA_DIR / "figure_digest.json").read_text())
        assert frozen["figure_ids"] == list(cli._FIGURES)
        code, warnings = maker.run(tmp_path, maker.POINTS)
        assert code == 0
        assert maker.figure_digest(tmp_path) == frozen["sha256"], (
            "figure CSV bytes changed at --points 4; regenerate "
            "tests/data/figure_digest.json only in a change that means to "
            "change the numbers, and say so in that change")
        grid = frozen["grids"][str(maker.POINTS)]
        assert len(warnings) == grid["warning_lines"]
        assert maker.warning_digest(warnings) == grid["warnings_sha256"]

    def test_benchmark_grid_matches_the_frozen_digests(self, tmp_path):
        # the 20-point grid is the one the benchmark writes
        maker = _digest_maker()
        grid = json.loads((DATA_DIR / "figure_digest.json").read_text())["grids"]["20"]
        code, warnings = maker.run(tmp_path, 20)
        assert code == 0
        assert maker.figure_digest(tmp_path) == grid["sha256"]
        assert len(warnings) == grid["warning_lines"]
        assert maker.warning_digest(warnings) == grid["warnings_sha256"]

    def test_digest_check_compares_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        maker = _digest_maker()
        frozen = json.loads((DATA_DIR / "figure_digest.json").read_text())
        frozen["grids"] = {"4": frozen["grids"]["4"]}
        path = tmp_path / "figure_digest.json"
        monkeypatch.setattr(maker, "OUT", path)
        path.write_text(json.dumps(frozen))
        assert maker.check() == 0
        frozen["grids"]["4"]["warning_lines"] += 1
        path.write_text(json.dumps(frozen))
        assert maker.check() == 1
        assert json.loads(path.read_text()) == frozen
        assert "4 points: MISMATCH" in capsys.readouterr().out

    def test_sidecars_share_one_git_describe(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

        cli._git_describe.cache_clear()
        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        try:
            assert main(["figure", "fig2mis", "fig1", "--points", "2",
                         "--outdir", str(tmp_path)]) == 0
        finally:
            cli._git_describe.cache_clear()
        assert len(calls) == 1
        for name in ("fig1", "fig2mis_tp25", "fig2mis_tp5", "fig2mis_t1"):
            sidecar = json.loads((tmp_path / f"{name}.json").read_text())
            assert sidecar["build"]["git"] == "abc1234"


def _digest_maker():
    spec = importlib.util.spec_from_file_location(
        "make_figure_digest", DATA_DIR / "make_figure_digest.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    return maker


def _per_point_components(series, sweep, x, cutoff_t):
    """One curve at one grid point through `stress_at` / `stress_t0` alone."""
    geometry, r, theta = series.geometry, series.fixed_r, series.fixed_theta
    if sweep == "r":
        r = x
    elif sweep == "theta":
        theta = x
    else:
        geometry = Cone(x)

    def compute(beta):
        if cutoff_t is None:
            return stress_t0(geometry, r, theta, series.fixed_z, beta=beta).stress
        return stress_at(geometry, r, theta, series.fixed_z, beta=beta, t=cutoff_t)

    if series.correction:
        base = compute(series.beta).components()
        bumped = compute(series.beta + 1.0).components()
        return {k: bumped[k] - base[k] for k in base}
    return compute(series.beta).components()


def per_point_rows(spec):
    """Rows and notes of a file spec computed one point and one cutoff at a time.

    The reference for the batched grid: every cell is its own
    `stress_at` or `stress_t0` call, and the notes come in row order.
    """
    rows, notes = [], []
    for x in cli._grid(spec.lo, spec.hi, spec.points, spec.log):
        cells = [x]
        for cutoff in (spec.cutoff_t, None):
            for series in spec.series:
                try:
                    comps = _per_point_components(series, spec.sweep, x, cutoff)
                    cells.extend(comps[name] for name in spec.components)
                except (DomainError, ConvergenceError) as exc:
                    cells.extend([None] * len(spec.components))
                    tag = "t0" if cutoff is None else f"t={cutoff:g}"
                    label = f" [{series.label}]" if series.label else ""
                    notes.append(f"{spec.sweep}={x:g}{label} ({tag}): {exc}")
        rows.append(cells)
    return rows, notes


def _hex_rows(rows):
    return [[None if v is None else float(v).hex() for v in row] for row in rows]


def _figure_specs(points):
    """Every figure id's file specs at ``points`` grid points."""
    return {fid: [replace(spec, points=points) for spec in specs]
            for fid, specs in cli._FIGURES.items()}


def _plan(specs):
    """The kernel kind of each distinct point of a call, in the order the files draw them.

    A point is its geometry and the bits of its r, theta, z and cutoff;
    a kind is a geometry's type, and a wedge's wall condition.
    """
    kinds = {}
    for spec in specs:
        xs = cli._grid(spec.lo, spec.hi, spec.points, spec.log)
        for series in spec.series:
            for x in xs:
                if spec.sweep == "theta1":
                    point = (Cone(x), series.fixed_r, series.fixed_theta)
                elif spec.sweep == "r":
                    point = (series.geometry, x, series.fixed_theta)
                else:
                    point = (series.geometry, series.fixed_r, x)
                key = (point[0], *(float(v).hex() for v in
                                   (*point[1:], series.fixed_z, spec.cutoff_t)))
                kinds.setdefault(key, (type(point[0]), getattr(point[0], "bc", None)))
    return list(kinds.values())


def _pass_count(specs):
    """The number of kernel passes of a call, by the planning rule.

    The distinct points go to `_stress_cells` in consecutive calls of
    `cli._PASS_POINTS`, which make one pass per kernel kind each.
    """
    kinds, n = _plan(specs), cli._PASS_POINTS
    return sum(len(set(kinds[k:k + n])) for k in range(0, len(kinds), n))


def _counting_kernel_passes(monkeypatch):
    """Count `stress.kernel_expr` calls, one per kernel pass, into the list returned."""
    calls = []
    real = conevac.stress.kernel_expr

    def counted(geometries):
        calls.append(len(geometries))
        return real(geometries)

    monkeypatch.setattr(conevac.stress, "kernel_expr", counted)
    return calls


class TestBatchedGrid:
    """Passes shared across curves, angles and files give the bytes of the per-point path."""

    @pytest.fixture(scope="class")
    def reference(self):
        specs = _figure_specs(5)
        return specs, {spec.filename: per_point_rows(spec)
                       for file_specs in specs.values() for spec in file_specs}

    def test_every_figure_file_equals_the_per_point_reference(self, reference):
        specs, want = reference
        seen = set()
        for figure_id, file_specs in specs.items():
            for spec, (rows, notes) in zip(file_specs, cli._compute(file_specs, 1)):
                want_rows, want_notes = want[spec.filename]
                assert _hex_rows(rows) == _hex_rows(want_rows), spec.filename
                assert notes == want_notes, spec.filename
                seen.update({"notes"} if notes else set())
                seen.update({"correction"} if any(s.correction for s in spec.series)
                            else set())
                seen.add(spec.sweep)
        assert seen == {"notes", "correction", "r", "theta", "theta1"}

    def test_one_call_for_every_figure_equals_the_per_point_reference(self, reference):
        # curves of different ids share passes here (fig1 with fig1b, the
        # cones of fig2* with fig3*, the two theta1 sweeps at 2 pi)
        specs, want = reference
        every = [spec for file_specs in specs.values() for spec in file_specs]
        assert _pass_count(every) < sum(_pass_count(file_specs)
                                        for file_specs in specs.values())
        for spec, (rows, notes) in zip(every, cli._compute(every, 1)):
            want_rows, want_notes = want[spec.filename]
            assert _hex_rows(rows) == _hex_rows(want_rows), spec.filename
            assert notes == want_notes, spec.filename

    SCANS = {
        "r": ("--geometry", "cone", "--theta1", "3.0", "--sweep", "r",
              "--lo", "0.5", "--hi", "4", "--log"),
        "r_correction": ("--geometry", "dowker", "--sweep", "r", "--lo", "0.5",
                         "--hi", "4", "--correction"),
        # z is a batch column of the pass, as r and theta are
        "wedge_r_z": ("--geometry", "wedge", "--theta0", str(PI / 2), "--sweep", "r",
                      "--lo", "0.5", "--hi", "4", "--log", "--theta", "0.4", "--z", "0.7"),
        # the grid touches both walls, and its neighbours graze them
        "theta_walls": ("--geometry", "wedge", "--theta0", str(PI / 2), "--sweep",
                        "theta", "--lo", "0", "--hi", str(PI / 2), "--r", "8"),
        # a correction reads no coupling: its couplings are beta = 0 and 1
        "theta_walls_conformal_correction": (
            "--geometry", "wedge", "--theta0", str(PI / 3), "--sweep", "theta",
            "--lo", "0", "--hi", str(PI / 3), "--r", "8", "--correction"),
        "theta1": ("--geometry", "cone", "--sweep", "theta1", "--lo", str(PI / 8),
                   "--hi", str(4 * PI), "--r", "1", "--xi", "0.3"),
        "theta1_correction": ("--geometry", "cone", "--sweep", "theta1",
                              "--lo", "1", "--hi", "20", "--log", "--r", "2",
                              "--correction"),
        # t * t underflows: the batched pass fails and runs point by point
        "underflowing_cutoff": ("--geometry", "cone", "--theta1", "2", "--sweep",
                                "r", "--lo", "1", "--hi", "3", "--t", "1e-200"),
    }

    @staticmethod
    def reference_output(argv):
        args = cli._build_parser().parse_args(["scan", *argv])
        geometry = None if args.sweep == "theta1" else cli._geometry_from_args(args)
        spec = cli._FileSpec(
            "scan.csv", args.sweep, args.lo, args.hi, args.log,
            series=(cli._Series("", geometry, cli._beta_from_args(args),
                                correction=args.correction, fixed_r=args.r,
                                fixed_theta=0.0 if args.theta is None else args.theta,
                                fixed_z=args.z),),
            components=tuple(args.components.split(",")), points=args.points,
            cutoff_t=args.t,
        )
        rows, notes = per_point_rows(spec)
        out = io.StringIO()
        cli._write_csv(out, cli._columns(spec), rows)
        return out.getvalue(), "".join(f"warning: {note}\n" for note in notes)

    @pytest.mark.parametrize("name", list(SCANS))
    def test_scan_equals_the_per_point_reference(self, capsys, name):
        argv = (*self.SCANS[name], "--points", "7")
        want_out, want_err = self.reference_output(argv)
        for workers in ("1", "3"):
            code, out, err = run(capsys, "scan", *argv, "--workers", workers)
            assert code == 0
            assert out == want_out
            assert err == want_err
        if name.startswith("theta_walls") or name == "underflowing_cutoff":
            assert want_err

    def test_one_kernel_pass_per_curve(self, tmp_path, monkeypatch):
        # counted as `stress.kernel_expr` calls, each a pass over the points
        # of one kernel kind in one `_stress_cells` call of up to
        # `cli._PASS_POINTS` points (see TestStressGrid)
        calls = _counting_kernel_passes(monkeypatch)
        specs = _figure_specs(20)
        # one id per call, as the benchmark runs them, then every id at once
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for figure_id in specs:
                assert main(["figure", figure_id, "--points", "20",
                             "--outdir", str(tmp_path)]) == 0
            per_id = len(calls)
            assert main(["figure", *specs, "--points", "20",
                         "--outdir", str(tmp_path)]) == 0
        # two passes for the ids of more than 64 distinct points
        twice = {"fig2b", "fig3", "fig3b", "fig5", "fig5b"}
        assert {fid: _pass_count(s) for fid, s in specs.items()} == {
            fid: 2 if fid in twice else 1 for fid in specs}
        assert per_id == sum(_pass_count(s) for s in specs.values()) == 21
        every = [spec for file_specs in specs.values() for spec in file_specs]
        assert len(calls) - per_id == _pass_count(every) <= 15

    @pytest.mark.parametrize("argv, passes", [
        (("fig4",), 1), (("fig5",), 1), (("fig6",), 1), (("fig7",), 1),
        (("coneang1", "--points", "4"), 1),
        # each worker takes the same slice of both files, which share 1 pass
        (("fig5", "--workers", "2", "--points", "7"), 2),
    ], ids=["fig4", "fig5", "fig6", "fig7", "coneang1", "fig5-workers"])
    def test_passes_per_figure_id(self, tmp_path, monkeypatch, argv, passes):
        calls = _counting_kernel_passes(monkeypatch)

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        if "--points" not in argv:
            argv = (*argv, "--points", "6")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["figure", *argv, "--outdir", str(tmp_path)]) == 0
        assert len(calls) == passes

    def test_no_pass_exceeds_the_cap(self, monkeypatch):
        # every figure id at 200 points, planned through a stand-in for the planner
        sizes = []

        def planned(entries):
            sizes.append(len(entries))
            skipped = DomainError("not computed")
            return [[skipped] * len(betas) for *_, betas in entries]

        monkeypatch.setattr(cli, "_stress_cells", planned)
        specs = [spec for file_specs in _figure_specs(200).values() for spec in file_specs]
        for _ in cli._compute(specs, 1):
            pass
        # a finite cutoff and a t -> 0 entry per point
        assert len(sizes) == -(-len(_plan(specs)) // cli._PASS_POINTS)
        assert max(sizes) == 2 * cli._PASS_POINTS


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    @pytest.mark.parametrize("command", [TestScan.CONE, ("figure", "fig1")],
                             ids=["scan", "figure"])
    def test_rejects_counts_below_one(self, capsys, tmp_path, command, workers):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("figure_id", ["fig5", "fig7"])
    def test_figure_bytes_do_not_depend_on_workers(self, capsys, tmp_path, figure_id):
        # each worker takes the same slice of every file's grid, and the
        # files of one id share their passes
        outputs = set()
        for workers in ("1", "2", "3"):
            outdir = tmp_path / workers
            code, _, err = run(capsys, "figure", figure_id, "--points", "7",
                               "--outdir", str(outdir), "--workers", workers)
            assert code == 0
            outputs.add((err, tuple((p.name, p.read_bytes())
                                    for p in sorted(outdir.glob("*.csv")))))
        assert len(outputs) == 1

    def test_pool_never_outnumbers_the_jobs(self, capsys, monkeypatch):
        # a stand-in pool that records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        code, _, _ = run(capsys, *TestScan.CONE, "--workers", "64")
        assert code == 0
        assert sizes == [3]


def _loaded_after(statements: str, *modules: str, timeout: float = 120) -> list[bool]:
    """Whether each of ``modules`` is in sys.modules after ``statements``
    run in a fresh interpreter."""
    src = str(Path(conevac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = f"import sys\n{statements}\nprint([m in sys.modules for m in {modules!r}])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1].lower())


def test_importing_the_cli_leaves_scipy_unloaded():
    assert _loaded_after("import conevac.cli", "scipy") == [False]


def test_three_dim_quadratures_leave_scipy_unloaded():
    # their adaptive Gauss-Kronrod is numpy only
    statements = ("import conevac.cli\n"
                  "from conevac import run_oracle_suite, tbar_3d\n"
                  "run_oracle_suite(['threedim_average', 'threedim_reduction'])\n"
                  "tbar_3d(0.5, 1.0, 1.2, 0.4, 5.0)")
    assert _loaded_after(statements, "scipy") == [False]


def test_the_oracle_suite_leaves_scipy_integrate_unloaded():
    # the Bessel functions and the quadratures are numpy: no scipy at all
    statements = "from conevac import run_oracle_suite\nrun_oracle_suite()"
    loaded = _loaded_after(statements, "scipy", "scipy.special", "scipy.integrate", timeout=300)
    assert loaded == [False, False, False]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only --workers N > 1 needs it, and it loads multiprocessing
    src = str(Path(conevac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = ("import sys, conevac.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


class TestConfig:
    def test_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "geometry = cone\n"
            "theta1 = 3.0\n"
            "sweep = r\n"
            "lo = 1\n"
            "hi = 2\n"
            "points = 2\n"
            "t = 0.5\n"
            "components = t00\n"
            "# trailing comment lines are ignored\n"
        )
        code, out, _ = run(capsys, "scan", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "r,t00_t0.5,t00_t0"
        assert len(rows_of(out)) == 2

    def test_explicit_flags_beat_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("geometry = cone\ntheta1 = 3.0\nsweep = r\n"
                       "lo = 1\nhi = 2\npoints = 2\nt = 0.5\n")
        code, out, _ = run(capsys, "scan", "--config", str(cfg),
                           "--points", "4")
        assert code == 0
        assert len(rows_of(out)) == 4

    def test_malformed_line_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("geometry cone\n")
        code, _, _ = run(capsys, "scan", "--config", str(cfg))
        assert code == 2

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "scan", "--config",
                         str(tmp_path / "absent.cfg"))
        assert code == 2

    def test_switch_lines_set_or_drop_flags(self, capsys, tmp_path):
        base = ("geometry = cone\ntheta1 = 3.0\nsweep = r\nlo = 1\nhi = 4\n"
                "points = 3\ncomponents = t00\n")
        outs = []
        for name, switches in (("on", "log = yes\ncorrection = off\n"),
                               ("off", "log = false\ncorrection = TRUE\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + switches)
            outs.append(run(capsys, "scan", "--config", str(cfg)))
        flags = ("scan", "--geometry", "cone", "--theta1", "3.0", "--sweep", "r", "--lo", "1",
                 "--hi", "4", "--points", "3", "--components", "t00")
        assert outs == [run(capsys, *flags, "--log"), run(capsys, *flags, "--correction")]
        assert outs[0][0] == 0 and outs[0] != outs[1]

    @pytest.mark.parametrize("argv, err", [
        (["scan", "--config"], "--config needs a file path"),
        (["--config", "scan.cfg"], "--config needs a subcommand"),
    ], ids=["no_path", "no_subcommand"])
    def test_config_needs_a_path_and_a_subcommand(self, capsys, tmp_path, argv, err):
        (tmp_path / "scan.cfg").write_text("geometry = cone\n")
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")


class TestVerify:
    def test_subset_run_reports_and_succeeds(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "flat_zero,scaling")
        assert code == 0
        assert "2/2 oracles passed" in out

    def test_json_times_each_oracle(self, capsys, oracle_reports):
        code, out, _ = run(capsys, "verify", "--only", "flat_zero,scaling", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [row["name"] for row in rows] == ["flat_zero", "scaling"]
        for row in rows:
            assert row["wall_s"] > 0.0
            report = oracle_reports[row["name"]]
            assert row["max_rel_err"] == report.max_rel_err
            assert row["points_tested"] == report.points_tested

    def test_unknown_oracle_runs_nothing(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(conevac.oracles, "run_oracle_suite",
                            lambda names, seed: ran.append(names))
        code, _, err = run(capsys, "verify", "--only", "flat_zero,no_such_oracle")
        assert code == 2
        assert "no_such_oracle" in err and ran == []
