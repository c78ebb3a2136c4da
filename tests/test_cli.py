"""End-to-end tests of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from jsonschema.validators import validator_for

import solv3d
from solv3d import reach
from solv3d.cli import SPEC_SCHEMA, main, report_schema
from solv3d.kernel2d import ThetaFamily
from solv3d.planar import ControlRange, PlanarSpec, equilibrium, planar_solution

OPEN_SPEC = {
    "theta": {"family": "spiral", "gamma": 0.0},
    "A": [[1.0, 0.0], [0.0, 1.0]],
    "xi": [1.0, 0.0],
    "alpha": 1.0,
    "eta": [0.0, 0.0],
    "omega": [-0.5, 0.5],
}

WHOLE_SPEC = {
    "theta": {"family": "spiral", "gamma": 0.0},
    "A": [[0.0, -0.6], [0.6, 0.0]],
    "xi": [1.0, 0.0],
    "alpha": 1.0,
    "eta": [1.0, 0.0],
    "omega": [-0.5, 0.5],
}

SPIRAL_CTRL_SPEC = {
    "theta": {"family": "spiral", "gamma": 1.0},
    "A": [[0.0, 0.0], [0.0, 0.0]],
    "xi": [1.0, 0.0],
    "alpha": 1.0,
    "eta": [0.0, 0.0],
    "omega": [-1.0, 1.0],
}

AFF_CIRCLE_ZERO_TRACE_SPEC = {
    "theta": {"family": "diagonal", "gamma": 0.0},
    "A": [[0.0, 0.0], [0.0, 0.0]],
    "xi": [1.0, 0.5],
    "alpha": 1.0,
    "eta": [0.0, 0.0],
    "omega": [-1.0, 1.0],
    "variant": {"type": "aff_circle"},
}

SE2_SPEC = {
    "theta": {"family": "spiral", "gamma": 0.0},
    "A": [[-1.0, 0.0], [0.0, -1.0]],
    "xi": [1.0, 0.0],
    "alpha": 1.0,
    "eta": [0.0, 0.0],
    "omega": [-0.5, 0.5],
    "variant": {"type": "se2n", "n": 1},
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def write_ctrl(tmp_path, pairs, name="ctrl.csv"):
    path = tmp_path / name
    path.write_text("duration,value\n" + "\n".join(f"{s},{u}" for s, u in pairs) + "\n")
    return str(path)


class TestClassify:
    def test_success_and_schema(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path),
                                   "--budget", "3000", "--horizon", "10"])
        assert out.exit_code == 0, out.output
        assert "UniqueControlSetOpen" in out.output
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, report_schema())
        assert report["classification"]["rule"] == "nilrank2/planar-cylinder"
        assert report["verification"]["ok"] is True

    @pytest.mark.parametrize("omega", [[-0.1, 100.0], [-1e-3, 1e3]])
    def test_identity_return_with_wide_omega(self, runner, tmp_path, omega):
        # legs 10^3 and 10^6 times faster at u_max than at u_min
        spec = write_spec(tmp_path, dict(SPIRAL_CTRL_SPEC, omega=omega))
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["taxonomy"] == "Controllable"
        check, = (c for c in report["verification"]["checks"] if c["name"] == "identity-return")
        assert check["ok"] and check["endpoint_error"] < 1e-12

    def test_overflowing_reach_samples_print_no_warning(self, tmp_path):
        # at A = 1e200 I every reach-set arc leaves the float range; those
        # samples mark nothing, and numpy says nothing on stderr
        spec = write_spec(tmp_path, dict(OPEN_SPEC, A=[[1e200, 0.0], [0.0, 1e200]]))
        src = os.path.dirname(os.path.dirname(os.path.abspath(solv3d.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "solv3d.cli", "classify", spec, "--budget", "2000",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("flags, verdict", [
        (["--budget", "500"], "verification: ok"),
        (["--budget", "1", "--horizon", "1e-300"],
         "verification: failed (rest-points-inside-estimate)"),
        (["--no-verify"], None),
    ], ids=["ok", "failed", "no-verify"])
    def test_prints_verification_outcome(self, runner, tmp_path, flags, verdict):
        # a failed verification keeps exit code 0 and says so on stdout;
        # without verification there is no outcome to print
        spec = write_spec(tmp_path, OPEN_SPEC)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path), *flags])
        assert out.exit_code == 0, out.output
        lines = ["taxonomy: UniqueControlSetOpen (nilrank2/planar-cylinder)"]
        assert out.output.splitlines() == (lines + [verdict] if verdict else lines)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verification"]["ok"] == ("failed" not in str(verdict))

    def test_no_verify_skips_checks(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path),
                                   "--no-verify"])
        assert out.exit_code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verification"]["checks"] == []

    def test_unclassified_exit_code(self, runner, tmp_path):
        bad = dict(OPEN_SPEC, alpha=0.0)
        spec = write_spec(tmp_path, bad)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path),
                                   "--no-verify"])
        assert out.exit_code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["taxonomy"] == "Unclassified"

    def test_covering_section_for_quotients(self, runner, tmp_path):
        spec = write_spec(tmp_path, SE2_SPEC)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path),
                                   "--no-verify"])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert "preimage" in report["covering"]["relation"]

    def test_se2n_n_written_as_a_float(self, runner, tmp_path):
        # the schema's integer type admits n = 2.0; the cover is the one of n = 2
        runs = {}
        for name, n in (("int", 2), ("float", 2.0)):
            spec = write_spec(tmp_path, dict(SE2_SPEC, variant={"type": "se2n", "n": n}),
                              f"{name}.json")
            out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path / name),
                                       "--no-verify"], catch_exceptions=False)
            assert out.exit_code == 0, out.output
            report = json.loads((tmp_path / name / "report.json").read_text())
            runs[name] = out.output, report["classification"], report["covering"]
        assert runs["float"] == runs["int"]

    def test_non_descending_quotient_is_input_error(self, runner, tmp_path):
        bad = {
            "theta": {"family": "diagonal", "gamma": 0.0},
            "A": [[0.0, 0.0], [0.0, 1.0]],
            "xi": [1.0, 1.0],
            "alpha": 1.0,
            "eta": [0.0, 0.0],
            "omega": [-1.0, 1.0],
            "variant": {"type": "aff_circle"},
        }
        spec = write_spec(tmp_path, bad)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path)])
        assert out.exit_code == 1
        assert "descend" in out.output

    def test_verified_trace_zero_quotient(self, runner, tmp_path):
        spec = write_spec(tmp_path, AFF_CIRCLE_ZERO_TRACE_SPEC)
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path)],
                            catch_exceptions=False)
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["rule"] == "affcircle/trace-zero"
        assert report["verification"]["ok"] is True

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = runner.invoke(main, ["classify", str(path)])
        assert out.exit_code == 1
        assert "invalid JSON" in out.output

    def test_schema_violation_reports_path(self, runner, tmp_path):
        bad = dict(OPEN_SPEC)
        bad["omega"] = [-0.5]
        spec = write_spec(tmp_path, bad)
        out = runner.invoke(main, ["classify", spec])
        assert out.exit_code == 1
        assert "omega" in out.output

    def test_incompatible_variant(self, runner, tmp_path):
        bad = dict(OPEN_SPEC, variant={"type": "aff_circle"})
        spec = write_spec(tmp_path, bad)
        out = runner.invoke(main, ["classify", spec])
        assert out.exit_code == 1

    def test_verification_value_error_is_one_line_error(self, runner, tmp_path,
                                                         monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("xi_hat needs <theta xi, R xi> != 0")

        monkeypatch.setattr(reach, "verify_classification", fail)
        spec = write_spec(tmp_path, OPEN_SPEC)
        out_dir = tmp_path / "out"
        out = runner.invoke(main, ["classify", spec, "--out-dir", str(out_dir)],
                            catch_exceptions=False)
        assert out.exit_code == 1
        assert out.output.strip() == "Error: xi_hat needs <theta xi, R xi> != 0"
        assert not out_dir.exists()


class TestSimulate:
    def test_has_no_seed_option(self, runner, tmp_path):
        # simulate draws no random numbers
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(0.5, 0.25)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl, "--seed", "1"])
        assert out.exit_code == 1
        assert "No such option" in out.output and "--seed" in out.output

    def test_writes_trajectory(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(0.5, 0.25), (0.5, -0.25)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "time,t,v1,v2"
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[0] - 1.0) < 1e-12  # total schedule time
        assert abs(last[1] - 0.0) < 1e-12  # balanced control returns t to 0

    def test_quotient_columns(self, runner, tmp_path):
        spec = write_spec(tmp_path, SE2_SPEC)
        ctrl = write_ctrl(tmp_path, [(1.0, 0.5)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        header = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
        assert header == "time,t,v1,v2,t_class,v1_class,v2_class"

    def test_svg_output_has_no_timestamp(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(1.0, 0.25)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--out-dir", str(tmp_path), "--svg"])
        assert out.exit_code == 0, out.output
        svg = (tmp_path / "trajectory.svg").read_text()
        assert svg.startswith("<svg ")
        assert "polyline" in svg
        for word in ("date", "time", "2026"):
            assert word not in svg

    def test_svg_without_planar_reduction_has_no_rest_points(self, runner, tmp_path):
        # a nilrank-1 drift has no planar reduction, so the portrait holds the
        # trajectory and no rest-point curve
        spec = write_spec(tmp_path, dict(OPEN_SPEC, theta={"family": "diagonal", "gamma": 0.5},
                                         A=[[0.0, 0.0], [0.0, 0.5]], xi=[1.0, 1.0]))
        ctrl = write_ctrl(tmp_path, [(1.0, 0.25)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--out-dir", str(tmp_path), "--svg"])
        assert out.exit_code == 0, out.output
        svg = (tmp_path / "trajectory.svg").read_text()
        assert svg.count("<polyline") == 1 and "#225599" in svg
        assert "#cc3333" not in svg

    def test_sample_cap_counts_every_arc(self, runner, tmp_path, monkeypatch):
        # six arcs shorter than the step record one sample each: six, not 6 * 0.5
        import solv3d.cli

        monkeypatch.setattr(solv3d.cli, "MAX_SAMPLES", 5)
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(5e-4, 0.25 * (-1) ** k) for k in range(6)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--out-dir", str(tmp_path)], catch_exceptions=False)
        assert out.exit_code == 1
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert "more than 5 samples" in lines[0]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_bad_start_string(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(1.0, 0.25)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl,
                                   "--start", "1,2"])
        assert out.exit_code == 1

    def test_out_of_range_control(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        ctrl = write_ctrl(tmp_path, [(1.0, 3.0)])
        out = runner.invoke(main, ["simulate", spec, "--control", ctrl])
        assert out.exit_code == 1
        assert "outside" in out.output

    def test_empty_schedule(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        path = tmp_path / "empty.csv"
        path.write_text("duration,value\n")
        out = runner.invoke(main, ["simulate", spec, "--control", str(path)])
        assert out.exit_code == 1

    @pytest.mark.parametrize("row", ["nan,0.1", "inf,0.1", "1e308,0.1",
                                     "0,0.1", "-1,0.1", "0.5,nan"])
    def test_bad_schedule_row_is_one_line_error(self, runner, tmp_path, row):
        spec = write_spec(tmp_path, OPEN_SPEC)
        path = tmp_path / "bad.csv"
        path.write_text(f"duration,value\n0.5,0.1\n{row}\n")
        out = runner.invoke(main, ["simulate", spec, "--control", str(path),
                                   "--out-dir", str(tmp_path)], catch_exceptions=False)
        assert out.exit_code == 1
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert "Traceback" not in out.output
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("raw, row", [
        (OPEN_SPEC, "800,0.2"),
        (dict(OPEN_SPEC, theta={"family": "diagonal", "gamma": 0.5},
              A=[[0.0, 0.0], [0.0, 0.5]], xi=[1.0, 1.0]), "1600,0.2"),
    ], ids=["exact", "rk4"])
    def test_overflow_is_one_line_error(self, tmp_path, raw, row):
        # e^{800} on the exact path and on the RK4 one: one error line that
        # names the arc, no numpy warning and no output directory
        spec = write_spec(tmp_path, raw)
        path = tmp_path / "ctrl.csv"
        path.write_text(f"duration,value\n{row}\n")
        out_dir = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(solv3d.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "solv3d.cli", "simulate", spec, "--control", str(path),
             "--step", "1", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        duration = row.split(",")[0]
        assert proc.stderr == (f"Error: simulate: arc 1 of 1 ({duration} time units at "
                               "control 0.2) leaves the float range\n")
        assert not out_dir.exists()


class TestReach:
    def test_artifacts(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [
            "reach", spec, "--out-dir", str(tmp_path), "--budget", "500",
            "--horizon", "6", "--grid-res", "16",
        ])
        assert out.exit_code == 0, out.output
        for name in ("occupancy.csv", "forward.pgm", "backward.pgm",
                     "estimate.pgm", "reach_report.json", "reach.svg"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "reach_report.json").read_text())
        jsonschema.validate(report, report_schema())
        assert report["reach"]["resolution"] == 16

    def test_grid_box_override(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [
            "reach", spec, "--out-dir", str(tmp_path), "--budget", "200",
            "--horizon", "4", "--grid-res", "8", "--grid-box", "-3,3,-3,3",
        ])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "reach_report.json").read_text())
        assert report["reach"]["box"] == [[-3.0, 3.0], [-3.0, 3.0]]

    @pytest.mark.parametrize("command", ["reach", "classify"])
    def test_spec_integers_written_as_floats(self, runner, tmp_path, command):
        # the schema's integer type admits 200.0; the sampler runs as with 200
        runs = {}
        for name, budget, seed in (("int", 200, 3), ("float", 200.0, 3.0)):
            numerics = {"budget": budget, "seed": seed, "horizon": 4.0}
            spec = write_spec(tmp_path, dict(OPEN_SPEC, numerics=numerics), f"{name}.json")
            out = runner.invoke(main, [command, spec, "--out-dir", str(tmp_path / name)],
                                catch_exceptions=False)
            assert out.exit_code == 0, out.output
            runs[name] = out.output
        assert runs["float"] == runs["int"]
        if command == "reach":
            for name in ("estimate.pgm", "occupancy.csv"):
                assert ((tmp_path / "float" / name).read_bytes()
                        == (tmp_path / "int" / name).read_bytes())

    def test_report_counts_points_outside_the_box(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        out = runner.invoke(main, [
            "reach", spec, "--out-dir", str(tmp_path), "--budget", "500",
            "--horizon", "6", "--grid-res", "8", "--grid-box=-0.01,0.01,-0.01,0.01",
        ])
        assert out.exit_code == 0, out.output
        diag = json.loads((tmp_path / "reach_report.json").read_text())["reach"]["diagnostics"]
        assert diag["points"] == 2 * 500 * (1 + 3 * 8)
        assert diag["points_outside"] > diag["points"] // 2

    @staticmethod
    def cell_rects(svg: str) -> list[str]:
        return [line for line in svg.splitlines() if 'fill="#88aadd"' in line]

    def test_svg_cells_are_square_on_a_flat_box(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [
            "reach", spec, "--out-dir", str(tmp_path), "--budget", "2000",
            "--horizon", "8", "--grid-res", "8", "--grid-box=-4,4,-0.5,0.5",
        ])
        assert out.exit_code == 0, out.output
        rects = self.cell_rects((tmp_path / "reach.svg").read_text())
        assert rects
        for line in rects:
            attrs = dict(re.findall(r'(x|y|width|height)="([^"]*)"', line))
            assert (attrs["width"], attrs["height"]) == ("60.00", "60.00"), line
            assert float(attrs["x"]) % 60 == 0 and float(attrs["y"]) % 60 == 0, line

    def test_svg_cells_on_the_default_box(self, runner, tmp_path):
        """Each cell's corner, mapped through the data box (reference)."""
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, ["reach", spec, "--out-dir", str(tmp_path),
                                   "--budget", "2000", "--horizon", "8"])
        assert out.exit_code == 0, out.output
        rows = (tmp_path / "occupancy.csv").read_text().splitlines()[1:]
        estimate = [row.split(",")[4] == "1" for row in rows]
        res, (x0, x1), (y0, y1) = 64, (-10.0, 10.0), (-10.0, 10.0)
        xs = x0 + (np.arange(res) + 0.5) * (x1 - x0) / res
        ys = y0 + (np.arange(res) + 0.5) * (y1 - y0) / res
        w = (x1 - x0) / res
        expected = [
            f'<rect x="{(xs[i] - w / 2 - x0) / (x1 - x0) * 480:.2f}" '
            f'y="{480 - (ys[j] + w / 2 - y0) / (y1 - y0) * 480:.2f}" '
            f'width="{480 * w / (x1 - x0):.2f}" height="{480 * w / (y1 - y0):.2f}" '
            f'fill="#88aadd" stroke="none"/>'
            for i in range(res) for j in range(res) if estimate[i * res + j]
        ]
        assert expected
        assert self.cell_rects((tmp_path / "reach.svg").read_text()) == expected

    def test_rejects_low_rank_drift(self, runner, tmp_path):
        low = dict(OPEN_SPEC, A=[[1.0, 0.0], [0.0, 0.0]],
                   theta={"family": "diagonal", "gamma": 0.5}, xi=[1.0, 1.0])
        spec = write_spec(tmp_path, low)
        out = runner.invoke(main, ["reach", spec])
        assert out.exit_code == 1
        assert "rank" in out.output


class TestNumericsOverrides:
    BAD = [
        ("reach", ["--budget", "0"]),
        ("reach", ["--horizon", "-1"]),
        ("reach", ["--horizon", "inf"]),
        ("reach", ["--grid-res", "4"]),
        ("reach", ["--grid-box", "1,1,0,1"]),
        ("reach", ["--grid-box", "0,1,1,0"]),
        ("classify", ["--budget", "0"]),
        ("classify", ["--horizon", "-1"]),
        ("simulate", ["--step", "0"]),
        ("simulate", ["--step", "-1"]),
        ("simulate", ["--step", "nan"]),
        ("simulate", ["--step", "1e-300"]),
        ("simulate", ["--start", "nan,0,0"]),
        ("simulate", ["--start", "1e308,0,0"]),
        ("reach", ["--grid-res", "100000"]),
        ("reach", ["--budget", "10000000000000"]),
        ("reach", ["--horizon", "1e12", "--budget", "8"]),
        ("classify", ["--budget", "10000000000000"]),
        ("classify", ["--horizon", "1e12", "--budget", "8"]),
    ]

    @pytest.mark.parametrize("command, flags", BAD,
                             ids=[" ".join([c] + f) for c, f in BAD])
    def test_bad_numerics_are_one_line_errors(self, runner, tmp_path, command, flags):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        if command == "simulate":
            flags = ["--control", write_ctrl(tmp_path, [(1.0, 0.25)])] + flags
        out = runner.invoke(main, [command, spec, "--out-dir", str(tmp_path)] + flags,
                            catch_exceptions=False)
        assert out.exit_code == 1
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert "Traceback" not in out.output
        assert not (tmp_path / "reach_report.json").exists()
        assert not (tmp_path / "trajectory.csv").exists()


class TestReachWorkCaps:
    """Budget and budget-times-horizon caps, from flags and spec files alike."""

    CASES = [
        ("flag budget", ["--budget", "10000000000000"], {}),
        ("flag points", ["--horizon", "1e12", "--budget", "8"], {}),
        ("spec budget", [], {"budget": 10**7 + 1}),
        ("spec points", [], {"budget": 10**7, "horizon": 30.0}),
        ("spec horizon", [], {"horizon": 1e12, "budget": 8}),
        ("spec points, flag budget", ["--budget", "5000000"], {"horizon": 200.0}),
    ]

    @pytest.mark.parametrize("command", ["classify", "reach"])
    @pytest.mark.parametrize("label, flags, numerics", CASES, ids=[c[0] for c in CASES])
    def test_oversized_work_is_one_line_error(self, runner, tmp_path, command, label,
                                              flags, numerics):
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, numerics=numerics))
        out_dir = tmp_path / "out"
        out = runner.invoke(main, [command, spec, "--out-dir", str(out_dir)] + flags,
                            catch_exceptions=False)
        assert out.exit_code == 1, out.output
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert not out_dir.exists()

    def test_caps_admit_the_largest_use(self, runner, tmp_path):
        # budget 100 000 at horizon 30 samples about 2.4e7 points
        from solv3d.cli import MAX_REACH_POINTS
        from solv3d.reach import reach_points

        assert reach_points(30.0, 100_000) == 24_200_000 < MAX_REACH_POINTS
        assert reach_points(12.0, 10**7) <= MAX_REACH_POINTS
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, numerics={"budget": 10**7,
                                                               "horizon": 12.0}))
        out = runner.invoke(main, ["classify", spec, "--no-verify",
                                   "--out-dir", str(tmp_path / "out")])
        assert out.exit_code == 0, out.output


# numeric flag -> (commands taking it, numbers it holds, click's type or None)
FUZZ_FLAGS = {
    "--seed": (("classify", "reach"), 1, int),
    "--budget": (("classify", "reach"), 1, int),
    "--horizon": (("classify", "reach"), 1, float),
    "--grid-res": (("reach",), 1, int),
    "--grid-box": (("reach",), 4, None),
    "--step": (("simulate",), 1, float),
    "--start": (("simulate",), 3, None),
    "--v0": (("plan circle-hop",), 2, None),
    "--u0": (("plan circle-hop",), 1, float),
    "--p1": (("plan fiber-sync",), 3, None),
    "--p2": (("plan fiber-sync",), 3, None),
    "--u-pair": (("plan fiber-sync",), 2, None),
    "--x": (("plan staircase",), 1, float),
    "--y": (("plan staircase",), 1, float),
}
FUZZ_VALUES = ["nan", "inf", "-1", "0", "1e400", "abc"]
# probes that are valid inputs for the flag, so there is nothing to reject
FUZZ_VALID = {("--seed", "0"), ("--start", "-1"), ("--start", "0"), ("--v0", "-1"),
              ("--v0", "0"), ("--u0", "0"), ("--p1", "-1"), ("--p1", "0"), ("--p2", "-1"),
              ("--p2", "0"), ("--x", "-1"), ("--x", "0"), ("--y", "-1"), ("--y", "0")}
# flags a command dropped: click rejects the option itself (exit 1),
# whatever the value
FUZZ_DROPPED = {"--seed": ("simulate",)}
# the spec each command is fuzzed on, where it differs from WHOLE_SPEC: one
# on which the command succeeds with valid flags
FUZZ_SPECS = {
    "plan fiber-sync": dict(WHOLE_SPEC, A=[[-1.0, -1.0], [1.0, -1.0]], omega=[-1.0, 1.0]),
    "plan staircase": SPIRAL_CTRL_SPEC,
}


def _fuzz_cases():
    cases = []
    for flag, (commands, arity, _) in FUZZ_FLAGS.items():
        probes = [(v, ",".join([v] * arity)) for v in FUZZ_VALUES
                  if (flag, v) not in FUZZ_VALID]
        probes.append(("arity", ",".join(["1"] * (2 if arity == 1 else arity - 1))))
        probes.append(("empty", ""))
        dropped = FUZZ_DROPPED.get(flag, ())
        for command in commands + dropped:
            for label, value in probes:
                # click's own option and type errors exit 1, as the program's input errors do
                cases.append(pytest.param(command, flag, value, 1,
                                          id=f"{command} {flag} {label}"))
    return cases


class TestFlagFuzz:
    @pytest.mark.parametrize("command, flag, value, code", _fuzz_cases())
    def test_bad_flag_exits_with_one_error_line(self, runner, tmp_path, command, flag,
                                                value, code):
        spec = write_spec(tmp_path, FUZZ_SPECS.get(command, WHOLE_SPEC))
        args = [*command.split(), spec, "--out-dir", str(tmp_path / "out"), flag, value]
        if command == "simulate":
            args += ["--control", write_ctrl(tmp_path, [(1.0, 0.25)])]
        out = runner.invoke(main, args)
        assert isinstance(out.exception, SystemExit), out.exc_info
        assert out.exit_code == code, out.output
        assert out.stderr.strip().splitlines()[-1].startswith("Error:"), out.stderr
        assert "Traceback" not in out.output
        assert not (tmp_path / "out").exists()


NAN, INF = math.nan, math.inf

# malformed spec files: each fails in load_spec or in the numerics check,
# before any command runs
BAD_SPECS = {
    "alpha string": dict(WHOLE_SPEC, alpha="one"),
    "alpha true": dict(WHOLE_SPEC, alpha=True),
    "A entry true": dict(WHOLE_SPEC, A=[[0.0, -0.6], [0.6, True]]),
    "A flat": dict(WHOLE_SPEC, A=[0.0, -0.6, 0.6, 0.0]),
    "xi number": dict(WHOLE_SPEC, xi=1.0),
    "omega string": dict(WHOLE_SPEC, omega="wide"),
    "family number": dict(WHOLE_SPEC, theta={"family": 3, "gamma": 0.0}),
    "gamma true": dict(WHOLE_SPEC, theta={"family": "spiral", "gamma": True}),
    "n fraction": dict(WHOLE_SPEC, variant={"type": "se2n", "n": 1.5}),
    "budget true": dict(WHOLE_SPEC, numerics={"budget": True}),
    "step NaN": dict(WHOLE_SPEC, numerics={"step": NAN}),
    "grid box NaN": dict(WHOLE_SPEC, numerics={"grid": {"box": [[NAN, 10.0], [-10.0, 10.0]]}}),
    "A NaN": dict(WHOLE_SPEC, A=[[NAN, -0.6], [0.6, 0.0]]),
    "A Infinity": dict(WHOLE_SPEC, A=[[0.0, -0.6], [0.6, INF]]),
    "A -Infinity": dict(WHOLE_SPEC, A=[[0.0, -INF], [0.6, 0.0]]),
    "xi NaN": dict(WHOLE_SPEC, xi=[NAN, 0.0]),
    "xi Infinity": dict(WHOLE_SPEC, xi=[1.0, INF]),
    "eta NaN": dict(WHOLE_SPEC, eta=[1.0, NAN]),
    "eta Infinity": dict(WHOLE_SPEC, eta=[INF, 0.0]),
    "alpha NaN": dict(WHOLE_SPEC, alpha=NAN),
    "alpha Infinity": dict(WHOLE_SPEC, alpha=INF),
    "omega NaN": dict(WHOLE_SPEC, omega=[NAN, 0.5]),
    "omega Infinity": dict(WHOLE_SPEC, omega=[-0.5, INF]),
    "spiral without gamma": dict(WHOLE_SPEC, theta={"family": "spiral"}),
    "jordan with gamma": dict(WHOLE_SPEC, theta={"family": "jordan", "gamma": 0.0}),
    "omega without 0": dict(WHOLE_SPEC, omega=[0.1, 0.5]),
    "omega reversed": dict(WHOLE_SPEC, omega=[0.5, -0.5]),
    "variant n 0": dict(WHOLE_SPEC, variant={"type": "se2n", "n": 0}),
    "extra key": dict(WHOLE_SPEC, beta=1.0),
    "top-level list": [WHOLE_SPEC],
}

SPEC_COMMANDS = {
    "classify": ["classify"],
    "reach": ["reach"],
    "simulate": ["simulate"],
    "plan": ["plan", "circle-hop"],
}


class TestSpecFuzz:
    @pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
    @pytest.mark.parametrize("name", list(BAD_SPECS))
    def test_bad_spec_exits_with_one_error_line(self, runner, tmp_path, name, command):
        spec = write_spec(tmp_path, BAD_SPECS[name])
        out_dir = tmp_path / "out"
        args = SPEC_COMMANDS[command] + [spec, "--out-dir", str(out_dir)]
        if command == "simulate":
            args += ["--control", write_ctrl(tmp_path, [(1.0, 0.25)])]
        out = runner.invoke(main, args, catch_exceptions=False)
        assert out.exit_code == 1, out.output
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert "Traceback" not in out.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["A NaN", "A Infinity", "A -Infinity"])
    def test_non_finite_drift_names_the_entries(self, runner, tmp_path, name):
        spec = write_spec(tmp_path, BAD_SPECS[name])
        out = runner.invoke(main, ["classify", spec, "--no-verify"])
        assert "A must have finite entries, got array([[" in out.output


# a JSON integer past the float range, in each kind of number field
BIG = 10**400
BIG_INTEGER_SPECS = {
    "$.alpha": dict(WHOLE_SPEC, alpha=BIG),
    "$.A[1][0]": dict(WHOLE_SPEC, A=[[0.0, -0.6], [-BIG, 0.0]]),
    "$.omega[1]": dict(WHOLE_SPEC, omega=[-0.5, BIG]),
    "$.numerics.horizon": dict(WHOLE_SPEC, numerics={"horizon": BIG}),
    "$.numerics.step": dict(WHOLE_SPEC, numerics={"step": BIG}),
    "$.numerics.grid.box[0][0]": dict(WHOLE_SPEC, numerics={"grid": {"box": [[-BIG, 1], [-1, 1]]}}),
}


@pytest.mark.parametrize("field", list(BIG_INTEGER_SPECS))
def test_integer_too_large_for_a_float_names_the_field(runner, tmp_path, field):
    spec = write_spec(tmp_path, BIG_INTEGER_SPECS[field])
    out_dir = tmp_path / "out"
    out = runner.invoke(main, ["classify", spec, "--out-dir", str(out_dir)],
                        catch_exceptions=False)
    assert out.exit_code == 1, out.output
    assert out.output == f"Error: {spec}: at {field}: integer too large for a float\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["classify", "reach"])
def test_se2n_cover_without_a_finite_period_is_one_error_line(runner, tmp_path, command):
    # n passes the schema (an integer, at least 1), but 2*pi*n is past the float range
    spec = write_spec(tmp_path, dict(SE2_SPEC, variant={"type": "se2n", "n": BIG}))
    out_dir = tmp_path / "out"
    out = runner.invoke(main, [command, spec, "--out-dir", str(out_dir), "--budget", "100"],
                        catch_exceptions=False)
    assert out.exit_code == 1, out.output
    assert out.output == f"Error: {spec}: se2n requires a finite period 2*pi*n\n"
    assert not out_dir.exists()


def test_integer_literal_past_the_digit_limit_is_one_error_line(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(WHOLE_SPEC).replace('"alpha": 1.0', '"alpha": 1' + "0" * 5000))
    out = runner.invoke(main, ["classify", str(spec)], catch_exceptions=False)
    assert out.exit_code == 1
    lines = out.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {spec}: "), out.output


class TestUsageErrors:
    @pytest.mark.parametrize("args, says", [
        (["classify", "SPEC", "--budget", "abc"], "Invalid value for '--budget'"),
        (["classify", "SPEC", "--bogus"], "No such option '--bogus'"),
        (["--bogus"], "No such option '--bogus'"),
        (["classify", "missing.json"], "Invalid value for 'SPEC_PATH'"),
        (["simulate", "SPEC", "--control", "missing.csv"], "Invalid value for '--control'"),
        (["plan", "nope", "SPEC"], "'nope' is not one of"),
        (["nope"], "No such command 'nope'"),
        (["classify"], "Missing argument 'SPEC_PATH'"),
    ], ids=["bad value", "unknown option", "unknown group option", "missing spec",
            "missing control", "bad planner", "unknown command", "no spec"])
    def test_exits_1_with_one_error_line(self, runner, tmp_path, args, says):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [spec if a == "SPEC" else str(tmp_path / a)
                                   if a.startswith("missing") else a for a in args])
        assert out.exit_code == 1, out.output
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ") and says in lines[0], out.output

    def test_bare_command_prints_help_and_exits_1(self, runner):
        out = runner.invoke(main, [])
        assert out.exit_code == 1
        assert "Exit codes:" in out.output and "Commands:" in out.output

    @pytest.mark.parametrize("args", [["--help"], ["plan", "--help"]])
    def test_help_exits_0(self, runner, args):
        assert runner.invoke(main, args).exit_code == 0


def _no_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


# reports holding numbers past the float range: the rank certificates'
# theta_product, and the plane-family check's min_g
STRICT_SPECS = {
    "theta_product": dict(OPEN_SPEC, xi=[2.0**600, 0.0]),
    "min_g": dict(OPEN_SPEC, A=[[0.0, 0.0], [0.0, 0.0]], xi=[1e200, 0.0]),
}


@pytest.mark.parametrize("name", list(STRICT_SPECS))
def test_report_is_strict_json(runner, tmp_path, name):
    spec = write_spec(tmp_path, STRICT_SPECS[name])
    out = runner.invoke(main, ["classify", spec, "--out-dir", str(tmp_path), "--budget", "2000",
                               "--horizon", "5"], catch_exceptions=False)
    assert out.exit_code == 0, out.output
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text, parse_constant=_no_constant)
    jsonschema.validate(report, report_schema())
    assert re.search(rf'"{name}": null', text), name


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(solv3d.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


class TestStartup:
    def test_import_does_not_load_scipy(self):
        code = ("import sys, solv3d.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python(code) == "[]"

    # modules a valid classify --no-verify never runs
    UNUSED = ["jsonschema", "importlib.metadata", "scipy", "solv3d.plan",
              "solv3d.covering"]

    @staticmethod
    def run_cli(args: list[str]) -> dict:
        code = f"""
import json, sys
from solv3d.cli import main
try:
    main({args!r}, standalone_mode=False)
    error = None
except Exception as exc:
    error = exc.format_message()
print(json.dumps({{"error": error, "modules": sorted(sys.modules)}}))
"""
        # the last line; a successful command prints its verdict first
        return json.loads(run_python(code).splitlines()[-1])

    def run_classify(self, spec: str, out_dir: str) -> dict:
        return self.run_cli(["classify", spec, "--no-verify", "--out-dir", out_dir])

    def loaded(self, modules: list[str]) -> list[str]:
        return [name for name in self.UNUSED
                if any(m == name or m.startswith(name + ".") for m in modules)]

    def test_valid_spec_loads_only_what_classify_runs(self, tmp_path):
        out_dir = tmp_path / "out"
        result = self.run_classify(write_spec(tmp_path, OPEN_SPEC), str(out_dir))
        assert result["error"] is None
        assert (out_dir / "report.json").exists()
        assert self.loaded(result["modules"]) == []

    def test_fiber_sync_does_not_load_scipy(self, tmp_path):
        # the generic transfer of the library's fiber_sync tests: xi = 0
        # keeps the planar eta at (1, 0)
        sp = PlanarSpec([[-1.0, -1.0], [1.0, -1.0]], ThetaFamily.spiral(0.0), [1.0, 0.0],
                        ControlRange(-1.0, 1.0))
        v2 = planar_solution(sp, 0.7, planar_solution(sp, 0.3, equilibrium(sp, 0.5), -0.5), 0.5)
        spec = write_spec(tmp_path, dict(FUZZ_SPECS["plan fiber-sync"], xi=[0.0, 0.0]))
        out_dir = tmp_path / "out"
        result = self.run_cli(["plan", "fiber-sync", spec, "--out-dir", str(out_dir),
                               "--p1=0,1.5,-0.5", "--p2=3,{!r},{!r}".format(*v2.tolist())])
        assert result["error"] is None
        report = json.loads((out_dir / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] < 1e-9
        assert not [m for m in result["modules"] if m.split(".")[0] == "scipy"]

    def test_malformed_spec_loads_jsonschema_for_its_message(self, tmp_path):
        raw = dict(OPEN_SPEC, omega=[-0.5])
        spec = write_spec(tmp_path, raw)
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(raw, SPEC_SCHEMA)
        result = self.run_classify(spec, str(tmp_path / "out"))
        assert result["error"] == f"{spec}: at {exc.value.json_path}: {exc.value.message}"
        assert "jsonschema" in result["modules"]

    def test_version_option(self, runner):
        out = runner.invoke(main, ["--version"])
        assert out.exit_code == 0
        assert out.output == f"solv3d, version {solv3d.__version__}\n"

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == solv3d.__version__

    def test_reports_carry_the_package_version(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        out = runner.invoke(main, ["classify", spec, "--no-verify",
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["tool"] == {"name": "solv3d", "version": solv3d.__version__}

    def test_spec_schema_is_valid_for_its_validator(self):
        cls = validator_for(SPEC_SCHEMA)
        cls.check_schema(SPEC_SCHEMA)
        cls.check_schema(SPEC_SCHEMA["properties"]["numerics"])

    MALFORMED = {
        "short-omega": dict(OPEN_SPEC, omega=[-0.5]),
        "two-faults": dict(OPEN_SPEC, theta={"family": "bogus"}, alpha="one"),
        "bad-numerics": dict(OPEN_SPEC, numerics={"budget": 0, "grid": {"resolution": 4}}),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_spec_error_matches_jsonschema_validate(self, runner, tmp_path, name):
        raw = self.MALFORMED[name]
        spec = write_spec(tmp_path, raw)
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(raw, SPEC_SCHEMA)
        out = runner.invoke(main, ["classify", spec, "--no-verify",
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 1
        assert out.output.strip() == (
            f"Error: {spec}: at {exc.value.json_path}: {exc.value.message}"
        )


class TestPlan:
    def test_circle_hop(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [
            "plan", "circle-hop", spec, "--out-dir", str(tmp_path),
            "--v0", "2,1", "--u0", "0.1",
        ])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "plan_report.json").read_text())
        jsonschema.validate(report, report_schema())
        assert report["plan"]["endpoint_error"] < 1e-6
        assert (tmp_path / "control.csv").exists()
        assert (tmp_path / "control_return.csv").exists()

    def test_control_csv_round_trip(self, runner, tmp_path):
        from solv3d.cli import _read_control_csv

        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [
            "plan", "circle-hop", spec, "--out-dir", str(tmp_path),
            "--v0", "2,1", "--u0", "0.1",
        ])
        assert out.exit_code == 0
        ctrl = _read_control_csv(str(tmp_path / "control.csv"))
        report = json.loads((tmp_path / "plan_report.json").read_text())
        assert len(ctrl) == report["plan"]["legs"]

    def test_staircase(self, runner, tmp_path):
        spec = write_spec(tmp_path, SPIRAL_CTRL_SPEC)
        out = runner.invoke(main, [
            "plan", "staircase", spec, "--out-dir", str(tmp_path),
            "--x", "0.0", "--y", "1.0",
        ])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] < 1e-6

    def test_staircase_past_the_float_range(self, tmp_path):
        # a dwell of 6e308 time units: one error line naming the stops, no
        # numpy warning and no output directory
        spec = write_spec(tmp_path, SPIRAL_CTRL_SPEC)
        out_dir = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(solv3d.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "solv3d.cli", "plan", "staircase", spec, "--x=1e308",
             "--y=0", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("Error: staircase: staircase stops (1e+308, 0.0, 1e+308) "
                               "leave the float range\n")
        assert not out_dir.exists()

    def test_staircase_levels_past_the_float_range(self, tmp_path):
        # spiral(1000): e^{gamma t} at the levels +-pi/4 overflows; one error
        # line and no numpy warning
        spec = write_spec(tmp_path, dict(SPIRAL_CTRL_SPEC, theta={"family": "spiral",
                                                                  "gamma": 1000.0}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(solv3d.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "solv3d.cli", "plan", "staircase", spec, "--x=0", "--y=1",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("Error: staircase: staircase stops (0.0, 1.0, 0.0) "
                               "leave the float range\n")

    def test_staircase_needs_scaling_spiral(self, runner, tmp_path):
        # a rotation family, and a scaling spiral whose drift has rank 2: the
        # staircase's fiber equation x' = c e^{gamma t} sin t holds for neither
        out_dir = tmp_path / "out"
        for raw in (WHOLE_SPEC, dict(SPIRAL_CTRL_SPEC, A=[[1.0, 0.0], [0.0, 1.0]])):
            spec = write_spec(tmp_path, raw)
            out = runner.invoke(main, ["plan", "staircase", spec, "--out-dir", str(out_dir),
                                       "--x", "0.2", "--y", "0.7"])
            assert out.exit_code == 1, out.output
            assert out.output.startswith("Error:") and len(out.output.strip().splitlines()) == 1
            assert not out_dir.exists()
        spec = write_spec(tmp_path, SPIRAL_CTRL_SPEC)
        out = runner.invoke(main, ["plan", "staircase", spec, "--out-dir", str(out_dir),
                                   "--x", "0.2", "--y", "0.7"])
        assert out.exit_code == 0, out.output

    def test_fiber_sync_rejects_expanding_dwell(self, runner, tmp_path):
        # the dwell at v(u2) would last 406 time units on an expanding A(u2),
        # and 73.5 on the dwell-only route between two points at v(u2)
        raw = {"theta": {"family": "spiral", "gamma": -0.5},
               "A": [[0.24, 0.74], [-0.74, 0.24]], "xi": [0.0, 0.0], "alpha": 1.0,
               "eta": [2.56, 0.95], "omega": [-1.0, 1.0]}
        sp = PlanarSpec(raw["A"], ThetaFamily.spiral(-0.5), raw["eta"], ControlRange(-1, 1))
        spec = write_spec(tmp_path, raw)
        out_dir = tmp_path / "out"
        rest = "{!r},{!r}".format(*equilibrium(sp, 0.68).tolist())
        for p1, p2 in (("0,-0.34,0.62", f"-2.09,{rest}"), (f"0,{rest}", f"50,{rest}")):
            out = runner.invoke(main, ["plan", "fiber-sync", spec, "--out-dir", str(out_dir),
                                       "--u-pair=-0.68,0.68", f"--p1={p1}", f"--p2={p2}"])
            assert out.exit_code == 1, out.output
            assert out.output.startswith("Error:") and len(out.output.strip().splitlines()) == 1
            assert "u2" in out.output
            assert not out_dir.exists()

    def test_has_no_seed_option(self, runner, tmp_path):
        # no planner draws random numbers
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, ["plan", "circle-hop", spec, "--seed", "3"])
        assert out.exit_code == 1
        assert "No such option" in out.output and "--seed" in out.output

    @pytest.mark.parametrize("args", [["--v0", "1,2,3"], ["--v0", "2,1", "--u0", "0.5"]],
                             ids=["v0 malformed", "u0 outside"])
    def test_failed_plan_writes_nothing(self, runner, tmp_path, args):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out_dir = tmp_path / "out"
        out = runner.invoke(main, ["plan", "circle-hop", spec, "--out-dir", str(out_dir),
                                   *args])
        assert out.exit_code == 1, out.output
        assert out.output.startswith("Error:") and len(out.output.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_fiber_sync_nan_start_time_writes_nothing(self, runner, tmp_path):
        # a NaN in the start time alone, with a finite start point, is
        # rejected before the planner could report a NaN endpoint error
        spec = write_spec(tmp_path, FUZZ_SPECS["plan fiber-sync"])
        out_dir = tmp_path / "out"
        out = runner.invoke(main, ["plan", "fiber-sync", spec, "--out-dir", str(out_dir),
                                   "--p1=nan,0,0"])
        assert out.exit_code == 1, out.output
        assert out.output.startswith("Error:") and len(out.output.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_fiber_sync_trivial(self, runner, tmp_path):
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, A=[[-1.0, -0.3], [0.3, -1.0]]))
        out = runner.invoke(main, [
            "plan", "fiber-sync", spec, "--out-dir", str(tmp_path),
            "--p1", "1,2,3", "--p2", "1,2,3",
        ])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] == 0.0

    @pytest.mark.parametrize("p1", ["1,2,3", "0,0.5,0"])
    def test_fiber_sync_slow_rotation(self, runner, tmp_path, p1):
        # a drift rotating slowly about its rest points; both runs exited 1
        # with "no transfer between the rest points found"
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, A=[[-1.0, -0.3], [0.3, -1.0]],
                                         xi=[0.0, 0.0]))
        out = runner.invoke(main, ["plan", "fiber-sync", spec, "--out-dir", str(tmp_path),
                                   f"--p1={p1}"])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] < 1e-9


class TestDeterminism:
    def test_classify_reports_identical(self, runner, tmp_path):
        spec = write_spec(tmp_path, OPEN_SPEC)
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            out = runner.invoke(main, ["classify", spec, "--out-dir", str(d),
                                       "--budget", "2000", "--horizon", "8",
                                       "--seed", "7"])
            assert out.exit_code == 0, out.output
            outs.append((d / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_reach_artifacts_identical(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            out = runner.invoke(main, [
                "reach", spec, "--out-dir", str(d), "--budget", "400",
                "--horizon", "4", "--grid-res", "16", "--seed", "3",
            ])
            assert out.exit_code == 0, out.output
            blob = b"".join(
                (d / n).read_bytes()
                for n in sorted(os.listdir(d))
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]


class TestHugeControlRange:
    """omega = [-1e308, 1e308]: the reach tables' midpoint grid overflows."""

    @pytest.mark.parametrize("command", ["reach", "classify"])
    def test_one_error_line(self, runner, tmp_path, command):
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, omega=[-1e308, 1e308]))
        out_dir = tmp_path / "out"
        out = runner.invoke(main, [command, spec, "--out-dir", str(out_dir)],
                            catch_exceptions=False)
        assert out.exit_code == 1, out.output
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert not out_dir.exists()


def _cell_rects_loop(cells):
    """``reach``'s SVG squares, one numpy index pair at a time (oracle)."""
    n = cells.shape[0]
    cell = 480 / n
    return [
        f'<rect x="{i * cell:.2f}" y="{(n - 1 - j) * cell:.2f}" '
        f'width="{cell:.2f}" height="{cell:.2f}" fill="#88aadd" stroke="none"/>'
        for i, j in np.argwhere(cells)
    ]


@pytest.mark.parametrize("res", [8, 64, 256])
def test_svg_cell_rects_equal_index_loop(res):
    from solv3d.cli import _cell_rects

    cells = np.random.default_rng(res).random((res, res)) < 0.4
    assert _cell_rects(cells) == _cell_rects_loop(cells)


def test_reach_report_counts_escaped_points(runner, tmp_path):
    # the Open system's forward trajectories leave the default box for good
    spec = write_spec(tmp_path, OPEN_SPEC)
    out = runner.invoke(main, [
        "reach", spec, "--out-dir", str(tmp_path), "--budget", "500", "--horizon", "12",
    ])
    assert out.exit_code == 0, out.output
    report = json.loads((tmp_path / "reach_report.json").read_text())
    jsonschema.validate(report, report_schema())
    diag = report["reach"]["diagnostics"]
    assert 0 < diag["points_escaped"] <= diag["points_outside"] < diag["points"]


def test_fiber_sync_controls_outside_omega_are_one_line_error(runner, tmp_path):
    # dwell controls of +-5 on omega = [-1, 1] would be written to control.csv
    spec = write_spec(tmp_path, FUZZ_SPECS["plan fiber-sync"])
    out_dir = tmp_path / "out"
    out = runner.invoke(main, ["plan", "fiber-sync", spec, "--out-dir", str(out_dir),
                               "--u-pair=-5,5", "--p2=1,0.3,0"], catch_exceptions=False)
    assert out.exit_code == 1, out.output
    lines = out.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: fiber-sync: "), out.output
    assert "inside the control range [-1, 1]" in lines[0]
    assert not out_dir.exists()


# one spec per trajectory.csv layout: two quotients and a nilrank-1 drift,
# which simulate integrates by RK4
TRAJECTORY_SPECS = {
    "se2n": dict(SE2_SPEC, variant={"type": "se2n", "n": 2}),
    "aff_circle": {"theta": {"family": "diagonal", "gamma": 0.0},
                   "A": [[-1.0, 0.0], [0.0, 0.0]], "xi": [1.0, 1.0], "alpha": 1.0,
                   "eta": [0.5, 0.0], "omega": [-1.0, 1.0], "variant": {"type": "aff_circle"}},
    "nilrank1": {"theta": {"family": "diagonal", "gamma": 0.5},
                 "A": [[0.0, 0.0], [0.0, -0.5]], "xi": [1.0, 1.0], "alpha": 1.0,
                 "eta": [0.3, -0.2], "omega": [-0.5, 0.5]},
}


@pytest.mark.parametrize("rows_per_block", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(TRAJECTORY_SPECS))
def test_trajectory_csv_rows_are_the_simulated_floats(runner, tmp_path, monkeypatch, name,
                                                      rows_per_block):
    # every row is the repr of simulate's floats, and the *_class columns
    # those of covering.project_trajectory, whatever the block size
    import solv3d.cli as cli
    from solv3d.covering import project_trajectory
    from solv3d.group import GroupElement
    from solv3d.planar import PiecewiseControl
    from solv3d.system import simulate

    if rows_per_block is not None:
        monkeypatch.setattr(cli, "_CSV_ROWS", rows_per_block, raising=False)
    spec = write_spec(tmp_path, TRAJECTORY_SPECS[name])
    pairs = [(0.73, 0.41), (0.5, -0.35), (1.3, 0.2)]
    ctrl = write_ctrl(tmp_path, pairs)
    out = runner.invoke(main, ["simulate", spec, "--control", ctrl, "--start=0.5,1.25,-2",
                               "--step", "0.01", "--out-dir", str(tmp_path / "out")],
                        catch_exceptions=False)
    assert out.exit_code == 0, out.output

    sys_spec = cli.load_spec(spec)[0]
    traj = simulate(GroupElement(0.5, np.array([1.25, -2.0])),
                    PiecewiseControl.from_pairs(pairs), sys_spec, step=0.01)
    columns = [traj.times[:, None], traj.states]
    header = "time,t,v1,v2"
    if name != "nilrank1":
        columns.append(project_trajectory(sys_spec, traj).states)
        header += ",t_class,v1_class,v2_class"
    table = np.hstack(columns)
    want = [header] + [",".join(repr(float(x)) for x in row) for row in table]
    got = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(got) == len(traj.times) + 1 > 250
    assert got == want


# specs at the ends of the float range, each with the commands it once sent
# to a numpy warning or a traceback; the canonical Open system has eta = (1, 0)
_TOP = 2.0**1023
_CANONICAL = dict(OPEN_SPEC, eta=[1.0, 0.0])
_JORDAN_RANK_ZERO = dict(OPEN_SPEC, theta={"family": "jordan"}, A=[[0.0, 0.0], [0.0, 0.0]],
                         xi=[1e308, 1e308])
FLOAT_RANGE_SPECS = {
    "time 2^1023": dict(_CANONICAL, A=[[_TOP, 0.0], [0.0, _TOP]], xi=[_TOP, 0.0],
                        omega=[-_TOP / 2, _TOP / 2]),
    "alpha 1e308": dict(_CANONICAL, alpha=1e308, eta=[1e308, 0.0]),
    "A 1e308 I": dict(OPEN_SPEC, A=[[1e308, 0.0], [0.0, 1e308]]),
    "A 5e307 I": dict(OPEN_SPEC, A=[[5e307, 0.0], [0.0, 5e307]]),
    "A 1e-308 I": dict(OPEN_SPEC, A=[[1e-308, 0.0], [0.0, 1e-308]]),
    "xi 1e308": dict(OPEN_SPEC, xi=[1e308, 1e308]),
    "omega 1e308": dict(_CANONICAL, omega=[-1e308, 1e308]),
    "jordan xi 1e308": _JORDAN_RANK_ZERO,
    "spiral(1000)": dict(SPIRAL_CTRL_SPEC, theta={"family": "spiral", "gamma": 1000.0}),
}
_SMALL = ["--budget", "200", "--horizon", "4"]
# (spec, command) pairs
FLOAT_RANGE_RUNS = [
    ("time 2^1023", ["classify", "--no-verify"]),
    ("time 2^1023", ["classify", *_SMALL]),
    ("time 2^1023", ["reach", *_SMALL]),
    ("alpha 1e308", ["classify", "--no-verify"]),
    ("alpha 1e308", ["reach", *_SMALL]),
    ("alpha 1e308", ["simulate", "--step", "0.1", "--svg"]),
    ("A 1e308 I", ["classify", "--no-verify"]),
    ("A 1e308 I", ["classify", *_SMALL]),
    ("A 5e307 I", ["reach", "--budget", "10"]),
    ("A 1e-308 I", ["classify", *_SMALL]),
    ("A 1e-308 I", ["reach", *_SMALL]),
    ("xi 1e308", ["classify", *_SMALL]),
    ("xi 1e308", ["reach", *_SMALL]),
    ("omega 1e308", ["classify", *_SMALL]),
    ("omega 1e308", ["simulate", "--step", "0.1", "--svg"]),
    ("jordan xi 1e308", ["simulate", "--step", "1e307"]),
    ("spiral(1000)", ["plan", "staircase"]),
    ("spiral(1000)", ["classify", *_SMALL]),
]
# the one arc each simulate run takes: (duration, control)
FLOAT_RANGE_ARCS = {"jordan xi 1e308": (1e308, 0.1)}


@pytest.mark.parametrize("name, args", FLOAT_RANGE_RUNS,
                         ids=[f"{n}: {' '.join(a)}" for n, a in FLOAT_RANGE_RUNS])
def test_float_range_runs_end_in_a_verdict_or_one_error_line(runner, tmp_path, name, args):
    # this suite turns a numpy RuntimeWarning into an exception, which the
    # runner would report here; a run either succeeds or ends in a usage
    # error or in one error line
    spec = write_spec(tmp_path, FLOAT_RANGE_SPECS[name])
    args = [args[0], spec, *args[1:]]
    if args[0] == "simulate":
        args += ["--control", write_ctrl(tmp_path, [FLOAT_RANGE_ARCS.get(name, (1.0, 0.3))])]
    out_dir = tmp_path / "out"
    out = runner.invoke(main, [*args, "--out-dir", str(out_dir)])
    assert out.exception is None or isinstance(out.exception, SystemExit), out.exc_info
    assert out.exit_code in (0, 1, 2), out.output
    if out.exit_code == 1:
        assert out.stdout == "" and len(out.stderr.splitlines()) == 1, out.output
        assert out.stderr.startswith("Error:"), out.output
    elif out.exit_code == 0:
        assert out.stderr == "", out.output
        for svg in out_dir.glob("*.svg"):
            text = svg.read_text()
            assert "inf" not in text and "nan" not in text, svg.name
