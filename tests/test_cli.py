"""End-to-end tests of the command-line interface."""

import json
import os

import jsonschema
import pytest
from click.testing import CliRunner

from solv3d.cli import main, report_schema

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


class TestSimulate:
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
    ]

    @pytest.mark.parametrize("command, flags", BAD,
                             ids=[" ".join([c] + f) for c, f in BAD])
    def test_bad_numerics_are_one_line_errors(self, runner, tmp_path, command, flags):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, [command, spec, "--out-dir", str(tmp_path)] + flags,
                            catch_exceptions=False)
        assert out.exit_code == 1
        lines = out.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), out.output
        assert "Traceback" not in out.output
        assert not (tmp_path / "reach_report.json").exists()


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

    def test_staircase_needs_scaling_spiral(self, runner, tmp_path):
        spec = write_spec(tmp_path, WHOLE_SPEC)
        out = runner.invoke(main, ["plan", "staircase", spec,
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 1

    def test_fiber_sync_trivial(self, runner, tmp_path):
        spec = write_spec(tmp_path, dict(WHOLE_SPEC, A=[[-1.0, -0.3], [0.3, -1.0]]))
        out = runner.invoke(main, [
            "plan", "fiber-sync", spec, "--out-dir", str(tmp_path),
            "--p1", "1,2,3", "--p2", "1,2,3",
        ])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] == 0.0


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
