"""Command-line front end: classify, simulate, reach and plan.

Specs are JSON files validated against an embedded schema (jsonschema is
loaded only to word a rejection); outputs are JSON reports (schema-versioned,
sorted keys), CSV series, PGM occupancy bitmaps and timestamp-free SVG phase
portraits.  Exit codes: 0 on success, 1 on input and usage errors, 2 when
classification ends Unclassified.
"""

from __future__ import annotations

import json
import math
import os
import sys as _sys
from contextlib import contextmanager
from dataclasses import replace

import click
import numpy as np

from . import __version__, reach as reach_mod
from .group import GroupElement, GroupVariant
from .kernel2d import ThetaFamily, unit_scaled, unscaled
from .planar import ControlRange, PiecewiseControl, equilibrium, omega_hat
from .system import (
    InvariantField,
    LinearField,
    SystemSpec,
    conjugate_to_planar,
    sample_counts,
    simulate,
)

SCHEMA_VERSION = "1"

SPEC_SCHEMA = {
    "type": "object",
    "required": ["theta", "A", "xi", "alpha", "eta", "omega"],
    "additionalProperties": False,
    "properties": {
        "theta": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["jordan", "diagonal", "spiral"]},
                "gamma": {"type": "number"},
            },
        },
        "A": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "items": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "number"},
            },
        },
        "xi": {"type": "array", "minItems": 2, "maxItems": 2,
               "items": {"type": "number"}},
        "alpha": {"type": "number"},
        "eta": {"type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "number"}},
        "omega": {"type": "array", "minItems": 2, "maxItems": 2,
                  "items": {"type": "number"}},
        "variant": {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"enum": ["simply_connected", "se2n", "aff_circle"]},
                "n": {"type": "integer", "minimum": 1},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "budget": {"type": "integer", "minimum": 1, "maximum": 10**7},
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "box": {
                            "type": "array", "minItems": 2, "maxItems": 2,
                            "items": {
                                "type": "array", "minItems": 2, "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        },
                        "resolution": {"type": "integer", "minimum": 8, "maximum": 4096},
                    },
                },
            },
        },
    },
}

# the most samples one simulate call may record
MAX_SAMPLES = 10**7
# the most points one reach_sets call (classify verification, reach) may sample
MAX_REACH_POINTS = 10**9

DEFAULT_NUMERICS = {
    "step": 1e-3,
    "seed": 0,
    "horizon": 15.0,
    "budget": 20_000,
    # JSON lists, which the schema's "array" type takes
    "grid": {"box": [list(side) for side in reach_mod.DEFAULT_BOX],
             "resolution": reach_mod.DEFAULT_RESOLUTION},
}


class InputError(click.ClickException):
    exit_code = 1


def _numbers(text: str, n: int, what: str) -> list[float]:
    """The ``n`` finite numbers of the comma list ``text``, or a one-line InputError."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != n or not all(map(math.isfinite, parts)):
        raise InputError(f"{what} must be {n} comma-separated finite numbers, got {text!r}")
    return parts


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# Draft 7's types as jsonschema reads them: a bool is no number, 3.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}

# The keywords SPEC_SCHEMA uses, each a test of (instance, argument, schema).
# Past `type` and `enum` a keyword judges only instances of its own type, and
# a bound fails only on a true comparison, so NaN passes as in jsonschema.
_KEYWORDS = {
    "type": lambda x, name, s: _TYPES[name](x),
    "enum": lambda x, values, s: x in values,
    "required": lambda x, keys, s: not isinstance(x, dict) or all(k in x for k in keys),
    "properties": lambda x, props, s: not isinstance(x, dict) or all(
        _schema_ok(props[k], v) for k, v in x.items() if k in props),
    "additionalProperties": lambda x, _, s: not isinstance(x, dict) or all(
        k in s.get("properties", {}) for k in x),
    "items": lambda x, sub, s: not isinstance(x, list) or all(_schema_ok(sub, v) for v in x),
    "minItems": lambda x, n, s: not isinstance(x, list) or len(x) >= n,
    "maxItems": lambda x, n, s: not isinstance(x, list) or len(x) <= n,
    "minimum": lambda x, b, s: not _is_number(x) or not x < b,
    "maximum": lambda x, b, s: not _is_number(x) or not x > b,
    "exclusiveMinimum": lambda x, b, s: not _is_number(x) or not x <= b,
}


def _schema_ok(schema: dict, instance) -> bool:
    """Whether ``instance`` is valid against ``schema``, as Draft 7 judges it.

    Knows only the keywords in ``_KEYWORDS`` (``additionalProperties`` only
    as ``false``) and raises on any other, so a schema edit cannot pass
    unchecked.
    """
    for key, arg in schema.items():
        if key not in _KEYWORDS or (key == "additionalProperties" and arg is not False):
            raise ValueError(f"spec checker does not know schema keyword {key!r}: {arg!r}")
        if not _KEYWORDS[key](instance, arg, schema):
            return False
    return True


def _validate(schema: dict, instance, where: str) -> None:
    """Raise the error ``jsonschema.validate`` would, as a one-line InputError.

    ``_schema_ok`` accepts a valid instance; jsonschema is imported only to
    word a rejection.
    """
    if _schema_ok(schema, instance):
        return
    from jsonschema.exceptions import best_match
    from jsonschema.validators import validator_for

    error = best_match(validator_for(schema)(schema).iter_errors(instance))
    if error is not None:
        raise InputError(f"{where}: at {error.json_path}: {error.message}")


@contextmanager
def _library_errors(prefix: str = "", errors=ValueError):
    """Turn a library error of type ``errors`` raised in the block into the
    one-line InputError ``Error: <prefix><message>``."""
    try:
        yield
    except errors as exc:
        raise InputError(f"{prefix}{exc}")


def _check_float_range(schema: dict, instance, where: str) -> None:
    """Raise a one-line InputError naming the first integer that ``schema``
    types as a number and that is too large for a float.

    ``instance`` must be valid against ``schema``.
    """
    if isinstance(instance, dict):
        for key, value in instance.items():
            _check_float_range(schema["properties"][key], value, f"{where}.{key}")
    elif isinstance(instance, list):
        for i, value in enumerate(instance):
            _check_float_range(schema["items"], value, f"{where}[{i}]")
    elif schema.get("type") == "number" and isinstance(instance, int):
        try:
            float(instance)
        except OverflowError:
            raise InputError(f"{where}: integer too large for a float")


def load_spec(path: str) -> tuple[SystemSpec, dict]:
    """Parse and validate a spec file into (SystemSpec, raw spec)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal of more digits than int() takes
        raise InputError(f"{path}: {exc}")
    _validate(SPEC_SCHEMA, raw, path)
    _check_float_range(SPEC_SCHEMA, raw, f"{path}: at $")
    th, var = raw["theta"], raw.get("variant", {"type": GroupVariant.SIMPLY_CONNECTED})
    with _library_errors(f"{path}: "):
        spec = SystemSpec(
            theta=ThetaFamily(th["family"], th.get("gamma")),
            drift=LinearField(np.array(raw["A"], dtype=float),
                              np.array(raw["xi"], dtype=float)),
            input=InvariantField(float(raw["alpha"]),
                                 np.array(raw["eta"], dtype=float)),
            omega=ControlRange(float(raw["omega"][0]), float(raw["omega"][1])),
            variant=GroupVariant(var["type"], int(var.get("n", 1))),
        )
    return spec, raw


def _numerics(raw: dict, grid_res=None, grid_box=None, **flags) -> dict:
    """DEFAULT_NUMERICS, overridden by the spec's numerics and then by every
    flag that is set, validated once.

    Runs before any sampling, so a bad value exits 1 with a one-line error
    whether it came from the spec file or from a flag.
    """
    if grid_box is not None:
        x0, x1, y0, y1 = _numbers(grid_box, 4, "--grid-box 'x0,x1,y0,y1'")
        grid_box = [[x0, x1], [y0, y1]]
    user = raw.get("numerics", {})
    grid = {"resolution": grid_res, "box": grid_box}
    numerics = {**DEFAULT_NUMERICS, **user, **{k: v for k, v in flags.items() if v is not None}}
    numerics["grid"] = {**DEFAULT_NUMERICS["grid"], **user.get("grid", {}),
                        **{k: v for k, v in grid.items() if v is not None}}
    _validate(SPEC_SCHEMA["properties"]["numerics"], numerics, "numerics")
    if not np.all(np.isfinite([numerics["horizon"], numerics["step"]])):
        raise InputError("numerics: the horizon and the step must be finite")
    with _library_errors("numerics: "):
        reach_mod.check_box(numerics["grid"]["box"], numerics["grid"]["resolution"])
    # the schema's integers may be written as floats (500.0); the sampler takes ints
    numerics["seed"], numerics["budget"] = int(numerics["seed"]), int(numerics["budget"])
    points = reach_mod.reach_points(numerics["horizon"], numerics["budget"])
    if points > MAX_REACH_POINTS:
        raise InputError(
            f"numerics: budget {numerics['budget']} at horizon {numerics['horizon']:g} "
            f"would sample {points:.3g} points, more than {MAX_REACH_POINTS:.0e}"
        )
    return numerics


def _experiment(numerics: dict) -> dict:
    """The arguments of the sampled experiment (``reach.planar_experiment``,
    ``reach.verify_classification``) from the merged numerics."""
    grid = numerics["grid"]
    return {"horizon": numerics["horizon"], "budget": numerics["budget"], "box": grid["box"],
            "resolution": grid["resolution"], "seed": numerics["seed"]}


def _finite_or_none(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dump_json(obj: dict, path: str) -> None:
    """Write ``obj`` as strict RFC 8259 JSON: a non-finite float as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_none(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _base_report(raw_spec: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "solv3d", "version": __version__},
        "input": raw_spec,
    }


# -- SVG ---------------------------------------------------------------------

# width and height of every SVG canvas, in user units
_SVG_SIZE = 480
# trajectory.csv is projected and formatted this many rows at a time, so a
# long run streams
_CSV_ROWS = 1024


def _svg_polyline(points, box, color, width=1.2) -> str:
    """A polyline through the points of the data box, dropping any point
    whose canvas coordinates leave the float range."""
    (x0, x1), (y0, y1) = box
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        xs = (pts[:, 0] - x0) / (x1 - x0) * _SVG_SIZE
        ys = _SVG_SIZE - (pts[:, 1] - y0) / (y1 - y0) * _SVG_SIZE
    keep = np.isfinite(xs) & np.isfinite(ys)
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs[keep].tolist(), ys[keep].tolist()))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
        f'points="{coords}"/>'
    )


def _equilibrium_overlay(spec, box, e=0) -> str:
    """The rest-point curve on the data box ``box`` in units of 2^e."""
    # the controls are spaced on the interval scaled by a power of two into
    # [-1, 1], where hi - lo cannot overflow
    (lo, hi), f = unit_scaled(omega_hat(spec).component_of_zero)
    pts = []
    for u in unscaled(np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 200), f):
        try:
            pts.append(equilibrium(spec, float(u)))
        except ValueError:
            continue  # no well-conditioned rest point this close to a double root
    return _svg_polyline(unscaled(pts, -e), box, "#cc3333", width=2.0)


def write_svg(path: str, elements: list[str], box, e=0) -> None:
    """An SVG of the elements, drawn on the data box ``box`` in units of 2^e.
    Its comment gives the box in data units where they stay in the float
    range, else in units of 2^e."""
    data = unscaled(box, e).tolist() if e else box
    scale = "" if np.isfinite(data).all() else f" (units of 2^{e})"
    (x0, x1), (y0, y1) = box if scale else data
    size = _SVG_SIZE
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f"<!-- data box x:[{x0},{x1}] y:[{y0},{y1}]{scale} -->",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + elements + ["</svg>"]) + "\n")


# -- commands ----------------------------------------------------------------


class _Main(click.Group):
    """The command group, where a click usage error (an unknown command or
    option, a bad option value, a missing file) is an input error: one
    ``Error:`` line and exit 1.  Bare ``solv3d`` prints the help, exit 1."""

    def parse_args(self, ctx, args):
        if not args:
            click.echo(ctx.get_help(), err=True)
            ctx.exit(1)
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            raise InputError(exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            raise InputError(exc.format_message())


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="solv3d")
def main():
    """Linear control systems on the 3D solvable nonnilpotent Lie groups.

    \b
    Exit codes:
      0  success
      1  input error (malformed spec or option, violated precondition)
      2  classification ended Unclassified
    """


out_dir_option = click.option("--out-dir", type=click.Path(file_okay=False), default=".",
                              show_default=True, help="Directory for output artifacts.")


def common_options(fn):
    return out_dir_option(click.option("--seed", type=int, default=None,
                                       help="Override the spec's RNG seed.")(fn))


@main.command("classify")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@common_options
@click.option("--budget", type=int, default=None, help="Override sample budget.")
@click.option("--horizon", type=float, default=None, help="Override time horizon.")
@click.option("--verify/--no-verify", default=True, show_default=True,
              help="Run the numerical cross-examination of the verdict.")
def cmd_classify(spec_path, out_dir, seed, budget, horizon, verify):
    """Classify the control-set taxonomy of a system and write report.json."""
    sys_spec, raw = load_spec(spec_path)
    numerics = _numerics(raw, seed=seed, budget=budget, horizon=horizon)
    out = _base_report(raw)
    with _library_errors():
        report = reach_mod.classify(sys_spec)
        out["classification"] = report.to_dict()
        out["verification"] = reach_mod.verify_classification(
            report, sys_spec, **_experiment(numerics)
        ) if verify else {"ok": True, "checks": []}
    if sys_spec.variant.tag != GroupVariant.SIMPLY_CONNECTED:
        from .covering import lift_control_set

        out["covering"] = lift_control_set(report, sys_spec)
    os.makedirs(out_dir, exist_ok=True)
    dump_json(out, os.path.join(out_dir, "report.json"))
    click.echo(f"taxonomy: {report.taxonomy} ({report.rule})")
    if verify:
        failed = [c["name"] for c in out["verification"]["checks"] if not c["ok"]]
        click.echo(f"verification: failed ({', '.join(failed)})" if failed else "verification: ok")
    if report.taxonomy == reach_mod.TAX_UNCLASSIFIED:
        _sys.exit(2)


def _read_control_csv(path: str) -> PiecewiseControl:
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line or (i == 0 and line.lower().startswith("duration")):
                    continue
                s, u = _numbers(line, 2, f"{path}:{i + 1}: 'duration,value'")
                if not s > 0.0:
                    raise InputError(f"{path}:{i + 1}: expected a positive duration")
                pairs.append((s, u))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read control schedule {path}: {exc}")
    if not pairs:
        raise InputError(f"{path}: empty control schedule")
    return PiecewiseControl.from_pairs(pairs)


def _write_control_csv(path: str, ctrl: PiecewiseControl) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("duration,value\n")
        for s, u in ctrl.pairs():
            fh.write(f"{s!r},{u!r}\n")


@main.command("simulate")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--control", "control_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV schedule with duration,value rows.")
@click.option("--start", default="0,0,0", show_default=True,
              help="Initial state t,v1,v2.")
@click.option("--step", type=float, default=None, help="Integrator step override.")
@click.option("--svg/--no-svg", default=False, show_default=True,
              help="Also write a phase portrait SVG.")
@out_dir_option
def cmd_simulate(spec_path, control_path, start, step, svg, out_dir):
    """Integrate a piecewise-constant control and write trajectory.csv."""
    sys_spec, raw = load_spec(spec_path)
    step = _numerics(raw, step=step)["step"]
    ctrl = _read_control_csv(control_path)
    # an overflowing (inf) or huge count would never finish
    if not sample_counts(ctrl.durations, step).sum() <= MAX_SAMPLES:
        raise InputError(
            f"{control_path}: step {step!r} asks for more than {MAX_SAMPLES} samples"
        )
    t0, v1, v2 = _numbers(start, 3, "--start 't,v1,v2'")
    with _library_errors("simulate: "):
        traj = simulate(GroupElement(t0, np.array([v1, v2])), ctrl, sys_spec, step=step)

    quotient = sys_spec.variant.tag != GroupVariant.SIMPLY_CONNECTED
    if quotient:
        from .covering import project_trajectory
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("time,t,v1,v2" + (",t_class,v1_class,v2_class\n" if quotient else "\n"))
        for i in range(0, len(traj.times), _CSV_ROWS):
            block = replace(traj, times=traj.times[i:i + _CSV_ROWS],
                            states=traj.states[i:i + _CSV_ROWS])
            columns = [block.times, block.states]
            if quotient:
                columns.append(project_trajectory(sys_spec, block).states)
            rows = np.column_stack(columns).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    click.echo(f"wrote {csv_path} ({len(traj.times)} samples)")

    if svg:
        # the box and every element are drawn in units of 2^e, where the
        # states lie in [-1, 1] and no span or pad overflows; a power of two
        # scales exactly, so in-range states draw as in data units
        e = max(unit_scaled(traj.states[:, 1:])[1], 0)
        pts = unscaled(traj.states[:, 1:], -e)
        pad = 0.1 * max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), unscaled(1.0, -e))
        box = (
            (float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)),
            (float(pts[:, 1].min() - pad), float(pts[:, 1].max() + pad)),
        )
        elements = [_svg_polyline(pts, box, "#225599")]
        try:
            planar = conjugate_to_planar(sys_spec).planar
        except ValueError:
            pass  # no planar reduction, so no rest-point curve
        else:
            elements.append(_equilibrium_overlay(planar, box, e))
        svg_path = os.path.join(out_dir, "trajectory.svg")
        write_svg(svg_path, elements, box, e)
        click.echo(f"wrote {svg_path}")


@main.command("reach")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@common_options
@click.option("--budget", type=int, default=None, help="Override sample budget.")
@click.option("--horizon", type=float, default=None, help="Override time horizon.")
@click.option("--grid-res", type=int, default=None, help="Override grid resolution.")
@click.option("--grid-box", default=None,
              help="Override grid box as 'x0,x1,y0,y1'.")
def cmd_reach(spec_path, out_dir, seed, budget, horizon, grid_res, grid_box):
    """Estimate planar reachable sets and the control set; write CSV/PGM/SVG."""
    sys_spec, raw = load_spec(spec_path)
    numerics = _numerics(raw, seed=seed, budget=budget, horizon=horizon,
                         grid_res=grid_res, grid_box=grid_box)
    args = _experiment(numerics)
    with _library_errors("reach: "):
        spec, grid, est = reach_mod.planar_experiment(sys_spec, **args)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "occupancy.csv"), "w", encoding="utf-8") as fh:
        fh.write(reach_mod.grid_to_csv(grid, est))
    for name, layer in (
        ("forward", grid.forward), ("backward", grid.backward), ("estimate", est.cells)
    ):
        with open(os.path.join(out_dir, f"{name}.pgm"), "w", encoding="utf-8") as fh:
            fh.write(reach_mod.grid_to_pgm(layer))
    out = _base_report(raw)
    out["reach"] = {**args, "diagnostics": est.diagnostics}
    dump_json(out, os.path.join(out_dir, "reach_report.json"))

    elements = _cell_rects(est.cells)
    elements.append(_equilibrium_overlay(spec, grid.box))
    write_svg(os.path.join(out_dir, "reach.svg"), elements, grid.box)
    click.echo(
        f"forward {est.diagnostics['forward_cells']} cells, "
        f"backward {est.diagnostics['backward_cells']}, "
        f"estimate {est.diagnostics['estimate_cells']}"
    )


def _cell_rects(cells: np.ndarray) -> list[str]:
    """One SVG square per set cell of the n x n bitmap, on the whole canvas."""
    n = cells.shape[0]
    cell = _SVG_SIZE / n
    return [
        f'<rect x="{i * cell:.2f}" y="{(n - 1 - j) * cell:.2f}" '
        f'width="{cell:.2f}" height="{cell:.2f}" fill="#88aadd" stroke="none"/>'
        for i, j in np.argwhere(cells).tolist()
    ]


@main.command("plan")
@click.argument("planner", type=click.Choice(["circle-hop", "fiber-sync", "staircase"]))
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@out_dir_option
@click.option("--v0", default="3,0", show_default=True, help="circle-hop start point 'x,y'.")
@click.option("--u0", type=float, default=0.0, show_default=True,
              help="circle-hop target control.")
@click.option("--p1", default="0,0,0", show_default=True, help="fiber-sync start 't,x,y'.")
@click.option("--p2", default="0,0,0", show_default=True, help="fiber-sync target 't,x,y'.")
@click.option("--u-pair", default=None, help="fiber-sync dwell controls 'u1,u2'.")
@click.option("--x", "x_val", type=float, default=0.0, show_default=True,
              help="staircase start coordinate.")
@click.option("--y", "y_val", type=float, default=1.0, show_default=True,
              help="staircase intermediate coordinate.")
def cmd_plan(planner, spec_path, out_dir, v0, u0, p1, p2, u_pair, x_val, y_val):
    """Run a constructive planner and write control.csv + plan_report.json."""
    from . import plan as plan_mod

    sys_spec, raw = load_spec(spec_path)
    _numerics(raw)

    with _library_errors(f"{planner}: ", (ValueError, RuntimeError)):
        if planner == "staircase":
            c = plan_mod.staircase_fiber(sys_spec)[1]
            result = plan_mod.staircase(sys_spec.theta.gamma, sys_spec.alpha, c, x_val, y_val,
                                        sys_spec.omega)
        else:
            spec = conjugate_to_planar(sys_spec).planar
            lo, hi = omega_hat(spec).component_of_zero
            if planner == "circle-hop":
                start = np.array(_numbers(v0, 2, "--v0"))
                result = plan_mod.circle_hop(spec, start, u0, (lo, hi))
            else:
                a = _numbers(p1, 3, "--p1")
                b = _numbers(p2, 3, "--p2")
                u1, u2 = (0.5 * lo, 0.5 * hi) if u_pair is None else _numbers(u_pair, 2, "--u-pair")
                result = plan_mod.fiber_sync(
                    spec, (a[0], np.array(a[1:])), (b[0], np.array(b[1:])), u1, u2
                )

    os.makedirs(out_dir, exist_ok=True)
    _write_control_csv(os.path.join(out_dir, "control.csv"), result.control)
    out = _base_report(raw)
    out["plan"] = {
        "planner": planner,
        "predicted": [float(x) for x in np.atleast_1d(result.predicted)],
        "achieved": [float(x) for x in np.atleast_1d(result.achieved)],
        "endpoint_error": float(result.error),
        "legs": len(result.control),
    }
    if result.return_control is not None:
        _write_control_csv(
            os.path.join(out_dir, "control_return.csv"), result.return_control
        )
        out["plan"]["return_legs"] = len(result.return_control)
    dump_json(out, os.path.join(out_dir, "plan_report.json"))
    click.echo(f"endpoint error: {result.error:.3e}")


def report_schema() -> dict:
    """The shipped JSON schema for report files."""
    from importlib import resources

    with resources.files("solv3d").joinpath("report_schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


if __name__ == "__main__":
    main()
