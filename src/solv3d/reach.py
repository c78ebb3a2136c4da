"""Reachable-set sampling, control-set estimation and classification.

The planar reachable sets are estimated on a fixed grid by integrating
batches of random piecewise-constant controls exactly: every arc is the
affine map v -> E v + W u eta, and the evenly spaced samples along an arc
are repeated applications of one such map from ``kernel2d.arc``.  The
controls take LEVELS + 3 values (the bang levels and evenly spaced
midpoints), so one ``arc`` call per direction and arc length tabulates
every map.  Each trajectory's level is one lookup of its random draw, and
its row one ``np.take`` gather.  Every sample then marks its cell with one
cast and one flat scatter over the batch, the lanes outside the box
repeating the cell of a lane inside.  Where the sign of ``sym(A(u))``
certifies that |v| grows under every control beyond some radius
(``_escape_radius``), a trajectory past that radius never returns to the
box; it is dropped from the batch at the next arc, and its remaining
samples are counted as escaped instead of computed.
Forward and backward occupancies combine into a control-set estimate.
``classify`` picks one rule of the table ``RULES`` by the rank condition,
the group variant, the drift rank and the trace sign; the rule's row gives
the verdict's geometry, the numerical experiment of
``verify_classification`` and, on a quotient group, the covering relation
of ``covering.lift_control_set``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .group import GroupVariant
from .kernel2d import SPIRAL, arc, check_finite, trace_sign, unit_scaled, unscaled
from .planar import (
    DetSignError,
    PlanarSpec,
    PlanarVerdict,
    classify_planar,
    equilibrium,
    omega_hat,
)
from .system import (
    RankCertificate,
    SystemSpec,
    adrank,
    conjugate_to_planar,
    larc,
    nilrank,
)

__all__ = [
    "ReachGrid",
    "ControlSetEstimate",
    "ClassificationReport",
    "reach_sets",
    "reach_points",
    "check_box",
    "control_set_estimate",
    "Rule",
    "RULES",
    "classify",
    "verify_classification",
    "window_fill",
    "grid_to_csv",
    "grid_to_pgm",
]

TAX_OPEN = "UniqueControlSetOpen"
TAX_CLOSED = "UniqueControlSetClosed"
TAX_WHOLE = "WholeGroup"
TAX_INFINITE = "InfiniteEmptyInterior"
TAX_CONTROLLABLE = "Controllable"
TAX_UNCLASSIFIED = "Unclassified"

# every arc's control is u_min, 0, u_max or one of this many evenly spaced
# midpoints of the range
LEVELS = 4096
# the identity-return round trip may end off the identity fiber by this
# fraction of how far it went
RETURN_TOL = 1e-5
# the WholeGroup check: the estimate must fill at least this share of the window
FILL_WINDOW = ((-5.0, 5.0), (-5.0, 5.0))
FILL_THRESHOLD = 0.99
# the budget is sampled in equal batches of at most this many trajectories:
# enough to amortise numpy's per-call overhead, few enough that an arc's
# arrays stay in cache (one uncapped 100k batch ran slower than 12.5k ones)
_BATCH = 16_384


@dataclass(frozen=True)
class ReachGrid:
    """Occupancy bitmaps of the forward and backward orbits on a box grid.

    ``points`` counts every sampled point of both directions, and
    ``points_outside`` those that left the box and marked no cell.
    ``points_escaped``, part of ``points_outside``, counts the points not
    computed because their trajectory had provably left the box for good.
    """

    box: tuple[tuple[float, float], tuple[float, float]]
    resolution: int
    forward: np.ndarray
    backward: np.ndarray
    points: int = 0
    points_outside: int = 0
    points_escaped: int = 0

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("grid resolution must be at least 8")

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        (x0, x1), (y0, y1) = self.box
        xs = x0 + (np.arange(self.resolution) + 0.5) * (x1 - x0) / self.resolution
        ys = y0 + (np.arange(self.resolution) + 0.5) * (y1 - y0) / self.resolution
        return xs, ys

    def cell_of(self, v: np.ndarray) -> tuple[int, int] | None:
        """The cell holding v, or None outside the box (or for NaN)."""
        # Python floats: a cell index past the float range is inf, with no warning
        fx, fy, inside = _cells(float(v[0]), float(v[1]), self.box, self.resolution)
        return (int(fx), int(fy)) if inside else None


@dataclass(frozen=True)
class ControlSetEstimate:
    """Cells of closure(forward orbit) intersected with the backward orbit."""

    cells: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _cells(x: np.ndarray, y: np.ndarray, box, res: int):
    """Cell coordinates of the points (x, y), as floats, and the mask of
    those inside the box (False for NaN)."""
    (x0, x1), (y0, y1) = box
    fx = np.floor((x - x0) / (x1 - x0) * res)
    fy = np.floor((y - y0) / (y1 - y0) * res)
    return fx, fy, (fx >= 0) & (fx < res) & (fy >= 0) & (fy < res)


def _mark(bitmap: np.ndarray, x: np.ndarray, y: np.ndarray, box, res: int) -> int:
    """Set the cells hit by the points (x, y); return how many fell inside the box.

    ``bitmap`` must be C-contiguous: the cells are set through its flat view,
    at ``ix * res + iy``, which float64 holds exactly for ``res <= 4096``.
    Points outside the box, infinite or NaN mark nothing and are never cast:
    their lanes take the cell of the first point inside, so one cast and one
    scatter cover every lane.
    """
    if not bitmap.flags.c_contiguous:
        raise ValueError("the bitmap must be C-contiguous")
    fx, fy, ok = _cells(x, y, box, res)
    if not ok.any():
        return 0
    # lanes outside the box may overflow or meet opposite infinities; they
    # are overwritten before the cast
    with np.errstate(invalid="ignore", over="ignore"):
        flat = fx * res + fy
    flat[~ok] = flat[np.argmax(ok)]
    bitmap.reshape(-1)[flat.astype(np.intp)] = True
    return int(np.count_nonzero(ok))


def _arc_table(spec: PlanarSpec, h: float) -> np.ndarray:
    """Rows ``e00, e01, e10, e11, cx, cy`` of the sample map v -> E v + c over
    time h, one column per control level: ``u_min, 0, u_max`` and then the
    LEVELS midpoints ``u_min + (u_max - u_min)(j + 1/2)/LEVELS``.

    One ``arc`` call covers every level, so each entry is the one a call on
    the whole range gives.  The levels are spaced on the range scaled by a
    power of two into [-1, 1], where ``hi - lo`` cannot overflow.  A
    propagator that overflows holds inf or NaN and its samples count as
    outside, like ``_mark``'s lanes.
    """
    (lo, hi), e = unit_scaled([spec.omega.u_min, spec.omega.u_max])
    mid = lo + (hi - lo) * (np.arange(LEVELS) + 0.5) / LEVELS
    u = unscaled(np.concatenate([[lo, 0.0, hi], mid]), e)
    A, th, eta = spec.A, spec.theta_matrix, spec.eta
    with np.errstate(invalid="ignore", over="ignore"):
        (e00, e01, e10, e11), (w00, w01, w10, w11) = arc(
            A[0, 0] - u * th[0, 0], A[0, 1] - u * th[0, 1],
            A[1, 0] - u * th[1, 0], A[1, 1] - u * th[1, 1], h,
        )
        return np.array([e00, e01, e10, e11,
                         u * (w00 * eta[0] + w01 * eta[1]), u * (w10 * eta[0] + w11 * eta[1])])


# the ``_arc_table`` column of each raw draw r in [0, 6 LEVELS): bang level
# r mod 3 below 3 LEVELS, else midpoint (r - 3 LEVELS) // 3
_LEVEL_OF = np.concatenate([np.tile(np.arange(3), LEVELS), 3 + np.repeat(np.arange(LEVELS), 3)])


def _draw_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    """n column indices of ``_arc_table``: half the time a bang level (1/6
    each), otherwise one of the LEVELS midpoints, all equally likely.

    One ``rng.integers`` draw per index, looked up in ``_LEVEL_OF``."""
    return np.take(_LEVEL_OF, rng.integers(0, 6 * LEVELS, size=n))


def _escape_radius(spec: PlanarSpec, sign: float, box) -> float:
    """A radius that no trajectory of direction ``sign`` recrosses into the
    box, or inf when none is certified.

    The sample maps of direction ``sign`` (``_arc_table`` at step ``sign h``)
    integrate ``v' = sign (A(u) v + u eta)`` with ``A(u) = A - u theta``, so
    ``d|v|^2/dt = 2 v.S(u)v + 2 sign u v.eta >= 2|v| (lam |v| - |u| |eta|)``
    with ``S(u) = sign sym(A(u))`` and ``lam`` the least eigenvalue of S(u)
    over omega.  S is affine in u, so its least eigenvalue is concave and
    ``lam`` is its value at u_min or u_max.  If ``lam > 0``, |v| grows under
    every control level wherever ``|v| > R* = max(|u_min|, |u_max|) |eta| / lam``,
    so a trajectory beyond ``max(R*, r_box)``, with ``r_box`` the distance of
    the box corner farthest from the origin, never comes back into the box.
    The radius returned is twice that.  The factor 2 absorbs rounding: the
    table entries are good to about 1e-14 relative, so a computed step can
    shrink |v| by about that much where the exact one grows it (by about
    e^{lam h}), and halving |v| that way takes some 1e13 steps.  With
    ``lam <= 0`` some control keeps |v| bounded or shrinking, and the radius
    is inf.
    """
    sym_a = 0.5 * (spec.A + spec.A.T)
    sym_th = 0.5 * (spec.theta_matrix + spec.theta_matrix.T)
    us = (spec.omega.u_min, spec.omega.u_max)
    # a Python float, whose quotient overflows to inf without a warning
    lam = float(min(np.linalg.eigvalsh(sign * (sym_a - u * sym_th))[0] for u in us))
    if not lam > 0.0:
        return math.inf
    r_star = max(abs(u) for u in us) * math.hypot(*spec.eta) / lam
    r_box = max(math.hypot(x, y) for x in box[0] for y in box[1])
    return 2.0 * max(r_star, r_box)


def _sample_direction(
    v0: np.ndarray,
    tables: list[np.ndarray],
    rho: float,
    rng: np.random.Generator,
    n: int,
    bitmap: np.ndarray,
    box,
    res: int,
    samples_per_arc: int,
) -> tuple[int, int]:
    """Accumulate one time direction's occupancy over a batch of n trajectories.

    ``tables[i]`` is arc i's ``_arc_table``, and each arc draws one level
    for each of the n trajectories from ``rng``, dropped ones included, so
    every kept trajectory sees the draws it would see alone.  Switches
    happen on a fixed period, so a longer horizon extends the same draws
    instead of redrawing them.  At the start of each arc, a trajectory
    beyond the escape radius ``rho`` (or NaN, which stays NaN) is dropped,
    and the rest gather their rows with ``np.take``; the batch ends when no
    trajectory is left.  Every sample is one ``_mark`` call over the kept
    trajectories.  Returns how many of the sampled points fell inside the
    box, and how many were not computed because their trajectory was dropped.
    """
    x = np.full(n, float(v0[0]))
    y = np.full(n, float(v0[1]))
    lanes = np.arange(n)
    inside = _mark(bitmap, x, y, box, res)
    escaped = 0
    for i, table in enumerate(tables):
        draws = _draw_levels(rng, n)
        if rho < math.inf:
            with np.errstate(invalid="ignore", over="ignore"):
                keep = np.flatnonzero(x * x + y * y <= rho * rho)
            if keep.size < lanes.size:
                escaped += (lanes.size - keep.size) * (len(tables) - i) * samples_per_arc
                if not keep.size:
                    break
                lanes, x, y = lanes[keep], x[keep], y[keep]
        if lanes.size < n:
            draws = draws[lanes]
        e00, e01, e10, e11, cx, cy = np.take(table, draws, axis=1)
        # the samples are powers of the arc's map applied to v, computed as
        # x <- (e00 x + e01 y) + cx and y <- (e11 y + e10 x) + cy; one that
        # overflows marks nothing
        new_x, t = np.empty_like(x), np.empty_like(x)
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(samples_per_arc):
                np.multiply(e00, x, out=new_x)
                np.multiply(e01, y, out=t)
                new_x += t
                new_x += cx
                np.multiply(e11, y, out=y)
                np.multiply(e10, x, out=t)
                y += t
                y += cy
                x, new_x = new_x, x
                inside += _mark(bitmap, x, y, box, res)
    return inside, escaped


def check_box(box) -> None:
    """Raise ValueError unless the grid box ((x0, x1), (y0, y1)) is finite
    with x0 < x1 and y0 < y1."""
    (x0, x1), (y0, y1) = box
    if not (all(map(math.isfinite, (x0, x1, y0, y1))) and x0 < x1 and y0 < y1):
        raise ValueError(f"the grid box must be finite with x0 < x1 and y0 < y1, got {box}")


def reach_points(T: float, budget: int, arc_duration: float = 2.0,
                 samples_per_arc: int = 8) -> int:
    """How many points ``reach_sets`` samples: every trajectory of both time
    directions at its start and at each sample of every arc.

    Raises ValueError unless T and ``arc_duration`` are finite and positive
    and ``samples_per_arc`` is at least 1."""
    if not (0.0 < T < math.inf and 0.0 < arc_duration < math.inf):
        raise ValueError("the horizon and the arc duration must be finite and positive")
    if samples_per_arc < 1:
        raise ValueError("samples_per_arc must be at least 1")
    return 2 * int(budget) * (1 + math.ceil(T / arc_duration) * samples_per_arc)


def reach_sets(
    spec: PlanarSpec,
    v0: np.ndarray,
    T: float,
    budget: int,
    box: tuple = ((-10.0, 10.0), (-10.0, 10.0)),
    resolution: int = 64,
    seed: int = 0,
    arc_duration: float = 2.0,
    samples_per_arc: int = 8,
) -> ReachGrid:
    """Forward and backward occupancy of the planar system from v0.

    Every arc's control is one of ``_arc_table``'s levels, so one table per
    direction and arc length serves every trajectory.  The bang levels are
    among them: a finite control set whose convex hull is the whole range
    leaves the closure of a control-affine system's reachable sets unchanged
    (Filippov-Wazewski relaxation).  The budget is split into
    ``ceil(budget / _BATCH)`` equal batches, each direction of each batch
    drawing from its own child of ``SeedSequence(seed)``, so the result
    depends only on (spec, v0, T, budget, seed) and the grid.  Trajectories
    beyond a direction's ``_escape_radius`` are dropped, which changes no
    bitmap and no count but ``points_escaped``.  Bad sampling arguments
    raise ValueError before any sampling.
    """
    points = reach_points(T, budget, arc_duration, samples_per_arc)
    if not isinstance(budget, numbers.Integral) or isinstance(budget, bool) or budget <= 0:
        raise ValueError(f"the budget must be a positive integer, got {budget}")
    res = int(resolution)
    if res < 8:
        raise ValueError("grid resolution must be at least 8")
    check_box(box)
    v0 = check_finite(v0, "v0").reshape(2)
    lengths = [min(arc_duration, T - i * arc_duration) for i in range(math.ceil(T / arc_duration))]
    n_batches = math.ceil(budget / _BATCH)
    seeds = np.random.SeedSequence(seed).spawn(2 * n_batches)

    fwd = np.zeros((res, res), dtype=bool)
    bwd = np.zeros((res, res), dtype=bool)
    inside = escaped = 0
    for d, (sign, bitmap) in enumerate(((+1.0, fwd), (-1.0, bwd))):
        by_length = {s: _arc_table(spec, sign * s / samples_per_arc) for s in set(lengths)}
        tables = [by_length[s] for s in lengths]
        rho = _escape_radius(spec, sign, box)
        for i in range(n_batches):
            n = budget // n_batches + (i < budget % n_batches)
            got, lost = _sample_direction(v0, tables, rho,
                                          np.random.default_rng(seeds[2 * i + d]), n,
                                          bitmap, box, res, samples_per_arc)
            inside += got
            escaped += lost
    return ReachGrid(box, res, fwd, bwd, points, points - inside, escaped)


def _dilate3x3(bitmap: np.ndarray) -> np.ndarray:
    """Binary dilation by the full 3x3 square, with False beyond the border."""
    n, m = bitmap.shape
    padded = np.pad(bitmap, 1)
    out = np.zeros_like(bitmap)
    for i in range(3):
        for j in range(3):
            out |= padded[i:i + n, j:j + m]
    return out


def control_set_estimate(grid: ReachGrid) -> ControlSetEstimate:
    """closure(forward) ∩ backward, with closure as a one-cell dilation."""
    cells = _dilate3x3(grid.forward) & grid.backward
    diag = {
        "forward_cells": int(np.sum(grid.forward)),
        "backward_cells": int(np.sum(grid.backward)),
        "estimate_cells": int(np.sum(cells)),
        "points": grid.points,
        "points_outside": grid.points_outside,
        "points_escaped": grid.points_escaped,
    }
    return ControlSetEstimate(cells, diag)


def window_fill(grid: ReachGrid, cells: np.ndarray, window: tuple) -> float:
    """Fraction of grid cells inside the window that are set."""
    xs, ys = grid.cell_centers()
    (wx0, wx1), (wy0, wy1) = window
    in_x = (xs >= wx0) & (xs <= wx1)
    in_y = (ys >= wy0) & (ys <= wy1)
    sub = cells[np.ix_(in_x, in_y)]
    return float(np.mean(sub)) if sub.size else 0.0


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """Taxonomy verdict plus the certificates it rests on."""

    nilrank: int
    larc: RankCertificate
    adrank: RankCertificate
    taxonomy: str
    geometry: str
    rule: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def _jsonable(x):
    """``x`` in JSON's own types: dicts with sorted keys, lists for tuples and
    arrays, and Python bools, floats and ints for numpy scalars."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# -- the rule table ------------------------------------------------------------


def _check(name, ok, **data) -> dict:
    return {"name": name, "ok": bool(ok), **_jsonable(data)}


def _verify_planar(report, sys, budget, horizon, resolution, seed, box) -> list[dict]:
    """Sampled reach sets of the reduced planar system against an Open,
    Closed or WholeGroup verdict (none against Unclassified)."""
    if report.taxonomy == TAX_UNCLASSIFIED:
        return []
    spec = conjugate_to_planar(sys).planar
    grid = reach_sets(
        spec, np.zeros(2), horizon, budget, box=box, resolution=resolution, seed=seed
    )
    est = control_set_estimate(grid)
    i0 = omega_hat(spec).component_of_zero
    if report.taxonomy == TAX_OPEN:
        us = np.linspace(0.6 * i0[0], 0.6 * i0[1], 9)
        cells = [grid.cell_of(equilibrium(spec, float(u))) for u in us]
        hit = sum(c is not None and bool(est.cells[c]) for c in cells)
        first = _check("rest-points-inside-estimate", hit == len(us), hits=hit, total=len(us))
    elif report.taxonomy == TAX_CLOSED:
        angles = [2.0 * np.pi * i / 10.0 for i in range(10)]
        starts = [10.0 * np.array([np.cos(a), np.sin(a)]) for a in angles]
        entries = _entry_indices(spec, starts, est, grid)
        first = _check("far-starts-reach-estimate", None not in entries, starts=10, radius=10.0)
    else:
        fill = window_fill(grid, est.cells, FILL_WINDOW)
        first = _check("window-fill", fill >= FILL_THRESHOLD, fill=fill,
                       threshold=FILL_THRESHOLD)
    return [first, _check("estimate-nonempty", est.diagnostics["estimate_cells"] > 0,
                          **est.diagnostics)]


def _verify_identity_return(report, sys, budget, horizon, resolution, seed, box) -> list[dict]:
    from .plan import identity_return_error

    err = identity_return_error(sys, seed)
    return [_check("identity-return", err <= RETURN_TOL, endpoint_error=err)]


def _verify_plane_family(report, sys, budget, horizon, resolution, seed, box) -> list[dict]:
    from .plan import monotone_certificate

    cert = monotone_certificate(sys)
    return [_check("monotone-certificate", cert.holds, min_g=cert.min_g),
            _check("pairing-never-decreases", cert.sweep_holds)]


@dataclass(frozen=True)
class Rule:
    """One rule of ``classify``: the geometry of the control sets it reports,
    the numerical experiment that checks it (None: symbolic only) and, for a
    rule on a quotient group, how the quotient control set relates to its
    lift and the topology entry by taxonomy (``covering.lift_control_set``)."""

    geometry: str
    verifier: Callable[..., list[dict]] | None = None
    relation: str | None = None
    topology: dict | None = None


# every rule that ``classify`` can report, keyed by name
RULES = {
    "rank-condition-failed": Rule("none", relation="none: the rank condition fails"),
    "se2n/unique-lift": Rule(
        "unique control set, the preimage of the base control set "
        "under the covering projection",
        _verify_planar,
        "the preimage of the quotient control set under the covering "
        "projection is the unique control set upstairs",
    ),
    "se2n/flat-cylinders": Rule(
        "cylinder family C_r = {([t], v): <v, xi_hat> = r}",
        relation="infinite family of control sets with empty interior on the "
        "cylinders C_r = {([t], v): <v, xi_hat> = r}",
    ),
    "affcircle/trace-sign": Rule(
        "product of the affine-line control set with the circle",
        relation="the quotient control set is the product of the affine-line "
        "control set with the full circle; its preimage upstairs is "
        "the unique control set of the lifted system",
        topology={TAX_OPEN: "open", TAX_CLOSED: "closed"},
    ),
    "affcircle/trace-zero": Rule(
        "the whole group",
        relation="the quotient system is controllable while the lifted system "
        "admits an infinite family of control sets with empty "
        "interior, one per separating plane",
        topology={TAX_CONTROLLABLE: "whole group downstairs, plane family upstairs"},
    ),
    "nilrank2/planar-cylinder": Rule(
        "cylinder: preimage of the planar control set under the plane projection",
        _verify_planar,
    ),
    "nilrank1/trace-sign": Rule("product of a line control set with ker A"),
    "nilrank0/spiral-staircase": Rule("the whole group", _verify_identity_return),
    "nilrank0/plane-family": Rule(
        "plane family P_c = {(t, v): <v, xi_hat> = c}", _verify_plane_family
    ),
}


def classify(sys: SystemSpec) -> ClassificationReport:
    """Pick the rule of ``RULES`` and the taxonomy from the rank condition,
    the variant, the drift rank and the trace sign."""
    cert = larc(sys)
    ad = adrank(sys)
    nr = nilrank(sys)

    def report(rule, tax, details):
        geom = "none" if tax == TAX_UNCLASSIFIED else RULES[rule].geometry
        return ClassificationReport(nr, cert, ad, tax, geom, rule, details)

    if not cert.holds:
        return report("rank-condition-failed", TAX_UNCLASSIFIED,
                      {"reason": "the accessibility rank condition does not hold"})

    unit, e = unit_scaled(sys.A)
    trace = {"trace": float(unscaled(np.trace(unit), e))}
    # the trace sign's verdict: open if positive, closed if negative, and
    # the whole group if zero
    sign = trace_sign(sys.A)
    by_sign = {1: TAX_OPEN, -1: TAX_CLOSED}.get(sign, TAX_WHOLE)

    if sys.variant.tag == GroupVariant.SE2N:
        if nr == 2:
            return report("se2n/unique-lift", *_planar_branch(sys))
        return report("se2n/flat-cylinders", TAX_INFINITE,
                      {"det_a": float(np.linalg.det(sys.A))})

    if sys.variant.tag == GroupVariant.AFF_CIRCLE:
        from .covering import descend_check

        ok, reason = descend_check(sys)
        if not ok:
            raise ValueError(f"the drift does not descend to the quotient: {reason}")
        if sign:
            return report("affcircle/trace-sign", by_sign, trace)
        return report("affcircle/trace-zero", TAX_CONTROLLABLE, trace)

    if nr == 2:
        return report("nilrank2/planar-cylinder", *_planar_branch(sys))
    if nr == 1:
        return report("nilrank1/trace-sign", by_sign, trace)
    if sys.theta.tag == SPIRAL and sys.theta.gamma != 0.0:
        return report("nilrank0/spiral-staircase", TAX_CONTROLLABLE, {})
    return report("nilrank0/plane-family", TAX_INFINITE, {})


def _planar_branch(sys: SystemSpec) -> tuple[str, dict]:
    """The taxonomy of the reduced planar verdict and its certificate."""
    red = conjugate_to_planar(sys)
    try:
        verdict, cert = classify_planar(red.planar)
    except DetSignError as exc:
        return TAX_UNCLASSIFIED, {"reason": "det A <= 0: the rest point at u = 0 is a saddle",
                                  "u": exc.u, "det": exc.det}
    tax = {PlanarVerdict.OPEN: TAX_OPEN, PlanarVerdict.CLOSED: TAX_CLOSED}.get(verdict, TAX_WHOLE)
    return tax, {
        "planar_verdict": verdict.value,
        "interval": cert["interval"],
        "trace_at_endpoints": cert["trace_at_endpoints"],
        "interior_trace_zero": cert["interior_trace_zero"],
    }


def verify_classification(
    report: ClassificationReport,
    sys: SystemSpec,
    budget: int = 100_000,
    horizon: float = 30.0,
    resolution: int = 64,
    seed: int = 0,
    box: tuple = ((-10.0, 10.0), (-10.0, 10.0)),
) -> dict:
    """The numerical experiment of the report's rule in ``RULES`` against
    its verdict, or one ``symbolic-only`` check where there is none.

    Returns a log {"ok": bool, "checks": [...]}; any discrepancy appears as
    a failed check, never silently.
    """
    verifier = RULES[report.rule].verifier
    checks = verifier(report, sys, budget, horizon, resolution, seed, box) if verifier else []
    checks = checks or [_check("symbolic-only", True,
                               note="no numerical experiment wired for this branch")]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _entry_indices(spec: PlanarSpec, starts, est: ControlSetEstimate,
                   grid: ReachGrid) -> list[int | None]:
    """For each start v, the first of 600 even times in [0, 30] at which the
    zero-control flow e^{sA} v lies in an estimate cell, or None.

    One batched ``arc`` gives every e^{sA}, shared by all starts.
    """
    A = spec.A
    (e00, e01, e10, e11), _ = arc(A[0, 0], A[0, 1], A[1, 0], A[1, 1],
                                  np.linspace(0.0, 30.0, 600))
    out = []
    for v in starts:
        fx, fy, ok = _cells(e00 * v[0] + e01 * v[1], e10 * v[0] + e11 * v[1],
                            grid.box, grid.resolution)
        ok = np.flatnonzero(ok)
        hit = ok[est.cells[fx[ok].astype(np.intp), fy[ok].astype(np.intp)]]
        out.append(int(hit[0]) if hit.size else None)
    return out


# -- exports -----------------------------------------------------------------


def grid_to_csv(grid: ReachGrid, estimate: ControlSetEstimate | None = None) -> str:
    """Cell centers with occupancy flags, one row per cell."""
    xs, ys = (c.tolist() for c in grid.cell_centers())
    est = estimate.cells if estimate is not None else np.zeros_like(grid.forward)
    fwd, bwd, est = (b.astype(np.uint8).tolist() for b in (grid.forward, grid.backward, est))
    lines = ["x,y,forward,backward,estimate"]
    for x, f_row, b_row, e_row in zip(xs, fwd, bwd, est):
        for y, f, b, e in zip(ys, f_row, b_row, e_row):
            lines.append(f"{x:.6f},{y:.6f},{f},{b},{e}")
    return "\n".join(lines) + "\n"


def grid_to_pgm(bitmap: np.ndarray) -> str:
    """Plain-text PGM rendering of one occupancy layer (row-major, y down)."""
    res = bitmap.shape[0]
    rows = [" ".join("255" if v else "0" for v in row) for row in bitmap.T[::-1].tolist()]
    return f"P2\n{res} {res}\n255\n" + "\n".join(rows) + "\n"
