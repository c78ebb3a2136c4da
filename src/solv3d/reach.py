"""Reachable-set sampling, control-set estimation and classification.

The planar reachable sets are estimated on a fixed grid by integrating
batches of random piecewise-constant controls exactly: every arc is the
affine map v -> E v + W u eta, and the evenly spaced samples along an arc
are repeated applications of one such map from ``kernel2d.arc``.  The
sampler carries every trajectory in grid coordinates
``X = (x - x0) res / (x1 - x0)`` (likewise Y, ``_to_grid``), where a
sample's cell is ``(floor X, floor Y)``: each map is conjugated into grid
coordinates once per table (``_arc_table``), so no sample subtracts,
divides or scales to find its cell.  The controls take LEVELS + 3 values
(the bang levels and evenly spaced midpoints), so one ``arc`` call
tabulates every map of a direction and arc length, and ``_sample_maps``
keeps each table for the process: the maps are tabulated once per (system,
step, grid) per process, up to ``_MEMO_SIZE`` tables.  Each trajectory's
level is one lookup of its random draw, and its row one ``np.take`` gather.
A batch is one ``(2, n)`` state of grid points, and each sample is one
affine step of it by the gathered matrices and offsets.  Every sample then
marks its cells in place, in scratch arrays the batch allocates once, with
one cast and one flat scatter, lanes outside the box repeating a cell
inside.  Where the sign of ``sym(A(u))`` certifies that |v| grows under
every control beyond some radius (``_escape_radius``), a trajectory past
that radius never returns to the box; it is dropped from the batch at the
next arc, and its remaining samples are counted as escaped instead of
computed.
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
from .kernel2d import SPIRAL, FloatRangeError, arc, check_finite, trace_sign, unit_scaled, unscaled
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
    "planar_experiment",
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
# the sampled experiment's default grid, the one absolute length of its
# checks: the box ((x0, x1), (y0, y1)) and its cells a side
DEFAULT_BOX = ((-10.0, 10.0), (-10.0, 10.0))
DEFAULT_RESOLUTION = 64
# the WholeGroup check: the estimate must fill at least this share of the
# window, the middle half of the box
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
        # Python floats: a grid coordinate past the float range is inf, with no warning
        grid = _to_grid(float(v[0]), float(v[1]), check_box(self.box, self.resolution))
        fx, fy, inside = _cells(*grid, self.resolution)
        return (int(fx), int(fy)) if inside else None


@dataclass(frozen=True)
class ControlSetEstimate:
    """Cells of closure(forward orbit) intersected with the backward orbit."""

    cells: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _to_grid(x, y, gmap):
    """Grid coordinates ``((x - x0) sx, (y - y0) sy)`` of the raw points (x, y)
    under the map ``gmap = ((x0, sx), (y0, sy))`` of ``check_box``, with
    ``s = res / width`` the cell scale of each axis: the box is
    ``[0, res)^2`` in them, and a point's cell is their floor (``_cells``)."""
    (x0, sx), (y0, sy) = gmap
    return (x - x0) * sx, (y - y0) * sy


def _cells(gx, gy, res: int, out=(None,) * 5):
    """Cell coordinates ``floor(X)``, ``floor(Y)`` of the points with grid
    coordinates (X, Y) (``_to_grid``), as floats, and the mask ``min >= 0``
    and ``max < res`` of those inside the box (False for NaN).  Every pass
    writes in place into ``out``: float arrays fx, fy, m and bool arrays ok,
    t, or None to allocate."""
    fx, fy = np.floor(gx, out=out[0]), np.floor(gy, out=out[1])
    ok = np.greater_equal(np.minimum(fx, fy, out=out[2]), 0.0, out=out[3])
    ok &= np.less(np.maximum(fx, fy, out=out[2]), res, out=out[4])
    return fx, fy, ok


def _mark(bitmap: np.ndarray, gx, gy, res: int, out=(None,) * 5) -> int:
    """Set the cells hit by the points with grid coordinates (X, Y)
    (``_to_grid``); return how many fell inside the box.

    ``bitmap`` must be C-contiguous: the cells are set through its flat view,
    at ``ix * res + iy``, which float64 holds exactly for ``res <= 4096``.
    Every pass writes into ``_cells``' scratch arrays ``out``, so a batch
    allocates them once; a point costs two floors, the in-box test and the
    flat index, with no box arithmetic.  Points outside the box, infinite or
    NaN mark nothing and are never cast: if there are any, their lanes take
    the cell of the first point inside, so one cast and one scatter cover
    every lane.
    """
    if not bitmap.flags.c_contiguous:
        raise ValueError("the bitmap must be C-contiguous")
    # lanes outside the box may be infinite or NaN; they are overwritten
    # before the cast
    with np.errstate(invalid="ignore", over="ignore"):
        fx, fy, ok = _cells(gx, gy, res, out)
        inside = int(np.count_nonzero(ok))
        if not inside:
            return 0
        np.add(np.multiply(fx, res, out=fx), fy, out=fx)
    if inside < ok.size:
        np.copyto(fx, fx[np.argmax(ok)], where=np.logical_not(ok, out=out[4]))
    bitmap.reshape(-1)[fx.astype(np.intp)] = True
    return inside


def _arc_table(spec: PlanarSpec, h: float, gmap) -> np.ndarray:
    """Rows ``e00, e01, e10, e11, cx, cy`` of the sample map X -> E' X + c' over
    time h in the grid coordinates of ``gmap`` (``check_box``), one column per
    control level: ``u_min, 0, u_max`` and then the LEVELS midpoints
    ``u_min + (u_max - u_min)(j + 1/2)/LEVELS``.

    The raw map is v -> E v + W u eta, with E and W the ``arc`` of
    ``A(u) = A - u theta``.  With ``X = S (v - o)``, ``S = diag(sx, sy)``
    and o the box's lower corner, it is conjugated once per call into
    ``E' = S E S^-1`` (entries ``e00, e01 sx/sy, e10 sy/sx, e11``) and
    ``c' = S (E o + W u eta - o) = S W (A(u) o + u eta)``, using
    ``E - I = W A(u)``: this form never subtracts o from E o, which would
    cancel where |o| is far larger than the box.  One ``arc`` call covers
    every level, so each entry is the one a call on the whole range gives.
    The levels are spaced on the range scaled by a power of two into
    [-1, 1], where ``hi - lo`` cannot overflow.  A propagator that overflows
    holds inf or NaN and its samples count as outside, like ``_mark``'s lanes.
    """
    (lo, hi), e = unit_scaled([spec.omega.u_min, spec.omega.u_max])
    mid = lo + (hi - lo) * (np.arange(LEVELS) + 0.5) / LEVELS
    u = unscaled(np.concatenate([[lo, 0.0, hi], mid]), e)
    A, th, eta = spec.A, spec.theta_matrix, spec.eta
    (x0, sx), (y0, sy) = gmap
    with np.errstate(invalid="ignore", over="ignore"):
        a00, a01 = A[0, 0] - u * th[0, 0], A[0, 1] - u * th[0, 1]
        a10, a11 = A[1, 0] - u * th[1, 0], A[1, 1] - u * th[1, 1]
        (e00, e01, e10, e11), (w00, w01, w10, w11) = arc(a00, a01, a10, a11, h)
        gx = a00 * x0 + a01 * y0 + u * eta[0]
        gy = a10 * x0 + a11 * y0 + u * eta[1]
        return np.array([e00, e01 * sx / sy, e10 * sy / sx, e11,
                         sx * (w00 * gx + w01 * gy), sy * (w10 * gx + w11 * gy)])


# ``_sample_maps`` keeps at most this many tables, dropping the least
# recently used: a table is 6 (LEVELS + 3) floats, 196 KB, so the memo holds
# at most 3.1 MB, while a reach_sets call on one system needs a table per
# direction and arc length (2 at the default horizon, at most 4 for one CLI
# experiment) and the three criterion-5 systems together need 6
_MEMO_SIZE = 16
# the kept tables by key, least recently used first
_memo: dict[bytes, np.ndarray] = {}


def _sample_maps(spec: PlanarSpec, h: float, gmap) -> np.ndarray:
    """``_arc_table(spec, h, gmap)``, read-only, tabulated once per process
    for each (system, step, grid) up to ``_MEMO_SIZE`` tables.

    The key is the bytes of everything the table reads: A, theta's matrix,
    eta, the control range, h and the grid map, so an in-place edit of
    ``spec.A`` or ``spec.eta`` tabulates afresh.  A table that raises
    (``FloatRangeError``) is never stored."""
    (x0, sx), (y0, sy) = gmap
    nums = np.array([spec.omega.u_min, spec.omega.u_max, h, x0, sx, y0, sy], dtype=float)
    key = b"".join(a.tobytes() for a in (spec.A, spec.theta_matrix, spec.eta, nums))
    table = _memo.pop(key, None)
    if table is None:
        table = _arc_table(spec, h, gmap)
        table.flags.writeable = False
        if len(_memo) >= _MEMO_SIZE:
            del _memo[next(iter(_memo))]
    _memo[key] = table
    return table


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
    start: tuple[float, float],
    tables: list[np.ndarray],
    escape,
    rng: np.random.Generator,
    n: int,
    bitmap: np.ndarray,
    res: int,
    samples_per_arc: int,
) -> tuple[int, int]:
    """Accumulate one time direction's occupancy over a batch of n trajectories.

    The batch is one ``(2, n)`` array z of grid points (``_to_grid``), every
    column starting at ``start``.  ``tables[i]`` is arc i's ``_arc_table``,
    and each arc draws one level for each of the n trajectories from
    ``rng``, dropped ones included, so every kept trajectory sees the draws
    it would see alone.  Switches happen on a fixed period, so a longer
    horizon extends the same draws instead of redrawing them.  ``escape``
    is None where no escape radius is certified, else ``(rho, origin,
    cell)``: the radius and the ``(2, 1)`` columns of the raw origin's grid
    point and the cell widths, so that ``(z - origin) * cell`` is the raw
    position.  At the start of each arc, a trajectory beyond ``rho`` (or
    NaN, which stays NaN) is dropped, and the rest gather their columns
    with one ``np.take``, viewed as the matrices E ``(2, 2, n)`` and the
    offsets c ``(2, n)``.  Every sample is one affine step
    ``z <- E z + c`` of the whole state, and one ``_mark`` call over the
    kept trajectories.  Returns how many of the sampled points fell inside
    the box, and how many were not computed because their trajectory was
    dropped.
    """
    z = np.full((2, n), np.reshape(start, (2, 1)))
    lanes = np.arange(n)
    scratch = out = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool), np.empty(n, bool))
    inside = _mark(bitmap, z[0], z[1], res, out)
    escaped = 0
    for i, table in enumerate(tables):
        draws = _draw_levels(rng, n)
        if escape is not None:
            rho, origin, cell = escape
            with np.errstate(invalid="ignore", over="ignore"):
                rx, ry = (z - origin) * cell
                keep = np.flatnonzero(rx * rx + ry * ry <= rho * rho)
            if keep.size < lanes.size:
                escaped += (lanes.size - keep.size) * (len(tables) - i) * samples_per_arc
                if not keep.size:
                    break
                lanes, z = lanes[keep], z[:, keep]
                out = tuple(a[:keep.size] for a in scratch)
        if lanes.size < n:
            draws = draws[lanes]
        maps = np.take(table, draws, axis=1)
        E, c = maps[:4].reshape(2, 2, -1), maps[4:]
        # each sample is (e00 x + e01 y) + cx and (e10 x + e11 y) + cy, every
        # product and sum its own ufunc, so it rounds alike on every build
        # (an einsum or matmul kernel may fuse a multiply and an add); one
        # that overflows marks nothing
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(samples_per_arc):
                t = E[:, 0] * z[0]
                t += E[:, 1] * z[1]
                t += c
                z = t
                inside += _mark(bitmap, z[0], z[1], res, out)
    return inside, escaped


def check_box(box, res: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The raw-to-grid map ``((x0, sx), (y0, sy))`` of a res x res grid on the
    box ((x0, x1), (y0, y1)): each axis's lower end and cell scale
    ``res / width``, which ``_to_grid`` applies.  The one place that
    computes the scale.

    Raises ValueError unless the widths x1 - x0 and y1 - y0 are finite and
    positive (so finite ends, x0 < x1, y0 < y1) and both scales finite."""
    (x0, x1), (y0, y1) = ((float(lo), float(hi)) for lo, hi in box)
    if not (0.0 < x1 - x0 < math.inf and 0.0 < y1 - y0 < math.inf):
        raise ValueError(f"the grid box must have finite x1 - x0 > 0 and y1 - y0 > 0, got {box}")
    gmap = (x0, res / (x1 - x0)), (y0, res / (y1 - y0))
    if not max(gmap[0][1], gmap[1][1]) < math.inf:
        raise ValueError(f"the grid box is too narrow for {res} cells a side: "
                         f"res / width must be finite, got {box}")
    return gmap


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
    box: tuple = DEFAULT_BOX,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
    arc_duration: float = 2.0,
    samples_per_arc: int = 8,
) -> ReachGrid:
    """Forward and backward occupancy of the planar system from v0.

    Every arc's control is one of ``_arc_table``'s levels, so one table per
    direction and arc length serves every trajectory, and ``_sample_maps``
    tabulates it once per (system, step, grid) per process, up to
    ``_MEMO_SIZE`` tables.  The bang levels are among them: a finite control
    set whose convex hull is the whole range leaves the closure of a
    control-affine system's reachable sets unchanged (Filippov-Wazewski
    relaxation).  The budget is split into ``ceil(budget / _BATCH)`` equal
    batches, each direction of each batch drawing from its own child of
    ``SeedSequence(seed)``, so the result depends only on (spec, v0, T,
    budget, seed, arc_duration, samples_per_arc) and the grid, whether its
    tables are new or kept.  Trajectories run in grid coordinates
    (``_to_grid``), so a sample whose grid coordinate passes the float range
    counts as outside, like one whose raw coordinate does.  Trajectories
    beyond a direction's ``_escape_radius`` are dropped, which changes no
    bitmap and no count but ``points_escaped``.  Bad sampling arguments, a
    box among them whose cell scale is not finite (``check_box``) and a v0
    whose grid coordinate is not, raise ValueError before any sampling.
    """
    points = reach_points(T, budget, arc_duration, samples_per_arc)
    if not isinstance(budget, numbers.Integral) or isinstance(budget, bool) or budget <= 0:
        raise ValueError(f"the budget must be a positive integer, got {budget}")
    res = int(resolution)
    if res < 8:
        raise ValueError("grid resolution must be at least 8")
    gmap = check_box(box, res)
    v0 = check_finite(v0, "v0").reshape(2)
    start = _to_grid(float(v0[0]), float(v0[1]), gmap)
    if not all(map(math.isfinite, start)):
        raise ValueError(f"v0 = {v0.tolist()} is too far from the grid box {box}: "
                         "its grid coordinate passes the float range")
    # the escape test reads a grid point's raw position (z - origin) * cell
    origin = np.reshape(_to_grid(0.0, 0.0, gmap), (2, 1))
    cell = np.reshape([1.0 / s for _, s in gmap], (2, 1))
    lengths = [min(arc_duration, T - i * arc_duration) for i in range(math.ceil(T / arc_duration))]
    n_batches = math.ceil(budget / _BATCH)
    seeds = np.random.SeedSequence(seed).spawn(2 * n_batches)

    fwd = np.zeros((res, res), dtype=bool)
    bwd = np.zeros((res, res), dtype=bool)
    inside = escaped = 0
    for d, (sign, bitmap) in enumerate(((+1.0, fwd), (-1.0, bwd))):
        by_length = {s: _sample_maps(spec, sign * s / samples_per_arc, gmap) for s in set(lengths)}
        tables = [by_length[s] for s in lengths]
        rho = _escape_radius(spec, sign, box)
        escape = (rho, origin, cell) if rho < math.inf else None
        for i in range(n_batches):
            n = budget // n_batches + (i < budget % n_batches)
            got, lost = _sample_direction(start, tables, escape,
                                          np.random.default_rng(seeds[2 * i + d]), n,
                                          bitmap, res, samples_per_arc)
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


def planar_experiment(sys: SystemSpec, horizon: float, budget: int, box, resolution: int,
                      seed: int) -> tuple[PlanarSpec, ReachGrid, ControlSetEstimate]:
    """The sampled control set of the system's planar reduction: ``reach_sets``
    from the rest point v(0) = 0, then ``control_set_estimate``.

    Returns (planar spec, grid, estimate).  Raises ValueError where the
    reduction is undefined (``conjugate_to_planar``) or the sampling
    arguments are bad (``reach_sets``)."""
    spec = conjugate_to_planar(sys).planar
    grid = reach_sets(spec, np.zeros(2), horizon, budget, box, resolution, seed)
    return spec, grid, control_set_estimate(grid)


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
    Closed or WholeGroup verdict (none against Unclassified).

    Every length of the checks comes from the grid box: the Closed check's
    far starts lie on the circle about the origin whose radius is half the
    box's smaller side, and the WholeGroup window is the middle half of the
    box.  So scaling xi, eta and the box by a power of two gives the same
    log, with the radius scaled.  The horizon and ``_entry_indices``' times
    stay absolute."""
    if report.taxonomy == TAX_UNCLASSIFIED:
        return []
    spec, grid, est = planar_experiment(sys, horizon, budget, box, resolution, seed)
    (x0, x1), (y0, y1) = grid.box
    i0 = omega_hat(spec).component_of_zero
    if report.taxonomy == TAX_OPEN:
        us = np.linspace(0.6 * i0[0], 0.6 * i0[1], 9)
        cells = [grid.cell_of(equilibrium(spec, float(u))) for u in us]
        hit = sum(c is not None and bool(est.cells[c]) for c in cells)
        first = _check("rest-points-inside-estimate", hit == len(us), hits=hit, total=len(us))
    elif report.taxonomy == TAX_CLOSED:
        radius = min(x1 - x0, y1 - y0) / 2
        angles = [2.0 * np.pi * i / 10.0 for i in range(10)]
        starts = [radius * np.array([np.cos(a), np.sin(a)]) for a in angles]
        entries = _entry_indices(spec, starts, est, grid)
        first = _check("far-starts-reach-estimate", None not in entries, starts=10, radius=radius)
    else:
        qx, qy = (x1 - x0) / 4, (y1 - y0) / 4
        fill = window_fill(grid, est.cells, ((x0 + qx, x1 - qx), (y0 + qy, y1 - qy)))
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
    return tax, {"planar_verdict": verdict.value, **cert}


def verify_classification(
    report: ClassificationReport,
    sys: SystemSpec,
    budget: int = 100_000,
    horizon: float = 30.0,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
    box: tuple = DEFAULT_BOX,
) -> dict:
    """The numerical experiment of the report's rule in ``RULES`` against
    its verdict, or one ``symbolic-only`` check where there is none.

    The grid defaults to ``DEFAULT_BOX`` at ``DEFAULT_RESOLUTION``, and the
    planar checks take their window and far-start ring from the box
    (``_verify_planar``).  Returns a log {"ok": bool, "checks": [...]}; any
    discrepancy appears as a failed check, never silently.  So does an
    experiment whose arcs leave the float range: one failed
    ``arcs-in-float-range`` check with the kernel's message.  Bad arguments
    raise ValueError.
    """
    verifier = RULES[report.rule].verifier
    try:
        checks = verifier(report, sys, budget, horizon, resolution, seed, box) if verifier else []
    except FloatRangeError as exc:
        checks = [_check("arcs-in-float-range", False, error=str(exc))]
    checks = checks or [_check("symbolic-only", True,
                               note="no numerical experiment wired for this branch")]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _entry_indices(spec: PlanarSpec, starts, est: ControlSetEstimate,
                   grid: ReachGrid) -> list[int | None]:
    """For each start v, the first of 600 even times in [0, 30] at which the
    zero-control flow e^{sA} v lies in an estimate cell, or None.

    One batched ``arc`` gives every e^{sA}, applied by broadcasting to every
    start at once: row k of the (start, time) arrays is start k's flow.
    """
    A = spec.A
    (e00, e01, e10, e11), _ = arc(A[0, 0], A[0, 1], A[1, 0], A[1, 1],
                                  np.linspace(0.0, 30.0, 600))
    v0, v1 = np.reshape(starts, (-1, 2, 1)).transpose(1, 0, 2)
    x, y = e00 * v0 + e01 * v1, e10 * v0 + e11 * v1
    fx, fy, ok = _cells(*_to_grid(x, y, check_box(grid.box, grid.resolution)), grid.resolution)
    ok[ok] = est.cells[fx[ok].astype(np.intp), fy[ok].astype(np.intp)]
    return [int(np.argmax(hit)) if hit.any() else None for hit in ok]


# -- exports -----------------------------------------------------------------


def grid_to_csv(grid: ReachGrid, estimate: ControlSetEstimate | None = None) -> str:
    """Cell centers with occupancy flags, one row per cell; each center is the
    ``repr`` of its ``cell_centers`` float, so it parses back exactly."""
    xs, ys = (c.tolist() for c in grid.cell_centers())
    est = estimate.cells if estimate is not None else np.zeros_like(grid.forward)
    fwd, bwd, est = (b.astype(np.uint8).tolist() for b in (grid.forward, grid.backward, est))
    lines = ["x,y,forward,backward,estimate"]
    for x, f_row, b_row, e_row in zip(xs, fwd, bwd, est):
        for y, f, b, e in zip(ys, f_row, b_row, e_row):
            lines.append(f"{x!r},{y!r},{f},{b},{e}")
    return "\n".join(lines) + "\n"


def grid_to_pgm(bitmap: np.ndarray) -> str:
    """Plain-text PGM rendering of one occupancy layer (row-major, y down)."""
    res = bitmap.shape[0]
    rows = [" ".join("255" if v else "0" for v in row) for row in bitmap.T[::-1].tolist()]
    return f"P2\n{res} {res}\n255\n" + "\n".join(rows) + "\n"
