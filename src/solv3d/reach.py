"""Reachable-set sampling, control-set estimation and classification.

The planar reachable sets are estimated on a fixed grid by integrating
batches of random piecewise-constant controls exactly: every arc is the
affine map v -> E v + W u eta, and the evenly spaced samples along an arc
are repeated applications of one such map from ``kernel2d.arc``.  Half the
controls are bang levels, so ``arc`` runs once per distinct control value
(each drawn level once, each uniform draw once) and the maps are gathered
per trajectory; every sample then marks its cell with one flat scatter.
Forward and backward occupancies combine into a control-set estimate, and
``classify`` implements the taxonomy decision tree over the drift rank and
the group variant, with ``verify_classification`` cross-examining each
verdict numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .group import GroupVariant, identity
from .kernel2d import SPIRAL, arc, trace_sign
from .planar import (
    DetSignError,
    PiecewiseControl,
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
    normalize_eta,
    simulate,
)

__all__ = [
    "ReachGrid",
    "ControlSetEstimate",
    "ClassificationReport",
    "reach_sets",
    "reach_points",
    "control_set_estimate",
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

# the budget is split over this many independently seeded chunks
N_CHUNKS = 8
# the identity-return round trip may end off the identity fiber by this
# fraction of how far it went
RETURN_TOL = 1e-5
# the WholeGroup check: the estimate must fill at least this share of the window
FILL_WINDOW = ((-5.0, 5.0), (-5.0, 5.0))
FILL_THRESHOLD = 0.99
# whole chunks are sampled together up to this many trajectories: enough to
# amortise numpy's per-call overhead, few enough that an arc's arrays stay
# in cache (one uncapped 100k batch ran slower than 12.5k chunks)
_BATCH = 16_384


@dataclass(frozen=True)
class ReachGrid:
    """Occupancy bitmaps of the forward and backward orbits on a box grid.

    ``points`` counts every sampled point of both directions, and
    ``points_outside`` those that left the box and marked no cell.
    """

    box: tuple[tuple[float, float], tuple[float, float]]
    resolution: int
    forward: np.ndarray
    backward: np.ndarray
    horizon: float
    budget: int
    seed: int
    base_point: np.ndarray
    points: int = 0
    points_outside: int = 0

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
        fx, fy, inside = _cells(v[0], v[1], self.box, self.resolution)
        return (int(fx), int(fy)) if inside else None


@dataclass(frozen=True)
class ControlSetEstimate:
    """Cells of closure(forward orbit) intersected with the backward orbit."""

    cells: np.ndarray
    base_point: np.ndarray
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
    Points outside the box, infinite or NaN mark nothing and are never cast.
    """
    if not bitmap.flags.c_contiguous:
        raise ValueError("the bitmap must be C-contiguous")
    fx, fy, ok = _cells(x, y, box, res)
    # lanes outside the box may overflow or meet opposite infinities; they
    # are masked off before the cast
    with np.errstate(invalid="ignore", over="ignore"):
        flat = fx * res + fy
    cells = np.compress(ok, flat).astype(np.intp)
    bitmap.reshape(-1)[cells] = True
    return cells.size


def _bang_levels(omega) -> np.ndarray:
    return np.array([omega.u_min, 0.0, omega.u_max])


def _control_draws(rng: np.random.Generator, n: int, omega):
    """The draws behind ``_draw_controls``: bang flags, bang levels, uniform values."""
    bang = rng.random(n) < 0.5
    pick = rng.integers(0, 3, size=n)
    uni = rng.uniform(omega.u_min, omega.u_max, size=n)
    return bang, pick, uni


def _draw_controls(rng: np.random.Generator, n: int, omega) -> np.ndarray:
    """Half bang values from {u_min, 0, u_max}, half uniform over the range."""
    bang, pick, uni = _control_draws(rng, n, omega)
    return np.where(bang, _bang_levels(omega)[pick], uni)


def _distinct_controls(bang: np.ndarray, pick: np.ndarray, uni: np.ndarray, omega):
    """``(values, index)`` with ``values[index]`` equal to the drawn controls.

    Each bang level that was drawn appears once, followed by every uniform
    draw, so the values hold the same set as the controls (a few repeats
    aside) without a sort.
    """
    used = np.bincount(np.compress(bang, pick), minlength=3) > 0
    rank = np.cumsum(used) - 1
    free = ~bang
    values = np.concatenate([_bang_levels(omega)[used], np.compress(free, uni)])
    index = np.where(bang, rank[pick], rank[-1] + np.cumsum(free))
    return values, index


def _sample_direction(
    spec: PlanarSpec,
    v0: np.ndarray,
    T: float,
    rngs: list[np.random.Generator],
    sizes: list[int],
    bitmap: np.ndarray,
    box,
    res: int,
    sign: float,
    arc_duration: float,
    samples_per_arc: int,
) -> tuple[int, int]:
    """Accumulate occupancy for one time direction over a batch of chunks.

    Chunk i runs ``sizes[i]`` trajectories on controls drawn from
    ``rngs[i]``.  All chunks advance as one array, and each arc's draws are
    concatenated chunk by chunk, so every chunk consumes its generator
    exactly as it would on its own.  Switches happen on a fixed period so a
    longer horizon extends the same control draws instead of redrawing them;
    occupied cells therefore grow monotonically with T under the same seed.
    Returns how many of the sampled points fell inside the box.
    """
    A, th, eta = spec.A, spec.theta_matrix, spec.eta
    n_traj = sum(sizes)
    x = np.full(n_traj, float(v0[0]))
    y = np.full(n_traj, float(v0[1]))
    inside = _mark(bitmap, x, y, box, res)
    elapsed = 0.0
    for _ in range(math.ceil(T / arc_duration)):
        draws = [_control_draws(rng, n, spec.omega) for rng, n in zip(rngs, sizes)]
        u, inv = _distinct_controls(*(np.concatenate(d) for d in zip(*draws)), spec.omega)
        s = min(arc_duration, T - elapsed)
        # one propagator per distinct control: the samples are its powers
        # applied to v.  The values span the same norms as the draws, so
        # ``arc`` picks the same squaring count and every entry is the one a
        # per-trajectory call would give.
        (e00, e01, e10, e11), (w00, w01, w10, w11) = arc(
            A[0, 0] - u * th[0, 0], A[0, 1] - u * th[0, 1],
            A[1, 0] - u * th[1, 0], A[1, 1] - u * th[1, 1],
            sign * s / samples_per_arc,
        )
        cx = (u * (w00 * eta[0] + w01 * eta[1]))[inv]
        cy = (u * (w10 * eta[0] + w11 * eta[1]))[inv]
        e00, e01, e10, e11 = e00[inv], e01[inv], e10[inv], e11[inv]
        for _ in range(samples_per_arc):
            x, y = e00 * x + e01 * y + cx, e10 * x + e11 * y + cy
            inside += _mark(bitmap, x, y, box, res)
        elapsed += s
    return inside


def _batches(sizes: list[int]) -> list[list[int]]:
    """Consecutive nonempty chunks grouped into batches of at most _BATCH
    trajectories; a chunk larger than _BATCH is a batch of its own."""
    batches, total = [], _BATCH
    for i, n in enumerate(sizes):
        if n == 0:
            continue
        if total + n > _BATCH:
            batches.append([])
            total = 0
        batches[-1].append(i)
        total += n
    return batches


def reach_points(T: float, budget: int, arc_duration: float = 2.0,
                 samples_per_arc: int = 8) -> int:
    """How many points ``reach_sets`` samples: every trajectory of both time
    directions at its start and at each sample of every arc."""
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

    The sample budget is split over a fixed number of independently seeded
    chunks whose partial bitmaps merge by union.  Whole chunks are sampled
    together in batches fixed by the budget alone, so the result depends
    only on (spec, v0, T, budget, seed) and the grid.
    """
    if T <= 0.0 or budget <= 0:
        raise ValueError("horizon and budget must be positive")
    v0 = np.asarray(v0, dtype=float).reshape(2)
    res = int(resolution)
    seeds = np.random.SeedSequence(seed).spawn(2 * N_CHUNKS)
    sizes = [budget // N_CHUNKS] * N_CHUNKS
    sizes[-1] += budget - sum(sizes)

    fwd = np.zeros((res, res), dtype=bool)
    bwd = np.zeros((res, res), dtype=bool)
    inside = 0
    for chunks in _batches(sizes):
        for d, (sign, bitmap) in enumerate(((+1.0, fwd), (-1.0, bwd))):
            rngs = [np.random.default_rng(seeds[2 * i + d]) for i in chunks]
            inside += _sample_direction(spec, v0, T, rngs, [sizes[i] for i in chunks], bitmap,
                                        box, res, sign, arc_duration, samples_per_arc)
    points = reach_points(T, budget, arc_duration, samples_per_arc)
    return ReachGrid(box, res, fwd, bwd, float(T), int(budget), int(seed), v0,
                     points, points - inside)


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
    }
    return ControlSetEstimate(cells, grid.base_point, diag)


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
        def cert(c: RankCertificate) -> dict:
            return {
                "holds": bool(c.holds),
                "alpha": float(c.alpha),
                "direction": [float(x) for x in c.direction],
                "a_product": float(c.a_product),
                "theta_product": float(c.theta_product),
            }

        return {
            "nilrank": self.nilrank,
            "larc": cert(self.larc),
            "adrank": cert(self.adrank),
            "taxonomy": self.taxonomy,
            "geometry": self.geometry,
            "rule": self.rule,
            "details": _jsonable(self.details),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# the verdict of a positive or negative trace on the nilrank-1 and circle branches
_TRACE_TAX = {1: TAX_OPEN, -1: TAX_CLOSED}

_PLANAR_TAX = {
    PlanarVerdict.OPEN: TAX_OPEN,
    PlanarVerdict.CLOSED: TAX_CLOSED,
    PlanarVerdict.WHOLE_PLANE: TAX_WHOLE,
}


def classify(sys: SystemSpec) -> ClassificationReport:
    """Taxonomy decision tree over the rank condition, drift rank and variant."""
    cert = larc(sys)
    ad = adrank(sys)
    nr = nilrank(sys)

    def report(tax, geom, rule, **details):
        return ClassificationReport(nr, cert, ad, tax, geom, rule, details)

    if not cert.holds:
        return report(
            TAX_UNCLASSIFIED,
            "none",
            "rank-condition-failed",
            reason="the accessibility rank condition does not hold",
        )

    tr_a = float(np.trace(sys.A))
    sign = trace_sign(sys.A)

    if sys.variant.tag == GroupVariant.SE2N:
        if nr == 2:
            tax, geom, extra = _planar_branch(sys)
            return report(
                tax,
                "unique control set, the preimage of the base control set "
                "under the covering projection",
                "se2n/unique-lift",
                **extra,
            )
        return report(
            TAX_INFINITE,
            "cylinder family C_r = {([t], v): <v, xi_hat> = r}",
            "se2n/flat-cylinders",
            det_a=float(np.linalg.det(sys.A)),
        )

    if sys.variant.tag == GroupVariant.AFF_CIRCLE:
        from .covering import descend_check

        ok, reason = descend_check(sys)
        if not ok:
            raise ValueError(f"the drift does not descend to the quotient: {reason}")
        if sign:
            return report(
                _TRACE_TAX[sign],
                "product of the affine-line control set with the circle",
                "affcircle/trace-sign",
                trace=tr_a,
            )
        return report(
            TAX_CONTROLLABLE,
            "the whole group",
            "affcircle/trace-zero",
            trace=tr_a,
        )

    if nr == 2:
        tax, geom, extra = _planar_branch(sys)
        return report(tax, geom, "nilrank2/planar-cylinder", **extra)

    if nr == 1:
        return report(
            _TRACE_TAX.get(sign, TAX_WHOLE),
            "product of a line control set with ker A",
            "nilrank1/trace-sign",
            trace=tr_a,
        )

    # rank-zero drift
    if sys.theta.tag == SPIRAL and sys.theta.gamma != 0.0:
        return report(
            TAX_CONTROLLABLE,
            "the whole group",
            "nilrank0/spiral-staircase",
        )
    return report(
        TAX_INFINITE,
        "plane family P_c = {(t, v): <v, xi_hat> = c}",
        "nilrank0/plane-family",
    )


def _planar_branch(sys: SystemSpec):
    red = conjugate_to_planar(sys)
    try:
        verdict, cert = classify_planar(red.planar)
    except DetSignError as exc:
        return (
            TAX_UNCLASSIFIED,
            "none",
            {"reason": "det A(u) changes sign on the admissible interval",
             "u": exc.u, "det": exc.det},
        )
    extra = {
        "planar_verdict": verdict.value,
        "interval": cert["interval"],
        "trace_at_endpoints": cert["trace_at_endpoints"],
        "interior_trace_zero": cert["interior_trace_zero"],
    }
    geom = "cylinder: preimage of the planar control set under the plane projection"
    return _PLANAR_TAX[verdict], geom, extra


# -- numerical cross-examination ---------------------------------------------


def verify_classification(
    report: ClassificationReport,
    sys: SystemSpec,
    budget: int = 100_000,
    horizon: float = 30.0,
    resolution: int = 64,
    seed: int = 0,
    box: tuple = ((-10.0, 10.0), (-10.0, 10.0)),
) -> dict:
    """Targeted numerical experiments against the taxonomy verdict.

    Returns a log {"ok": bool, "checks": [...]}; any discrepancy appears as
    a failed check, never silently.
    """
    checks: list[dict] = []

    def add(name, ok, **data):
        checks.append({"name": name, "ok": bool(ok), **_jsonable(data)})

    if report.taxonomy in (TAX_OPEN, TAX_CLOSED, TAX_WHOLE) and report.nilrank == 2:
        spec = conjugate_to_planar(sys).planar
        grid = reach_sets(
            spec, np.zeros(2), horizon, budget, box=box, resolution=resolution, seed=seed
        )
        est = control_set_estimate(grid)
        i0 = omega_hat(spec).component_of_zero
        if report.taxonomy == TAX_OPEN:
            us = np.linspace(0.6 * i0[0], 0.6 * i0[1], 9)
            hit = 0
            for u in us:
                c = grid.cell_of(equilibrium(spec, float(u)))
                if c is not None and est.cells[c]:
                    hit += 1
            add("rest-points-inside-estimate", hit == len(us), hits=hit, total=len(us))
        elif report.taxonomy == TAX_CLOSED:
            ok_all = True
            for i in range(10):
                ang = 2.0 * np.pi * i / 10.0
                v = 10.0 * np.array([np.cos(ang), np.sin(ang)])
                reached = _entry_index(spec, v, est, grid) is not None
                ok_all &= reached
            add("far-starts-reach-estimate", ok_all, starts=10, radius=10.0)
        else:
            fill = window_fill(grid, est.cells, FILL_WINDOW)
            add("window-fill", fill >= FILL_THRESHOLD, fill=fill,
                threshold=FILL_THRESHOLD)
        add("estimate-nonempty", est.diagnostics["estimate_cells"] > 0,
            **est.diagnostics)
    elif report.rule == "nilrank0/spiral-staircase":
        err = _identity_return_error(sys, seed)
        add("identity-return", err <= RETURN_TOL, endpoint_error=err)
    elif report.taxonomy == TAX_INFINITE and report.rule == "nilrank0/plane-family":
        from .plan import monotone_certificate

        cert = monotone_certificate(sys)
        add("monotone-certificate", cert.holds, min_g=cert.min_g)
        add("pairing-never-decreases", cert.sweep_holds)
    else:
        add("symbolic-only", True,
            note="no numerical experiment wired for this branch")

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _entry_index(spec: PlanarSpec, v: np.ndarray, est: ControlSetEstimate,
                 grid: ReachGrid) -> int | None:
    """First of 600 even times in [0, 30] at which the zero-control flow
    e^{sA} v from v lies in an estimate cell, or None.

    One batched ``arc`` gives every e^{sA}.
    """
    A = spec.A
    (e00, e01, e10, e11), _ = arc(A[0, 0], A[0, 1], A[1, 0], A[1, 1],
                                  np.linspace(0.0, 30.0, 600))
    fx, fy, ok = _cells(e00 * v[0] + e01 * v[1], e10 * v[0] + e11 * v[1],
                        grid.box, grid.resolution)
    ok = np.flatnonzero(ok)
    hit = ok[est.cells[fx[ok].astype(np.intp), fy[ok].astype(np.intp)]]
    return int(hit[0]) if hit.size else None


def _identity_return_error(sys: SystemSpec, seed: int) -> float:
    """Round trip identity -> excursion -> identity fiber, via the staircase.

    Steers the fiber coordinates (t, <v, R theta^{-1} xi>) back to (0, 0)
    and reports how far from the identity fiber the re-integrated endpoint
    lands, each coordinate as a fraction of the largest value it took on
    the way.
    """
    from .plan import _bang_for, half_staircase, staircase_fiber

    if np.max(np.abs(sys.eta)) > 0.0:
        # the input direction conjugates away without changing xi (A = 0),
        # and the conjugation fixes the identity fiber
        sys = normalize_eta(sys)[0]
    axis, c = staircase_fiber(sys)

    rng = np.random.default_rng(seed)
    excursion = PiecewiseControl.from_pairs([
        (float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.1, sys.omega.u_max)))
        for _ in range(3)
    ])
    legs = excursion.pairs()
    t_now = sum(s * u * sys.alpha for s, u in legs)
    # bring t back to 0 with one bang leg
    u_back = _bang_for(-t_now, sys.alpha, sys.omega)
    legs.append((t_now / (-u_back * sys.alpha), u_back))

    mid = simulate(identity(), PiecewiseControl.from_pairs(legs), sys, step=1e-3)
    x_mid = float(mid.final_state[1:] @ axis)
    plan = half_staircase(sys.theta.gamma, sys.alpha, c, x_mid, 0.0, sys.omega)
    legs += plan.control.pairs()
    traj = simulate(identity(), PiecewiseControl.from_pairs(legs), sys, step=1e-3)
    t = np.abs(traj.states[:, 0])
    x = np.abs(traj.states[:, 1:] @ axis)
    return float(max(t[-1] / np.max(t), x[-1] / np.max(x)))


# -- exports -----------------------------------------------------------------


def grid_to_csv(grid: ReachGrid, estimate: ControlSetEstimate | None = None) -> str:
    """Cell centers with occupancy flags, one row per cell."""
    xs, ys = grid.cell_centers()
    lines = ["x,y,forward,backward,estimate"]
    est = estimate.cells if estimate is not None else None
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            e = int(est[i, j]) if est is not None else 0
            lines.append(
                f"{x:.6f},{y:.6f},{int(grid.forward[i, j])},{int(grid.backward[i, j])},{e}"
            )
    return "\n".join(lines) + "\n"


def grid_to_pgm(bitmap: np.ndarray) -> str:
    """Plain-text PGM rendering of one occupancy layer (row-major, y down)."""
    res = bitmap.shape[0]
    rows = []
    for j in range(res - 1, -1, -1):
        rows.append(" ".join("255" if bitmap[i, j] else "0" for i in range(res)))
    return f"P2\n{res} {res}\n255\n" + "\n".join(rows) + "\n"
