"""Constructive trajectory planners.

Each planner transcribes an explicit geometric construction into a
piecewise-constant control schedule and then reports the endpoint error
honestly, by re-integrating the schedule independently of the construction
rather than trusting it.

Contents: circle-hopping between rotation orbits, fiber synchronization on
the product system, the staircase connector for rank-zero drifts, the
H1/H2 oscillation functions with bracketed root-finding, and the monotone
separating-plane certificate built on the positive functional xi_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle, islice
from typing import Callable

import numpy as np

from .kernel2d import (
    JORDAN,
    SPIRAL,
    ROT90,
    ZERO_TOL,
    ThetaFamily,
    arc,
    arc_matrices,
    check_finite,
    commutes,
    expm,
    rank_product,
    trace_sign,
    unit_scaled,
    unscaled,
)
from .planar import (
    ControlRange,
    PiecewiseControl,
    PlanarSpec,
    a_of_u,
    concat_solution,
    equilibrium,
)
from .system import nilrank

__all__ = [
    "PlanResult",
    "SeparatingCertificate",
    "XiHat",
    "xi_hat",
    "circle_hop",
    "fiber_sync",
    "staircase",
    "half_staircase",
    "staircase_fiber",
    "integrate_projected",
    "identity_return_error",
    "h_functions",
    "h2_zero",
    "monotone_certificate",
]

# bracket shrink for the H2 sign-change intervals, in radians
EPSILON_BRACKET = 1e-3
# accuracy acceptances, as fractions of the size of the data they check: the
# closed-form g against the integral operator, and the residual below which a
# multi-arc boundary solve only polishes (it accepts ten times that)
G_CHECK_TOL = 1e-8
SOLVE_TOL = 1e-10
# a boundary solve's starting durations and bound, in units of 1 / |A|, its
# Gauss-Newton steps per start and its step halvings per line search
SOLVE_GUESSES = (0.5, 1.5, 3.0)
SOLVE_BOUND = 50.0
SOLVE_STEPS = 60
SOLVE_HALVINGS = 30
# where the separating certificate samples g, and how many samples it takes
CERT_T_RANGE = (-10.0, 10.0)
CERT_SAMPLES = 10_000


@dataclass(frozen=True)
class PlanResult:
    """A planned schedule with construction-predicted and re-integrated endpoints."""

    control: PiecewiseControl
    predicted: np.ndarray
    achieved: np.ndarray
    error: float
    return_control: PiecewiseControl | None = None
    diagnostics: dict = field(default_factory=dict)


# -- the positive functional and the separating certificate ------------------


@dataclass(frozen=True)
class XiHat:
    """Direction xi_hat with <Lambda_t^theta xi, xi_hat> = g(t) >= 0 for all t,
    carrying the closed-form g."""

    vector: np.ndarray
    case: str
    g_fn: Callable

    def g(self, t):
        return self.g_fn(np.asarray(t, dtype=float))


def xi_hat(theta: ThetaFamily, xi: np.ndarray) -> XiHat:
    """Direction with a nonnegative pairing against Lambda_t^theta xi.

    Requires <theta xi, R xi> != 0 and excludes the spiral family with a
    nonzero scaling part (where no such direction exists).  The direction
    and g are formed on x = xi 2^-e with largest entry in [1/2, 1), as in
    ``rank_product``, and scaled back by 2^e (R xi), 2^-e (the other
    directions) and 2^(2e) (the rotation case's g): a power of two scales
    every step exactly, so they are the unscaled ones wherever those are in
    the float range, and inf or 0.0 past it.
    """
    xi = check_finite(xi, "xi").reshape(2)
    if not rank_product(theta.matrix(), xi)[1]:
        raise ValueError("xi_hat needs <theta xi, R xi> != 0")
    if theta.tag == SPIRAL and theta.gamma != 0.0:
        raise ValueError("xi_hat is not defined for the spiral family with gamma != 0")

    x, e = unit_scaled(xi)
    if theta.tag == SPIRAL:
        n2 = float(x @ x)
        return XiHat(unscaled(ROT90 @ x, e), "rotation",
                     lambda t: unscaled(n2 * (1.0 - np.cos(t)), 2 * e))
    if theta.tag == JORDAN:
        # pairing nonzero forces xi2 != 0
        v = np.array([1.0 / x[1], -x[0] / x[1] ** 2])
        return XiHat(unscaled(v, -e), "shear", lambda t: t * np.exp(t) - np.expm1(t))
    g = theta.gamma
    if g == 0.0:
        v = np.array([1.0 / x[0], -1.0 / x[1]])
        return XiHat(unscaled(v, -e), "diagonal-zero", lambda t: np.exp(t) - t - 1.0)
    # diagonal with 0 < |g| < 1; pairing nonzero forces both components nonzero
    v = np.array([g / x[0], -g / x[1]])
    if g < 0.0:
        v = -v

    def g_fn(t, gam=g, sgn=1.0 if g > 0.0 else -1.0):
        return sgn * (gam * np.expm1(t) - np.expm1(gam * t))

    return XiHat(unscaled(v, -e), "diagonal", g_fn)


def _never_negative(values: np.ndarray) -> bool:
    """No value lies below -ZERO_TOL times the largest magnitude."""
    return float(np.min(values)) >= -ZERO_TOL * float(np.max(np.abs(values)))


@dataclass(frozen=True)
class SeparatingCertificate:
    """Numerical evidence that the planes <v, xi_hat> = c are never crossed
    downward by the flow: the pairing g(t) stays nonnegative in its closed
    form ``g_values`` and as ``swept`` from the integral operator."""

    xi_hat: XiHat
    t_samples: np.ndarray
    g_values: np.ndarray
    min_g: float
    swept: np.ndarray

    @property
    def holds(self) -> bool:
        """No closed-form sample of g lies below -ZERO_TOL times the largest |g|."""
        return _never_negative(self.g_values)

    @property
    def sweep_holds(self) -> bool:
        """The same test on ``swept``, the rate of <v, xi_hat> when eta = 0."""
        return _never_negative(self.swept)


def monotone_certificate(sys) -> SeparatingCertificate:
    """Certificate that a rank-zero drift only pushes across the plane family
    one way.

    Samples g(t) = <Lambda_t^theta xi, xi_hat> both from the closed form and
    from the integral operator (one batched ``arc``), and raises ValueError
    unless they agree at every sample, so a defect in either evaluation
    shows up.  Both are evaluated on x = xi 2^-e with largest entry in
    [1/2, 1), where no product leaves the float range, and scaled back as
    ``xi_hat`` scales g: by 2^(2e) in the rotation case and not at all
    otherwise.  Past the float range ``min_g`` reads inf or 0.0.
    """
    if nilrank(sys) != 0:
        raise ValueError("monotone certificate applies to rank-zero drifts only")
    x, e = unit_scaled(sys.xi)
    xh = xi_hat(sys.theta, x)
    ts = np.linspace(*CERT_T_RANGE, CERT_SAMPLES)
    closed = np.asarray(xh.g(ts), dtype=float)
    _, (w00, w01, w10, w11) = arc(*sys.theta_matrix.ravel().tolist(), ts)
    (x0, x1), (h0, h1) = x, xh.vector
    swept = (w00 * x0 + w01 * x1) * h0 + (w10 * x0 + w11 * x1) * h1
    if np.max(np.abs(swept - closed)) > G_CHECK_TOL * np.max(np.abs(closed)):
        raise ValueError("closed-form g disagrees with the integral operator")
    k = 2 * e if xh.case == "rotation" else 0
    closed, swept = unscaled(closed, k), unscaled(swept, k)
    return SeparatingCertificate(xi_hat(sys.theta, sys.xi), ts, closed, float(np.min(closed)),
                                 swept)


# -- circle hopping (pure rotation planar case) ------------------------------


def _arc_time(p: np.ndarray, q: np.ndarray, center: np.ndarray, omega_rot: float) -> float:
    """Positive time to rotate p into q about center at angular velocity omega_rot.

    The angle is taken between p - center and q - center each scaled by a
    power of two to largest entry in [1/2, 1), where no product overflows.
    """
    (a, _), (b, _) = unit_scaled(p - center), unit_scaled(q - center)
    delta = float(np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b))
    sign = 1.0 if omega_rot > 0.0 else -1.0
    return float(np.mod(sign * delta, 2.0 * np.pi)) / abs(omega_rot)


def circle_hop(
    spec: PlanarSpec,
    v0: np.ndarray,
    u0: float,
    interval: tuple[float, float],
) -> PlanResult:
    """Steer v0 to the rest point v(u0) of the pure-rotation planar system.

    Requires A = mu*R with the rotation structure family and mu outside the
    control interval.  Constant-control orbits are circles centered at the
    rest points v(u), which all lie on the line R*eta.  One arc takes v0
    onto that line; from there each hop on the alternating circles is a
    half turn, which reflects the line coordinate through the rest point
    and shrinks the distance by |v(u2) - v(u1)|, and a last half turn about
    the midpoint of the hop point and v(u0) ends at v(u0).  The
    complementary halves of the same circles, in reverse order, steer back
    from v(u0) to v0 and are returned as ``return_control``.
    """
    v0 = check_finite(v0, "v0").reshape(2)
    if not (spec.theta.tag == SPIRAL and spec.theta.gamma == 0.0):
        raise ValueError("circle_hop needs the pure rotation structure family")
    if not (commutes(spec.A, ROT90) and trace_sign(spec.A) == 0):
        raise ValueError("circle_hop needs A = mu * R")
    mu = float(spec.A[1, 0])
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("degenerate control interval")
    if not (spec.omega.contains(lo) and spec.omega.contains(hi)):
        raise ValueError(f"circle_hop needs the control interval [{lo:g}, {hi:g}] inside "
                         f"the control range [{spec.omega.u_min:g}, {spec.omega.u_max:g}]")
    if lo <= mu <= hi:
        raise ValueError("circle_hop needs mu outside the control interval")
    if not lo < u0 < hi:
        raise ValueError("u0 must be interior to the control interval")

    e_norm = float(np.hypot(*spec.eta))
    if e_norm == 0.0:
        raise ValueError("eta must be nonzero")
    e_unit = ROT90 @ spec.eta / e_norm

    # hop controls: midpoints of the two sides of the interval around u0; the
    # rest point v(u) is kappa(u) e_unit with kappa(u) = u / (mu - u) |eta|
    u1 = 0.5 * (lo + u0)
    u2 = 0.5 * (u0 + hi)
    c1, c2, k0 = (u / (mu - u) * e_norm for u in (u1, u2, u0))
    k_lo, k_hi = min(c1, c2), max(c1, c2)
    rest = equilibrium(spec, u0)  # what the schedule is checked against

    # a distance or an offset from the line counts as zero against the
    # size of the start and the target
    tol = ZERO_TOL * float(np.max(np.abs([v0, rest])))
    gap = float(np.hypot(*(v0 - rest)))
    if gap <= tol:
        return PlanResult(PiecewiseControl.empty(), rest, v0.copy(), gap, PiecewiseControl.empty())

    pairs: list[tuple[float, float]] = []
    radii: list[float] = []
    kappa = float(v0 @ e_unit)
    if abs(float(v0 @ (ROT90 @ e_unit))) > tol or not k_lo <= kappa <= k_hi:
        # one arc about v(u2) onto the line, to the crossing nearer v(u1)
        center = c2 * e_unit
        r = float(np.hypot(*(v0 - center)))
        radii.append(r)
        kappa = min(c2 - r, c2 + r, key=lambda k: abs(k - c1))
        s = _arc_time(v0, kappa * e_unit, center, mu - u2)
        if s > 0.0:
            pairs.append((s, u2))
        # then half turns about v(u1), v(u2), v(u1), ..., each reflecting
        # kappa through the center, until kappa lies between the two; with
        # the arc above, at most 10 000 hops
        for u, c in islice(cycle([(u1, c1), (u2, c2)]), 9_999):
            if k_lo <= kappa <= k_hi:
                break
            radii.append(abs(kappa - c))
            pairs.append((np.pi / abs(mu - u), u))
            kappa = 2.0 * c - kappa
        else:
            raise RuntimeError("hop sequence failed to reach the rest-point segment")

    if abs(kappa - k0) > tol:
        # a last half turn about the midpoint of kappa and v(u0), back in
        # the v(u) parametrization
        k_mid = 0.5 * (kappa + k0) / e_norm
        u_fin = k_mid * mu / (1.0 + k_mid)
        if not lo < u_fin < hi:
            raise RuntimeError("final hop control left the admissible interval")
        pairs.append((np.pi / abs(mu - u_fin), u_fin))

    ctrl = PiecewiseControl.from_pairs(pairs)
    achieved, _ = concat_solution(spec, v0, ctrl)
    ret = PiecewiseControl.from_pairs([
        (2.0 * np.pi / abs(mu - u) - s, u) for s, u in reversed(pairs) if s < 2.0 * np.pi / abs(mu - u)
    ])
    return PlanResult(
        ctrl,
        rest,
        achieved,
        float(np.hypot(*(achieved - rest))),
        return_control=ret,
        diagnostics={"hops": len(pairs), "radii": radii, "controls": [u for _, u in pairs]},
    )


# -- fiber synchronization on the product system -----------------------------


def _connect_planar(spec: PlanarSpec, va: np.ndarray, vb: np.ndarray, first: float,
                    last: float) -> list[tuple[float, float]] | None:
    """Legs from va to vb with controls first, ..., last, or None.

    The routes are tried shortest first: (first, last), (first, 0, last) and
    the bang-bang (first, u_min, u_max, last) and (first, u_max, u_min, last).
    A route's durations solve endpoint(s) = vb by damped Gauss-Newton from
    fixed guesses, kept in [0, SOLVE_BOUND].  The derivative of the endpoint
    by s_i is exact: the later arcs' e^{s_j A(u_j)} applied to the field
    A(u_i) v_i + u_i eta at the end v_i of arc i.
    """
    # residuals in units of the size of the end points and of eta, so the
    # acceptance holds at any scale; durations in units of 1 / |A|, so the
    # fixed guesses and bound do too
    scale = float(np.max(np.abs([va, vb, spec.eta])))
    if scale == 0.0:
        return []  # every arc stays at va = vb = 0
    unit = 1.0 / float(np.max(np.abs(spec.A)))

    def miss(s: np.ndarray, controls: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The scaled endpoint residual and its derivative by s."""
        v, cols = va, []
        for si, ui in zip(s, controls):
            Au = a_of_u(spec, ui)
            E, W = arc_matrices(Au, si * unit)
            v = E @ v + W @ (ui * spec.eta)
            # each later arc carries the earlier arcs' end fields along
            cols = [E @ c for c in cols] + [Au @ v + ui * spec.eta]
        return (v - vb) / scale, np.transpose(cols) * (unit / scale)

    lo, hi = spec.omega.u_min, spec.omega.u_max
    for controls in ((first, last), (first, 0.0, last), (first, lo, hi, last),
                     (first, hi, lo, last)):
        for g in SOLVE_GUESSES:
            s = np.full(len(controls), g)
            r, J = miss(s, controls)
            for _ in range(SOLVE_STEPS):
                # a duration at a bound that the gradient pushes past stays there
                grad = J.T @ r
                free = ~(((s <= 0.0) & (grad > 0.0)) | ((s >= SOLVE_BOUND) & (grad < 0.0)))
                step = np.zeros_like(s)
                step[free] = np.linalg.lstsq(J[:, free], -r, rcond=None)[0]
                # below SOLVE_TOL only full steps, which polish the solve to rounding
                for k in range(SOLVE_HALVINGS if np.hypot(*r) > SOLVE_TOL else 1):
                    trial = np.clip(s + step / 2**k, 0.0, SOLVE_BOUND)
                    r_trial, J_trial = miss(trial, controls)
                    if np.hypot(*r_trial) < np.hypot(*r):
                        break
                else:
                    break  # no step along the Gauss-Newton direction decreases the miss
                s, r, J = trial, r_trial, J_trial
            if np.hypot(*r) <= 10.0 * SOLVE_TOL:
                longest = float(np.max(s))
                return [(float(si) * unit, float(u)) for si, u in zip(s, controls)
                        if si > ZERO_TOL * longest]
    return None


def fiber_sync(spec: PlanarSpec, p1: tuple[float, np.ndarray], p2: tuple[float, np.ndarray],
               u1: float, u2: float) -> PlanResult:
    """Steer the product system t' = u, v' = (A - u*theta) v + u*eta between
    two prescribed (t, v) pairs.

    The v-component is routed through the rest points v(u1) and v(u2): a
    long contraction arc lands on v(u1), dwells there (which moves only t,
    since rest points are fixed in v), transfers to v(u2), dwells again, and
    finally connects into the target v; the transfer and the connection
    are boundary problems of ``_connect_planar``.  The two dwell times solve
    the remaining linear t-budget with nonnegative durations, u1 < 0 < u2
    providing both signs.  A(u1) must contract, and so must A(u2) when its
    dwell is positive, or the dwell would magnify the solves' residual.
    """
    t1, t2, u1, u2 = check_finite([p1[0], p2[0], u1, u2], "t1, t2, u1, u2").tolist()
    v1, v2 = check_finite(p1[1], "p1").reshape(2), check_finite(p2[1], "p2").reshape(2)
    if not (u1 < 0.0 < u2):
        raise ValueError("fiber_sync needs u1 < 0 < u2")
    if not (spec.omega.contains(u1) and spec.omega.contains(u2)):
        raise ValueError(f"fiber_sync needs u1 = {u1:g} and u2 = {u2:g} inside the control "
                         f"range [{spec.omega.u_min:g}, {spec.omega.u_max:g}]")

    def same(a, b) -> bool:
        # a difference counts as zero against the size of both points
        return np.max(np.abs(a - b)) <= ZERO_TOL * np.max(np.abs([a, b]))

    if t1 == t2 and same(v1, v2):
        return _finish_fiber(spec, t1, v1, t2, v2, PiecewiseControl.empty(), {})

    r1 = equilibrium(spec, u1)
    r2 = equilibrium(spec, u2)

    # single-dwell shortcut when both endpoints sit on the same rest point,
    # which must contract like every other dwell
    for u, r, name in ((u1, r1, "u1"), (u2, r2, "u2")):
        if same(v1, r) and same(v2, r) and (t2 - t1) * u >= 0.0:
            _contraction_rate(spec, u, name)
            ctrl = PiecewiseControl.from_pairs([((t2 - t1) / u, u)] if t2 != t1 else [])
            return _finish_fiber(spec, t1, v1, t2, v2, ctrl, {"route": "dwell-only"})

    # forty time constants: the start is forgotten to e^-40 of its distance
    contract_T = 40.0 / _contraction_rate(spec, u1, "u1")
    transfer = _connect_planar(spec, r1, r2, u2, u1)
    if transfer is None:
        raise RuntimeError("fiber_sync: no transfer between the rest points found")
    final = _connect_planar(spec, r2, v2, u1, u2)
    if final is None:
        raise RuntimeError("fiber_sync: no final connection into the target found")
    need = (t2 - t1) - sum(s * u for s, u in [(contract_T, u1), *transfer, *final])
    # dwell d1 at v(u1) (rate u1 < 0) and d2 at v(u2) (rate u2 > 0)
    d1, d2 = (0.0, need / u2) if need >= 0.0 else (need / u1, 0.0)
    if d2 > 0.0:
        _contraction_rate(spec, u2, "u2")
    legs = [(contract_T, u1), (d1, u1), *transfer, (d2, u2), *final]
    ctrl = PiecewiseControl.from_pairs([(s, u) for s, u in legs if s > 0.0])
    return _finish_fiber(
        spec, t1, v1, t2, v2, ctrl, {"route": "equilibrium-dwell", "dwells": (d1, d2)}
    )


def _contraction_rate(spec: PlanarSpec, u: float, name: str) -> float:
    """-max Re eig A(u), or a ValueError when A(u) does not contract: the
    largest real part must lie below -ZERO_TOL |A(u)|."""
    Au = a_of_u(spec, u)
    eigs = np.linalg.eigvals(Au)
    rate = -float(np.max(eigs.real))
    if rate <= ZERO_TOL * float(np.max(np.abs(Au))):
        raise ValueError(
            f"fiber_sync needs a contracting rest point at {name} "
            f"(eigenvalue real parts {eigs.real})"
        )
    return rate


def _finish_fiber(spec, t1, v1, t2, v2, ctrl, diag) -> PlanResult:
    v, _ = concat_solution(spec, v1, ctrl)
    t = sum((s * u for s, u in ctrl.pairs()), t1)
    achieved = np.array([t, v[0], v[1]])
    predicted = np.array([t2, v2[0], v2[1]])
    err = float(np.max(np.abs(achieved - predicted)))
    return PlanResult(ctrl, predicted, achieved, err, diagnostics=diag)


# -- the staircase connector (rank-zero drift) -------------------------------


def _exp_sin_antideriv(gamma: float, t: float) -> float:
    """Antiderivative of e^{gamma*t} sin t."""
    return np.exp(gamma * t) * (gamma * np.sin(t) - np.cos(t)) / (gamma * gamma + 1.0)


def _transition_dx(gamma: float, c: float, t_from: float, t_to: float, rate: float) -> float:
    """x-displacement of a leg moving t at constant rate between two levels."""
    return c / rate * (_exp_sin_antideriv(gamma, t_to) - _exp_sin_antideriv(gamma, t_from))


def _bang_for(delta_t: float, alpha: float, omega: ControlRange) -> float:
    """Extreme control whose t-rate has the sign of delta_t."""
    u = omega.u_max if delta_t * alpha > 0.0 else omega.u_min
    if u * alpha * delta_t <= 0.0:
        raise ValueError("control range cannot move t in the required direction")
    return u


def _leg_ends(theta: np.ndarray, alpha: float, w: np.ndarray, pairs, t: float,
              v: np.ndarray) -> np.ndarray:
    """The states (t, v) at the start and at each leg end of the A = 0, eta = 0
    flow t' = u alpha, v' = (rho_t - I) w, with rho_t = e^{t theta} and
    w = theta^{-1} xi: a leg at control u for s time units is one ``arc``
    (E, W) of u alpha theta, which moves v by (rho_t W - s I) w and rho_t to
    rho_t E.  The identity return and ``integrate_projected`` both run on it."""
    rho, ends = expm(theta, t), [(t, *v)]
    for s, u in pairs:
        E, W = arc_matrices(u * alpha * theta, s)
        v = v + (rho @ W - s * np.eye(2)) @ w
        rho, t = rho @ E, t + s * u * alpha
        ends.append((t, *v))
    return np.array(ends)


def integrate_projected(gamma: float, alpha: float, c: float, ctrl: PiecewiseControl,
                        t0: float = 0.0, x0: float = 0.0) -> np.ndarray:
    """Exact endpoint of t' = u*alpha, x' = c e^{gamma t} sin t under ctrl.

    With theta = gamma I + R and w = c e1, the leg map's v' = (rho_t - I) w
    has c e^{gamma t} sin t as its second entry, so x is v[1] along
    ``_leg_ends`` from v = (0, x0).  The staircase's endpoint check,
    independent of the antiderivatives its construction uses.
    """
    t, _, x = _leg_ends(gamma * np.eye(2) + ROT90, alpha, np.array([c, 0.0]), ctrl.pairs(),
                        float(t0), np.array([0.0, x0]))[-1]
    return np.array([t, x])


def _in_float_range(values, stops) -> None:
    """Reject a staircase whose dwell times, total time or end point overflowed."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"staircase stops {tuple(stops)} leave the float range")


def _staircase(gamma: float, alpha: float, c: float, stops, omega: ControlRange) -> PlanResult:
    """Steer (0, stops[0]) through each (0, stops[i]) in turn for the projected
    system t' = u*alpha, x' = c e^{gamma t} sin t.

    Each step runs five legs: a bang transition to the level -pi/4, a dwell
    there down to the low rung z1, a bang transition to +pi/4, a dwell up to
    the launch point of the next stop, and a bang transition back to t = 0.
    The drift has a definite sign on both levels, and every step shares the
    rung, so the dwell durations solve linear rung equations exactly.
    """
    check_finite(stops, "staircase stops")
    if gamma == 0.0:
        raise ValueError("staircase needs gamma != 0")
    if c <= 0.0 or alpha == 0.0:
        raise ValueError("staircase needs c > 0 and alpha != 0")
    t_dn, t_up = -np.pi / 4.0, np.pi / 4.0
    u_dn = _bang_for(-1.0, alpha, omega)
    u_up = _bang_for(+1.0, alpha, omega)
    # e^{gamma t} at the levels overflows for |gamma| past about 900, and so
    # may every quantity below; _in_float_range rejects what did
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # (duration, x-displacement) of the three transitions
        (s01, dx01), (s12, dx12), (s20, dx20) = [
            (dt / (u * alpha), _transition_dx(gamma, c, t_from, t_from + dt, u * alpha))
            for t_from, dt, u in ((0.0, t_dn - 0.0, u_dn), (t_dn, t_up - t_dn, u_up),
                                  (t_up, 0.0 - t_up, u_dn))
        ]
        landings = [p + dx01 for p in stops[:-1]]  # at the lower level
        launches = [p - dx20 for p in stops[1:]]  # required at the upper level
        # the rung sits this far below every landing: the x-travel at rate c
        # while the bang control moves t by 1/2, so it scales with x and the
        # dwells scale with the transitions
        margin = 0.5 * c / abs(u_up * alpha)
        z1 = min(min(landings), min(launches) - dx12) - margin
        z2 = z1 + dx12
        rate_dn = c * np.exp(gamma * t_dn) * np.sin(t_dn)  # < 0
        rate_up = c * np.exp(gamma * t_up) * np.sin(t_up)  # > 0
        dwells = [s for a, b in zip(landings, launches)
                  for s in ((z1 - a) / rate_dn, (b - z2) / rate_up)]
        total = sum(dwells) + (len(stops) - 1) * (s01 + s12 + s20)
    _in_float_range([*dwells, total], stops)
    if min(dwells) < -ZERO_TOL * max(map(abs, dwells)):
        raise RuntimeError("negative dwell time in the staircase solve")
    itinerary = [leg for s1, s2 in zip(dwells[::2], dwells[1::2])
                 for leg in ((s01, u_dn), (s1, 0.0), (s12, u_up), (s2, 0.0), (s20, u_dn))]
    ctrl = PiecewiseControl.from_pairs([(s, u) for s, u in itinerary if s > 0.0])
    # the leg map's first coordinate, which the projection drops, may
    # overflow where t and x do not
    with np.errstate(over="ignore", invalid="ignore"):
        achieved = integrate_projected(gamma, alpha, c, ctrl, 0.0, stops[0])
    _in_float_range(achieved, stops)
    predicted = np.array([0.0, stops[-1]])
    # each residual against its own coordinate's scale: the largest |t| level
    # and the largest |x| among the stops and rungs
    err = float(np.max(np.abs(achieved - predicted) / [t_up, np.max(np.abs([*stops, z1, z2]))]))
    return PlanResult(ctrl, predicted, achieved, err, diagnostics={
        "levels": (t_dn, t_up), "rungs": (z1, z2), "dwells": tuple(dwells)})


def staircase(gamma: float, alpha: float, c: float, x: float, y: float,
              omega: ControlRange) -> PlanResult:
    """Closed loop (0, x) -> (0, y) -> (0, x) for the projected system
    t' = u*alpha, x' = c e^{gamma t} sin t."""
    return _staircase(gamma, alpha, c, (x, y, x), omega)


def half_staircase(gamma: float, alpha: float, c: float, x: float, y: float,
                   omega: ControlRange) -> PlanResult:
    """One-way connector (0, x) -> (0, y): the first five legs of a staircase
    with its own rung."""
    return _staircase(gamma, alpha, c, (x, y), omega)


def staircase_fiber(sys) -> tuple[np.ndarray, float]:
    """The axis R theta^{-1} xi and rate c = |theta^{-1} xi|^2 of the fiber
    coordinate x = <v, R theta^{-1} xi>, which moves by x' = c e^{gamma t} sin t
    when eta = 0.  Requires the spiral family with gamma != 0 and nilrank 0.
    """
    if sys.theta.tag != SPIRAL or sys.theta.gamma == 0.0:
        raise ValueError(
            "staircase needs the spiral family with a nonzero scaling part (gamma != 0)"
        )
    if nilrank(sys) != 0:
        raise ValueError("staircase needs a rank-zero drift (A = 0)")
    th_inv_xi = np.linalg.solve(sys.theta_matrix, sys.xi)
    return ROT90 @ th_inv_xi, float(th_inv_xi @ th_inv_xi)


def identity_return_error(sys, seed: int) -> float:
    """Round trip identity -> excursion -> identity fiber, via the staircase.

    Steers the fiber coordinates (t, <v, R theta^{-1} xi>) back to (0, 0)
    and reports how far from the identity fiber the exact endpoint
    (``_leg_ends``) lands, each coordinate as a fraction of the largest value
    it took at a leg end.  Durations are in units of tau = 1 / (u_max |alpha|)
    and controls in units of u_max, so a time rescaling draws the same round
    trip.  ``sys.eta`` is never read: with A = 0, ``normalize_eta`` conjugates
    it away without changing xi and fixes the identity fiber.
    """
    if sys.alpha == 0.0:
        raise ValueError("identity_return_error needs alpha != 0")
    axis, c = staircase_fiber(sys)
    w = axis @ ROT90  # R^T R theta^{-1} xi: theta^{-1} xi, exactly
    theta, alpha, omega = sys.theta_matrix, sys.alpha, sys.omega
    tau = 1.0 / (omega.u_max * abs(alpha))

    rng = np.random.default_rng(seed)
    legs = [(tau * float(rng.uniform(0.15, 0.4)), omega.u_max * float(rng.uniform(0.2, 1.0)))
            for _ in range(3)]
    t_now = sum(s * u * alpha for s, u in legs)
    # bring t back to 0 with one bang leg
    u_back = _bang_for(-t_now, alpha, omega)
    legs.append((t_now / (-u_back * alpha), u_back))

    out = _leg_ends(theta, alpha, w, legs, 0.0, np.zeros(2))
    stairs = half_staircase(sys.theta.gamma, alpha, c, float(out[-1, 1:] @ axis), 0.0, omega)
    back = _leg_ends(theta, alpha, w, stairs.control.pairs(), out[-1, 0], out[-1, 1:])
    states = np.vstack([out, back[1:]])
    t = np.abs(states[:, 0])
    x = np.abs(states[:, 1:] @ axis)
    return float(max(t[-1] / np.max(t), x[-1] / np.max(x)))


# -- the H1/H2 oscillation functions -----------------------------------------


def h_functions(rho: float, gamma: float, s0: float, s) -> tuple[float, float]:
    """The pair (H1(s), H2(s)) controlling returns to the reference axis.

    H1 tracks the axis coordinate after an out-and-back excursion at
    controls +-rho/alpha; H2 is the transverse coordinate, whose zeros mark
    exact returns to the axis.
    """
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    s = np.asarray(s, dtype=float)
    d = gamma * gamma + 1.0
    e = np.exp(gamma * rho * s)
    h1 = (2.0 / (rho * d)) * (
        e * (gamma * np.cos(rho * s) + np.sin(rho * s)) - gamma - s * rho * d
    ) + s0
    h2 = (2.0 / (rho * d)) * (e * (gamma * np.sin(rho * s) - np.cos(rho * s)) + 1.0)
    if np.ndim(s) == 0:
        return float(h1), float(h2)
    return h1, h2


def _h2(rho: float, gamma: float, s: float) -> float:
    return h_functions(rho, gamma, 0.0, s)[1]


def h2_zero(rho: float, gamma: float, s0: float, k: int) -> float:
    """A zero of H2 bracketed in the k-th sign-change window.

    Requires gamma * k > 0 so the window endpoints have opposite signs.
    The window is the second half-period when s0 and gamma share a sign
    (where H1 at the root diverges opposite to s0) and the first
    half-period otherwise; bisection refines to machine width.
    """
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    if gamma * k <= 0.0:
        raise ValueError("h2_zero needs gamma * k > 0")
    if s0 * gamma > 0.0:
        a = (np.pi + 2.0 * np.pi * k + EPSILON_BRACKET) / rho
        b = (2.0 * np.pi * (k + 1) - EPSILON_BRACKET) / rho
    else:
        a = (2.0 * np.pi * k + EPSILON_BRACKET) / rho
        b = (np.pi + 2.0 * np.pi * k - EPSILON_BRACKET) / rho
    a, b = min(a, b), max(a, b)
    fa, fb = _h2(rho, gamma, a), _h2(rho, gamma, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise RuntimeError("no sign change of H2 on the bracketing window")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= np.finfo(float).eps * max(1.0, abs(m)):
            break
        fm = _h2(rho, gamma, m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
