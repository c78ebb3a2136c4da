"""Constructive trajectory planners.

Each planner transcribes an explicit geometric construction into a
piecewise-constant control schedule and then reports the endpoint error
honestly, by re-integrating the schedule with an independent integrator
rather than trusting the construction.

Contents: circle-hopping between rotation orbits, fiber synchronization on
the product system, the staircase connector for rank-zero drifts, the
H1/H2 oscillation functions with bracketed root-finding, and the monotone
separating-plane certificate built on the positive functional xi_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel2d import (
    DIAGONAL,
    JORDAN,
    SPIRAL,
    ROT90,
    ThetaFamily,
    check_finite,
    lambda_op,
    rank_product,
    rot90,
)
from .planar import (
    ControlRange,
    PiecewiseControl,
    PlanarSpec,
    concat_solution,
    equilibrium,
    planar_solution,
)

__all__ = [
    "PlanResult",
    "SeparatingCertificate",
    "XiHat",
    "xi_hat",
    "circle_hop",
    "fiber_sync",
    "staircase",
    "half_staircase",
    "integrate_projected",
    "h_functions",
    "h2_zero",
    "monotone_certificate",
]

# bracket shrink for the H2 sign-change intervals, in radians
EPSILON_BRACKET = 1e-3


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
    """Direction xi_hat with <Lambda_t^theta xi, xi_hat> = g(t) >= 0 for all t."""

    vector: np.ndarray
    case: str

    def g(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class _XiHatClosed(XiHat):
    """Concrete xi_hat carrying the closed-form g."""

    g_fn: "object" = None

    def g(self, t):
        return self.g_fn(np.asarray(t, dtype=float))


def xi_hat(theta: ThetaFamily, xi: np.ndarray) -> XiHat:
    """Direction with a nonnegative pairing against Lambda_t^theta xi.

    Requires <theta xi, R xi> != 0 and excludes the spiral family with a
    nonzero scaling part (where no such direction exists).
    """
    xi = check_finite(xi, "xi").reshape(2)
    if not rank_product(theta.matrix(), xi)[1]:
        raise ValueError("xi_hat needs <theta xi, R xi> != 0")
    if theta.tag == SPIRAL and theta.gamma != 0.0:
        raise ValueError("xi_hat is not defined for the spiral family with gamma != 0")

    if theta.tag == SPIRAL:
        v = rot90(xi)
        n2 = float(xi @ xi)
        return _XiHatClosed(v, "rotation", lambda t: n2 * (1.0 - np.cos(t)))
    if theta.tag == JORDAN:
        # pairing nonzero forces xi2 != 0
        v = np.array([1.0 / xi[1], -xi[0] / xi[1] ** 2])
        return _XiHatClosed(v, "shear", lambda t: t * np.exp(t) - np.expm1(t))
    g = theta.gamma
    if g == 0.0:
        v = np.array([1.0 / xi[0], -1.0 / xi[1]])
        return _XiHatClosed(v, "diagonal-zero", lambda t: np.exp(t) - t - 1.0)
    # diagonal with 0 < |g| < 1; pairing nonzero forces both components nonzero
    v = np.array([g / xi[0], -g / xi[1]])
    if g < 0.0:
        v = -v

    def g_fn(t, gam=g, sgn=1.0 if g > 0.0 else -1.0):
        return sgn * (gam * np.expm1(t) - np.expm1(gam * t))

    return _XiHatClosed(v, "diagonal", g_fn)


@dataclass(frozen=True)
class SeparatingCertificate:
    """Numerical evidence that the planes <v, xi_hat> = c are never crossed
    downward by the flow: the sampled pairing rate stays >= -1e-12."""

    xi_hat: XiHat
    t_samples: np.ndarray
    g_values: np.ndarray
    min_g: float


def monotone_certificate(
    sys,
    t_range: tuple[float, float] = (-10.0, 10.0),
    n_samples: int = 10_000,
) -> SeparatingCertificate:
    """Certificate that a rank-zero drift only pushes across the plane family
    one way.

    Samples g(t) = <Lambda_t^theta xi, xi_hat> both from the closed form and
    from the integral operator itself, keeping the pointwise minimum so a
    defect in either evaluation shows up.
    """
    from .system import nilrank  # local import to avoid a cycle

    if nilrank(sys) != 0:
        raise ValueError("monotone certificate applies to rank-zero drifts only")
    xh = xi_hat(sys.theta, sys.xi)
    ts = np.linspace(t_range[0], t_range[1], n_samples)
    closed = np.asarray(xh.g(ts), dtype=float)
    th = sys.theta_matrix
    idx = np.linspace(0, n_samples - 1, 200).astype(int)
    direct = np.array([float(lambda_op(th, ts[i], sys.xi) @ xh.vector) for i in idx])
    if np.max(np.abs(direct - closed[idx])) > 1e-8 * max(1.0, np.max(np.abs(closed))):
        raise AssertionError("closed-form g disagrees with the integral operator")
    return SeparatingCertificate(xh, ts, closed, float(np.min(closed)))


# -- circle hopping (pure rotation planar case) ------------------------------


def _arc_duration(delta_angle: float, omega_rot: float) -> float:
    """Positive time to rotate by delta_angle at angular velocity omega_rot."""
    if omega_rot > 0.0:
        return float(np.mod(delta_angle, 2.0 * np.pi)) / omega_rot
    return float(np.mod(-delta_angle, 2.0 * np.pi)) / (-omega_rot)


def _arc_time(p: np.ndarray, q: np.ndarray, center: np.ndarray, omega_rot: float) -> float:
    a = p - center
    b = q - center
    delta = float(np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b))
    return _arc_duration(delta, omega_rot)


def circle_hop(
    spec: PlanarSpec,
    v0: np.ndarray,
    u0: float,
    interval: tuple[float, float],
) -> PlanResult:
    """Steer v0 to the rest point v(u0) of the pure-rotation planar system.

    Requires A = mu*R with the rotation structure family and mu outside the
    control interval.  Constant-control orbits are circles centered at the
    rest points v(u), which all lie on the line R*eta; the planner hops
    along that line on alternating circles, shrinking the distance by
    |v(u2) - v(u1)| per hop, and finishes with one arc whose circle passes
    through both the last hop point and v(u0).  The complementary halves of
    the same circles, in reverse order, steer back from v(u0) to v0 and are
    returned as ``return_control``.
    """
    v0 = check_finite(v0, "v0").reshape(2)
    A, th = spec.A, spec.theta_matrix
    if not (spec.theta.tag == SPIRAL and spec.theta.gamma == 0.0):
        raise ValueError("circle_hop needs the pure rotation structure family")
    mu = float(A[1, 0])
    if np.max(np.abs(A - mu * ROT90)) > 1e-12 * max(1.0, abs(mu)):
        raise ValueError("circle_hop needs A = mu * R")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("degenerate control interval")
    if lo <= mu <= hi:
        raise ValueError("circle_hop needs mu outside the control interval")
    if not lo < u0 < hi:
        raise ValueError("u0 must be interior to the control interval")

    e = rot90(spec.eta)
    e_norm = float(np.hypot(e[0], e[1]))
    if e_norm == 0.0:
        raise ValueError("eta must be nonzero")
    e_unit = e / e_norm

    def kappa_of_u(u: float) -> float:
        return u / (mu - u) * e_norm  # coefficient of v(u) along e_unit

    # hop controls: midpoints of the two sides of the interval around u0
    u1 = 0.5 * (lo + u0)
    u2 = 0.5 * (u0 + hi)
    k1, k2 = kappa_of_u(u1), kappa_of_u(u2)
    k_lo, k_hi = min(k1, k2), max(k1, k2)
    k0 = kappa_of_u(u0)
    target = k0 * e_unit

    pairs: list[tuple[float, float]] = []
    controls_used: list[float] = []
    radii: list[float] = []

    if float(np.hypot(*(v0 - target))) <= 1e-14:
        ctrl = PiecewiseControl.empty()
        return PlanResult(ctrl, target.copy(), v0.copy(), 0.0, PiecewiseControl.empty())

    point = v0.copy()
    on_line = abs(float(point @ rot90(e_unit))) <= 1e-12 * max(1.0, np.max(np.abs(point)))
    kappa = float(point @ e_unit)
    hop_u, other_u = u2, u1
    max_hops = 10_000
    for _ in range(max_hops):
        if on_line and k_lo <= kappa <= k_hi:
            break
        center = equilibrium(spec, hop_u)
        kc = float(center @ e_unit)
        r = float(np.hypot(*(point - center)))
        radii.append(r)
        k_other = kappa_of_u(other_u)
        # two intersections of the hop circle with the line; keep the one
        # closer to the other rest point
        cand = [kc - r / 1.0, kc + r / 1.0]
        kappa_next = min(cand, key=lambda k: abs(k - k_other))
        nxt = kappa_next * e_unit
        s = _arc_time(point, nxt, center, mu - hop_u)
        if s > 0.0:
            pairs.append((s, hop_u))
            controls_used.append(hop_u)
        point, kappa, on_line = nxt, kappa_next, True
        hop_u, other_u = other_u, hop_u
    else:
        raise RuntimeError("hop sequence failed to reach the rest-point segment")

    if float(np.hypot(*(point - target))) > 1e-14:
        # final circle through both the hop point and the target rest point:
        # its center is their midpoint on the line
        k_mid = 0.5 * (kappa + k0) / e_norm  # back to the v(u) parametrization
        u_fin = k_mid * mu / (1.0 + k_mid)
        if not lo < u_fin < hi:
            raise RuntimeError("final hop control left the admissible interval")
        center = equilibrium(spec, u_fin)
        s = _arc_time(point, target, center, mu - u_fin)
        if s > 0.0:
            pairs.append((s, u_fin))
            controls_used.append(u_fin)

    ctrl = PiecewiseControl.from_pairs(pairs)
    achieved, _ = concat_solution(spec, v0, ctrl)
    err = float(np.hypot(*(achieved - target)))
    ret_pairs = [
        (2.0 * np.pi / abs(mu - u) - s, u) for s, u in reversed(pairs) if s < 2.0 * np.pi / abs(mu - u)
    ]
    ret = PiecewiseControl.from_pairs(ret_pairs)
    return PlanResult(
        ctrl,
        target.copy(),
        achieved,
        err,
        return_control=ret,
        diagnostics={"hops": len(pairs), "radii": radii, "controls": controls_used},
    )


# -- fiber synchronization on the product system -----------------------------


def _connect_planar(
    spec: PlanarSpec, va: np.ndarray, vb: np.ndarray, controls: tuple[float, ...]
) -> list[tuple[float, float]] | None:
    """Durations making the multi-arc endpoint map hit vb, or None."""
    # scipy.optimize takes about 0.5 s to import and only this planner uses it
    from scipy import optimize

    def residual(s: np.ndarray) -> np.ndarray:
        v = va
        for si, ui in zip(s, controls):
            v = planar_solution(spec, float(si), v, ui)
        return v - vb

    scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
    best = None
    rng = np.random.default_rng(0)
    guesses = [np.full(len(controls), g) for g in (0.5, 1.5, 3.0)]
    guesses += [rng.uniform(0.05, 6.0, size=len(controls)) for _ in range(12)]
    for g in guesses:
        sol = optimize.least_squares(
            residual, g, bounds=(np.zeros(len(controls)), np.full(len(controls), 50.0)),
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        r = float(np.hypot(*sol.fun))
        if best is None or r < best[0]:
            best = (r, sol.x)
        if r <= 1e-10 * scale:
            break
    if best is None or best[0] > 1e-9 * scale:
        return None
    return [(float(s), float(u)) for s, u in zip(best[1], controls) if s > 1e-12]


def fiber_sync(
    spec: PlanarSpec,
    p1: tuple[float, np.ndarray],
    p2: tuple[float, np.ndarray],
    u1: float,
    u2: float,
) -> PlanResult:
    """Steer the product system t' = u, v' = (A - u*theta) v + u*eta between
    two prescribed (t, v) pairs.

    The v-component is routed through the rest points v(u1) and v(u2): a
    long contraction arc lands on v(u1), dwells there (which moves only t,
    since rest points are fixed in v), transfers to v(u2), dwells again, and
    finally solves a two-arc boundary problem into the target v.  The two
    dwell times solve the remaining linear t-budget with nonnegative
    durations, u1 < 0 < u2 providing both signs.
    """
    t1, v1 = float(p1[0]), check_finite(p1[1], "p1").reshape(2)
    t2, v2 = float(p2[0]), check_finite(p2[1], "p2").reshape(2)
    if not (u1 < 0.0 < u2):
        raise ValueError("fiber_sync needs u1 < 0 < u2")
    if t1 == t2 and np.allclose(v1, v2, atol=1e-14):
        ctrl = PiecewiseControl.empty()
        end = np.array([t2, v2[0], v2[1]])
        return PlanResult(ctrl, end, np.array([t1, v1[0], v1[1]]), 0.0)

    r1 = equilibrium(spec, u1)
    r2 = equilibrium(spec, u2)

    # single-dwell shortcut when both endpoints sit on the same rest point
    for u, r in ((u1, r1), (u2, r2)):
        if (
            np.allclose(v1, r, atol=1e-12)
            and np.allclose(v2, r, atol=1e-12)
            and (t2 - t1) * u >= 0.0
        ):
            if t2 == t1:
                ctrl = PiecewiseControl.empty()
            else:
                ctrl = PiecewiseControl.from_pairs([((t2 - t1) / u, u)])
            return _finish_fiber(spec, t1, v1, t2, v2, ctrl, {"route": "dwell-only"})

    eigs = np.linalg.eigvals(spec.A - u1 * spec.theta_matrix)
    if np.max(eigs.real) >= -1e-9:
        raise ValueError(
            "fiber_sync needs a contracting rest point at u1 "
            f"(eigenvalue real parts {eigs.real})"
        )
    contract_T = max(40.0 / -float(np.max(eigs.real)), 40.0)
    legs: list[tuple[float, float]] = [(contract_T, u1)]
    t_spent = contract_T * u1

    transfer = _connect_planar(spec, r1, r2, (u2, u1))
    if transfer is None:
        transfer = _connect_planar(spec, r1, r2, (u2, 0.0, u1))
    if transfer is None:
        raise RuntimeError("fiber_sync: no transfer between the rest points found")
    final = _connect_planar(spec, r2, v2, (u1, u2))
    if final is None:
        final = _connect_planar(spec, r2, v2, (u2, u1))
    if final is None:
        raise RuntimeError("fiber_sync: no final connection into the target found")
    t_spent += sum(s * u for s, u in transfer) + sum(s * u for s, u in final)

    need = (t2 - t1) - t_spent
    # dwell d1 at v(u1) (rate u1 < 0) and d2 at v(u2) (rate u2 > 0)
    if need >= 0.0:
        d1, d2 = 0.0, need / u2
    else:
        d1, d2 = need / u1, 0.0
    if d1 > 0.0:
        legs.append((d1, u1))
    legs += transfer
    if d2 > 0.0:
        legs.append((d2, u2))
    legs += final
    ctrl = PiecewiseControl.from_pairs(legs)
    return _finish_fiber(
        spec, t1, v1, t2, v2, ctrl, {"route": "equilibrium-dwell", "dwells": (d1, d2)}
    )


def _finish_fiber(spec, t1, v1, t2, v2, ctrl, diag) -> PlanResult:
    v = v1
    t = t1
    for s, u in ctrl.pairs():
        v = planar_solution(spec, s, v, u)
        t += s * u
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


def integrate_projected(
    gamma: float,
    alpha: float,
    c: float,
    ctrl: PiecewiseControl,
    t0: float = 0.0,
    x0: float = 0.0,
    step: float = 1e-3,
) -> np.ndarray:
    """Fixed-step 4th-order integration of t' = u*alpha, x' = c e^{gamma t} sin t.

    Independent endpoint oracle for the staircase construction.
    """

    def rate(t: float) -> float:
        return c * np.exp(gamma * t) * np.sin(t)

    t, x = float(t0), float(x0)
    for s, u in ctrl.pairs():
        n = max(1, int(np.ceil(s / step)))
        h = s / n
        td = u * alpha
        for _ in range(n):
            k1 = rate(t)
            k2 = rate(t + 0.5 * h * td)
            k3 = k2
            k4 = rate(t + h * td)
            x += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h * td
    return np.array([t, x])


def _staircase_legs(
    gamma: float, alpha: float, c: float, x: float, y: float, omega: ControlRange
):
    """Shared geometry of the staircase itinerary.

    Returns the two dwell levels, the three transition legs, the landing
    x-offsets and the low rungs (z1, z2).
    """
    if gamma == 0.0:
        raise ValueError("staircase needs gamma != 0")
    if c <= 0.0 or alpha == 0.0:
        raise ValueError("staircase needs c > 0 and alpha != 0")
    t_dn, t_up = -np.pi / 4.0, np.pi / 4.0
    u_dn = _bang_for(-1.0, alpha, omega)
    u_up = _bang_for(+1.0, alpha, omega)
    legs = {
        "0->1": (t_dn - 0.0, u_dn),
        "1->2": (t_up - t_dn, u_up),
        "2->0": (0.0 - t_up, u_dn),
    }
    moves = {}
    for key, (dt, u) in legs.items():
        s = dt / (u * alpha)
        t_from = {"0->1": 0.0, "1->2": t_dn, "2->0": t_up}[key]
        dx = _transition_dx(gamma, c, t_from, t_from + dt, u * alpha)
        moves[key] = (s, u, dx)
    dx01, dx12, dx20 = moves["0->1"][2], moves["1->2"][2], moves["2->0"][2]
    x1, y1 = x + dx01, y + dx01  # landings at the lower level
    x2, y2 = x - dx20, y - dx20  # required launch points at the upper level
    z1 = min(x1, y1, min(x2, y2) - dx12) - 1.0
    z2 = z1 + dx12
    rate_dn = c * np.exp(gamma * t_dn) * np.sin(t_dn)  # < 0
    rate_up = c * np.exp(gamma * t_up) * np.sin(t_up)  # > 0
    return t_dn, t_up, moves, (x1, y1, x2, y2), (z1, z2), (rate_dn, rate_up)


def staircase(
    gamma: float,
    alpha: float,
    c: float,
    x: float,
    y: float,
    omega: ControlRange,
) -> PlanResult:
    """Closed loop (0, x) -> (0, y) -> (0, x) for the projected system
    t' = u*alpha, x' = c e^{gamma t} sin t.

    Transitions run at bang controls between the dwell levels -pi/4 and
    +pi/4, where the drift has a definite sign; dwell durations solve the
    linear rung equations exactly.
    """
    t_dn, t_up, moves, (x1, y1, x2, y2), (z1, z2), (rd, ru) = _staircase_legs(
        gamma, alpha, c, x, y, omega
    )
    s01, u01, _ = moves["0->1"]
    s12, u12, _ = moves["1->2"]
    s20, u20, _ = moves["2->0"]
    s1 = (z1 - x1) / rd
    s1_hat = (z1 - y1) / rd
    s2 = (y2 - z2) / ru
    s2_hat = (x2 - z2) / ru
    for s in (s01, s12, s20):
        if s <= 0.0:
            raise RuntimeError("transition durations must be positive")
    for s in (s1, s1_hat, s2, s2_hat):
        if s < -1e-12:
            raise RuntimeError("negative dwell time in the staircase solve")
    itinerary = [
        (s01, u01), (s1, 0.0), (s12, u12), (s2, 0.0), (s20, u20),
        (s01, u01), (s1_hat, 0.0), (s12, u12), (s2_hat, 0.0), (s20, u20),
    ]
    ctrl = PiecewiseControl.from_pairs([(s, u) for s, u in itinerary if s > 0.0])
    achieved = integrate_projected(gamma, alpha, c, ctrl, 0.0, x)
    predicted = np.array([0.0, x])
    err = float(np.max(np.abs(achieved - predicted)))
    return PlanResult(
        ctrl,
        predicted,
        achieved,
        err,
        diagnostics={
            "levels": (t_dn, t_up),
            "rungs": (z1, z2),
            "dwells": (s1, s2, s1_hat, s2_hat),
        },
    )


def half_staircase(
    gamma: float,
    alpha: float,
    c: float,
    x: float,
    y: float,
    omega: ControlRange,
) -> PlanResult:
    """One-way connector (0, x) -> (0, y) using the first five staircase legs."""
    t_dn, t_up, moves, (x1, y1, x2, y2), _, (rd, ru) = _staircase_legs(
        gamma, alpha, c, x, y, omega
    )
    s01, u01, _ = moves["0->1"]
    s12, u12, dx12 = moves["1->2"]
    s20, u20, _ = moves["2->0"]
    z1 = min(x1, y2 - dx12) - 1.0
    z2 = z1 + dx12
    s1 = (z1 - x1) / rd
    s2 = (y2 - z2) / ru
    if min(s1, s2) < -1e-12:
        raise RuntimeError("negative dwell time in the half-staircase solve")
    itinerary = [(s01, u01), (s1, 0.0), (s12, u12), (s2, 0.0), (s20, u20)]
    ctrl = PiecewiseControl.from_pairs([(s, u) for s, u in itinerary if s > 0.0])
    achieved = integrate_projected(gamma, alpha, c, ctrl, 0.0, x)
    predicted = np.array([0.0, y])
    err = float(np.max(np.abs(achieved - predicted)))
    return PlanResult(ctrl, predicted, achieved, err)


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
