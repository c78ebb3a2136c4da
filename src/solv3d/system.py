"""One-input linear control systems on the group.

A system couples the drift (a linear vector field with matrix A and
translation part xi), a left-invariant input field (rate alpha, direction
eta), a bounded control range and a group variant:

    t' = u * alpha
    v' = A v + Lambda_t^theta xi + u * rho_t eta,   u in [u_min, u_max].

The module provides the exact drift flow, rank conditions with auditable
certificates, the conjugations that normalize eta or xi away, the planar
reduction available at full nilrank, and a piecewise-constant simulator
(exact at nilrank 2, by one block arc map in group coordinates; RK4 below,
on the field of ``field_values`` evaluated in place).  Both arc maps write
their samples into the output and check them once per run of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .group import GroupElement, GroupVariant, SIMPLY_CONNECTED
from .kernel2d import (ThetaFamily, arc, arc_matrices, check_finite, commutes, expm_series,
                       lambda_op, matrix_rank, rank_product, unit_scaled, unscaled)
from .planar import ControlRange, PiecewiseControl, PlanarSpec, Trajectory

__all__ = [
    "LinearField",
    "InvariantField",
    "SystemSpec",
    "RankCertificate",
    "PlanarReduction",
    "derivation_matrix",
    "drift_flow",
    "field_values",
    "sample_counts",
    "simulate",
    "larc",
    "adrank",
    "nilrank",
    "normalize_eta",
    "normalize_xi",
    "conjugate_to_planar",
]


@dataclass(frozen=True)
class LinearField:
    """Drift data (A, xi); A must commute with the structure matrix."""

    A: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", check_finite(self.A, "A").reshape(2, 2))
        object.__setattr__(self, "xi", check_finite(self.xi, "xi").reshape(2))


@dataclass(frozen=True)
class InvariantField:
    """Input data (alpha, eta) of the left-invariant control direction."""

    alpha: float
    eta: np.ndarray

    def __post_init__(self):
        check_finite(self.alpha, "alpha")
        object.__setattr__(self, "eta", check_finite(self.eta, "eta").reshape(2))


@dataclass(frozen=True)
class SystemSpec:
    """A full system: structure family, drift, input, control range, variant."""

    theta: ThetaFamily
    drift: LinearField
    input: InvariantField
    omega: ControlRange
    variant: GroupVariant = SIMPLY_CONNECTED

    def __post_init__(self):
        if not commutes(self.A, self.theta_matrix):
            raise ValueError("drift matrix must commute with the structure matrix")
        if self.variant.tag != GroupVariant.SIMPLY_CONNECTED:
            self.variant.check_family(self.theta)

    @property
    def A(self) -> np.ndarray:
        return self.drift.A

    @property
    def xi(self) -> np.ndarray:
        return self.drift.xi

    @property
    def alpha(self) -> float:
        return self.input.alpha

    @property
    def eta(self) -> np.ndarray:
        return self.input.eta

    @property
    def theta_matrix(self) -> np.ndarray:
        return self.theta.matrix()


@dataclass(frozen=True)
class RankCertificate:
    """Raw inner products behind a rank-condition verdict."""

    holds: bool
    alpha: float
    direction: np.ndarray  # alpha*xi + A*eta
    a_product: float  # <A w, R w>
    theta_product: float  # <theta w, R w>


def derivation_matrix(sys: SystemSpec) -> np.ndarray:
    """The 3x3 block matrix [[0, 0], [xi, A]] of the drift derivation."""
    D = np.zeros((3, 3))
    D[1:, 0] = sys.xi
    D[1:, 1:] = sys.A
    return D


def drift_flow(s: float, g: GroupElement, sys: SystemSpec) -> GroupElement:
    """Exact drift flow (t, v) -> (t, e^{sA} v + Lambda_t^theta Lambda_s^A xi)."""
    E, W = arc_matrices(sys.A, s)
    return GroupElement(g.t, E @ g.v + lambda_op(sys.theta_matrix, g.t, W @ sys.xi))


def field_values(g: GroupElement, u: float, sys: SystemSpec) -> tuple[float, np.ndarray]:
    """Right-hand side (t', v') of the controlled ODE at g."""
    if not sys.omega.contains(u):
        raise ValueError(f"control {u:g} outside range [{sys.omega.u_min}, {sys.omega.u_max}]")
    rho, lam = arc_matrices(sys.theta_matrix, g.t)
    return u * sys.alpha, sys.A @ g.v + lam @ sys.xi + u * (rho @ sys.eta)


def _rank_products(sys: SystemSpec):
    """The direction w = alpha*xi + A*eta and both products of the rank
    condition, each with its decision: (w, (<A w, R w>, nonzero), (<theta w,
    R w>, nonzero)).

    The two terms of w are formed on unit-scaled factors and added on the
    power-of-two scale of the larger nonzero one, and the products on the
    unit-scaled w, A and theta, so nothing overflows on the way; w and the
    products are unscaled once (to inf or 0.0 past the float range).
    """
    (a, ea), (x, ex) = unit_scaled(sys.alpha), unit_scaled(sys.xi)
    (M, em), (n, en) = unit_scaled(sys.A), unit_scaled(sys.eta)
    (p, ep), (q, eq) = unit_scaled(a * x), unit_scaled(M @ n)
    ep, eq = ep + ea + ex, eq + em + en
    k = max([e for t, e in ((p, ep), (q, eq)) if t.any()], default=0)
    w, e = unit_scaled(unscaled(p, ep - k) + unscaled(q, eq - k))
    (T, et), k = unit_scaled(sys.theta_matrix), k + e
    (ap, a_sep), (tp, t_sep) = rank_product(M, w), rank_product(T, w)
    return (unscaled(w, k), (float(unscaled(ap, em + 2 * k)), a_sep),
            (float(unscaled(tp, et + 2 * k)), t_sep))


def larc(sys: SystemSpec) -> RankCertificate:
    """Rank condition: alpha != 0 and alpha*xi + A*eta is not a common
    eigenvector of A and the structure matrix."""
    w, (ap, a_sep), (tp, t_sep) = _rank_products(sys)
    return RankCertificate(sys.alpha != 0.0 and (a_sep or t_sep), sys.alpha, w, ap, tp)


def adrank(sys: SystemSpec) -> RankCertificate:
    """Stronger rank condition: alpha != 0 and the direction is not an
    eigenvector of A alone."""
    w, (ap, a_sep), (tp, _) = _rank_products(sys)
    return RankCertificate(sys.alpha != 0.0 and a_sep, sys.alpha, w, ap, tp)


def nilrank(sys: SystemSpec) -> int:
    """Rank of the drift matrix A (0, 1 or 2)."""
    return matrix_rank(sys.A)


# -- conjugations ------------------------------------------------------------


@dataclass(frozen=True)
class Automorphism:
    """Group map (t, v) -> (t, v + Lambda_t^theta delta) and its inverse."""

    family: ThetaFamily
    delta: np.ndarray

    def __call__(self, g: GroupElement) -> GroupElement:
        return GroupElement(g.t, g.v + lambda_op(self.family.matrix(), g.t, self.delta))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.family, -self.delta)


def normalize_eta(sys: SystemSpec) -> tuple[SystemSpec, Automorphism]:
    """Equivalent system with eta = 0; the drift gains xi + alpha^{-1} A eta.

    Requires a nonzero input rate alpha.
    """
    if sys.alpha == 0.0:
        raise ValueError("normalize_eta needs alpha != 0")
    new_xi = sys.xi + sys.A @ sys.eta / sys.alpha
    psi = Automorphism(sys.theta, -sys.eta / sys.alpha)
    out = replace(
        sys,
        drift=LinearField(sys.A, new_xi),
        input=InvariantField(sys.alpha, np.zeros(2)),
    )
    return out, psi


def normalize_xi(sys: SystemSpec) -> tuple[SystemSpec, Automorphism]:
    """Equivalent system with xi = 0; the input becomes alpha A^{-1} xi + eta.

    Requires an invertible drift matrix.
    """
    if matrix_rank(sys.A) < 2:
        raise ValueError("normalize_xi needs det A != 0")
    Ainv_xi = np.linalg.solve(sys.A, sys.xi)
    psi = Automorphism(sys.theta, Ainv_xi)
    out = replace(
        sys,
        drift=LinearField(sys.A, np.zeros(2)),
        input=InvariantField(sys.alpha, sys.alpha * Ainv_xi + sys.eta),
    )
    return out, psi


@dataclass(frozen=True)
class PlanarReduction:
    """Planar data of a full-nilrank system plus the coordinate maps.

    ``to_planar`` sends a group element (t, v) to product coordinates
    (t, rho_{-t}(v + Lambda_t^theta shift)) with shift = A^{-1} xi, the
    translation of ``normalize_xi``; ``from_planar`` inverts it.  The planar
    control value is the original control times alpha.
    """

    planar: PlanarSpec
    sys: SystemSpec
    shift: np.ndarray

    def to_planar(self, g: GroupElement) -> tuple[float, np.ndarray]:
        # rho_{-t} Lambda_t^theta = -Lambda_{-t}^theta: one pair at -t gives both terms
        rho, lam = arc_matrices(self.sys.theta_matrix, -g.t)
        return g.t, rho @ g.v - lam @ self.shift

    def from_planar(self, t: float, v: np.ndarray) -> GroupElement:
        rho, lam = arc_matrices(self.sys.theta_matrix, t)
        return GroupElement(t, rho @ v - lam @ self.shift)


def conjugate_to_planar(sys: SystemSpec) -> PlanarReduction:
    """Reduce a full-nilrank system to the planar control-affine system, or
    raise ValueError below nilrank 2 or without the rank condition.

    The reduction is ``normalize_xi`` followed by the plane projection: the
    planar system (in controls already rescaled by alpha) is
    v' = (A - u theta) v + u eta_hat / alpha, with eta_hat = eta + alpha A^{-1} xi
    the normalized input.  Its plane is the quotient of the group by the
    drift singularities, so the second planar coordinate of ``to_planar``
    agrees with project_S when xi = 0.  ``normalize_xi`` runs on the input
    (a, eta 2^-e) with alpha = a 2^e, so its input is eta_hat 2^-e, and
    eta_hat / alpha stays in the float range where eta_hat leaves it.
    """
    if nilrank(sys) < 2:
        raise ValueError("planar reduction needs nilrank 2")
    if not larc(sys).holds:
        raise ValueError("planar reduction needs the rank condition (alpha != 0)")
    a, e = unit_scaled(sys.alpha)
    normal, psi = normalize_xi(replace(sys, input=InvariantField(a, unscaled(sys.eta, -e))))
    planar = PlanarSpec(
        A=sys.A,
        theta=sys.theta,
        eta=normal.eta / a,
        omega=sys.omega.scaled(sys.alpha),
    )
    return PlanarReduction(planar, sys, psi.delta)


# -- simulation --------------------------------------------------------------


def sample_counts(durations, step: float) -> np.ndarray:
    """How many samples ``simulate`` records on each arc: one per step, at
    least one.  The counts are floats, so one too large to count reads inf."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.ceil(np.asarray(durations, dtype=float) / step))


# samples per run: of step-map powers after one directly evaluated anchor on
# the exact path, of RK4 steps on the other; each run is checked finite once
_RUN = 256


def _rk4_arc(sys: SystemSpec, g: GroupElement, u: float, duration: float,
             out: np.ndarray) -> None:
    """Write len(out) classical 4th-order steps of a constant-control arc
    into ``out``, one per row.

    Each stage evaluates the field of ``field_values`` in its order of
    operations, so the path is bit for bit RK4 on ``field_values``: one
    ``arc`` of theta at the stage time, then A v + Lambda_t xi + u rho_t eta.
    The caller has checked the control, so no stage re-checks it or builds
    a group element.  A run of at most _RUN steps outside the float range
    fails its one finiteness check (or a later stage's ``arc``) as a
    ValueError.
    """
    theta = sys.theta_matrix.ravel().tolist()
    A, xi, eta, td = sys.A, sys.xi, sys.eta, u * sys.alpha

    def rhs(y: np.ndarray) -> np.ndarray:
        e, w = arc(*theta, float(y[0]))
        rho, lam = np.array(e).reshape(2, 2), np.array(w).reshape(2, 2)
        vd = A @ y[1:] + lam @ xi + u * (rho @ eta)
        return np.array([td, vd[0], vd[1]])

    y = g.as_array()
    h = duration / len(out)
    for lo in range(0, len(out), _RUN):
        rows = out[lo:lo + _RUN]
        for row in rows:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            row[:] = y
        check_finite(rows, "state")


def _arc_offsets(duration: float, n: int):
    """Offsets duration*i/n, i = 1..n, as (first index, array) runs of at most _RUN."""
    for lo in range(0, n, _RUN):
        yield lo, duration * np.arange(lo + 1, min(lo + _RUN, n) + 1) / n


def _group_arc(sys: SystemSpec, g: GroupElement, u: float, duration: float,
               out: np.ndarray) -> None:
    """Write the len(out) samples of a constant-control arc into ``out``, in
    closed form in group coordinates, with no inverse (exact as det A -> 0).

    With u constant, t = t0 + u alpha s, and z = (v, Lambda_t xi, rho_t xi,
    rho_t eta), from one ``arc_matrices`` of theta at t0, solves z' = K z for
    a constant block-triangular 8x8 K (Van Loan's construction, as in
    ``kernel2d.arc``): v' = A v + Lambda_t xi + u rho_t eta, (Lambda_t xi)' =
    u alpha rho_t xi, and both rho_t terms move by u alpha theta.  Each run of
    at most _RUN samples is the stacked powers e^{hK}, ..., e^{mhK} (h the
    spacing) times its anchor e^{sK} z0 at the run's first offset s.  A run
    outside the float range fails its finiteness check as a ValueError.
    """
    a = u * sys.alpha
    eye, theta = np.eye(2), sys.theta_matrix
    K = np.zeros((8, 8))
    K[:2, :2], K[:2, 2:4], K[:2, 6:] = sys.A, eye, u * eye
    K[2:4, 4:6], K[4:6, 4:6], K[6:, 6:] = a * eye, a * theta, a * theta
    rho, lam = arc_matrices(theta, g.t)
    z0 = np.concatenate([g.v, lam @ sys.xi, rho @ sys.xi, rho @ sys.eta])
    n = len(out)
    powers = expm_series(duration / n * K)[None]
    while len(powers) < min(n, _RUN):
        powers = np.concatenate([powers, powers[-1] @ powers])
    for lo, s in _arc_offsets(duration, n):
        anchor = expm_series(duration * lo / n * K) @ z0 if lo else z0
        rows = out[lo:lo + s.size]
        rows[:, 0] = g.t + a * s
        rows[:, 1:] = powers[:s.size, :2] @ anchor
        check_finite(rows, "state")


def simulate(
    g: GroupElement,
    ctrl: PiecewiseControl,
    sys: SystemSpec,
    step: float = 1e-3,
) -> Trajectory:
    """Concatenated constant-control arcs from g.

    Nilrank-2 systems take each arc exactly in group coordinates, from one
    8x8 block arc map (``_group_arc``); nilrank 0 and 1 use fixed-step
    classical 4th-order integration (``_rk4_arc``).  Either map is called
    once per arc and writes the arc's samples in place.  Every control is
    checked here, once, so no arc map re-checks it.  Each arc of duration d
    records ``sample_counts`` = max(1, ceil(d / step)) evenly spaced
    samples, the last at its switch; ``times`` and ``states`` start with
    the initial point.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"the step must be finite and positive, got {step}")
    for u in ctrl.values:
        if not sys.omega.contains(u):
            raise ValueError(f"control value {u:g} outside the admissible range")

    arc_map = _group_arc if nilrank(sys) == 2 else _rk4_arc
    counts = sample_counts(ctrl.durations, step).tolist()
    if math.inf in counts:
        raise ValueError(f"the step {step!r} asks for more samples than a float can count")
    counts = [int(n) for n in counts]
    times = np.empty(1 + sum(counts))
    states = np.empty((times.size, 3))
    times[0] = 0.0
    states[0] = g.as_array()
    switches = []
    now = 0.0
    j = 1
    for i, ((duration, u), n) in enumerate(zip(ctrl.pairs(), counts)):
        start = GroupElement(states[j - 1, 0], states[j - 1, 1:])
        # with the controls in range, an arc fails only by leaving the float
        # range, which its last sample time and each path check
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for lo, s in _arc_offsets(duration, n):
                    times[j + lo:j + lo + s.size] = now + s
                if not math.isfinite(times[j + n - 1]):
                    raise ValueError("sample times past the float range")
                arc_map(sys, start, u, duration, states[j:j + n])
        except ValueError:
            raise ValueError(f"arc {i + 1} of {len(ctrl)} ({duration:g} time units at "
                             f"control {u:g}) leaves the float range") from None
        j += n
        now += duration
        switches.append(now)
    return Trajectory(times=times, states=states, switch_times=np.array(switches))
