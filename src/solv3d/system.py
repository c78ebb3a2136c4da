"""One-input linear control systems on the group.

A system couples the drift (a linear vector field with matrix A and
translation part xi), a left-invariant input field (rate alpha, direction
eta), a bounded control range and a group variant:

    t' = u * alpha
    v' = A v + Lambda_t^theta xi + u * rho_t eta,   u in [u_min, u_max].

The module provides the exact drift flow, rank conditions with auditable
certificates, the conjugations that normalize eta or xi away, the planar
reduction available at full nilrank, and a piecewise-constant simulator
(exact at nilrank 2, by one block arc map in group coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .group import GroupElement, GroupVariant, SIMPLY_CONNECTED
from .kernel2d import (ThetaFamily, arc_matrices, check_finite, commutes, expm_series,
                       lambda_op, matrix_rank, rank_product)
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


def larc(sys: SystemSpec) -> RankCertificate:
    """Rank condition: alpha != 0 and alpha*xi + A*eta is not a common
    eigenvector of A and the structure matrix."""
    w = sys.alpha * sys.xi + sys.A @ sys.eta
    (ap, a_sep), (tp, t_sep) = rank_product(sys.A, w), rank_product(sys.theta_matrix, w)
    return RankCertificate(sys.alpha != 0.0 and (a_sep or t_sep), sys.alpha, w, ap, tp)


def adrank(sys: SystemSpec) -> RankCertificate:
    """Stronger rank condition: alpha != 0 and the direction is not an
    eigenvector of A alone."""
    w = sys.alpha * sys.xi + sys.A @ sys.eta
    (ap, a_sep), (tp, _) = rank_product(sys.A, w), rank_product(sys.theta_matrix, w)
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
    agrees with project_S when xi = 0.
    """
    if nilrank(sys) < 2:
        raise ValueError("planar reduction needs nilrank 2")
    if not larc(sys).holds:
        raise ValueError("planar reduction needs the rank condition (alpha != 0)")
    normal, psi = normalize_xi(sys)
    planar = PlanarSpec(
        A=sys.A,
        theta=sys.theta,
        eta=normal.eta / sys.alpha,
        omega=sys.omega.scaled(sys.alpha),
    )
    return PlanarReduction(planar, sys, psi.delta)


# -- simulation --------------------------------------------------------------


def sample_counts(durations, step: float) -> np.ndarray:
    """How many samples ``simulate`` records on each arc: one per step, at
    least one.  The counts are floats, so one too large to count reads inf."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.ceil(np.asarray(durations, dtype=float) / step))


def _rk4_arc(g: GroupElement, u: float, duration: float, sys: SystemSpec, step: float):
    """Classical 4th-order fixed-step integration of one constant-control arc.

    A state outside the float range fails the finiteness check of the next
    stage's ``GroupElement``, or of the last sample, as a ValueError."""

    def rhs(y: np.ndarray) -> np.ndarray:
        t, v = y[0], y[1:]
        td, vd = field_values(GroupElement(t, v), u, sys)
        return np.array([td, vd[0], vd[1]])

    y = g.as_array()
    samples = []
    n_steps = int(sample_counts(duration, step))
    h = duration / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(y.copy())
    check_finite(y, "state")
    return samples


# samples per run of step-map powers after one directly evaluated anchor
_RUN = 256


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
    classical 4th-order integration.  Each arc of duration d records
    ``sample_counts`` = max(1, ceil(d / step)) evenly spaced samples, the
    last at its switch; ``times`` and ``states`` start with the initial
    point.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"the step must be finite and positive, got {step}")
    for u in ctrl.values:
        if not sys.omega.contains(u):
            raise ValueError(f"control value {u:g} outside the admissible range")

    exact = nilrank(sys) == 2
    counts = [int(n) for n in sample_counts(ctrl.durations, step)]
    times = np.empty(1 + sum(counts))
    states = np.empty((times.size, 3))
    times[0] = 0.0
    states[0] = g.as_array()
    switches = []
    now = 0.0
    j = 1
    for i, ((duration, u), n) in enumerate(zip(ctrl.pairs(), counts)):
        for lo, s in _arc_offsets(duration, n):
            times[j + lo:j + lo + s.size] = now + s
        start = GroupElement(states[j - 1, 0], states[j - 1, 1:])
        # with the controls in range, an arc fails only by leaving the float
        # range, which each path checks as it goes
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if exact:
                    _group_arc(sys, start, u, duration, states[j:j + n])
                else:
                    states[j:j + n] = _rk4_arc(start, u, duration, sys, step)
        except ValueError:
            raise ValueError(f"arc {i + 1} of {len(ctrl)} ({duration:g} time units at "
                             f"control {u:g}) leaves the float range") from None
        j += n
        now += duration
        switches.append(now)
    return Trajectory(times=times, states=states, switch_times=np.array(switches))
