"""One-input linear control systems on the group.

A system couples the drift (a linear vector field with matrix A and
translation part xi), a left-invariant input field (rate alpha, direction
eta), a bounded control range and a group variant:

    t' = u * alpha
    v' = A v + Lambda_t^theta xi + u * rho_t eta,   u in [u_min, u_max].

The module provides the exact drift flow, rank conditions with auditable
certificates, the conjugations that normalize eta or xi away, the planar
reduction available at full nilrank, and a piecewise-constant simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .group import GroupElement, GroupVariant, SIMPLY_CONNECTED
from .kernel2d import (ThetaFamily, arc_matrices, check_finite, commutes, lambda_op,
                       matrix_rank, rank_product)
from .planar import ControlRange, PiecewiseControl, PlanarSpec, Trajectory, planar_solution

__all__ = [
    "LinearField",
    "InvariantField",
    "SystemSpec",
    "RankCertificate",
    "PlanarReduction",
    "derivation_matrix",
    "drift_flow",
    "field_values",
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

    def check_commutes(self, family: ThetaFamily) -> None:
        if not commutes(self.A, family.matrix()):
            raise ValueError("drift matrix must commute with the structure matrix")


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
        self.drift.check_commutes(self.theta)
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
    """Group map (t, v) -> (t, P v + Lambda_t^theta delta) and its inverse."""

    family: ThetaFamily
    P: np.ndarray
    delta: np.ndarray

    def __call__(self, g: GroupElement) -> GroupElement:
        shift = lambda_op(self.family.matrix(), g.t, self.delta)
        return GroupElement(g.t, self.P @ g.v + shift)

    def inverse(self) -> "Automorphism":
        Pinv = np.linalg.inv(self.P)
        return Automorphism(self.family, Pinv, -(Pinv @ self.delta))


def normalize_eta(sys: SystemSpec) -> tuple[SystemSpec, Automorphism]:
    """Equivalent system with eta = 0; the drift gains xi + alpha^{-1} A eta.

    Requires a nonzero input rate alpha.
    """
    if sys.alpha == 0.0:
        raise ValueError("normalize_eta needs alpha != 0")
    new_xi = sys.xi + sys.A @ sys.eta / sys.alpha
    psi = Automorphism(sys.theta, np.eye(2), -sys.eta / sys.alpha)
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
    psi = Automorphism(sys.theta, np.eye(2), Ainv_xi)
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


def _rk4_arc(g: GroupElement, u: float, duration: float, sys: SystemSpec, step: float):
    """Classical 4th-order fixed-step integration of one constant-control arc."""

    def rhs(y: np.ndarray) -> np.ndarray:
        t, v = y[0], y[1:]
        td, vd = field_values(GroupElement(t, v), u, sys)
        return np.array([td, vd[0], vd[1]])

    y = g.as_array()
    samples = []
    n_steps = max(1, int(np.ceil(duration / step)))
    h = duration / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(y.copy())
    return samples


def _exact_arc(red: PlanarReduction, g: GroupElement, u: float, duration: float, step: float):
    """Closed-form constant-control arc through the planar conjugation."""
    t0, v0 = red.to_planar(g)
    us = u * red.sys.alpha
    n_steps = max(1, int(np.ceil(duration / step)))
    samples = []
    for i in range(1, n_steps + 1):
        s = duration * i / n_steps
        v = planar_solution(red.planar, s, v0, us)
        samples.append(red.from_planar(t0 + us * s, v).as_array())
    return samples


def simulate(
    g: GroupElement,
    ctrl: PiecewiseControl,
    sys: SystemSpec,
    step: float = 1e-3,
) -> Trajectory:
    """Concatenated constant-control arcs from g.

    Systems with a planar reduction (``conjugate_to_planar``) are integrated
    exactly through it; everything else uses fixed-step classical
    4th-order integration.  Samples are recorded at every step and
    at every switch.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    for u in ctrl.values:
        if not sys.omega.contains(u):
            raise ValueError(f"control value {u:g} outside the admissible range")

    try:
        red = conjugate_to_planar(sys)
    except ValueError:
        red = None  # no planar reduction: fixed-step integration

    times = [0.0]
    states = [g.as_array()]
    switches = []
    now = 0.0
    cur = g
    for duration, u in ctrl.pairs():
        if red is not None:
            arc = _exact_arc(red, cur, u, duration, step)
        else:
            arc = _rk4_arc(cur, u, duration, sys, step)
        n = len(arc)
        for i, y in enumerate(arc, start=1):
            times.append(now + duration * i / n)
            states.append(y)
        now += duration
        switches.append(now)
        y = states[-1]
        cur = GroupElement(y[0], y[1:])
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        switch_times=np.array(switches),
        control=ctrl,
    )
