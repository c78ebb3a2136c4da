"""The planar control-affine system v' = (A - u*theta) v + u*eta.

This is the system induced on the plane quotient of the group by the drift
singularity subgroup, with the control range already rescaled by the input
rate alpha.  ``det A != 0`` and ``[A, theta] = 0`` are required, which makes
all the constant-control matrices A(u) commute with each other.  Every
constant-control arc is the affine map v -> E v + W u eta with the pair
(E, W) = (e^{sA(u)}, int_0^s e^{rA(u)} dr) from ``kernel2d.arc``, so arcs
stay exact at the roots of det A(u), where rest points do not exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .kernel2d import (ROT90, ZERO_TOL, ThetaFamily, arc_matrices, check_finite, commutes,
                       expm, matrix_rank, trace_sign, unit_scaled, unscaled)

__all__ = [
    "ControlRange",
    "PlanarSpec",
    "OmegaHat",
    "PiecewiseControl",
    "Trajectory",
    "PlanarVerdict",
    "a_of_u",
    "equilibrium",
    "equilibrium_derivative",
    "omega_hat",
    "planar_solution",
    "concat_solution",
    "openness_certificate",
    "exceptional_control",
    "classify_planar",
]

# equilibria are ill-conditioned this close to a root r of det A(u), so
# omega_hat cuts ROOT_BAND |r| on each side of r
ROOT_BAND = 1e-8
# a discriminant within DISC_TOL c1^2 below zero is a double root that rounding
# pushed under: a few ulps of c1^2, the error of c1^2 - 4 c2 c0 at a double root
DISC_TOL = 1e-14


@dataclass(frozen=True)
class ControlRange:
    """Admissible control interval [u_min, u_max] with 0 in its interior."""

    u_min: float
    u_max: float

    def __post_init__(self):
        check_finite([self.u_min, self.u_max], "control range")
        if not self.u_min < 0.0 < self.u_max:
            raise ValueError(
                f"control range must satisfy u_min < 0 < u_max, got [{self.u_min}, {self.u_max}]"
            )

    def contains(self, u: float) -> bool:
        return self.u_min <= u <= self.u_max

    def scaled(self, alpha: float) -> "ControlRange":
        a, b = sorted((alpha * self.u_min, alpha * self.u_max))
        return ControlRange(a, b)


@dataclass(frozen=True)
class PiecewiseControl:
    """A finite schedule of (duration, control value) pieces."""

    durations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d = check_finite(self.durations, "durations").reshape(-1)
        u = check_finite(self.values, "values").reshape(-1)
        if d.shape != u.shape:
            raise ValueError("durations and values must have equal length")
        if np.any(d <= 0.0):
            raise ValueError("durations must be positive")
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "values", u)

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseControl":
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        d, u = zip(*pairs)
        return cls(np.array(d, dtype=float), np.array(u, dtype=float))

    @classmethod
    def empty(cls) -> "PiecewiseControl":
        return cls(np.zeros(0), np.zeros(0))

    def __len__(self) -> int:
        return len(self.durations)

    def pairs(self):
        return list(zip(self.durations.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: times and row-per-sample states."""

    times: np.ndarray
    states: np.ndarray
    switch_times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("sample times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class PlanarSpec:
    """Data of the planar system: drift matrix, structure family, input."""

    A: np.ndarray
    theta: ThetaFamily
    eta: np.ndarray
    omega: "ControlRange"

    def __post_init__(self):
        A = check_finite(self.A, "A").reshape(2, 2)
        eta = check_finite(self.eta, "eta").reshape(2)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "eta", eta)
        if not commutes(A, self.theta.matrix()):
            raise ValueError("A must commute with the structure matrix")
        if matrix_rank(A) < 2:
            raise ValueError("planar system requires det A != 0")

    @property
    def theta_matrix(self) -> np.ndarray:
        return self.theta.matrix()


@dataclass(frozen=True)
class OmegaHat:
    """Control range minus the roots of u -> det(A - u*theta)."""

    intervals: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]
    component_of_zero: tuple[float, float]

    def contains(self, u: float) -> bool:
        return any(a < u < b for a, b in self.intervals)


class PlanarVerdict(enum.Enum):
    OPEN = "Open"
    CLOSED = "Closed"
    WHOLE_PLANE = "WholePlane"


class DetSignError(ValueError):
    """The trace-sign classification needs det A(u) > 0 on the component of
    zero, which has the sign of det A: raised with u = 0 and det = det A."""

    def __init__(self, u: float, det: float):
        self.u = u
        self.det = det
        super().__init__(f"det A(u) = {det:g} <= 0 at u = {u:g}")


def a_of_u(spec: PlanarSpec, u: float) -> np.ndarray:
    return spec.A - u * spec.theta_matrix


def _det2(M: np.ndarray) -> float:
    """M00 M11 - M01 M10, which keeps a jordan double root's discriminant at 0."""
    return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def _det_coeffs(A: np.ndarray, th: np.ndarray) -> tuple[float, float, float]:
    """Coefficients (c2, c1, c0) of det(A - u*th) as a polynomial in u."""
    c0 = _det2(A)
    c2 = _det2(th)
    # mixed term: tr(adj(A) th)
    adjA = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    c1 = -float(np.trace(adjA @ th))
    return c2, c1, c0


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c2 u^2 + c1 u + c0 in closed form, sorted; a double root once."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        # rounding may push a double root's discriminant a hair below zero; a
        # positive one stays two roots, which omega_hat cuts one by one
        return [-c1 / (2.0 * c2)] if disc >= -DISC_TOL * c1 * c1 else []
    q = -(c1 + np.sign(c1 or 1.0) * np.sqrt(disc)) / 2.0
    return sorted({q / c2, c0 / q} if q != 0.0 else {0.0, -c1 / c2})


def _regular_a_of_u(spec: PlanarSpec, u: float) -> np.ndarray:
    """A(u), or ValueError where ``matrix_rank`` finds it singular."""
    Au = a_of_u(spec, u)
    if matrix_rank(Au) < 2:
        raise ValueError(f"A(u) is singular at u = {u:g} (det = {_det2(Au):g})")
    return Au


def equilibrium(spec: PlanarSpec, u: float) -> np.ndarray:
    """The rest point v(u) = -u * A(u)^{-1} eta of the constant-control field.

    Formed on the unit-scaled u, A(u) and eta and unscaled once (to inf or
    0.0 past the float range), so v(0) = 0 even where A^{-1} eta overflows.
    """
    Au = _regular_a_of_u(spec, u)
    (M, m), (n, e), (w, k) = unit_scaled(Au), unit_scaled(spec.eta), unit_scaled(u)
    return unscaled(-w * np.linalg.solve(M, n), k + e - m)


def equilibrium_derivative(spec: PlanarSpec, u: float) -> np.ndarray:
    """v'(u) = -A(u)^{-1} (eta - theta v(u)); nonzero whenever eta != 0."""
    Au = _regular_a_of_u(spec, u)
    vu = -u * np.linalg.solve(Au, spec.eta)
    return -np.linalg.solve(Au, spec.eta - spec.theta_matrix @ vu)


def omega_hat(spec: PlanarSpec) -> OmegaHat:
    """Open subintervals of the control range where det A(u) != 0.

    Roots of the determinant quadratic are found in closed form and removed
    together with a guard band of ROOT_BAND |r| on each side of a root r.
    """
    lo, hi = spec.omega.u_min, spec.omega.u_max
    # det(A - u theta) = 4^e det(A 2^-e - (u 2^-e) theta): the products in
    # det A(u) overflow above |A| ~ 2^511 and underflow below ~ 2^-537, and on
    # A 2^-e they stay near 1
    unit, e = unit_scaled(spec.A)  # a root beyond the float range is no cut
    roots = unscaled(_quadratic_roots(*_det_coeffs(unit, spec.theta_matrix)), e).tolist()
    roots_in = [r for r in roots if lo < r < hi]
    cuts = [lo] + sorted(roots_in) + [hi]
    intervals = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        aa = a + (ROOT_BAND * abs(a) if a in roots_in else 0.0)
        bb = b - (ROOT_BAND * abs(b) if b in roots_in else 0.0)
        if aa < bb:
            intervals.append((aa, bb))
    i0 = next((iv for iv in intervals if iv[0] < 0.0 < iv[1]), None)
    if i0 is None:
        raise ValueError("0 is not in the admissible control range")
    return OmegaHat(tuple(intervals), tuple(roots_in), i0)


def planar_solution(spec: PlanarSpec, s: float, v0: np.ndarray, u: float) -> np.ndarray:
    """Exact constant-control solution e^{sA(u)} v0 + (int_0^s e^{rA(u)} dr) u eta at time s.

    Needs no rest point, so it holds unchanged at and near determinant roots.
    """
    E, W = arc_matrices(a_of_u(spec, u), s)
    return E @ np.asarray(v0, dtype=float) + W @ (u * spec.eta)


def concat_solution(
    spec: PlanarSpec, v0: np.ndarray, ctrl: PiecewiseControl
) -> tuple[np.ndarray, np.ndarray]:
    """Final state of a piecewise-constant run, plus its accumulated linear part.

    The linear part is e^{sum_i s_i A(u_i)}; the affine identity
    final = linear_part @ v0 + concat_solution(0) holds exactly.
    """
    v = np.asarray(v0, dtype=float)
    M = np.eye(2)
    for s, u in ctrl.pairs():
        E, W = arc_matrices(a_of_u(spec, u), s)
        v = E @ v + W @ (u * spec.eta)
        M = E @ M
    return v, M


def openness_certificate(spec: PlanarSpec, u: float, s: float) -> tuple[float, bool]:
    """Surjectivity certificate det(I - e^{sA(u)}) <e^{sA(u)} v'(u), R v'(u)>.

    A nonzero value witnesses that the two-parameter endpoint map around the
    equilibrium v(u) is a submersion, i.e. that the orbits through v(u) are
    open.
    """
    vp = equilibrium_derivative(spec, u)  # raises where A(u) is singular
    E = expm(a_of_u(spec, u), s)
    value = float(np.linalg.det(np.eye(2) - E) * ((E @ vp) @ (ROT90 @ vp)))
    return value, value != 0.0


def exceptional_control(spec: PlanarSpec) -> float | None:
    """The at-most-one control u0 where the openness certificate degenerates.

    Solves <A(u0) eta, R eta> = 0, i.e. u0 = <A eta, R eta> / <theta eta, R eta>.
    Returns None when the root exists but falls outside the admissible range,
    or when the linear equation has no root at all.
    """
    eta = spec.eta
    Reta = ROT90 @ eta
    num = float((spec.A @ eta) @ Reta)
    den = float((spec.theta_matrix @ eta) @ Reta)
    if den == 0.0:
        if num == 0.0:
            raise ValueError(
                "eta is a common eigenvector of A and theta; the rank condition fails"
            )
        return None
    u0 = num / den
    return u0 if omega_hat(spec).contains(u0) else None


def classify_planar(spec: PlanarSpec) -> tuple[PlanarVerdict, dict]:
    """Topological verdict for the control set over the component of zero of omega_hat.

    The verdict follows the sign pattern of the linear function
    tr A(u) = tr A - u tr theta on the interval: positive means open,
    negative means closed, a zero inside means the control set is the whole
    plane.  The interval holds no root of det A(u), so det A(u) has the sign
    of det A on it; DetSignError is raised at u = 0 when det A <= 0, a
    saddle rest point.  det A is read on A 2^-e, with largest entry in
    [1/2, 1).  tr A(u) is evaluated on A and the interval ends scaled by one
    power of two 2^-k: A's own 2^-e, unless an end would pass 2^1000 on it,
    when k rises until none does (with tr theta = 0, tr A(u) is tr A and k is
    e).  The reported traces are unscaled from 2^-k and the zero from 2^-e
    (to inf or 0.0 past the float range).
    """
    lo, hi = omega_hat(spec).component_of_zero
    unit, e = unit_scaled(spec.A)
    det = _det2(unit)
    if det <= 0.0:  # det A, rounded to the float range
        raise DetSignError(0.0, float(unscaled(det, 2 * e)))

    tr_th = float(np.trace(spec.theta_matrix))
    ends, f = unit_scaled([lo, hi])
    k = max(e, f - 1000) if tr_th != 0.0 else e
    tr_e = float(np.trace(unit))
    tr_a = float(unscaled(tr_e, e - k))
    lo_k, hi_k = unscaled(ends, f - k).tolist()
    tr_lo, tr_hi = (tr_a - lo_k * tr_th, tr_a - hi_k * tr_th) if tr_th != 0.0 else (tr_a, tr_a)
    cert = {
        "interval": (float(lo), float(hi)),
        "trace_at_endpoints": tuple(unscaled([tr_lo, tr_hi], k).tolist()),
        "interior_trace_zero": None,
    }
    if tr_th != 0.0:
        # where tr A(u) vanishes, in units of the interval
        u_zero = tr_a / tr_th
        slack = ZERO_TOL * (hi_k - lo_k)
        if lo_k - slack <= u_zero <= hi_k + slack:
            cert["interior_trace_zero"] = float(unscaled(tr_e / tr_th, e))
            return PlanarVerdict.WHOLE_PLANE, cert
    elif trace_sign(spec.A) == 0:
        cert["interior_trace_zero"] = float(lo)
        return PlanarVerdict.WHOLE_PLANE, cert
    if tr_lo > 0.0 and tr_hi > 0.0:
        return PlanarVerdict.OPEN, cert
    return PlanarVerdict.CLOSED, cert
