"""Exact 2x2 linear algebra used everywhere else in the package.

Vectors are numpy arrays of shape (2,), matrices of shape (2, 2).  The
structure matrix of the group law comes in three families (shear, diagonal,
rotation-plus-scaling).  One kernel, ``arc``, gives both e^{sM} and
int_0^s e^{rM} dr for any 2x2 matrix M, for single matrices and batches
alike; ``expm`` and ``lambda_op`` are views of it.  Rank, commutation, the
rank-condition products and the trace sign are decided here, each on the
power-of-two ``unit_scaled`` operands, where no product over- or underflows,
so each decision holds at any scale; ``unscaled`` scales results back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JORDAN",
    "DIAGONAL",
    "SPIRAL",
    "ThetaFamily",
    "check_finite",
    "matrix_rank",
    "commutes",
    "rank_product",
    "trace_sign",
    "unit_scaled",
    "unscaled",
    "FloatRangeError",
    "arc",
    "arc_matrices",
    "expm",
    "expm_series",
    "lambda_op",
    "ROT90",
]

JORDAN = "jordan"
DIAGONAL = "diagonal"
SPIRAL = "spiral"

# counter-clockwise rotation by pi/2
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])

# a singular value below RANK_TOL times the largest one counts as zero
RANK_TOL = 1e-10
# a commutator, trace or product counts as zero below ZERO_TOL times its factors' size
ZERO_TOL = 1e-12


def check_finite(a, name: str = "value") -> np.ndarray:
    """Return ``a`` as a float array, rejecting NaN and infinities."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        shown = " ".join(line.strip() for line in repr(arr).splitlines())
        raise ValueError(f"{name} must have finite entries, got {shown}")
    return arr


def _size(M) -> float:
    """Largest entry of M in absolute value."""
    return float(np.max(np.abs(M)))


def unit_scaled(a) -> tuple[np.ndarray, int]:
    """(a 2^-e, e) with the largest |entry| of a 2^-e in [1/2, 1) (e = 0 for a = 0).

    Products formed on the scaled entries neither overflow nor underflow,
    and a power of two scales every step exactly, so a result scaled back
    once at the end is the unscaled one wherever that is in the float range.
    """
    e = math.frexp(_size(a))[1]
    return np.ldexp(a, -e), e


def unscaled(x, e: int):
    """x 2^e, the inverse of ``unit_scaled``: rounded to inf or 0.0 past the
    float range, with no warning."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, e)


def matrix_rank(M: np.ndarray) -> int:
    """Numerical rank: the singular values above RANK_TOL times the largest."""
    sv = np.linalg.svd(unit_scaled(M)[0], compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0]))


def commutes(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether AB - BA vanishes against the size of A and B."""
    (A, _), (B, _) = unit_scaled(A), unit_scaled(B)
    return _size(A @ B - B @ A) <= ZERO_TOL * _size(A) * _size(B)


def rank_product(M: np.ndarray, w: np.ndarray) -> tuple[float, bool]:
    """<M w, R w>, and whether it is nonzero against |M| |w|^2 (w is then
    not an eigenvector of M): the products of the rank condition.

    Both are formed on M 2^-m and w 2^-e; the product is unscaled once at
    the end.
    """
    (M, m), (w, e) = unit_scaled(M), unit_scaled(w)
    p = float((M @ w) @ (ROT90 @ w))
    return float(unscaled(p, m + 2 * e)), abs(p) > ZERO_TOL * _size(M) * float(w @ w)


def trace_sign(M: np.ndarray) -> int:
    """Sign of tr M (1, -1, or 0 when it vanishes against the size of M)."""
    M = unit_scaled(M)[0]
    tr = float(np.trace(M))
    return 0 if abs(tr) <= ZERO_TOL * _size(M) else (1 if tr > 0.0 else -1)


@dataclass(frozen=True)
class ThetaFamily:
    """Structure matrix family defining the group law.

    ``jordan`` is the unipotent shear [[1,1],[0,1]] and carries no
    parameter; ``diagonal`` is diag(1, gamma) with |gamma| <= 1; ``spiral``
    is gamma*I + R for any real gamma.
    """

    tag: str
    gamma: float | None = None
    # the structure matrix, built and checked once; read-only, so every caller
    # can share it
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tag not in (JORDAN, DIAGONAL, SPIRAL):
            raise ValueError(f"unknown family tag {self.tag!r}")
        g = self.gamma
        if self.tag == JORDAN:
            if g is not None:
                raise ValueError("jordan family carries no parameter")
            M = [[1.0, 1.0], [0.0, 1.0]]
        else:
            if g is None:
                raise ValueError(f"{self.tag} family requires gamma")
            check_finite(g, "gamma")
            if self.tag == DIAGONAL and abs(g) > 1:
                raise ValueError(f"diagonal family requires |gamma| <= 1, got {g}")
            M = [[1.0, 0.0], [0.0, g]] if self.tag == DIAGONAL else [[g, -1.0], [1.0, g]]
        M = np.array(M, dtype=float)
        M.flags.writeable = False
        object.__setattr__(self, "_matrix", M)

    @classmethod
    def jordan(cls) -> "ThetaFamily":
        return cls(JORDAN)

    @classmethod
    def diagonal(cls, gamma: float) -> "ThetaFamily":
        return cls(DIAGONAL, float(gamma))

    @classmethod
    def spiral(cls, gamma: float) -> "ThetaFamily":
        return cls(SPIRAL, float(gamma))

    def matrix(self) -> np.ndarray:
        """The structure matrix (read-only, the same array on every call)."""
        return self._matrix


# -- the affine-arc kernel ---------------------------------------------------

# X = (s / 2^k) M is scaled to infinity norm <= _ARC_NORM, where the degree
# _ARC_DEGREE Taylor sum of phi1(X) is exact to well below rounding.
_ARC_NORM = 0.125
_ARC_DEGREE = 10
# the exact types arc runs in plain Python; a numpy scalar warns, so takes the array path
_REAL = frozenset((int, float))


class FloatRangeError(ValueError):
    """``arc``'s operands leave the float range: a NaN, an infinity or a
    norm of s M past 2^1020."""


def arc(m00, m01, m10, m11, s):
    """Entries of E = e^{sM} and W = int_0^s e^{rM} dr for M = [[m00, m01], [m10, m11]].

    Every constant-control arc is the affine map x -> E x + W b.  Both
    matrices come from Van Loan's pair exponential by scaling and squaring:
    with X = (s/2^k) M of infinity norm at most 1/8, P = phi1(X) is summed
    by Horner, E = I + X P and W = (s/2^k) P, and then k doublings
    W <- W + E W, E <- E E.  Only + * / touch the entries, so the same code
    takes floats or equal-shape (broadcastable) numpy arrays; a batch uses
    the largest k any of its members needs.  Python int and float inputs
    stay Python floats throughout, with the array path's operations in the
    same order, so such a call pays no numpy overhead.  No inverse is
    formed, so the result stays accurate at and near det M = 0.  A NaN, an
    infinity or a norm of s M past 2^1020, which would take more than 1023
    doublings, raises FloatRangeError; numpy inputs whose norm overflows
    raise it with no numpy warning, as Python floats do.
    """
    if {type(m00), type(m01), type(m10), type(m11), type(s)} <= _REAL:
        r0, r1 = abs(m00) + abs(m01), abs(m10) + abs(m11)
        # Python's max drops a NaN in its second argument; np.maximum keeps it
        norm = abs(s) * (r1 if r1 > r0 or r1 != r1 else r0)
    else:
        with np.errstate(over="ignore"):  # an overflowing norm fails the check below
            norm = float(np.max(abs(s) * np.maximum(abs(m00) + abs(m01), abs(m10) + abs(m11))))
    scaled = norm / _ARC_NORM
    if not scaled <= 2.0**1023:  # NaN fails too
        raise FloatRangeError(f"arc needs a finite s*M well inside the float range, got {norm}")
    k = max(0, math.ceil(math.log2(scaled))) if norm > 0.0 else 0
    h = s / 2**k
    x0, x1, x2, x3 = h * m00, h * m01, h * m10, h * m11
    p0, p1, p2, p3 = 1.0, 0.0, 0.0, 1.0
    for j in range(_ARC_DEGREE + 1, 1, -1):
        p0, p1, p2, p3 = (1.0 + (x0 * p0 + x1 * p2) / j, (x0 * p1 + x1 * p3) / j,
                          (x2 * p0 + x3 * p2) / j, 1.0 + (x2 * p1 + x3 * p3) / j)
    e0, e1, e2, e3 = (1.0 + (x0 * p0 + x1 * p2), x0 * p1 + x1 * p3,
                      x2 * p0 + x3 * p2, 1.0 + (x2 * p1 + x3 * p3))
    w0, w1, w2, w3 = h * p0, h * p1, h * p2, h * p3
    for _ in range(k):
        w0, w1, w2, w3 = (w0 + (e0 * w0 + e1 * w2), w1 + (e0 * w1 + e1 * w3),
                          w2 + (e2 * w0 + e3 * w2), w3 + (e2 * w1 + e3 * w3))
        e0, e1, e2, e3 = (e0 * e0 + e1 * e2, e0 * e1 + e1 * e3,
                          e2 * e0 + e3 * e2, e2 * e1 + e3 * e3)
    return (e0, e1, e2, e3), (w0, w1, w2, w3)


def arc_matrices(B: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{tB}, int_0^t e^{sB} ds) as 2x2 arrays, from one ``arc`` call."""
    e, w = arc(*np.asarray(B, dtype=float).ravel().tolist(), float(t))
    return np.array(e).reshape(2, 2), np.array(w).reshape(2, 2)


def expm(B: np.ndarray, t: float) -> np.ndarray:
    """e^{tB}."""
    return arc_matrices(B, t)[0]


def lambda_op(B: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """The integral operator int_0^t e^{sB} v ds."""
    return arc_matrices(B, t)[1] @ np.asarray(v, dtype=float)


def expm_series(M: np.ndarray) -> np.ndarray:
    """e^M of a small square matrix: the degree-20 Taylor sum at infinity
    norm below 1/2, then squaring.  A norm past the float range gives NaN."""
    M = np.asarray(M, dtype=float)
    n = max(0, math.frexp(float(np.max(np.sum(np.abs(M), axis=1))))[1] + 1)
    S = np.ldexp(M, -n)
    out = term = np.eye(len(M))
    for k in range(1, 21):
        term = term @ S / k
        out = out + term
    for _ in range(n):
        out = out @ out
    return out
