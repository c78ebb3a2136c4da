"""The solvable group R x_rho R^2, its projections and its quotients.

Elements are pairs (t, v) with the semidirect product
(t1, v1)(t2, v2) = (t1 + t2, v1 + rho_{t1} v2), rho_t = e^{t*theta}.
The two non-simply-connected quotients are the n-fold covers of the rigid
motion group (rotation family, t taken mod 2*n*pi) and Aff(R) x S^1
(diagonal family with gamma = 0, second v-component taken mod 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel2d import (
    DIAGONAL,
    SPIRAL,
    ROT90,
    ThetaFamily,
    check_finite,
    expm,
)

__all__ = [
    "GroupElement",
    "GroupVariant",
    "QuotientElement",
    "identity",
    "multiply",
    "inverse",
    "conjugate",
    "project_S",
    "project_H",
    "quotient_map",
]


@dataclass(frozen=True)
class GroupElement:
    """A point (t, v) of the group."""

    t: float
    v: np.ndarray

    def __post_init__(self):
        check_finite(self.t, "t")
        object.__setattr__(self, "v", check_finite(self.v, "v").reshape(2))

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.v[0], self.v[1]])


@dataclass(frozen=True)
class GroupVariant:
    """Which global form of the group is meant.

    ``simply_connected`` works for every structure family.  ``se2n`` (the
    n-fold cover of the rigid motions, n >= 1) requires the pure rotation
    family spiral(0); ``aff_circle`` requires diagonal(0).
    """

    tag: str
    n: int = 1

    SIMPLY_CONNECTED = "simply_connected"
    SE2N = "se2n"
    AFF_CIRCLE = "aff_circle"

    def __post_init__(self):
        if self.tag not in (self.SIMPLY_CONNECTED, self.SE2N, self.AFF_CIRCLE):
            raise ValueError(f"unknown variant {self.tag!r}")
        if self.tag == self.SE2N and (not isinstance(self.n, int) or self.n < 1):
            raise ValueError("se2n requires a positive integer n")
        # an n of 2^1023 or more has no finite period; a larger int converts to no float
        if self.tag == self.SE2N and not np.isfinite(2.0 * np.pi * min(self.n, 2**1023)):
            raise ValueError("se2n requires a finite period 2*pi*n")

    def check_family(self, family: ThetaFamily) -> None:
        if self.tag == self.SE2N:
            if not (family.tag == SPIRAL and family.gamma == 0.0):
                raise ValueError("se2n variant requires the spiral(0) family")
        elif self.tag == self.AFF_CIRCLE:
            if not (family.tag == DIAGONAL and family.gamma == 0.0):
                raise ValueError("aff_circle variant requires the diagonal(0) family")

    @property
    def period(self) -> float:
        """Period of the compactified coordinate (None for the cover)."""
        if self.tag == self.SE2N:
            return 2.0 * np.pi * self.n
        if self.tag == self.AFF_CIRCLE:
            return 2.0 * np.pi
        raise ValueError("simply connected variant has no period")

    @property
    def wrapped_column(self) -> int:
        """Index of the periodic coordinate in a (t, v1, v2) state row."""
        self.period  # raises on the simply connected group
        return 0 if self.tag == self.SE2N else 2


SIMPLY_CONNECTED = GroupVariant(GroupVariant.SIMPLY_CONNECTED)


@dataclass(frozen=True)
class QuotientElement:
    """Canonical representative of a point in a quotient group.

    For se2n the representative has t in [0, 2*n*pi); for aff_circle the
    second v-component lies in [0, 2*pi).
    """

    rep: GroupElement
    variant: GroupVariant

    def __post_init__(self):
        if self.variant.tag == GroupVariant.SIMPLY_CONNECTED:
            raise ValueError("quotient element needs a non-trivial variant")

    def as_array(self) -> np.ndarray:
        return self.rep.as_array()


def identity() -> GroupElement:
    return GroupElement(0.0, np.zeros(2))


def rho(family: ThetaFamily, t: float) -> np.ndarray:
    """rho_t = e^{t*theta}."""
    return expm(family.matrix(), t)


def multiply(a: GroupElement, b: GroupElement, family: ThetaFamily) -> GroupElement:
    return GroupElement(a.t + b.t, a.v + rho(family, a.t) @ b.v)


def inverse(a: GroupElement, family: ThetaFamily) -> GroupElement:
    return GroupElement(-a.t, -(rho(family, -a.t) @ a.v))


def conjugate(a: GroupElement, b: GroupElement, family: ThetaFamily) -> GroupElement:
    """a b a^{-1}."""
    return multiply(multiply(a, b, family), inverse(a, family), family)


def project_S(a: GroupElement, family: ThetaFamily) -> np.ndarray:
    """Projection onto the plane quotient by the subgroup R(1, 0): rho_{-t} v."""
    return rho(family, -a.t) @ a.v


def project_H(a: GroupElement, w: np.ndarray, family: ThetaFamily) -> tuple[float, float]:
    """Projection onto the quotient by the subgroup R(0, w): (t, <v, Rw>)."""
    w = check_finite(w, "w").reshape(2)
    if np.all(w == 0.0):
        raise ValueError("fiber direction w must be nonzero")
    return a.t, float(a.v @ (ROT90 @ w))


def quotient_map(a: GroupElement, variant: GroupVariant, family: ThetaFamily) -> QuotientElement:
    """Canonical representative of a in the quotient group of the variant."""
    variant.check_family(family)
    row = a.as_array()
    row[variant.wrapped_column] %= variant.period
    return QuotientElement(GroupElement(row[0], row[1:]), variant)


def quotient_multiply(a: QuotientElement, b: QuotientElement, family: ThetaFamily) -> QuotientElement:
    if a.variant != b.variant:
        raise ValueError("mismatched variants")
    return quotient_map(multiply(a.rep, b.rep, family), a.variant, family)
