"""SL2(C) matrices, Mobius classification, and the Jorgensen functional.

Matrices are stored as SL2 lifts (determinant 1 within DET_EPS); group
elements of PSL2(C) are compared projectively, i.e. up to overall sign.
The Jorgensen number of an ordered pair is

    J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2|,   [X, Y] = X Y X^-1 Y^-1.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass
from typing import Optional

from . import tolerances as tol

INF = float("inf")  # the point at infinity on the Riemann sphere


def cx_eq(a: complex, b: complex, eps: float | None = None) -> bool:
    """Tolerance-based scalar equality."""
    if eps is None:
        eps = tol.CX_EPS
    return abs(a - b) <= eps


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 complex matrix with determinant 1 (within DET_EPS)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not _finite(complex(entry)):
                raise ValueError("non-finite matrix entry")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > tol.DET_EPS:
            raise ValueError(f"determinant {det} is not 1 within {tol.DET_EPS}")

    @staticmethod
    def normalized(a: complex, b: complex, c: complex, d: complex) -> "Mat2":
        """Scale a nonsingular matrix into SL2 by a square root of its determinant."""
        det = a * d - b * c
        if abs(det) <= tol.CX_EPS:
            raise ValueError("matrix is singular, cannot normalize into SL2")
        s = cmath.sqrt(det)
        return Mat2(a / s, b / s, c / s, d / s)

    @property
    def trace(self) -> complex:
        return self.a + self.d

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)

    def inv(self) -> "Mat2":
        # adjugate; exact inverse for determinant-1 matrices
        return Mat2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def proj_eq(self, other: "Mat2", eps: float | None = None) -> bool:
        """Projective equality: equal up to overall sign within MAT_EPS."""
        if eps is None:
            eps = tol.MAT_EPS
        return proj_dist(self, other) <= eps

    def is_identity_proj(self, eps: float | None = None) -> bool:
        return self.proj_eq(IDENT, eps)

    def power(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv().power(-n)
        result = IDENT
        base = self
        while n:
            if n & 1:
                result = result @ base
            n >>= 1
            if n:
                base = base @ base
        return result


IDENT = Mat2(1.0, 0.0, 0.0, 1.0)


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    a = x.a * y.a + x.b * y.c
    b = x.a * y.b + x.b * y.d
    c = x.c * y.a + x.d * y.c
    d = x.c * y.b + x.d * y.d
    return Mat2(a, b, c, d)


def proj_dist(x: Mat2, y: Mat2) -> float:
    """min(|x - y|_inf, |x + y|_inf) -- the projective distance used for equality."""
    minus = max(abs(p - q) for p, q in zip(x.entries(), y.entries()))
    plus = max(abs(p + q) for p, q in zip(x.entries(), y.entries()))
    return min(minus, plus)


@dataclass(frozen=True)
class MobiusClass:
    """Classification of a Mobius transformation by its trace."""

    kind: str  # identity | parabolic | elliptic | hyperbolic | loxodromic
    trace: complex
    rotation_order: Optional[int] = None


@dataclass(frozen=True)
class JReport:
    """J(X, Y) together with the data it was computed from."""

    value: float
    pair: tuple[Mat2, Mat2]
    kinds: tuple[MobiusClass, MobiusClass]
    commutator_trace: complex


def _rotation_order(t_abs: float) -> Optional[int]:
    # elliptic order m when |Re tr| = 2 cos(pi/m); search small orders first
    for m in range(2, tol.ORDER_CAP + 1):
        if abs(t_abs - 2.0 * math.cos(math.pi / m)) <= tol.CX_EPS:
            return m
    return None


def classify(m: Mat2) -> MobiusClass:
    """Classify by trace: identity, parabolic, elliptic, hyperbolic, loxodromic.

    Loxodromic here means strictly loxodromic (non-real trace); callers
    needing the broad sense ("loxodromic or hyperbolic") union the kinds.
    """
    t = complex(m.trace)
    if m.is_identity_proj():
        return MobiusClass("identity", t)
    if cx_eq(t, 2.0) or cx_eq(t, -2.0):
        return MobiusClass("parabolic", t)
    if abs(t.imag) <= tol.CX_EPS:
        r = abs(t.real)
        if r < 2.0:
            return MobiusClass("elliptic", t, _rotation_order(r))
        return MobiusClass("hyperbolic", t)
    return MobiusClass("loxodromic", t)


def commutator(x: Mat2, y: Mat2) -> Mat2:
    return x @ y @ x.inv() @ y.inv()


def jorgensen_pair(x: Mat2, y: Mat2) -> JReport:
    """J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2| with classification of both inputs."""
    tx = x.trace
    tk = commutator(x, y).trace
    value = abs(tx * tx - 4.0) + abs(tk - 2.0)
    return JReport(value, (x, y), (classify(x), classify(y)), tk)


def fixed_points(m: Mat2) -> set:
    """Fixed points on C u {inf}: roots of c w^2 + (d - a) w - b = 0.

    The point at infinity is represented by the float INF. Raises on +-I,
    which fixes everything.
    """
    if m.is_identity_proj():
        raise ValueError("identity fixes every point")
    a, b, c, d = m.entries()
    if abs(c) <= tol.CX_EPS:
        pts = {INF}
        if not cx_eq(a, d):
            pts.add(b / (d - a))
        return pts
    disc = cmath.sqrt((d - a) ** 2 + 4.0 * b * c)
    return {(a - d + disc) / (2.0 * c), (a - d - disc) / (2.0 * c)}


def _point_dist(p, q) -> float:
    p_inf = isinstance(p, float) and math.isinf(p)
    q_inf = isinstance(q, float) and math.isinf(q)
    if p_inf and q_inf:
        return 0.0
    if p_inf or q_inf:
        return INF
    return abs(complex(p) - complex(q))


def is_nonelementary(x: Mat2, y: Mat2) -> bool:
    """Heuristic: disjoint fixed-point sets and tr [x, y] != 2.

    This is not a complete elementarity classifier (finite subgroups are not
    detected); it is sufficient for every pair exercised here and is labeled
    heuristic wherever reported.
    """
    if x.is_identity_proj() or y.is_identity_proj():
        return False
    fx = fixed_points(x)
    fy = fixed_points(y)
    for p in fx:
        for q in fy:
            if _point_dist(p, q) <= tol.FIX_EPS:
                return False
    return not cx_eq(commutator(x, y).trace, 2.0)
