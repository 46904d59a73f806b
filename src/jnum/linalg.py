"""SL2(C) matrices and the Jorgensen functional.

Matrices are stored as SL2 lifts (determinant 1 within DET_EPS, relative
to the size of its terms a d and b c); group elements of PSL2(C) are
compared projectively, i.e. up to overall sign.
The Jorgensen number of an ordered pair is

    J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2|,   [X, Y] = X Y X^-1 Y^-1.

tr [X, Y] - 2 comes from the traceless parts of X and Y (commutator_dev),
so J and the elementarity test form no product matrix.
"""

from __future__ import annotations

import cmath

from . import tolerances as tol
from .frozen import frozen


@frozen
class Mat2:
    """A 2x2 complex matrix with determinant 1 (within DET_EPS, relative)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not cmath.isfinite(complex(entry)):
                raise ValueError("non-finite matrix entry")
        # the drift of a product grows with its terms, not with the result
        ad, bc = self.a * self.d, self.b * self.c
        if abs(ad - bc - 1.0) > tol.DET_EPS * max(1.0, abs(ad), abs(bc)):
            raise ValueError(f"determinant {ad - bc} is not 1 within {tol.DET_EPS} "
                             "relative to |a d| and |b c|")

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def inv(self) -> "Mat2":
        # adjugate; exact inverse for determinant-1 matrices
        return Mat2(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def proj_eq(self, other: "Mat2") -> bool:
        """Projective equality: equal up to overall sign within MAT_EPS."""
        return proj_dist(self, other) <= tol.MAT_EPS

    def is_identity_proj(self) -> bool:
        return self.proj_eq(IDENT)

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
UNIT_TRANSLATION = Mat2(1.0, 1.0, 0.0, 1.0)  # z -> z + 1


def proj_dist(x: Mat2, y: Mat2) -> float:
    """min(|x - y|_inf, |x + y|_inf) -- the projective distance used for equality."""
    minus = max(abs(p - q) for p, q in zip(x.entries(), y.entries()))
    plus = max(abs(p + q) for p, q in zip(x.entries(), y.entries()))
    return min(minus, plus)


@frozen
class JReport:
    """J(X, Y) together with the data it was computed from."""

    value: float
    pair: tuple[Mat2, Mat2]
    commutator_trace: complex


def commutator_dev(x: Mat2, y: Mat2) -> complex:
    """tr [X, Y] - 2 = (s - p)(s + p), with s = tr(X0 Y0) and p = r_x r_y / 2.

    X0 = X - (tr X / 2) I, so s = (a_x - d_x)(a_y - d_y)/2 + b_x c_y + c_x b_y, and
    r = sqrt(tr - 2) sqrt(tr + 2): both factors are symmetric in X and Y, and a
    parabolic r is 0 even where tr^2 of the other matrix overflows.
    """
    s = (x.a - x.d) * (y.a - y.d) / 2 + (x.b * y.c + x.c * y.b)
    rx, ry = (cmath.sqrt(t - 2.0) * cmath.sqrt(t + 2.0) for t in (x.trace, y.trace))
    return (s - rx * ry / 2) * (s + rx * ry / 2)


def jorgensen_pair(x: Mat2, y: Mat2) -> JReport:
    """J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2|."""
    dev = commutator_dev(x, y)
    return JReport(abs(x.trace * x.trace - 4.0) + abs(dev), (x, y), 2.0 + dev)


def is_nonelementary(x: Mat2, y: Mat2) -> bool:
    """tr [x, y] != 2 (beyond COMM_EPS), equivalently no common fixed point.

    For x, y != +-I the commutator trace is 2 exactly when x and y share a
    fixed point (Gehring-Martin, Complex Variables 12, 1989), and +-I gives
    2 as well. Pairs preserving a two-point set and finite groups are still
    not detected, so this is not a complete elementarity classifier.
    """
    return abs(commutator_dev(x, y)) > tol.COMM_EPS
