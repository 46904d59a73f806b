"""Arithmetic invariants: invariant trace fields and the elliptic-order screen.

The groups of interest have invariant trace field an imaginary quadratic
field Q(sqrt(-d)). Field membership of a floating-point value is decided
by recognizing an integer minimal polynomial x^2 + bx + c and reducing
4c - b^2 to its squarefree part.

The elliptic screen (elliptic_type_check) evaluates six necessary
conditions for a pair (A, B) with A parabolic and B elliptic of order n
to generate an arithmetic group attaining Jorgensen number 1; the inputs
it cannot derive from floats (algebraic integrality, Galois conjugates)
are supplied by the caller and tracked as pass / fail / unchecked.
Its orders (ELLIPTIC_ORDERS, the paper's list) are the n in 7..41 that pass
its tau-free sign test of condition 5; no n >= 42 does: b1 < 0 iff k > n/6,
so every prime up to x = n/6 must divide n, but for x >= 7 their product
exceeds 6x = n (210 for x < 14; then induct with Bertrand's postulate).
"""

from __future__ import annotations

import math
from typing import Optional

from . import tolerances as tol
from .frozen import frozen
from .linalg import Mat2, commutator_dev


def _squarefree_part(n: int) -> int:
    if n <= 0:
        raise ValueError("positive integer required")
    res = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                res *= p
        p += 1 if p == 2 else 2
    return res * n


@frozen
class QuadImagField:
    """The imaginary quadratic field Q(sqrt(-d)), d squarefree positive."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if _squarefree_part(self.d) != self.d:
            raise ValueError(f"d = {self.d} is not squarefree")

    @property
    def name(self) -> str:
        return f"Q(sqrt(-{self.d}))"


def recognize_quad_imaginary(x: complex) -> Optional[QuadImagField]:
    """Recognize x as an element of an imaginary quadratic field.

    Solves x^2 + bx + c = 0 for real b, c directly (b from the imaginary
    parts, c from the real parts), rounds to integers, and verifies. Returns
    None for real x, when b or c is not finite, for non-integer minimal
    polynomials, and when the rounded coefficients exceed RECOGNIZE_COEFF_CAP.
    """
    x = complex(x)
    if abs(x.imag) <= tol.CX_EPS:
        return None
    x2 = x * x
    b = -x2.imag / x.imag
    c = -x2.real - b * x.real
    if not (math.isfinite(b) and math.isfinite(c)):
        return None
    br, cr = round(b), round(c)
    if abs(br) > tol.RECOGNIZE_COEFF_CAP or abs(cr) > tol.RECOGNIZE_COEFF_CAP:
        return None
    scale = 1.0 + abs(x) ** 2
    if abs(x2 + br * x + cr) > tol.RECOGNIZE_EPS * scale:
        return None
    disc = 4 * cr - br * br
    if disc <= 0:
        return None
    return QuadImagField(_squarefree_part(disc))


def invariant_trace_field_generators(x: Mat2, y: Mat2) -> list:
    """Field generators of the invariant trace field (traces of squares).

    Generically [tr^2 x, tr^2 y, tr x tr y tr xy]; when one trace vanishes
    that product carries no information and [tr^2 of the other, tr [x, y]]
    generates instead. Raises when both traces vanish.
    """
    tx, ty = x.trace, y.trace
    txy = (x @ y).trace
    if abs(tx) <= tol.CX_EPS and abs(ty) <= tol.CX_EPS:
        raise ValueError("both generators are traceless; generators are not determined")
    if abs(ty) <= tol.CX_EPS:
        return [tx * tx, 2.0 + commutator_dev(x, y)]
    if abs(tx) <= tol.CX_EPS:
        return [ty * ty, 2.0 + commutator_dev(x, y)]
    return [tx * tx, ty * ty, tx * ty * txy]


def recognize_invariant_field(x: Mat2, y: Mat2) -> Optional[QuadImagField]:
    """The one imaginary quadratic field holding every invariant generator, or None:
    non-real ones are recognized in it, and each real g is a rational integer."""
    fields = set()
    for g in invariant_trace_field_generators(x, y):
        if abs(g.imag) > tol.CX_EPS:
            fields.add(recognize_quad_imaginary(g))
        elif abs(g - round(g.real)) > tol.RECOGNIZE_EPS * (1.0 + abs(g) ** 2):
            return None  # g is no integer to within RECOGNIZE_EPS (1 + |g|^2)
    return fields.pop() if len(fields) == 1 else None


def _conjugate_labels(n: int) -> tuple:
    return tuple(k for k in range(2, n // 2 + 1) if math.gcd(k, n) == 1)


def _places_ramify(n: int) -> bool:
    """Condition 5's tau-free test: b1 = 2 cos(2 pi k / n) - 1 < 0 at every place k."""
    return all(2.0 * math.cos(2.0 * math.pi * k / n) - 1.0 < 0.0
               for k in _conjugate_labels(n))


ELLIPTIC_ORDERS = tuple(n for n in range(7, 42) if _places_ramify(n))  # complete, see top


@frozen
class EllipticCandidate:
    """Input data for the elliptic-order screen.

    tr2B is tr^2 B (real for B elliptic); tr2B_conjugates are its Galois
    conjugates at the other real places, one per place k in [2, n/2] prime
    to n, in increasing k, or empty when unknown. The two flags assert
    algebraic integrality of tr(AB) and tr(B), undecidable from floats.
    """

    n: int
    tr2B: float
    tr2B_conjugates: tuple = ()
    trAB_integral: bool = True
    trB_integral: bool = True

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("elliptic order must be at least 3")
        places = len(_conjugate_labels(self.n))
        if len(self.tr2B_conjugates) not in (0, places):
            raise ValueError(
                f"need 0 or {places} conjugates for n = {self.n}, "
                f"got {len(self.tr2B_conjugates)}")


PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"


@frozen
class ConditionReport:
    """Six-condition verdict of the elliptic screen."""

    statuses: tuple

    @property
    def failed(self) -> tuple:
        """1-based indices of failed conditions."""
        return tuple(i + 1 for i, s in enumerate(self.statuses) if s == FAIL)


def elliptic_type_check(cand: EllipticCandidate) -> ConditionReport:
    """Screen a parabolic-elliptic pair for the arithmetic J = 1 conditions.

    1. n is in ELLIPTIC_ORDERS: n >= 7 and the tau-free test of condition 5;
    2. tr^2 B exceeds 2 / (1 - cos(2 pi / n));
    3. tr(AB) is an algebraic integer  (supplied flag);
    4. every Galois conjugate tau of tr^2 B satisfies
       -1 < cos(2 pi k / n) < 1/2 and 0 < tau < 2 / (1 - cos(2 pi k / n));
    5. the quaternion algebra ramifies at every real place: with a = -1,
       both b1 = 2 cos(2 pi k / n) - 1 and
       b2 = 2 (cos(4 pi k / n) + cos(2 pi k / n)) tau must be negative;
    6. tr(B) is an algebraic integer  (supplied flag).

    Conditions 4 and 5 report "unchecked" when no conjugates were supplied
    (for 5 the tau-free sign of b1 is still screened).
    """
    statuses = [UNCHECKED] * 6
    statuses[0] = PASS if cand.n in ELLIPTIC_ORDERS else FAIL
    bound = 2.0 / (1.0 - math.cos(2.0 * math.pi / cand.n))
    statuses[1] = PASS if cand.tr2B > bound else FAIL
    statuses[2] = PASS if cand.trAB_integral else FAIL

    bad5 = not _places_ramify(cand.n)  # b1, the tau-free part of condition 5
    places = tuple(zip(_conjugate_labels(cand.n), cand.tr2B_conjugates))
    if places:
        bad4 = False
        for k, tau in places:
            ck = math.cos(2.0 * math.pi * k / cand.n)
            if not (-1.0 < ck < 0.5 and 0.0 < tau < 2.0 / (1.0 - ck)):
                bad4 = True
            b2 = 2.0 * (math.cos(4.0 * math.pi * k / cand.n) + ck) * tau
            if not b2 < 0.0:
                bad5 = True
        statuses[3] = FAIL if bad4 else PASS
        statuses[4] = FAIL if bad5 else PASS
    elif bad5:
        statuses[4] = FAIL

    statuses[5] = PASS if cand.trB_integral else FAIL
    return ConditionReport(tuple(statuses))


def elliptic_j_value(n: int) -> float:
    """|2 cos(2 pi / n) - 2| + |2 cos(2 pi / n) - 1|: J of the extremal
    parabolic-elliptic pair of order n. Equals 1 exactly for every n > 6."""
    if n < 3:
        raise ValueError("elliptic order must be at least 3")
    c = 2.0 * math.cos(2.0 * math.pi / n)
    return abs(c - 2.0) + abs(c - 1.0)
