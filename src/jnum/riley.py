"""Parabolic representations of two-bridge knot and link groups.

For the two-bridge knot or link of fraction p/q the generators are sent to

    A = [[1, 1], [0, 1]],    B = [[1, 0], [z, 1]],

and the defining relation A W = W B (knots, p odd) or A W = W A (links,
p even) holds exactly when z is a root of an integer polynomial. Here

    W = B^e1 A^e2 B^e3 ... ,    e_i = (-1)^floor(i q / p),  i = 1..p-1,

which ends in A^e_{p-1} for knots and B^e_{p-1} for links. Expanding the
product letter by letter (each letter is I plus a nilpotent) shows the
lower row of W is polynomial in z with integer coefficients:

    W_21 = sum_k f(p-1, 2k-1) z^k,    W_22 = sum_k f(p-1, 2k) z^k,

where f counts signed alternating index subsets and satisfies the
recurrence f(i, t) = f(i-1, t) + [i = t mod 2] e_i f(i-1, t-1). The knot
polynomial is W_22, the raw link polynomial W_21. W's entries built letter
by letter as column updates (word_matrix) are a reference oracle for the
dynamic program, and tests/oracles.py holds a brute-force subset expansion.

At a geometric root the Jorgensen number of the representation is |z|
for knots (witnessed by the pair (A, W)) and |z|^2 for links (witnessed
by (A, B)), with |z| < 4 in both cases.

Numeric roots: solve_roots takes them as the eigenvalues of the real
companion matrix (Edelman-Murakami, Math. Comp. 64, 1995) of each
square-free factor (Yun's algorithm, exact), polished by Newton steps, so
real roots are exactly real, the complex roots come in exactly conjugate
pairs, and a multiple root is repeated rather than split.

One pipeline computes this: select_geometric_root builds the polynomial,
solves it once and decides each root's status; the RootChoice it returns
carries the RootSet and those statuses. knot_jreport and link_jreport
check the relation and J at the chosen root, with W evaluated as a
numeric product of its letters, and refuse with GeometricRootError,
which carries the RootChoice.
"""

from __future__ import annotations

import math
from typing import Optional

from . import tolerances as tol
from .frozen import frozen
from .intpoly import IntPoly, squarefree_factors
from .linalg import UNIT_TRANSLATION, JReport, Mat2, jorgensen_pair
from .words import GeneratorSet, SearchError, Word, evaluate, first_violation


RILEY_A = UNIT_TRANSLATION
MAX_P = 4001  # past this p every representation polynomial leaves float64


def riley_b(z: complex) -> Mat2:
    return Mat2(1.0, 0.0, z, 1.0)


@frozen
class TwoBridge:
    """Two-bridge fraction p/q, 2 <= p <= MAX_P, q reduced mod p. Knot iff p is odd."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.p > MAX_P:
            raise ValueError(f"p must be at most {MAX_P}, got {self.p}")
        object.__setattr__(self, "q", self.q % self.p)
        if self.q == 0:
            raise ValueError("q must not be divisible by p")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got {self.p}/{self.q}")

    @property
    def is_knot(self) -> bool:
        return self.p % 2 == 1

    def exponents(self) -> tuple:
        """e_i = (-1)^floor(i q / p) for i = 1..p-1. Palindromic when q is odd."""
        return tuple((-1) ** ((i * self.q) // self.p) for i in range(1, self.p))


def _alternating_dp(tb: TwoBridge) -> list:
    """f(p-1, t) for t = 0..p-1.

    f(i, t) sums, over size-t subsets of {1..i} whose elements alternate in
    parity starting odd (so position t has the parity of t), the product of
    the exponents e_j over the subset.
    """
    exps = tb.exponents()
    f = [0] * tb.p
    f[0] = 1
    for i in range(1, tb.p):
        e = exps[i - 1]
        for t in range(i, 0, -2):
            f[t] += e * f[t - 1]
    return f


def knot_poly(p: int, q: int) -> IntPoly:
    """The knot representation polynomial W_22 (p odd). Constant term 1."""
    tb = TwoBridge(p, q)
    if not tb.is_knot:
        raise ValueError(f"{p}/{q} is a link fraction (p even); use link_poly")
    f = _alternating_dp(tb)
    return IntPoly.from_list(f[0::2])


@frozen
class LinkPoly:
    """Raw link polynomial W_21 and its normalization.

    The raw polynomial always vanishes at z = 0; the normalized form has
    the power of z divided out and a positive leading coefficient.
    """

    raw: IntPoly
    normalized: IntPoly


def link_poly(p: int, q: int) -> LinkPoly:
    """The link representation polynomial W_21 (p even), raw and normalized."""
    tb = TwoBridge(p, q)
    if tb.is_knot:
        raise ValueError(f"{p}/{q} is a knot fraction (p odd); use knot_poly")
    f = _alternating_dp(tb)
    raw = IntPoly.from_list([0] + f[1::2])
    norm = raw.shifted_down(raw.valuation())
    if norm.coeffs[-1] < 0:
        norm = -norm
    return LinkPoly(raw, norm)


def word_matrix(p: int, q: int) -> tuple:
    """The entries (a, b, c, d) of W = B^e1 A^e2 B^e3 ... as IntPolys.

    Starting from the identity, right-multiplying by a letter is a column
    update: B^e adds e z times column 2 to column 1, and A^e adds e times
    column 1 to column 2.
    """
    a, b, c, d = IntPoly((1,)), IntPoly(()), IntPoly(()), IntPoly((1,))
    for i, e in enumerate(TwoBridge(p, q).exponents(), start=1):
        if i % 2 == 1:
            ez = IntPoly((0, e))
            a, c = a + ez * b, c + ez * d
        else:
            b, d = b + IntPoly((e,)) * a, d + IntPoly((e,)) * c
    return a, b, c, d


# ---------------------------------------------------------------------------
# numeric roots


@frozen
class RootSet:
    """All complex roots of an integer polynomial, with the worst residual."""

    poly: IntPoly
    roots: tuple
    residual: float


def _residual_bound(poly: IntPoly) -> float:
    """ROOT_EPS (1 + max |coefficient|): the largest |poly(root)| accepted."""
    return tol.ROOT_EPS * (1.0 + max(abs(c) for c in poly.coeffs))


def solve_roots(poly: IntPoly) -> RootSet:
    """All roots of poly: companion-matrix eigenvalues with a Newton polish.

    The roots at 0 come from the valuation. The remaining factor is split
    into square-free parts (squarefree_factors); the roots of each part are
    the eigenvalues of its real companion matrix (np.roots), listed as
    many times as the part's multiplicity, so a multiple root comes out as
    equal copies instead of a cluster. A real root has imaginary part
    exactly 0 and the complex roots come in exactly conjugate pairs.
    Three Newton steps on each simple-rooted part, in real-coefficient
    arithmetic, polish them and keep both properties. The residual
    max |poly(root)| is required to come out below _residual_bound(poly);
    otherwise, and when a coefficient or a value does not fit a float64,
    SearchError is raised.
    """
    import numpy as np
    if poly.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    v = poly.valuation()
    core = poly.shifted_down(v)
    roots = [0.0 + 0.0j] * v
    try:
        bound = _residual_bound(poly)
        if core.degree > 0:
            for factor, mult in squarefree_factors(core):
                desc = np.array(factor.coeffs[::-1], dtype=float)
                z = np.roots(desc).astype(np.complex128)
                dcoef = np.polyder(desc)
                # an overflowing polish leaves NaN roots; the residual check refuses them
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for _ in range(3):
                        dv = np.polyval(dcoef, z)
                        safe = np.abs(dv) > tol.DERIV_FLOOR
                        step = np.polyval(desc, z) / np.where(safe, dv, 1.0)
                        z = np.where(safe, z - step, z)
                roots.extend(complex(r) for r in z for _ in range(mult))
        roots.sort(key=lambda w: (round(w.real, 12), round(w.imag, 12)))
        residual = max((abs(poly(r)) for r in roots), default=0.0)
    except OverflowError as exc:  # a coefficient or a value past float64
        raise SearchError(
            f"degree-{poly.degree} polynomial leaves float64: {exc}") from None
    if not residual <= bound:  # a NaN residual fails too
        raise SearchError(
            f"root refinement stalled: residual {residual:.3e} exceeds {bound:.3e}")
    return RootSet(poly, tuple(roots), residual)


SCREEN_LEN = 6  # default word length of the geometric-root screen


@frozen
class RootChoice:
    """Outcome of the geometric-root screen, with the roots it was made from.

    statuses and screen_j run parallel to roots.roots. A root's status is
    "real", "conjugate" (lower half plane), "rejected" or "survivor";
    screen_j is the J of the violation that rejected it, None for every
    other root.
    index is the position of z in roots.roots, None when nothing survived;
    ambiguous means that more than one root survived.
    """

    roots: RootSet       # the solved knot or normalized link polynomial
    link_raw: Optional[IntPoly]  # raw link polynomial W_21; None for knots
    statuses: tuple
    screen_j: tuple
    index: Optional[int]

    @property
    def z(self) -> Optional[complex]:
        return None if self.index is None else self.roots.roots[self.index]

    @property
    def survivors(self) -> tuple:
        return tuple(r for r, s in zip(self.roots.roots, self.statuses)
                     if s == "survivor")

    @property
    def rejected(self) -> tuple:  # (root, screen_j) pairs
        return tuple((r, j) for r, j in zip(self.roots.roots, self.screen_j)
                     if j is not None)

    @property
    def ambiguous(self) -> bool:
        return len(self.survivors) > 1


def select_geometric_root(tb: TwoBridge, *,
                          sample_len: int = SCREEN_LEN) -> RootChoice:
    """Build and solve the representation polynomial, then pick the geometric root.

    The one place the two-bridge pipeline builds its polynomial, solves it
    and decides each root's status. Real roots are discarded (they give
    representations into PSL2(R), never the discrete faithful one of a
    hyperbolic two-bridge complement). Of each conjugate pair the root in
    the upper half plane is screened by first_violation on <A, B(z)>: a
    ball grown one radius at a time up to sample_len, each radius from 2 on
    swept as soon as it is built by the pair pass folded over inverse twins
    (one element of each {X, X^-1}), where a non-elementary pair with
    J < 1 - SCREEN_SLACK rejects it and stops the growth. The
    survivor of smallest modulus is chosen.
    """
    if sample_len < 2:
        raise ValueError(f"screen length {sample_len} below 2 would screen nothing")
    if tb.is_knot:
        poly, raw = knot_poly(tb.p, tb.q), None
    else:
        lp = link_poly(tb.p, tb.q)
        poly, raw = lp.normalized, lp.raw
    rs = solve_roots(poly)
    statuses, screen_j = [], []
    for r in rs.roots:
        bad_j = None
        if abs(r.imag) <= tol.CX_EPS:
            status = "real"
        elif r.imag < 0.0:
            status = "conjugate"
        else:
            hit = first_violation(GeneratorSet(("A", "B"), (RILEY_A, riley_b(r))),
                                  sample_len, 1.0 - tol.SCREEN_SLACK)
            status, bad_j = ("survivor", None) if hit is None else ("rejected", hit[0])
        statuses.append(status)
        screen_j.append(bad_j)
    survivors = [i for i, s in enumerate(statuses) if s == "survivor"]
    index = min(survivors, default=None,
                key=lambda i: (abs(rs.roots[i]), rs.roots[i].real))
    return RootChoice(rs, raw, tuple(statuses), tuple(screen_j), index)


# ---------------------------------------------------------------------------
# reports


class GeometricRootError(SearchError):
    """The two-bridge pipeline cannot certify J at a geometric root.

    Raised when no root survives the screen or the chosen root fails a
    check; choice is the screen's outcome, for reporting the roots.
    """

    def __init__(self, message: str, choice: RootChoice):
        super().__init__(message)
        self.choice = choice


@frozen
class BridgeReport:
    """Representation data of a two-bridge knot or link at its geometric root."""

    choice: RootChoice
    jorgensen: float     # |z| for knots, |z|^2 for links
    waist: float         # shortest-waist upper bound: sqrt(|z|) resp. |z|
    pair: JReport        # witness pair: (A, W) for knots, (A, B) for links

    @property
    def poly(self) -> IntPoly:
        """The knot polynomial, or the normalized link polynomial."""
        return self.choice.roots.poly

    @property
    def z(self) -> complex:
        return self.choice.z


def _bridge_jreport(tb: TwoBridge, sample_len: int) -> BridgeReport:
    """Jorgensen data of the two-bridge knot or link tb at its geometric root.

    Knots (p odd) satisfy A W = W B and J = J(A, W) = |z|; links (p even)
    satisfy A W = W A and J = J(A, B) = |z|^2. W is the numeric product of
    its p - 1 letters at z, which keeps its determinant within rounding of
    1 where the polynomial entries of word_matrix cancel badly.
    """
    choice = select_geometric_root(tb, sample_len=sample_len)
    z = choice.z
    if z is None:
        raise GeometricRootError(
            f"no geometric root for {tb.p}/{tb.q}: all roots real or rejected", choice)
    if abs(z) >= 4.0:
        raise GeometricRootError(f"selected root has |z| = {abs(z):.6f} >= 4", choice)
    knot = tb.is_knot
    b = riley_b(z)
    w = evaluate(GeneratorSet(("A", "B"), (RILEY_A, b)), Word.from_letters(
        (i % 2, e) for i, e in enumerate(tb.exponents(), start=1)))
    lhs, rhs = RILEY_A @ w, w @ (b if knot else RILEY_A)
    dev = max(abs(u - v) for u, v in zip(lhs.entries(), rhs.entries()))
    # the residual of W at a computed root follows the root's error, so the
    # bound solve_roots accepted is scaled by |z|; MAT_EPS (1 + |A W|) is a floor
    bound = max(tol.MAT_EPS * (1.0 + max(abs(e) for e in lhs.entries())),
                _residual_bound(choice.roots.poly) * max(1.0, abs(z)))
    if dev > bound:
        relation = "A W = W B" if knot else "A W = W A"
        raise GeometricRootError(
            f"the defining relation {relation} fails by {dev:.3e} at the selected root",
            choice)
    jr = jorgensen_pair(RILEY_A, w if knot else b)
    want = abs(z) if knot else abs(z) ** 2
    if abs(jr.value - want) > tol.J_AGREE_EPS * (1.0 + want):
        raise GeometricRootError(
            f"{'J(A, W)' if knot else 'J(A, B)'} = {jr.value} disagrees with "
            f"{'|z|' if knot else '|z|^2'} = {want}", choice)
    return BridgeReport(choice, jr.value, math.sqrt(abs(z)) if knot else abs(z), jr)


def knot_jreport(p: int, q: int, *, sample_len: int = SCREEN_LEN) -> BridgeReport:
    """Jorgensen data of the two-bridge knot p/q: J(A, W) = |z| < 4."""
    tb = TwoBridge(p, q)
    if not tb.is_knot:
        raise ValueError(f"{p}/{q} is a link fraction; use link_jreport")
    return _bridge_jreport(tb, sample_len)


def link_jreport(p: int, q: int, *, sample_len: int = SCREEN_LEN) -> BridgeReport:
    """Jorgensen data of the two-bridge link p/q: J(A, B) = |z|^2 < 16."""
    tb = TwoBridge(p, q)
    if tb.is_knot:
        raise ValueError(f"{p}/{q} is a knot fraction; use knot_jreport")
    return _bridge_jreport(tb, sample_len)
