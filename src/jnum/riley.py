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
polynomial is W_22, the raw link polynomial W_21. A brute-force subset
expansion (subset_oracle_poly) and the symbolic matrix product
(word_matrix) are reference oracles for the dynamic program.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .intpoly import IntPoly, squarefree_factors
from .linalg import JReport, Mat2, jorgensen_pair
from .words import GeneratorSet, SearchError, Word, evaluate, first_violation


RILEY_A = Mat2(1.0, 1.0, 0.0, 1.0)


def riley_b(z: complex) -> Mat2:
    return Mat2(1.0, 0.0, z, 1.0)


@dataclass(frozen=True)
class TwoBridge:
    """A two-bridge fraction p/q: gcd(p, q) = 1, 0 < q < p. Knot iff p is odd."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if not 0 < self.q < self.p:
            raise ValueError("q must satisfy 0 < q < p")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got {self.p}/{self.q}")

    @property
    def is_knot(self) -> bool:
        return self.p % 2 == 1

    def exponents(self) -> tuple:
        """e_i = (-1)^floor(i q / p) for i = 1..p-1. Palindromic when q is odd."""
        return tuple((-1) ** ((i * self.q) // self.p) for i in range(1, self.p))


def normalize(p: int, q: int) -> TwoBridge:
    """Reduce q mod p into (0, p) and validate. Even q is accepted."""
    if p < 2:
        raise ValueError("p must be at least 2")
    q = q % p
    if q == 0:
        raise ValueError("q must not be divisible by p")
    return TwoBridge(p, q)


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
        top = min(i, tb.p - 1)
        for t in range(top, 0, -1):
            if (t ^ i) & 1 == 0:
                f[t] += e * f[t - 1]
    return f


def knot_poly(p: int, q: int) -> IntPoly:
    """The knot representation polynomial W_22 (p odd). Constant term 1."""
    tb = normalize(p, q)
    if not tb.is_knot:
        raise ValueError(f"{p}/{q} is a link fraction (p even); use link_poly")
    f = _alternating_dp(tb)
    return IntPoly.from_list(f[0::2])


@dataclass(frozen=True)
class LinkPoly:
    """Raw link polynomial W_21 and its normalization.

    The raw polynomial always vanishes at z = 0; the normalized form has
    the power of z divided out and a positive leading coefficient.
    """

    raw: IntPoly
    normalized: IntPoly


def link_poly(p: int, q: int) -> LinkPoly:
    """The link representation polynomial W_21 (p even), raw and normalized."""
    tb = normalize(p, q)
    if tb.is_knot:
        raise ValueError(f"{p}/{q} is a knot fraction (p odd); use knot_poly")
    f = _alternating_dp(tb)
    raw = IntPoly.from_list([0] + f[1::2])
    norm = raw.shifted_down(raw.valuation())
    if norm.coeffs[-1] < 0:
        norm = -norm
    return LinkPoly(raw, norm)


def subset_oracle_poly(p: int, q: int) -> IntPoly:
    """Brute-force subset expansion of the representation polynomial (p <= 13).

    Enumerates all 2^(p-1) index subsets directly instead of the dynamic
    program: a subset contributes iff its elements alternate in parity
    starting odd. Returns the knot polynomial for odd p, the raw link
    polynomial for even p.
    """
    tb = normalize(p, q)
    if p > 13:
        raise ValueError("subset oracle is limited to p <= 13")
    exps = tb.exponents()
    want_even_sizes = tb.is_knot
    coeffs = [0] * p
    for mask in range(1 << (p - 1)):
        sign = 1
        size = 0
        ok = True
        m = mask
        while m:
            low = (m & -m).bit_length()  # 1-based position = index i
            m &= m - 1
            size += 1
            if low % 2 != size % 2:
                ok = False
                break
            sign *= exps[low - 1]
        if not ok:
            continue
        if size % 2 == 0 and want_even_sizes:
            coeffs[size // 2] += sign
        elif size % 2 == 1 and not want_even_sizes:
            coeffs[(size + 1) // 2] += sign
    if not want_even_sizes:
        coeffs[0] = 0
    return IntPoly.from_list(coeffs)


@dataclass(frozen=True)
class PolyMat2:
    """2x2 matrix with IntPoly entries; the symbolic side of the word product."""

    a: IntPoly
    b: IntPoly
    c: IntPoly
    d: IntPoly

    @staticmethod
    def identity() -> "PolyMat2":
        one = IntPoly((1,))
        zero = IntPoly(())
        return PolyMat2(one, zero, zero, one)

    @staticmethod
    def letter_a(e: int) -> "PolyMat2":
        return PolyMat2(IntPoly((1,)), IntPoly((e,)), IntPoly(()), IntPoly((1,)))

    @staticmethod
    def letter_b(e: int) -> "PolyMat2":
        return PolyMat2(IntPoly((1,)), IntPoly(()), IntPoly((0, e)), IntPoly((1,)))

    def __matmul__(self, other: "PolyMat2") -> "PolyMat2":
        return PolyMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def eval(self, z: complex) -> Mat2:
        return Mat2(self.a(z), self.b(z), self.c(z), self.d(z))


def word_matrix(p: int, q: int) -> PolyMat2:
    """The symbolic word W = B^e1 A^e2 B^e3 ... as a PolyMat2."""
    tb = normalize(p, q)
    w = PolyMat2.identity()
    for i, e in enumerate(tb.exponents(), start=1):
        letter = PolyMat2.letter_b(e) if i % 2 == 1 else PolyMat2.letter_a(e)
        w = w @ letter
    return w


# ---------------------------------------------------------------------------
# numeric roots


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RootChoice:
    """Outcome of the geometric-root screen, with the roots it was made from.

    statuses and screen_j run parallel to roots.roots. A root's status is
    "real", "conjugate" (lower half plane), "unscreened" (root_index
    bypassed the screen), "rejected" or "survivor"; screen_j is the J of
    the violation that rejected it, None for every other root.
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


def select_geometric_root(tb: TwoBridge, root_index: Optional[int] = None,
                          sample_len: int = SCREEN_LEN) -> RootChoice:
    """Build and solve the representation polynomial, then pick the geometric root.

    The one place the two-bridge pipeline builds its polynomial, solves it
    and decides each root's status. Real roots are discarded (they give
    representations into PSL2(R), never the discrete faithful one of a
    hyperbolic two-bridge complement). Of each conjugate pair the root in
    the upper half plane is screened by first_violation on <A, B(z)>: one
    ball of radius sample_len, swept at radii 2..sample_len in turn, where a
    non-elementary pair with J < 1 - SCREEN_SLACK rejects it. The survivor
    of smallest modulus is chosen. root_index bypasses the screen and picks
    that position.
    """
    if sample_len < 2:
        raise ValueError(f"screen length {sample_len} below 2 would screen nothing")
    if tb.is_knot:
        poly, raw = knot_poly(tb.p, tb.q), None
    else:
        lp = link_poly(tb.p, tb.q)
        poly, raw = lp.normalized, lp.raw
    rs = solve_roots(poly)
    if root_index is not None and not 0 <= root_index < len(rs.roots):
        raise IndexError(f"root index {root_index} out of range 0..{len(rs.roots) - 1}")
    statuses, screen_j = [], []
    for r in rs.roots:
        bad_j = None
        if abs(r.imag) <= tol.CX_EPS:
            status = "real"
        elif r.imag < 0.0:
            status = "conjugate"
        elif root_index is not None:
            status = "unscreened"
        else:
            hit = first_violation(GeneratorSet(("A", "B"), (RILEY_A, riley_b(r))),
                                  sample_len, 1.0 - tol.SCREEN_SLACK)
            status, bad_j = ("survivor", None) if hit is None else ("rejected", hit[0])
        statuses.append(status)
        screen_j.append(bad_j)
    if root_index is None:
        survivors = [i for i, s in enumerate(statuses) if s == "survivor"]
        root_index = min(survivors, default=None,
                         key=lambda i: (abs(rs.roots[i]), rs.roots[i].real))
    return RootChoice(rs, raw, tuple(statuses), tuple(screen_j), root_index)


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


@dataclass(frozen=True)
class BridgeReport:
    """Representation data of a two-bridge knot or link at its geometric root."""

    bridge: TwoBridge
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


def _bridge_jreport(tb: TwoBridge, root_index: Optional[int],
                    sample_len: int) -> BridgeReport:
    """Jorgensen data of the two-bridge knot or link tb at its geometric root.

    Knots (p odd) satisfy A W = W B and J = J(A, W) = |z|; links (p even)
    satisfy A W = W A and J = J(A, B) = |z|^2. W is the numeric product of
    its p - 1 letters at z, which keeps its determinant within rounding of
    1 where the polynomial entries of word_matrix cancel badly.
    """
    choice = select_geometric_root(tb, root_index, sample_len)
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
    return BridgeReport(tb, choice, jr.value, math.sqrt(abs(z)) if knot else abs(z), jr)


def knot_jreport(p: int, q: int, root_index: Optional[int] = None,
                 sample_len: int = SCREEN_LEN) -> BridgeReport:
    """Jorgensen data of the two-bridge knot p/q: J(A, W) = |z| < 4."""
    tb = normalize(p, q)
    if not tb.is_knot:
        raise ValueError(f"{p}/{q} is a link fraction; use link_jreport")
    return _bridge_jreport(tb, root_index, sample_len)


def link_jreport(p: int, q: int, root_index: Optional[int] = None,
                 sample_len: int = SCREEN_LEN) -> BridgeReport:
    """Jorgensen data of the two-bridge link p/q: J(A, B) = |z|^2 < 16."""
    tb = normalize(p, q)
    if tb.is_knot:
        raise ValueError(f"{p}/{q} is a knot fraction; use knot_jreport")
    return _bridge_jreport(tb, root_index, sample_len)
