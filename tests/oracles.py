"""Reference oracles that the tests check the program against.

No code in src/jnum calls these; each recomputes something the program
computes another way:

  * classify: the Mobius type of a matrix by its trace, with the rotation
    order of an elliptic;
  * commutator: [X, Y] = X Y X^-1 Y^-1 as a product of four matrices, the
    reference for commutator_dev and the pair kernel;
  * inverse_twins: each element's inverse in an array of elements, by keying
    the whole array, the reference for the twins the ball builder finds;
  * subset_oracle_poly: the representation polynomial by brute-force
    subset expansion, the reference for the dynamic program;
  * unit_j_pairs: every cataloged pair attaining J = 1;
  * exact_sweep_counts: the element and candidate counts of an inequality
    sweep over a group in PSL(2, O_d), in exact integers of O_d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from jnum import tolerances as tol
from jnum.catalog import arithcomp_table, gtk_families
from jnum.intpoly import IntPoly
from jnum.linalg import Mat2
from jnum.riley import TwoBridge
from jnum.words import _canonical_keys

ORDER_CAP = 256  # elliptic rotation-order search bound


def cx_eq(a: complex, b: complex) -> bool:
    """Tolerance-based scalar equality."""
    return abs(a - b) <= tol.CX_EPS


@dataclass(frozen=True)
class MobiusClass:
    """Classification of a Mobius transformation by its trace."""

    kind: str  # identity | parabolic | elliptic | hyperbolic | loxodromic
    trace: complex
    rotation_order: Optional[int] = None


def _rotation_order(t_abs: float) -> Optional[int]:
    # elliptic order m when |Re tr| = 2 cos(pi/m); search small orders first
    for m in range(2, ORDER_CAP + 1):
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


def inverse_twins(mats: np.ndarray) -> np.ndarray:
    """partner[i]: the index of mats[i]'s inverse in mats, or -1 when it has none.

    The grid key of the adjugate [[d, -b], [-c, a]] of each element is looked up
    among the keys of mats, and two elements are twins only when the match is
    mutual and they are different elements: an involution (trace 0) is its own
    inverse and stays alone, as does an element whose inverse is not in mats.
    """
    a, b, c, d = mats.reshape(len(mats), 4).T
    adj = np.stack((d, -b, -c, a), axis=1)
    index = {key: i for i, key in enumerate(_canonical_keys(mats).view("V64")[:, 0].tolist())}
    partner = np.array([index.get(key, -1)
                        for key in _canonical_keys(adj).view("V64")[:, 0].tolist()],
                       dtype=np.int64)
    ids = np.arange(len(mats))
    twin = (partner >= 0) & (partner != ids)
    twin[twin] = partner[partner[twin]] == ids[twin]
    return np.where(twin, partner, -1)


def subset_oracle_poly(p: int, q: int) -> IntPoly:
    """Brute-force subset expansion of the representation polynomial (p <= 13).

    Sums the product of the exponents e_i over every index subset of
    {1..p-1} whose k-th element has the parity of k, adding it to the
    coefficient of z^((size + 1) // 2). Only sizes of the fraction's parity
    count: even sizes give the knot polynomial for odd p, odd sizes the raw
    link polynomial for even p.
    """
    tb = TwoBridge(p, q)
    if p > 13:
        raise ValueError("subset oracle is limited to p <= 13")
    exps = tb.exponents()
    coeffs = [0] * p
    for size in range(1 - p % 2, p, 2):
        for subset in itertools.combinations(range(1, p), size):
            if all(i % 2 == k % 2 for k, i in enumerate(subset, start=1)):
                coeffs[(size + 1) // 2] += math.prod(exps[i - 1] for i in subset)
    return IntPoly.from_list(coeffs)


def unit_j_pairs() -> tuple:
    """Every cataloged pair attaining J = 1: the twelve families plus the
    arithcomp entries with expected J equal to 1, as (label, GeneratorSet)."""
    pairs = [(row.label, row.generators()) for row in gtk_families()]
    pairs.extend((e.label, e.generators) for e in arithcomp_table()
                 if abs(e.expected_j - 1.0) <= tol.ROUND_EPS)
    return tuple(pairs)


# ---------------------------------------------------------------------------
# exact sweep counts over O_d
#
# An element x + y w of O_d, w = w_d the ring generator (sqrt(-d), or
# (1 + sqrt(-d))/2 when d = 3 mod 4), is the integer pair (x, y); w^2 =
# t w - n with (t, n) = (0, d) or (1, (1 + d) / 4). A matrix is the flat
# 8-tuple (a_x, a_y, b_x, b_y, c_x, c_y, d_x, d_y).

_A = (1, 0, 1, 0, 0, 0, 1, 0)
_S = (0, 0, -1, 0, 1, 0, 0, 0)
_T = (1, 0, 0, 1, 0, 0, 1, 0)  # [[1, w], [0, 1]]
_B = (1, 0, 0, 0, 0, 1, 1, 0)  # [[1, 0], [w, 1]]

# the groups of `verify inequality-sweep`, in its order, as (d, generators):
# the figure-eight group <A, B(w_3)>, w_3 = e^(i pi / 3), then PSL2(O_d)
SWEEP_GROUPS = ((3, (_A, _B)),) + tuple((d, (_A, _S, _T)) for d in (1, 2, 3, 7, 11))


def _ring(d: int) -> tuple:
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


def omega(d: int) -> complex:
    """w_d as a complex number."""
    return (1 + 1j * math.sqrt(d)) / 2 if d % 4 == 3 else 1j * math.sqrt(d)


def _times(x0, x1, y0, y1, ring):
    t, n = ring
    return x0 * y0 - n * x1 * y1, x0 * y1 + x1 * y0 + t * x1 * y1


def _matmul(x: tuple, y: tuple, ring) -> tuple:
    out = ()
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # row i of x, column j of y
        p = _times(*x[4 * i:4 * i + 2], *y[2 * j:2 * j + 2], ring)
        q = _times(*x[4 * i + 2:4 * i + 4], *y[4 + 2 * j:6 + 2 * j], ring)
        out += (p[0] + q[0], p[1] + q[1])
    return out


def _sign_canonical(m: tuple) -> tuple:
    # M and -M are one element of PSL2; the key whose first nonzero is positive
    return max(m, tuple(-v for v in m))


def _exact_ball(d: int, gens: tuple, max_len: int) -> list:
    """The non-identity elements of word length 1..max_len, each once, as
    sign-canonical 8-tuples, by a breadth-first search over every symbol."""
    ring = _ring(d)
    syms = [g for m in gens
            for g in (m, (m[6], m[7], -m[2], -m[3], -m[4], -m[5], m[0], m[1]))]
    ident = (1, 0, 0, 0, 0, 0, 1, 0)
    seen, frontier, ball = {ident}, [ident], []
    for _ in range(max_len):
        level = []
        for m in frontier:
            for g in syms:
                key = _sign_canonical(_matmul(m, g, ring))
                if key not in seen:
                    seen.add(key)
                    level.append(key)
        ball += level
        frontier = level
    return ball


def _exact(*arrays):
    # float64 holds every integer below 2^53 exactly, and a sum or product
    # of such integers rounds to 2^53 or more whenever its exact value is
    # that large, so every value checked below 2^52 here is exact
    for a in arrays:
        assert np.abs(a).max(initial=0.0) < 2.0 ** 52
    return arrays


def _pair_product(x, y, ring, op):
    """x y in O_d over float64 arrays of coordinates (x_0, x_1), (y_0, y_1)."""
    t, n = ring
    xx, xy, yx, yy = _exact(*(op(f, g) for f, g in (
        (x[0], y[0]), (x[0], y[1]), (x[1], y[0]), (x[1], y[1]))))
    return _exact(xx - n * yy, xy + yx + t * yy)


def exact_sweep_counts(d: int, gens: tuple, max_len: int) -> tuple:
    """(n_elements, n_candidates) of the sweep over the ball of gens in PSL(2, O_d).

    n_candidates counts the ordered pairs (X, Y) of ball elements with
    tr [X, Y] != 2, decided exactly: with u = a - d,
    tr [X, Y] - 2 = (b c' - c b')^2 + (u b' - b u')(c u' - u c'),
    an element of O_d formed from outer products of integer coordinates.
    """
    ring = _ring(d)
    m = np.array(_exact_ball(d, gens, max_len), dtype=np.float64).reshape(-1, 8)
    u, b, c = (m[:, 0] - m[:, 6], m[:, 1] - m[:, 7]), m[:, 2:4].T, m[:, 4:6].T

    def cross(x, y):  # x_X y_Y - y_X x_Y for every ordered pair (X, Y)
        xy = _pair_product(x, y, ring, np.multiply.outer)
        yx = _pair_product(y, x, ring, np.multiply.outer)
        return _exact(xy[0] - yx[0], xy[1] - yx[1])

    bc, ub, cu = cross(b, c), cross(u, b), cross(c, u)
    sq = _pair_product(bc, bc, ring, np.multiply)
    pq = _pair_product(ub, cu, ring, np.multiply)
    v = _exact(sq[0] + pq[0], sq[1] + pq[1])
    return len(m), int(np.count_nonzero((v[0] != 0) | (v[1] != 0)))
