"""Reference oracles that the tests check the program against.

No code in src/jnum calls these; each recomputes something the program
computes another way:

  * classify: the Mobius type of a matrix by its trace, with the rotation
    order of an elliptic;
  * commutator: [X, Y] = X Y X^-1 Y^-1 as a product of four matrices, the
    reference for commutator_dev and the pair kernel;
  * subset_oracle_poly: the representation polynomial by brute-force
    subset expansion, the reference for the dynamic program;
  * unit_j_pairs: every cataloged pair attaining J = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from jnum import tolerances as tol
from jnum.catalog import arithcomp_table, gtk_families
from jnum.intpoly import IntPoly
from jnum.linalg import Mat2
from jnum.riley import normalize

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


def subset_oracle_poly(p: int, q: int) -> IntPoly:
    """Brute-force subset expansion of the representation polynomial (p <= 13).

    Sums the product of the exponents e_i over every index subset of
    {1..p-1} whose k-th element has the parity of k, adding it to the
    coefficient of z^((size + 1) // 2). Only sizes of the fraction's parity
    count: even sizes give the knot polynomial for odd p, odd sizes the raw
    link polynomial for even p.
    """
    tb = normalize(p, q)
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
