import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jnum import intpoly
from jnum.intpoly import IntPoly, squarefree_factors
from jnum.riley import knot_poly, link_poly


def test_construction_trims_and_normalizes():
    assert IntPoly.from_list([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly.from_list([0, 0]).is_zero
    assert IntPoly.from_list([]).degree == -1
    assert IntPoly((1, 2, 1)).degree == 2


def test_construction_refuses_a_non_integer_or_a_zero_lead():
    with pytest.raises(TypeError, match="got 2.0"):
        IntPoly((1, 2.0, 3))
    with pytest.raises(ValueError, match="highest-degree"):
        IntPoly((1, 0))


def test_parse_and_format_round_trip():
    p = IntPoly.parse("1,-2,3,-1,1")
    assert p.coeffs == (1, -2, 3, -1, 1)
    assert p.format() == "1,-2,3,-1,1"
    assert IntPoly.parse(IntPoly(()).format()).is_zero


def test_evaluation_is_horner():
    p = IntPoly((1, 2, 1, 1))  # 1 + 2z + z^2 + z^3
    assert p(0) == 1
    assert p(2) == 1 + 4 + 4 + 8
    z = 0.5 + 0.25j
    assert abs(p(z) - (1 + 2 * z + z * z + z ** 3)) <= 1e-15


def test_ring_operations():
    p = IntPoly((1, 1))
    q = IntPoly((-1, 1))
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p + IntPoly((0, 0, 5))).coeffs == (1, 1, 5)
    assert (IntPoly((0, 0, 5)) + p).coeffs == (1, 1, 5)
    assert (IntPoly((1, 2, 3)) + IntPoly((0, 0, -3))).coeffs == (1, 2)
    assert (p - p).is_zero
    assert (-p).coeffs == (-1, -1)


def test_valuation_and_shift():
    p = IntPoly((0, 0, 2, 3))
    assert p.valuation() == 2
    assert p.shifted_down(2).coeffs == (2, 3)
    with pytest.raises(ValueError):
        IntPoly(()).valuation()


def test_divexact():
    num = IntPoly((1, 2, 1, 1)) * IntPoly((1, 0, 2, -3, 1))
    assert num.divexact(IntPoly((1, 2, 1, 1))).coeffs == (1, 0, 2, -3, 1)
    with pytest.raises(ValueError):
        IntPoly((1, 1, 1)).divexact(IntPoly((1, 1)))
    with pytest.raises(ZeroDivisionError):
        IntPoly((1, 1)).divexact(IntPoly(()))


def test_gcd_derivative_and_primitive():
    a = IntPoly((1, 1)) * IntPoly((-2, 0, 1))   # (z + 1)(z^2 - 2)
    b = IntPoly((6, 6)) * IntPoly((3, -1))      # 6 (z + 1)(3 - z)
    assert a.gcd(b).coeffs == (1, 1)
    assert a.gcd(IntPoly((5,))).coeffs == (1,)
    assert IntPoly((0, 0, 0, 4)).derivative().coeffs == (0, 0, 12)
    assert IntPoly((7,)).derivative().is_zero
    assert IntPoly((4, -6, -2)).primitive().coeffs == (-2, 3, 1)


def test_squarefree_factors_by_multiplicity():
    lin = IntPoly((1, 1))        # z + 1
    quad = IntPoly((1, 0, 1))    # z^2 + 1
    other = IntPoly((-3, 0, 2))  # 2 z^2 - 3
    poly = IntPoly((-1,)) * other * quad * quad * lin * lin * lin
    assert squarefree_factors(poly) == ((other, 1), (quad, 2), (lin, 3))
    assert squarefree_factors(lin * lin) == ((lin, 2),)
    # a square-free polynomial comes back as it is, sign and content too
    neg = IntPoly((-2,)) * other
    assert squarefree_factors(neg) == ((neg, 1),)


def test_pretest_returns_yuns_factors_on_every_scan_polynomial():
    repeated = []
    for p in range(5, 32):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            poly = knot_poly(p, q) if p % 2 else link_poly(p, q).normalized
            factors = squarefree_factors(poly)
            assert factors == intpoly._yun(poly), (p, q)
            if any(mult > 1 for _, mult in factors):
                repeated.append((p, q))
    assert {(24, 7), (24, 17)} <= set(repeated)


P = intpoly._PRETEST_PRIME
LIN, QUAD, OTHER = IntPoly((1, 1)), IntPoly((1, 0, 1)), IntPoly((-3, 0, 2))


@pytest.mark.parametrize("poly,want", [
    # square-free over Q, but (z - 1)(z - 1 - P) is (z - 1)^2 mod P
    (IntPoly((-1, 1)) * IntPoly((-1 - P, 1)), None),
    # P divides the leading coefficient, so the pre-test cannot speak
    (IntPoly((1, 0, P)), None),
    (OTHER * QUAD * QUAD, ((OTHER, 1), (QUAD, 2))),
    (LIN * LIN * LIN * QUAD, ((QUAD, 1), (LIN, 3))),
], ids=["square-mod-p", "p-divides-lead", "squared-factor", "cubed-factor"])
def test_pretest_leaves_repeated_factors_to_yun(monkeypatch, poly, want):
    calls, yun = [], intpoly._yun

    def spy(f):
        calls.append(f)
        return yun(f)

    monkeypatch.setattr(intpoly, "_yun", spy)
    assert squarefree_factors(poly) == (want or ((poly, 1),))
    assert calls == [poly]


def test_pretest_skips_yun_on_a_square_free_polynomial(monkeypatch):
    monkeypatch.setattr(intpoly, "_yun", None)
    poly = IntPoly((-1,)) * OTHER * QUAD * LIN
    assert squarefree_factors(poly) == ((poly, 1),)


coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(coeffs, coeffs)
def test_product_then_divexact_recovers_factor(cs, ds):
    p = IntPoly.from_list(cs)
    q = IntPoly.from_list(ds)
    if q.is_zero:
        return
    assert (p * q).divexact(q).coeffs == p.coeffs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(coeffs, coeffs, st.integers(min_value=-3, max_value=3))
def test_arithmetic_commutes_with_evaluation(cs, ds, z):
    p = IntPoly.from_list(cs)
    q = IntPoly.from_list(ds)
    assert (p * q)(z) == p(z) * q(z)
    assert (p + q)(z) == p(z) + q(z)
