import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jnum.linalg import (IDENT, INF, Mat2, classify, commutator, cx_eq,
                         fixed_points, is_nonelementary, jorgensen_pair,
                         proj_dist)

A = Mat2(1, 1, 0, 1)


def lower(c):
    return Mat2(1, 0, c, 1)


# --- construction ---------------------------------------------------------

def test_determinant_is_validated():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(float("nan"), 0, 0, 1)


def test_normalized_rescales_into_sl2():
    m = Mat2.normalized(2, 0, 0, 2)
    assert cx_eq(m.a, 1.0) and cx_eq(m.d, 1.0)
    with pytest.raises(ValueError):
        Mat2.normalized(1, 1, 1, 1)


def test_inverse_and_power():
    m = Mat2(2, 1, 1, 1)
    assert (m @ m.inv()).is_identity_proj()
    assert m.power(0).is_identity_proj()
    assert proj_dist(m.power(5), m @ m @ m @ m @ m) <= 1e-12
    assert proj_dist(m.power(-3), m.inv().power(3)) <= 1e-12


def test_proj_eq_ignores_sign():
    m = Mat2(2, 1, 1, 1)
    neg = m.neg()
    assert m.proj_eq(neg)
    assert proj_dist(m, neg) == 0.0
    assert not m.proj_eq(A)


# --- classification -------------------------------------------------------

def test_classify_identity_and_parabolic():
    assert classify(IDENT).kind == "identity"
    assert classify(IDENT.neg()).kind == "identity"
    assert classify(A).kind == "parabolic"
    assert classify(lower(0.3 + 0.4j)).kind == "parabolic"


def test_classify_elliptic_with_rotation_order():
    s = Mat2(0, -1, 1, 0)           # rotation of order 2 about i
    k = classify(s)
    assert k.kind == "elliptic" and k.rotation_order == 2
    u = Mat2(1, -1, 1, 0)           # trace 1: order 3 in PSL2
    assert classify(u).rotation_order == 3
    t7 = 2.0 * math.cos(math.pi / 7.0)
    v = Mat2(t7, -1, 1, 0)
    assert classify(v).rotation_order == 7


def test_classify_hyperbolic_and_loxodromic():
    assert classify(Mat2(2, 0, 0, 0.5)).kind == "hyperbolic"
    assert classify(Mat2(-3, 0, 0, -1 / 3)).kind == "hyperbolic"
    assert classify(Mat2(2j, 0, 0, -0.5j)).kind == "loxodromic"
    w = cmath.exp(0.3 + 0.2j)
    assert classify(Mat2(w, 0, 0, 1 / w)).kind == "loxodromic"


# --- fixed points and elementarity ----------------------------------------

def test_fixed_points():
    assert fixed_points(A) == {INF}
    assert fixed_points(lower(1.0)) == {0.0}
    hyp = fixed_points(Mat2(2, 0, 0, 0.5))
    assert INF in hyp and any(p == 0 for p in hyp if p is not INF)
    with pytest.raises(ValueError):
        fixed_points(IDENT)


def test_is_nonelementary():
    b = lower(0.5 + 0.8660254037844386j)
    assert is_nonelementary(A, b)
    assert not is_nonelementary(A, A.power(2))       # same fixed point
    assert not is_nonelementary(A, Mat2(1, 2j, 0, 1))  # both fix infinity
    assert not is_nonelementary(IDENT, b)


# --- the functional -------------------------------------------------------

def test_jorgensen_figure_eight_value():
    b = lower(0.5 + 0.8660254037844386j)
    rep = jorgensen_pair(A, b)
    assert abs(rep.value - 1.0) <= 1e-12
    assert rep.kinds[0].kind == "parabolic"
    assert cx_eq(rep.commutator_trace, 2.0 + (0.5 + 0.8660254037844386j) ** 2,
                 1e-12)


def test_jorgensen_parabolic_commutator_identity():
    # for A = [[1,1],[0,1]] and B = [[1,0],[c,1]]: tr [A,B] - 2 = c^2
    for c in (0.3, 1 + 1j, -2.5j, 2.1 + 0.7j):
        rep = jorgensen_pair(A, lower(c))
        assert abs(rep.value - abs(c) ** 2) <= 1e-12


def _sl2(a, b, c):
    # deterministic SL2 lift from three free complex parameters; stay away
    # from the 1 + a = 0 singularity so entries remain well conditioned
    assume(abs(1 + a) >= 0.1)
    m = Mat2.normalized(1 + a, b, c, 1 + (b * c - a) / (1 + a))
    assume(max(abs(e) for e in m.entries()) <= 50.0)
    return m


cx = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                        allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cx, cx, cx, cx, cx, cx)
def test_jorgensen_invariant_under_conjugation(a, b, c, pa, pb, pc):
    # skip examples whose products leave the library's validated regime
    # (it rejects determinant drift instead of propagating it)
    try:
        x = _sl2(a, b, c)
        y = _sl2(b, c, a)
        g = _sl2(pa, pb, pc)
        j0 = jorgensen_pair(x, y).value
        j1 = jorgensen_pair(g @ x @ g.inv(), g @ y @ g.inv()).value
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    assert abs(j0 - j1) <= 1e-6 * (1.0 + abs(j0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cx, cx, cx)
def test_commutator_modulus_invariant_under_nielsen_moves(a, b, c):
    try:
        x = _sl2(a, b, c)
        y = _sl2(b, a, c)
        base = abs(commutator(x, y).trace - 2.0)
        moved = [abs(commutator(u, v).trace - 2.0)
                 for u, v in ((y, x), (x.inv(), y), (x, y.inv()), (x, x @ y))]
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    for m in moved:
        assert abs(m - base) <= 1e-9 * (1.0 + base)
