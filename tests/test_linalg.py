import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jnum.catalog import GtkParams, bianchi_generators, gtk_generators
from jnum.linalg import (IDENT, JReport, Mat2, commutator_dev, is_nonelementary,
                         jorgensen_pair, proj_dist)
from jnum.words import ball_levels
from oracles import classify, commutator

A = Mat2(1, 1, 0, 1)


def lower(c):
    return Mat2(1, 0, c, 1)


# --- construction ---------------------------------------------------------

def test_determinant_is_validated():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(float("nan"), 0, 0, 1)


def test_values_with_equal_fields_are_equal_and_hash_alike():
    m = Mat2(2, 1, 1, 1)
    assert m == Mat2(2, 1, 1, 1) and hash(m) == hash(Mat2(2, 1, 1, 1))
    assert m != Mat2(2, -1, -1, 1)
    report = JReport(1.0, (m, m), 2.0)
    assert report == JReport(1.0, (m, m), 2.0)
    assert hash(report) == hash(JReport(1.0, (m, m), 2.0))
    # an object of another class is unequal, even with the same field values
    assert m != (2, 1, 1, 1)
    assert m.__eq__(report) is NotImplemented


def test_fields_cannot_be_assigned_or_deleted():
    m = Mat2(2, 1, 1, 1)
    with pytest.raises(AttributeError):
        m.a = 3
    with pytest.raises(AttributeError):
        del m.b
    with pytest.raises(AttributeError):
        m.extra = 0
    assert m.entries() == (2, 1, 1, 1)


def test_post_init_rebound_on_the_class_runs_on_the_next_construction(monkeypatch):
    seen = []
    validate = Mat2.__post_init__

    def counted(m):
        seen.append(m.entries())
        validate(m)

    monkeypatch.setattr(Mat2, "__post_init__", counted)
    Mat2(2, 1, 1, 1)
    assert seen == [(2, 1, 1, 1)]
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    assert len(seen) == 2


def test_inverse_and_power():
    m = Mat2(2, 1, 1, 1)
    assert (m @ m.inv()).is_identity_proj()
    assert m.power(0).is_identity_proj()
    assert proj_dist(m.power(5), m @ m @ m @ m @ m) <= 1e-12
    assert proj_dist(m.power(-3), m.inv().power(3)) <= 1e-12


def test_proj_eq_ignores_sign():
    m = Mat2(2, 1, 1, 1)
    neg = Mat2(-2, -1, -1, -1)
    assert m.proj_eq(neg)
    assert proj_dist(m, neg) == 0.0
    assert not m.proj_eq(A)


# --- classification -------------------------------------------------------

def test_classify_identity_and_parabolic():
    assert classify(IDENT).kind == "identity"
    assert classify(Mat2(-1, 0, 0, -1)).kind == "identity"
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


# --- elementarity ---------------------------------------------------------

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
    assert abs(rep.commutator_trace - (2.0 + (0.5 + 0.8660254037844386j) ** 2)) <= 1e-12


def _assert_matches_group_commutator(x, y):
    size = max(abs(e) for e in x.entries()) * max(abs(e) for e in y.entries())
    ref = commutator(x, y).trace - 2.0
    assert abs(commutator_dev(x, y) - ref) <= 1e-12 * (1.0 + size) ** 2


def test_commutator_dev_matches_the_group_commutator():
    rng = random.Random(20261018)

    def unit():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def sl2():
        a, b, c = unit(), unit(), unit()
        while abs(a) < 0.3:
            a = unit()
        return Mat2(a, b, c, (1 + b * c) / a)

    for _ in range(500):
        _assert_matches_group_commutator(sl2(), sl2())
    ball = [Mat2(*(complex(e) for e in m.ravel()))
            for level in ball_levels(bianchi_generators(7), 3)[1:] for m in level]
    for x in ball:
        for y in ball:
            _assert_matches_group_commutator(x, y)


@pytest.mark.parametrize("k", [1e100, 1e160, 1e200, 1e300])
def test_commutator_dev_takes_either_order_of_a_huge_gtk_pair(k):
    # tr^2 B overflows from k of about 1e154 on; the parabolic A has r = 0,
    # so tr [A, B] - 2 = -e^{2 i theta} in both orders, and J(B, A) may be
    # inf (its |tr^2 B - 4| overflows) but not NaN
    a, b = gtk_generators(GtkParams(1, 5, k)).mats
    dev = commutator_dev(a, b)
    assert commutator_dev(b, a) == dev
    assert abs(dev + cmath.exp(2j * math.pi / 5)) <= 1e-12
    assert is_nonelementary(a, b) and is_nonelementary(b, a)
    assert not math.isnan(jorgensen_pair(b, a).value)


def test_jorgensen_parabolic_commutator_identity():
    # for A = [[1,1],[0,1]] and B = [[1,0],[c,1]]: tr [A,B] - 2 = c^2
    for c in (0.3, 1 + 1j, -2.5j, 2.1 + 0.7j):
        rep = jorgensen_pair(A, lower(c))
        assert abs(rep.value - abs(c) ** 2) <= 1e-12


def _sl2(a, b, c):
    # deterministic SL2 lift from three free complex parameters; stay away
    # from the 1 + a = 0 singularity so entries remain well conditioned
    assume(abs(1 + a) >= 0.1)
    m = Mat2(1 + a, b, c, 1 + (b * c - a) / (1 + a))
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


def _conj(p, m):
    return p @ m @ p.inv()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cx, cx, cx, cx, cx, cx, cx)
def test_pairs_with_a_common_fixed_point_are_elementary(a, b, c, d, pa, pb, pc):
    # upper-triangular matrices all fix inf, so their conjugates by one P
    # all fix P(inf): the commutator trace is 2 up to rounding
    assume(abs(1 + a) >= 0.5 and abs(1 + d) >= 0.5)
    try:
        p = _sl2(pa, pb, pc)
        x = _conj(p, Mat2(1 + a, b, 0, 1 / (1 + a)))
        y = _conj(p, Mat2(1 + d, c, 0, 1 / (1 + d)))
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    assert not is_nonelementary(x, y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cx, cx, cx, cx, cx, cx, cx)
def test_pairs_without_a_common_fixed_point_are_nonelementary(a, b, c, d, pa, pb, pc):
    # u = [[e1, b], [0, 1/e1]] fixes inf and b / s1, l = [[e2, 0], [c, 1/e2]]
    # fixes 0 and s2 / c; with b, c != 0 only the two finite points could
    # meet, and they are kept 0.1 apart
    e1, e2 = 1 + a, 1 + d
    assume(abs(e1) >= 0.5 and abs(e2) >= 0.5 and abs(b) >= 0.1 and abs(c) >= 0.1)
    s1, s2 = 1 / e1 - e1, e2 - 1 / e2
    assume(abs(b * c - s1 * s2) >= 0.1 * abs(s1 * c))
    try:
        p = _sl2(pa, pb, pc)
        x = _conj(p, Mat2(e1, b, 0, 1 / e1))
        y = _conj(p, Mat2(e2, 0, c, 1 / e2))
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    assert is_nonelementary(x, y)
