"""Field recognition and the parabolic-elliptic arithmetic screen."""

import math

import pytest

from jnum import arith
from jnum.arith import (
    ELLIPTIC_ORDERS,
    EllipticCandidate,
    QuadImagField,
    elliptic_j_value,
    elliptic_type_check,
    invariant_trace_field_generators,
    recognize_invariant_field,
    recognize_quad_imaginary,
)
from jnum.catalog import GtkParams, gtk_generators
from jnum.linalg import Mat2

OMEGA = 0.5 + 0.8660254037844386j


# ---------------------------------------------------------------------------
# fields


def test_field_validation():
    with pytest.raises(ValueError):
        QuadImagField(0)
    with pytest.raises(ValueError):
        QuadImagField(4)
    with pytest.raises(ValueError):
        QuadImagField(12)


def test_field_name():
    assert QuadImagField(2).name == "Q(sqrt(-2))"


def test_recognize_quad_imaginary():
    assert recognize_quad_imaginary(OMEGA) == QuadImagField(3)
    assert recognize_quad_imaginary(1 + 1j) == QuadImagField(1)
    assert recognize_quad_imaginary(2j) == QuadImagField(1)
    assert recognize_quad_imaginary(0.5j) is None  # 4x^2 + 1 is not monic integral
    assert recognize_quad_imaginary(math.pi + 0j) is None
    assert recognize_quad_imaginary(0.3 + 0.7j) is None


def test_recognize_quad_imaginary_refuses_non_finite_values():
    # b and c are not finite here, so nothing is rounded
    for x in (complex(1e200, 1e200), complex(math.inf, 1), complex(math.nan, math.nan)):
        assert recognize_quad_imaginary(x) is None


# ---------------------------------------------------------------------------
# trace fields of a pair


def test_invariant_generators_traceless_cases():
    s = Mat2(0, -1, 1, 0)
    x = Mat2(1, 1, 0, 1)
    gens = invariant_trace_field_generators(s, x)
    assert len(gens) == 2 and gens[0] == 4
    with pytest.raises(ValueError):
        invariant_trace_field_generators(s, Mat2(0, -1j, -1j, 0))


def test_recognize_invariant_field_figure_eight():
    x = Mat2(1, 1, 0, 1)
    y = Mat2(1, 0, OMEGA, 1)
    assert recognize_invariant_field(x, y) == QuadImagField(3)


def test_recognize_invariant_field_needs_every_generator():
    # G(pi/3, 1/2): tr^2 B lies in Q(sqrt(-3)), but tr A tr B tr AB =
    # (sqrt 3 - 1) + (sqrt 3 + 1) i lies in no imaginary quadratic field
    a, b = gtk_generators(GtkParams(1, 3, 0.5)).mats
    gens = invariant_trace_field_generators(a, b)
    assert recognize_quad_imaginary(gens[1]) == QuadImagField(3)
    assert recognize_quad_imaginary(gens[2]) is None
    assert recognize_invariant_field(a, b) is None
    # G(pi/2, (1 + sqrt 5)/4): the real generator -(3 + sqrt 5)/2 is no integer
    a, b = gtk_generators(GtkParams(1, 2, (1.0 + math.sqrt(5.0)) / 4.0)).mats
    assert abs(invariant_trace_field_generators(a, b)[1] + 2.618033988749895) < 1e-12
    assert recognize_invariant_field(a, b) is None


# ---------------------------------------------------------------------------
# the elliptic screen


def test_admissible_orders():
    assert ELLIPTIC_ORDERS == (7, 8, 9, 10, 11, 12, 14, 16, 18, 24, 30)


def test_admissible_orders_stop_at_41():
    # the module docstring proves that no n >= 42 passes the sign test
    assert [n for n in range(42, 400) if arith._places_ramify(n)] == []
    # n = 6 passes it and fails condition 1 only because n < 7
    assert arith._places_ramify(6)


def test_candidate_conjugate_count_validation():
    EllipticCandidate(7, 6.0)                        # none supplied
    EllipticCandidate(7, 6.0, (0.5, 0.5))            # one per real place
    with pytest.raises(ValueError):
        EllipticCandidate(7, 6.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        # labels k and n - k are the same real place: not the full orbit
        EllipticCandidate(7, 6.0, (0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ValueError):
        EllipticCandidate(2, 6.0)


def test_candidate_keywords_and_defaults():
    cand = EllipticCandidate(tr2B=6.0, n=7, trB_integral=False)
    assert (cand.tr2B_conjugates, cand.trAB_integral, cand.trB_integral) == ((), True, False)
    assert cand == EllipticCandidate(7, 6.0, (), True, False)
    with pytest.raises(TypeError, match="missing argument 'tr2B'"):
        EllipticCandidate(7)
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        EllipticCandidate(7, 6.0, n=8)
    with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
        EllipticCandidate(7, 6.0, m=8)
    with pytest.raises(TypeError, match="takes 5 positional arguments"):
        EllipticCandidate(7, 6.0, (), True, True, True)


def test_candidate_places():
    half = EllipticCandidate(7, 6.0, (0.1, 0.2))
    labels = arith._conjugate_labels(half.n)
    assert tuple(zip(labels, half.tr2B_conjugates)) == ((2, 0.1), (3, 0.2))
    assert labels == (2, 3)
    assert EllipticCandidate(7, 6.0).tr2B_conjugates == ()


def test_screen_passing_candidate():
    rep = elliptic_type_check(EllipticCandidate(7, 6.0, (0.5, 0.5)))
    assert rep.failed == ()
    assert all(s == "pass" for s in rep.statuses)


def test_screen_rejects_inadmissible_order():
    rep = elliptic_type_check(EllipticCandidate(6, 5.0))
    assert rep.failed == (1,)
    # nothing beyond the order is wrong with this candidate
    assert rep.statuses[1] == "pass"


def test_screen_rejects_small_trace_and_bad_conjugates():
    rep = elliptic_type_check(EllipticCandidate(7, 5.0, (5.0, 5.0)))
    assert rep.failed == (2, 4)


def test_screen_unchecked_without_conjugates():
    rep = elliptic_type_check(EllipticCandidate(7, 6.0))
    assert rep.failed == ()  # unchecked conditions do not fail the screen
    assert rep.statuses[3] == "unchecked"


def test_screen_integrality_flags():
    rep = elliptic_type_check(
        EllipticCandidate(7, 6.0, (0.5, 0.5), trAB_integral=False,
                          trB_integral=False))
    assert rep.failed == (3, 6)


def test_elliptic_j_value():
    for n in ELLIPTIC_ORDERS:
        assert abs(elliptic_j_value(n) - 1.0) <= 1e-12
    # below the admissible range the value moves away from 1
    assert abs(elliptic_j_value(3) - 5.0) <= 1e-12
    assert abs(elliptic_j_value(4) - 3.0) <= 1e-12
    assert elliptic_j_value(5) > 1.7
    with pytest.raises(ValueError):
        elliptic_j_value(2)
