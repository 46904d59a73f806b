"""Two-bridge representation polynomials, root selection, and J reports."""

import math

import pytest

from jnum.intpoly import IntPoly
from jnum.riley import (
    RILEY_A,
    GeometricRootError,
    TwoBridge,
    knot_jreport,
    knot_poly,
    link_jreport,
    link_poly,
    normalize,
    riley_b,
    select_geometric_root,
    solve_roots,
    subset_oracle_poly,
    word_matrix,
)
from jnum.words import GeneratorSet, first_violation, inequality_sweep

OMEGA = 0.5 + 0.8660254037844386j  # primitive sixth root of unity


def coprime_fractions(p_max):
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


# ---------------------------------------------------------------------------
# fractions


def test_two_bridge_validation():
    with pytest.raises(ValueError):
        TwoBridge(1, 1)
    with pytest.raises(ValueError):
        TwoBridge(7, 0)
    with pytest.raises(ValueError):
        TwoBridge(7, 7)
    with pytest.raises(ValueError):
        TwoBridge(6, 3)
    assert TwoBridge(2, 1).is_knot is False
    assert TwoBridge(5, 3).is_knot is True


def test_normalize_wraps_q():
    assert normalize(7, 10) == TwoBridge(7, 3)
    assert normalize(7, -4) == TwoBridge(7, 3)
    with pytest.raises(ValueError):
        normalize(7, 14)


def test_exponents():
    assert TwoBridge(9, 5).exponents() == (1, -1, -1, 1, 1, -1, -1, 1)
    assert TwoBridge(8, 3).exponents() == (1, 1, -1, -1, -1, 1, 1)
    # palindromic for odd q, and genuinely not in general
    for p, q in [(7, 3), (11, 7), (13, 5), (8, 3)]:
        e = TwoBridge(p, q).exponents()
        assert e == e[::-1]
    assert TwoBridge(5, 2).exponents() == (1, 1, -1, -1)


# ---------------------------------------------------------------------------
# polynomials


def test_knot_poly_frozen_values():
    assert knot_poly(5, 3).coeffs == (1, -1, 1)
    assert knot_poly(5, 2).coeffs == (1, 1, 1)
    assert knot_poly(7, 3).coeffs == (1, 2, 1, 1)
    assert knot_poly(9, 5).coeffs == (1, -2, 3, -1, 1)


def test_knot_poly_shape():
    for p, q in coprime_fractions(13):
        if p % 2 == 0:
            continue
        poly = knot_poly(p, q)
        assert poly.coeffs[0] == 1
        assert poly.degree == (p - 1) // 2


def test_knot_poly_rejects_links():
    with pytest.raises(ValueError):
        knot_poly(8, 3)


def test_link_poly_frozen_values():
    lp = link_poly(8, 3)
    assert lp.raw.coeffs == (0, 0, -2, -2, -1)
    assert lp.normalized.coeffs == (2, 2, 1)
    lp = link_poly(4, 1)
    assert lp.raw.coeffs == (0, 2, 1)
    assert lp.normalized.coeffs == (2, 1)


def test_link_poly_shape():
    for p, q in coprime_fractions(12):
        if p % 2 == 1:
            continue
        lp = link_poly(p, q)
        assert lp.raw.coeffs[0] == 0
        assert lp.raw.degree == p // 2
        assert lp.normalized.coeffs[-1] > 0
        shifted = lp.raw.shifted_down(lp.raw.valuation())
        assert lp.normalized in (shifted, -shifted)


def test_link_poly_rejects_knots():
    with pytest.raises(ValueError):
        link_poly(7, 3)


def test_dp_matches_subset_oracle():
    # the dynamic program against a brute-force expansion of all 2^(p-1)
    # alternating subsets, for every admissible fraction the oracle covers
    for p, q in coprime_fractions(13):
        if p % 2 == 1:
            assert knot_poly(p, q) == subset_oracle_poly(p, q)
        else:
            assert link_poly(p, q).raw == subset_oracle_poly(p, q)


def test_subset_oracle_cap():
    with pytest.raises(ValueError):
        subset_oracle_poly(15, 11)


# ---------------------------------------------------------------------------
# the symbolic word matrix


def test_word_matrix_entries_are_the_polynomials():
    for p, q in [(5, 3), (7, 3), (9, 5), (13, 5)]:
        assert word_matrix(p, q).d == knot_poly(p, q)
    for p, q in [(4, 1), (8, 3), (12, 5)]:
        assert word_matrix(p, q).c == link_poly(p, q).raw


def test_word_matrix_det_is_one():
    for p, q in [(5, 3), (7, 3), (9, 5), (8, 3), (4, 1)]:
        w = word_matrix(p, q)
        assert w.a * w.d - w.b * w.c == IntPoly.from_list([1])


def test_word_matrix_eval_matches_direct_product():
    # W = B^e1 A^e2 B^e3 ... with the alternation starting at B
    z = 0.3 + 1.1j
    for p, q in [(7, 3), (8, 3), (9, 5)]:
        tb = TwoBridge(p, q)
        m = None
        for i, e in enumerate(tb.exponents()):
            letter = riley_b(z) if i % 2 == 0 else RILEY_A
            step = letter if e == 1 else letter.inv()
            m = step if m is None else m @ step
        w = word_matrix(p, q).eval(z)
        dev = max(abs(x - y) for x, y in zip(w.entries(), m.entries()))
        assert dev <= 1e-12


def test_intertwining_holds_at_every_root():
    # A W = W B at each root of the knot polynomial, not just the chosen one
    wsym = word_matrix(9, 5)
    for z in solve_roots(knot_poly(9, 5)).roots:
        w = wsym.eval(z)
        b = riley_b(z)
        dev = max(abs(x - y)
                  for x, y in zip((RILEY_A @ w).entries(), (w @ b).entries()))
        assert dev <= 1e-12


# ---------------------------------------------------------------------------
# roots


def test_solve_roots_figure_eight_sixth_roots():
    rs = solve_roots(knot_poly(5, 3))
    assert rs.residual <= 1e-12
    got = sorted(rs.roots, key=lambda z: z.imag)
    assert abs(got[0] - OMEGA.conjugate()) <= 1e-12
    assert abs(got[1] - OMEGA) <= 1e-12


def test_select_geometric_root_52():
    ch = select_geometric_root(TwoBridge(7, 3))
    assert ch.index == 2
    assert not ch.ambiguous
    assert len(ch.survivors) == 1
    assert ch.rejected == ()
    assert abs(ch.z - (-0.215079854501 + 1.307141278682j)) <= 1e-9


def test_select_geometric_root_screens_out_bad_candidates():
    # 9/5 has two conjugate pairs; the screen must reject the non-geometric one
    ch = select_geometric_root(TwoBridge(9, 5))
    assert len(ch.survivors) == 1
    assert len(ch.rejected) == 1
    bad_root, bad_j = ch.rejected[0]
    assert bad_j < 1.0
    assert abs(ch.z - (0.104876617740 + 1.552491820062j)) <= 1e-9
    assert abs(bad_root - (0.395123382260 + 0.506843901806j)) <= 1e-9


def test_root_index_bypasses_the_screen():
    ch = select_geometric_root(TwoBridge(7, 3), root_index=0)
    assert ch.index == 0
    assert ch.z.imag == 0
    assert ch.survivors == () and ch.rejected == ()
    with pytest.raises(IndexError):
        select_geometric_root(TwoBridge(7, 3), root_index=3)


# ---------------------------------------------------------------------------
# reports


def test_knot_report_figure_eight():
    rep = knot_jreport(5, 3)
    assert abs(rep.jorgensen - 1.0) <= 1e-9
    assert abs(rep.z - OMEGA) <= 1e-12
    assert rep.waist == pytest.approx(1.0, abs=1e-12)
    assert rep.poly == knot_poly(5, 3)
    assert not rep.ambiguous
    kinds = [k.kind for k in rep.pair.kinds]
    assert kinds == ["parabolic", "loxodromic"]


def test_knot_report_52_is_the_plastic_number():
    rep = knot_jreport(7, 3)
    assert abs(rep.jorgensen - 1.324717957244747) <= 1e-9
    # |z| is the real root of x^3 - x - 1
    j = rep.jorgensen
    assert abs(j ** 3 - j - 1.0) <= 1e-12
    assert rep.waist == pytest.approx(math.sqrt(j), abs=1e-12)


def test_knot_report_rejects_link_fraction():
    with pytest.raises(ValueError):
        knot_jreport(8, 3)


def test_link_report_whitehead():
    rep = link_jreport(8, 3)
    assert abs(rep.jorgensen - 2.0) <= 1e-9
    assert abs(rep.z - (-1 + 1j)) <= 1e-9
    assert rep.waist == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.poly.coeffs == (2, 2, 1)


def test_link_report_rejects_knot_fraction():
    with pytest.raises(ValueError):
        link_jreport(7, 3)


def test_link_report_no_geometric_root():
    # 4/1 has only real roots: nothing survives the screen
    with pytest.raises(GeometricRootError):
        link_jreport(4, 1)


def test_root_index_reaches_a_rejected_representation():
    rep = knot_jreport(7, 3, root_index=0)
    assert rep.z.imag == 0
    assert rep.jorgensen < 1.0


def test_sample_len_passthrough():
    rep = knot_jreport(5, 3, sample_len=2)
    assert abs(rep.jorgensen - 1.0) <= 1e-9


def test_refusal_carries_the_screen():
    # 25/23 has an odd q but its chosen root misses A W = W B by more than
    # MAT_EPS: the refusal keeps the solved roots and the screen's verdicts
    with pytest.raises(GeometricRootError) as exc:
        knot_jreport(25, 23)
    choice = exc.value.choice
    assert choice.index == 11 and choice.screened
    assert len(choice.roots.roots) == 12
    assert len(choice.rejected) == 5


def test_report_carries_its_choice():
    rep = link_jreport(8, 3)
    assert rep.choice.roots.poly == rep.poly == link_poly(8, 3).normalized
    assert rep.choice.link_raw == link_poly(8, 3).raw
    assert knot_jreport(7, 3).choice.link_raw is None


@pytest.mark.parametrize("z, violated", [(0.1, True), (OMEGA, False)])
def test_first_violation_is_the_cheapest_sweep_violation(z, violated):
    # both come from one stream of pair candidates confirmed in ascending J
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(z)))
    hit = first_violation(gens, 3)
    violations = inequality_sweep(gens, 3).violations
    assert bool(violations) is violated
    assert (hit is None) is (not violations)
    if violated:
        assert hit[0] == min(v[0] for v in violations)
        assert [v[0] for v in violations] == sorted(v[0] for v in violations)
