"""Two-bridge representation polynomials, root selection, and J reports."""

import math

import pytest

from jnum import words
from jnum.intpoly import IntPoly
from jnum.linalg import classify
from jnum.riley import (
    RILEY_A,
    SCREEN_LEN,
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
from jnum.words import GeneratorSet, SearchError, first_violation, inequality_sweep

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


def test_solve_roots_gives_exact_reals_and_conjugate_pairs():
    # the roots are eigenvalues of a real companion matrix: a real root has
    # imaginary part exactly 0, and a non-real root's conjugate is a root
    # bit for bit
    for p, q in coprime_fractions(31):
        if p < 5:
            continue
        poly = knot_poly(p, q) if p % 2 else link_poly(p, q).normalized
        roots = solve_roots(poly).roots
        assert len(roots) == poly.degree
        for z in roots:
            assert z.imag == 0.0 or z.conjugate() in roots, (p, q, z)


def test_coefficient_past_float64_is_refused():
    # 10**400 has no float64 value, so no root can be computed
    with pytest.raises(SearchError, match="float64"):
        solve_roots(IntPoly((1, 1, 10 ** 400)))


@pytest.mark.parametrize("q,root,index", [(7, -1.0, 4), (17, 1.0, 7)])
def test_triple_root_comes_out_exact_and_real(q, root, index):
    # the link polynomial of 24/7 is (z + 1)^3 times a square-free octic,
    # that of 24/17 (z - 1)^3 times one: the triple root is three exact
    # copies, all real, so none of them is screened
    ch = select_geometric_root(TwoBridge(24, q))
    copies = [i for i, z in enumerate(ch.roots.roots) if z == root]
    assert len(copies) == 3
    assert all(ch.roots.roots[i].imag == 0.0 and ch.statuses[i] == "real"
               for i in copies)
    assert all(abs(z - root) > 1e-3 for z in ch.roots.roots if z != root)
    assert len(ch.roots.roots) == ch.roots.poly.degree
    assert ch.index == index
    assert ch.ambiguous
    rep = link_jreport(24, q)
    assert abs(rep.jorgensen - 2.89005363826396) <= 1e-12


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
    assert ch.statuses == ("real", "conjugate", "unscreened")
    with pytest.raises(IndexError):
        select_geometric_root(TwoBridge(7, 3), root_index=3)


def test_screen_length_below_two_is_refused():
    # range(2, 2) would screen nothing and leave every upper root a survivor
    with pytest.raises(ValueError, match="below 2"):
        select_geometric_root(TwoBridge(20, 9), sample_len=1)


# ---------------------------------------------------------------------------
# reports


def test_knot_report_figure_eight():
    rep = knot_jreport(5, 3)
    assert abs(rep.jorgensen - 1.0) <= 1e-9
    assert abs(rep.z - OMEGA) <= 1e-12
    assert rep.waist == pytest.approx(1.0, abs=1e-12)
    assert rep.poly == knot_poly(5, 3)
    assert not rep.choice.ambiguous
    assert [classify(m).kind for m in rep.pair.pair] == ["parabolic", "loxodromic"]


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
    # 27/16 has an even q and its chosen root misses A W = W B by far more
    # than the root's error: the refusal keeps the solved roots and the
    # screen's verdicts
    with pytest.raises(GeometricRootError) as exc:
        knot_jreport(27, 16)
    choice = exc.value.choice
    assert choice.index == 10
    assert len(choice.roots.roots) == len(choice.statuses) == 13
    assert choice.statuses[10] == "survivor"
    assert choice.statuses.count("rejected") == 4
    assert "unscreened" not in choice.statuses
    assert [j is not None for j in choice.screen_j] == [
        s == "rejected" for s in choice.statuses]
    assert len(choice.rejected) == 4


def test_report_carries_its_choice():
    rep = link_jreport(8, 3)
    assert rep.choice.roots.poly == rep.poly == link_poly(8, 3).normalized
    assert rep.choice.link_raw == link_poly(8, 3).raw
    assert knot_jreport(7, 3).choice.link_raw is None


@pytest.mark.parametrize("z, violated", [(0.1, True), (OMEGA, False)])
def test_first_violation_is_the_cheapest_sweep_violation(z, violated):
    # at z = 0.1 the least J is 0.0100 at radius 2 and 1.0e-4 at radius 3:
    # the radius-3 screen stops at radius 2 and returns that ball's cheapest
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(z)))
    hit = first_violation(gens, 3)
    radius2 = inequality_sweep(gens, 2).violations
    radius3 = inequality_sweep(gens, 3).violations
    assert bool(radius3) is violated
    assert (hit is None) is (not radius3)
    if violated:
        assert hit[0] == min(v[0] for v in radius2)
        assert min(v[0] for v in radius3) < hit[0]
        assert [v[0] for v in radius3] == sorted(v[0] for v in radius3)


def test_first_violation_refuses_a_radius_below_two():
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.1)))
    with pytest.raises(ValueError, match="below 2"):
        first_violation(gens, 1)


def test_screen_builds_one_ball_per_root(monkeypatch):
    # 7/3 screens one root; its radii 2..6 are all read from one ball
    calls = []
    ball_levels = words.ball_levels

    def counted(gens, max_len):
        calls.append(max_len)
        return ball_levels(gens, max_len)

    monkeypatch.setattr(words, "ball_levels", counted)
    ch = select_geometric_root(TwoBridge(7, 3))
    assert ch.statuses.count("survivor") == 1
    assert calls == [SCREEN_LEN]
