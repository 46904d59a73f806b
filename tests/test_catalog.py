"""Fixture tables, Bianchi relators, and the catalog of J = 1 pairs."""

import cmath
import json
import math
from importlib import resources

import jsonschema
import pytest

from jnum.arith import QuadImagField, recognize_invariant_field, recognize_quad_imaginary
from jnum.catalog import (
    BIANCHI_DS,
    GtkParams,
    arithcomp_table,
    bianchi_alpha,
    bianchi_generators,
    bianchi_relations,
    family_match,
    geodesic_defect_bound,
    gtk_families,
    gtk_generators,
    knot_table,
    losid_identity_suite,
    verify_relations,
)
from jnum.linalg import jorgensen_pair, proj_dist
from jnum.words import Word
from oracles import unit_j_pairs

RT3 = math.sqrt(3.0)


def load_data(name):
    return json.loads((resources.files("jnum") / "data" / name).read_text())


# ---------------------------------------------------------------------------
# data files obey their schema


@pytest.mark.parametrize("name,ref", [
    ("arithcomp.json", "arithcomp"),
    ("knot_table.json", "knot_table"),
    ("gtk_families.json", "gtk_families"),
])
def test_data_file_matches_schema(name, ref):
    schema = load_data("fixtures_schema.json")
    jsonschema.validate(load_data(name),
                        {"$ref": f"#/$defs/{ref}", "$defs": schema["$defs"]})


# ---------------------------------------------------------------------------
# generator constructions


def test_gtk_params_validation():
    with pytest.raises(ValueError):
        GtkParams(0, 6, 1.0)
    with pytest.raises(ValueError):
        GtkParams(1, 0, 1.0)
    with pytest.raises(ValueError):
        GtkParams(1, 6, 0.0)


def test_gtk_j_is_one_for_any_parameters():
    # J(A, B(theta, k)) = 1 identically: tr [A, B] - 2 = -e^(2 i theta)
    for num, den in [(1, 6), (1, 4), (1, 3), (1, 2), (2, 5), (3, 7), (5, 6)]:
        for k in (0.3, 0.5, 1.0, 1.7, 2.5):
            gens = gtk_generators(GtkParams(num, den, k))
            jr = jorgensen_pair(*gens.mats)
            assert abs(jr.value - 1.0) <= 1e-12
            theta = math.pi * num / den
            assert abs(jr.commutator_trace - (2 - cmath.exp(2j * theta))) <= 1e-12


def test_gtk_theta_plus_pi_gives_the_same_group():
    b1 = gtk_generators(GtkParams(1, 6, 0.7)).mats[1]
    b2 = gtk_generators(GtkParams(7, 6, 0.7)).mats[1]
    assert proj_dist(b1, b2) <= 1e-12


def test_gtk_theta_is_reduced_mod_two_pi_before_rounding():
    # pi (10^20 - 1) / 3 is pi mod 2 pi, which the float product loses
    assert GtkParams(99999999999999999999, 3, 1.0).theta == GtkParams(3, 3, 1.0).theta
    for num, den in [(1, 6), (5, 4), (11, 6), (3, 2)]:
        assert GtkParams(num, den, 1.0).theta == math.pi * num / den


# ---------------------------------------------------------------------------
# Bianchi groups


def test_bianchi_alpha():
    assert abs(bianchi_alpha(1) - 1j) <= 1e-15
    assert abs(bianchi_alpha(2) - 1j * math.sqrt(2)) <= 1e-15
    assert abs(bianchi_alpha(3) - (0.5 + 0.5j * RT3)) <= 1e-15
    assert abs(bianchi_alpha(7) - (0.5 + 0.5j * math.sqrt(7))) <= 1e-15
    with pytest.raises(ValueError):
        bianchi_alpha(5)


def test_bianchi_relator_counts():
    counts = {d: len(bianchi_relations(d)) for d in BIANCHI_DS}
    assert counts == {1: 6, 2: 4, 3: 6, 7: 4, 11: 4}
    with pytest.raises(ValueError):
        bianchi_relations(5)


@pytest.mark.parametrize("d", BIANCHI_DS)
def test_bianchi_relators_hold(d):
    devs = verify_relations(bianchi_generators(d), bianchi_relations(d))
    assert max(devs) <= 1e-9
    assert len(devs) == len(bianchi_relations(d))


def test_verify_relations_detects_a_non_relator():
    devs = verify_relations(bianchi_generators(1),
                            [Word.parse("ATAT", ("A", "S", "T"))])
    assert not max(devs) <= 1e-9
    assert max(devs) > 1.0


# ---------------------------------------------------------------------------
# the arithmetic comparison table


def test_arithcomp_shape():
    table = arithcomp_table()
    assert len(table) == 16
    assert len({e.label for e in table}) == 16


def test_arithcomp_j_values():
    for e in arithcomp_table():
        j = jorgensen_pair(*e.generators.mats).value
        assert abs(j - e.expected_j) <= 1e-6, e.label
        assert abs(j - abs(e.c) ** 2) <= 1e-6, e.label


def test_arithcomp_fields():
    # c^2 = tr [A, B] - 2 lies in the recorded invariant field for every row
    for e in arithcomp_table():
        field = recognize_quad_imaginary(e.c ** 2)
        assert field == QuadImagField(e.field_d), e.label


# ---------------------------------------------------------------------------
# the knot table


def test_knot_table_shape():
    table = knot_table()
    assert [r.label for r in table] == ["5_2", "6_1", "7_4", "7_7"]
    assert [(r.p, r.q) for r in table] == [(7, 3), (9, 5), (15, 11), (21, 13)]


def test_knot_table_rows_are_consistent():
    for r in knot_table():
        assert r.p % 2 == 1 and 0 < r.q < r.p
        assert abs(r.minpoly(r.z)) <= 1e-6, r.label
        assert abs(abs(r.z) - r.jorgensen) <= 1e-6, r.label
        assert 1.0 < r.jorgensen < 4.0
        # a geodesic of length 3 has |tr| = 2 cosh(3/2), hence defect at
        # least 4 sinh^2(3/2); every table alpha sits safely below that,
        # so scanning classes of length < 3 suffices
        assert 0.0 < r.alpha < 4.0 * math.sinh(1.5) ** 2
        assert 4.0 * math.sinh(1.5) ** 2 == pytest.approx(
            geodesic_defect_bound() ** 2 - 4.0, abs=1e-9)


def test_geodesic_defect_bound_value():
    assert geodesic_defect_bound() == pytest.approx(2.0 * math.cosh(1.5), abs=1e-12)


# ---------------------------------------------------------------------------
# the G(theta, k) family table


def test_gtk_families_shape():
    rows = gtk_families()
    assert len(rows) == 12
    assert len({r.label for r in rows}) == 12
    assert sum(r.arithmetic for r in rows) == 8
    for r in rows:
        # field and identification are recorded exactly for the arithmetic rows
        assert (r.field_d is not None) == r.arithmetic
        assert (r.identification is not None) == r.arithmetic


def test_gtk_families_fields_recognized():
    for r in gtk_families():
        field = recognize_invariant_field(*r.generators().mats)
        if r.arithmetic:
            assert field == QuadImagField(r.field_d), r.label
        else:
            assert field is None, r.label


def test_family_match_direct_rows():
    for r in gtk_families():
        m = family_match(r.params)
        assert m is not None and m.row.label == r.label
        assert m.identification == r.identification


def test_family_match_scaled_rows():
    m = family_match(GtkParams(1, 6, RT3))  # n = 2
    assert m.n == 2
    assert m.identification == ("Z2-extension of the figure-eight knot group "
                                "(involution swapping the parabolic generators)")
    m = family_match(GtkParams(1, 6, 1.5 * RT3))  # n = 3: back to the knot group
    assert m.n == 3
    assert m.identification == "figure-eight knot group"
    m = family_match(GtkParams(1, 3, RT3))  # n = 2 over the enlarged field
    assert m.n == 2
    assert m.identification.endswith("; enlarged trace field)")
    m = family_match(GtkParams(4, 3, RT3))  # theta = pi/3 + pi: the same group
    assert m.n == 2 and m.identification.endswith("; enlarged trace field)")
    m = family_match(GtkParams(1, 3, RT3 / 2))
    assert m.n == 1
    assert "inverting each parabolic generator" in m.identification


def test_scaled_rows_match_only_where_k_resolves_param_eps():
    half_rt3 = math.sqrt(3.0) / 2.0
    for den in (6, 3):
        for n in range(1, 1001):
            m = family_match(GtkParams(1, den, n * half_rt3))
            assert m is not None and m.n == n, (den, n)
        # the float spacing of k passes PARAM_EPS at k = 2^23
        n = int(2.0 ** 23 / half_rt3)
        assert family_match(GtkParams(1, den, n * half_rt3)).n == n
        assert family_match(GtkParams(1, den, (n + 1) * half_rt3)) is None


def test_family_match_misses():
    assert family_match(GtkParams(1, 5, 0.9)) is None
    assert family_match(GtkParams(1, 6, 0.9)) is None
    assert family_match(GtkParams(1, 4, 0.5 + 1e-6)) is None
    assert family_match(GtkParams(1, 4, 0.5 + 1e-12)) is not None


# ---------------------------------------------------------------------------
# J = 1 catalog and the identity suite


def test_unit_j_pairs():
    pairs = unit_j_pairs()
    assert len(pairs) == 17
    assert len({label for label, _ in pairs}) == 17
    for label, gens in pairs:
        assert abs(jorgensen_pair(*gens.mats).value - 1.0) <= 1e-9, label


def test_identity_suite_all_hold():
    suite = losid_identity_suite()
    assert len(suite) == 37
    assert len({c.label for c in suite}) == 37
    for check in suite:
        assert check.deviation <= 1e-9, f"{check.label}: deviation {check.deviation}"


def test_identity_suite_negated_convention():
    # the one "!= 1" check records 0.0 for genuinely distinct matrices
    neg = [c for c in losid_identity_suite() if "!=" in c.label]
    assert len(neg) == 1
    assert neg[0].deviation == 0.0
