"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints one "criterion NN: PASS/FAIL" line; pytest -v adds the
per-test verdicts through the test_criterion_NN_* names.
"""

import math
import time
from contextlib import contextmanager

from jnum.arith import (
    ELLIPTIC_ORDERS,
    EllipticCandidate,
    QuadImagField,
    elliptic_j_value,
    elliptic_type_check,
    recognize_invariant_field,
)
from jnum.catalog import (
    BIANCHI_DS,
    GtkParams,
    arithcomp_table,
    bianchi_generators,
    bianchi_relations,
    gtk_families,
    gtk_generators,
    knot_table,
    losid_identity_suite,
    verify_relations,
)
from jnum.linalg import jorgensen_pair
from jnum.riley import (
    RILEY_A,
    knot_jreport,
    knot_poly,
    link_jreport,
    link_poly,
    riley_b,
)
from jnum.words import GeneratorSet, inequality_sweep, min_loxodromic_defect
from oracles import classify, commutator, subset_oracle_poly, unit_j_pairs

OMEGA = 0.5 + 0.8660254037844386j

TABLE_J = [1.32471796, 1.55603019, 2.20556943, 1.55603019]
TABLE_ALPHA = [4.219276205, 3.955211258, 4.434378815, 5.105997169]


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {text}")
        raise
    print(f"criterion {num:02d}: PASS - {text}")


def sign_matched_divides(poly, divisor):
    for d in (divisor, -divisor):
        try:
            poly.divexact(d)
            return True
        except ValueError:
            continue
    return False


def test_criterion_01_riley_oracle_equivalence():
    with criterion(1, "DP polynomial equals the subset oracle, coprime p <= 9"):
        start = time.perf_counter()
        for p in range(2, 10):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                if p % 2 == 1:
                    assert knot_poly(p, q) == subset_oracle_poly(p, q), (p, q)
                else:
                    assert link_poly(p, q).raw == subset_oracle_poly(p, q), (p, q)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_knot_table_reproduction():
    with criterion(2, "four tabulated knots: polynomial, root, J, unit ends"):
        start = time.perf_counter()
        for row, j_expected in zip(knot_table(), TABLE_J):
            dn = knot_poly(row.p, row.q)
            if dn.degree == row.minpoly.degree:
                assert dn in (row.minpoly, -row.minpoly), row.label
            else:
                # the table lists the minimal polynomial of the root, an
                # exact irreducible factor of the full polynomial
                assert sign_matched_divides(dn, row.minpoly), row.label
            rep = knot_jreport(row.p, row.q)
            z_dev = min(abs(rep.z - row.z), abs(rep.z - row.z.conjugate()))
            assert z_dev <= 1e-6, row.label
            assert abs(row.minpoly(rep.z)) <= 1e-6, row.label
            assert abs(rep.jorgensen - j_expected) <= 1e-6, row.label
            assert abs(dn.coeffs[0]) == 1 and abs(dn.coeffs[-1]) == 1, row.label
        assert time.perf_counter() - start < 1.0


def test_criterion_03_figure_eight_j_one():
    with criterion(3, "figure-eight knot: J = 1 at z = (1 +- i sqrt(3))/2"):
        rep = knot_jreport(5, 3)
        assert abs(rep.jorgensen - 1.0) <= 1e-9
        assert min(abs(rep.z - OMEGA), abs(rep.z - OMEGA.conjugate())) <= 1e-9


def test_criterion_04_whitehead_j_two():
    with criterion(4, "Whitehead link: J = 2"):
        rep = link_jreport(8, 3)
        assert abs(rep.jorgensen - 2.0) <= 1e-9


def test_criterion_05_bianchi_relators():
    with criterion(5, "all Bianchi relators evaluate to +-I, d in {1,2,3,7,11}"):
        for d in BIANCHI_DS:
            devs = verify_relations(bianchi_generators(d), bianchi_relations(d))
            assert max(devs) <= 1e-9, (d, max(devs))


def test_criterion_06_identity_suite():
    with criterion(6, "all cataloged word identities hold (cases 1-8)"):
        suite = losid_identity_suite()
        for check in suite:
            assert check.deviation <= 1e-9, (check.label, check.deviation)
        labels = {c.label for c in suite}
        for needed in ("case 6: S T = B", "case 7: S T = B", "case 8: S T = B",
                       "case 1 (n=2): D A D^-1 = C",
                       "case 5 (n=2): D A^-1 D^-1 = C"):
            assert needed in labels, needed


def test_criterion_07_arithmetic_comparison_j():
    with criterion(7, "all 16 comparison entries satisfy J = |c|^2"):
        table = arithcomp_table()
        assert len(table) == 16
        for e in table:
            j = jorgensen_pair(*e.generators.mats).value
            assert abs(j - abs(e.c) ** 2) <= 1e-6, e.label
            assert abs(j - e.expected_j) <= 1e-6, e.label


def test_criterion_08_inequality_sweep():
    with criterion(8, "no nonelementary pair below J = 1 at word length 5"):
        groups = [("figure-eight",
                   GeneratorSet(("A", "B"), (RILEY_A, riley_b(OMEGA))))]
        groups += [(f"Bianchi d={d}", bianchi_generators(d)) for d in BIANCHI_DS]
        for name, gens in groups:
            sweep = inequality_sweep(gens, 5)
            assert sweep.violations == (), (name, sweep.violations)
            assert sweep.n_pairs > 0, name


def test_criterion_09_conjugate_pair_j_one():
    with criterion(9, "J(X, YXY^-1) = 1 with the parabolic/elliptic dichotomy"):
        pairs = unit_j_pairs()
        assert len(pairs) == 17
        for label, gens in pairs:
            x, y = gens.mats
            w = y @ x @ y.inv()
            assert abs(jorgensen_pair(x, w).value - 1.0) <= 1e-9, label
            kind = classify(x).kind
            if kind == "parabolic":
                continue
            assert kind == "elliptic", (label, kind)
            assert abs((x @ w).trace - 1.0) <= 1e-9, label


def test_criterion_10_alpha_reproduction():
    with criterion(10, "minimum loxodromic defect matches the four alphas"):
        start = time.perf_counter()
        for row, alpha in zip(knot_table(), TABLE_ALPHA):
            rep = knot_jreport(row.p, row.q)
            gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(rep.z)))
            defect = min_loxodromic_defect(gens, 12)
            if abs(defect - alpha) > 1e-6:
                retry = min_loxodromic_defect(gens, 14)
                print(f"{row.label}: defect {defect:.9f} at length 12 missed "
                      f"alpha {alpha} by {abs(defect - alpha):.3e}; "
                      f"length 14 gives {retry:.9f}")
                defect = retry
            assert abs(defect - alpha) <= 1e-6, (row.label, defect, alpha)
        assert time.perf_counter() - start < 60.0


def test_criterion_11_elliptic_screen():
    with criterion(11, "elliptic J = 1 for admissible orders; fixtures fail"):
        for n in ELLIPTIC_ORDERS:
            assert abs(elliptic_j_value(n) - 1.0) <= 1e-12, n
        assert elliptic_type_check(EllipticCandidate(6, 5.0)).failed == (1,)
        bad = EllipticCandidate(7, 5.0, (5.0, 5.0))
        assert elliptic_type_check(bad).failed == (2, 4)


def test_criterion_12_field_recognition():
    with criterion(12, "invariant fields of the eight arithmetic families"):
        arithmetic = [r for r in gtk_families() if r.arithmetic]
        assert len(arithmetic) == 8
        for row in arithmetic:
            field = recognize_invariant_field(*row.generators().mats)
            assert field == QuadImagField(row.field_d), row.label
            assert row.field_d in (1, 2, 3), row.label
        stray = gtk_generators(GtkParams(1, 4, 1.0 + math.sqrt(2.0) / 2.0))
        assert recognize_invariant_field(*stray.mats) is None


def test_criterion_13_nielsen_modulus_stability():
    with criterion(13, "|tr[X,Y] - 2| stable under the four generator moves"):
        pairs = [e.generators for e in arithcomp_table()]
        pairs += [r.generators() for r in gtk_families() if r.arithmetic]
        assert len(pairs) == 24
        for gens in pairs:
            x, y = gens.mats
            base = abs(commutator(x, y).trace - 2.0)
            moves = [(y, x), (x.inv(), y), (x, y.inv()), (x, x @ y)]
            for u, v in moves:
                moved = abs(commutator(u, v).trace - 2.0)
                assert abs(moved - base) <= 1e-9
