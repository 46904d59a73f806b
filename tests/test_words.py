import math

import pytest

from jnum.linalg import Mat2, proj_dist
from jnum.riley import RILEY_A, riley_b
from jnum.words import (GeneratorSet, Word, ball_levels, evaluate,
                        first_violation, inequality_sweep, min_c_entry,
                        min_loxodromic_defect)

Z8 = 0.5 + 0.8660254037844386j  # the root of 1 - z + z^2 in the upper half plane
FIG8 = GeneratorSet(("A", "B"), (RILEY_A, riley_b(Z8)))


# --- words ------------------------------------------------------------------

def test_free_reduction():
    w = Word.from_letters([(0, 1), (0, -1), (1, 2), (1, -1), (1, -1), (0, 3)])
    assert w.letters == ((0, 3),)
    assert Word.from_letters([(0, 1), (0, -1)]).length == 0


def test_parse_and_show():
    names = ("A", "T")
    w = Word.parse("ATA'T'", names)
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert w.show(names) == "A T A^-1 T^-1"
    assert Word.parse("AAT'", names).show(names) == "A^2 T^-1"
    with pytest.raises(ValueError):
        Word.parse("AXB", names)


def test_inverse_product_power():
    names = ("A", "B")
    w = Word.parse("AB", names)
    assert (w * w.inverse()).length == 0
    assert w.power(3).show(names) == "A B A B A B"
    assert w.power(-1).show(names) == "B^-1 A^-1"


def test_evaluate_matches_direct_product():
    w = FIG8.word("ABA'B'")
    a, b = FIG8.mats
    assert proj_dist(evaluate(FIG8, w), a @ b @ a.inv() @ b.inv()) <= 1e-12


# --- the ball ----------------------------------------------------------------

def test_ball_levels_fig8_frozen_sizes():
    # the first collapses appear at radius 5: 324 raw reduced words fold
    # into 314 fresh group elements, and so on
    levels = ball_levels(FIG8, 7)
    assert [len(lv) for lv in levels] == [1, 4, 12, 36, 108, 314, 900, 2580]


def test_ball_levels_free_pair_has_no_collapse():
    free = GeneratorSet(("A", "B"), (RILEY_A, riley_b(5.0)))
    levels = ball_levels(free, 6)
    assert [len(lv) for lv in levels] == [1, 4, 12, 36, 108, 324, 972]


def test_ball_levels_respect_group_torsion():
    s = Mat2(0, -1, 1, 0)
    t = Mat2(1, 1j, 0, 1)
    gens = GeneratorSet(("S", "T"), (s, t))
    levels = ball_levels(gens, 2)
    # S = S^-1 projectively, so radius 1 holds 3 elements, not 4
    assert len(levels[1]) == 3


# --- invariants over the ball -------------------------------------------------

def test_min_c_entry_fig8():
    assert abs(min_c_entry(FIG8, 4) - 1.0) <= 1e-12


def test_min_loxodromic_defect_fig8_depth2():
    # minimum at radius 2 is A B^-1 with trace 2 - z, so
    # |tr^2 - 4| = |z| |z - 4| = sqrt(13) exactly
    d = min_loxodromic_defect(FIG8, 2)
    assert abs(d - math.sqrt(13.0)) <= 1e-9


def test_first_violation_finds_small_c():
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.1)))
    hit = first_violation(gens, 2)
    assert hit is not None
    j, x, y = hit
    assert j < 0.2


def test_first_violation_absent_for_fig8():
    assert first_violation(FIG8, 4) is None


def test_inequality_sweep_fig8():
    rep = inequality_sweep(FIG8, 3)
    assert rep.n_elements == 4 + 12 + 36
    assert rep.n_pairs == rep.n_elements ** 2
    assert rep.violations == ()
    assert rep.threshold == 1.0 - 1e-9
