import math

import numpy as np
import pytest

from jnum import tolerances as tol
from jnum import words
from jnum.catalog import bianchi_generators, knot_table
from jnum.linalg import Mat2, is_nonelementary, jorgensen_pair, proj_dist
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
    assert Word.from_letters([(0, 1), (0, -1)]).letters == ()


def test_parse_and_show():
    names = ("A", "T")
    w = Word.parse("ATA'T'", names)
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert w.show(names) == "A T A^-1 T^-1"
    assert Word.parse("AAT'", names).show(names) == "A^2 T^-1"
    with pytest.raises(ValueError):
        Word.parse("AXB", names)


def test_evaluate_matches_direct_product():
    w = FIG8.word("ABA'B'")
    a, b = FIG8.mats
    assert proj_dist(evaluate(FIG8, w), a @ b @ a.inv() @ b.inv()) <= 1e-12


def test_evaluate_large_entry_product():
    # (AB)^5 at z = 3.9+0.5j has entries near 5,000; its determinant drifts
    # by about 1e-9 in absolute terms, within DET_EPS relative to a d and b c
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(3.9 + 0.5j)))
    m = evaluate(gens, gens.word("ABABABABAB"))
    ab = RILEY_A @ riley_b(3.9 + 0.5j)
    assert proj_dist(m, ab @ ab @ ab @ ab @ ab) <= 1e-12 * abs(m.a)
    assert evaluate(gens, gens.word("")) == Mat2(1.0, 0.0, 0.0, 1.0)


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


def oracle_ball_levels(gens, max_len):
    """Breadth-first ball deduplicated by a full row sort of every seen key.

    Each level runs np.unique(axis=0) over all seen keys plus the level's
    own and keeps the first occurrences past the seen ones: slow, but
    obviously exact.
    """
    syms = words._symbol_array(gens)
    ns = len(syms)
    ident = np.eye(2, dtype=np.complex128)[None]
    seen = words._canonical_keys(ident)
    levels = [ident]
    frontier = ident
    last = np.full(1, -1, dtype=np.int64)
    for _ in range(max_len):
        if len(frontier) == 0:
            break
        prods = np.einsum("nij,sjk->nsik", frontier, syms)
        nxt = np.repeat(np.arange(ns, dtype=np.int64)[None, :], len(frontier), axis=0)
        ok = nxt != (last[:, None] ^ 1)
        cand = prods[ok]
        cand_last = nxt[ok]
        n_seen = len(seen)
        seen, first = np.unique(np.concatenate((seen, words._canonical_keys(cand))),
                                axis=0, return_index=True)
        keep = np.sort(first[first >= n_seen]) - n_seen
        frontier = cand[keep]
        last = cand_last[keep]
        levels.append(frontier)
    return levels


def _table_group(label):
    row = next(r for r in knot_table() if r.label == label)
    return GeneratorSet(("A", "B"), (RILEY_A, riley_b(row.z)))


ORACLE_GROUPS = [
    ("fig8", lambda: FIG8, 7),
    ("free", lambda: GeneratorSet(("A", "B"), (RILEY_A, riley_b(5.0))), 6),
    ("torsion", lambda: GeneratorSet(("S", "T"), (Mat2(0, -1, 1, 0), Mat2(1, 1j, 0, 1))), 2),
    ("bianchi3", lambda: bianchi_generators(3), 6),
    ("5_2", lambda: _table_group("5_2"), 9),
]


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,make,length", ORACLE_GROUPS, ids=[g[0] for g in ORACLE_GROUPS])
def test_ball_levels_match_the_full_sort_oracle(name, make, length):
    gens = make()
    assert_same_levels(ball_levels(gens, length), oracle_ball_levels(gens, length))


@pytest.mark.parametrize("degenerate", [
    lambda keys: (keys[:, 0] & 3).astype(np.uint64),
    lambda keys: ((keys[:, 0] ^ keys[:, 3]) & 0x3FF).astype(np.uint64),
], ids=["two_bits", "ten_bits"])
def test_ball_levels_are_exact_under_hash_collisions(monkeypatch, degenerate):
    # a hash with a handful of values makes unequal keys share a hash on
    # most levels: the full-key confirmation must resolve every one
    collisions = []

    def spy(keys):
        h = degenerate(keys)
        collisions.append(len(np.unique(h)) < len(np.unique(keys, axis=0)))
        return h

    monkeypatch.setattr(words, "_key_hash", spy)
    for name, make, length in ORACLE_GROUPS:
        gens = make()
        assert_same_levels(ball_levels(gens, length), oracle_ball_levels(gens, length))
    assert any(collisions)


def test_fresh_rows_defers_a_hash_shared_with_a_different_seen_key():
    ident = np.array([[1, 0, 0, 0, 0, 0, 1, 0]], dtype=np.int64)
    other = np.array([[2, 0, 0, 0, 0, 0, 1, 0]], dtype=np.int64)
    seen_h = np.array([7], dtype=np.uint64)
    h7 = np.array([7], dtype=np.uint64)
    rows, new_h = words._fresh_rows(seen_h, ident, h7, ident)
    assert len(rows) == 0 and len(new_h) == 0
    rows, new_h = words._fresh_rows(seen_h, ident, np.array([8], dtype=np.uint64), other)
    assert rows.tolist() == [0] and new_h.tolist() == [8]
    assert words._fresh_rows(seen_h, ident, h7, other) is None
    both = np.concatenate((ident, other))
    assert words._fresh_rows(seen_h[:0], ident[:0], np.array([3, 3], dtype=np.uint64),
                             both) is None


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


def oracle_sweep(gens, max_len, threshold):
    """(candidates, ascending J of violations) over every ordered ball pair.

    Each pair goes through jorgensen_pair, the COMM_EPS cut and
    is_nonelementary one at a time, with no row cut: slow, but plainly
    the definition.
    """
    mats = [words._mat_of(m) for m in words._ball_elements(gens, max_len)]
    n_candidates, js = 0, []
    for x in mats:
        for y in mats:
            jr = jorgensen_pair(x, y)
            if abs(jr.commutator_trace - 2.0) <= tol.COMM_EPS:
                continue
            n_candidates += 1
            if jr.value < threshold and is_nonelementary(x, y):
                js.append(jr.value)
    return n_candidates, sorted(js)


@pytest.mark.parametrize("z,threshold", [(0.1, 2.5), (0.3 + 0.2j, 2.5), (Z8, 5.5)],
                         ids=["small_c", "z0.3+0.2i", "fig8"])
def test_inequality_sweep_matches_the_pair_oracle(z, threshold):
    # thresholds above 1, each at least 0.4 from every J in its ball: the
    # last two balls hold rows with a defect in [1, threshold) whose pairs
    # violate, which a sweep cutting its rows at defect < 1 would miss
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(z)))
    n_candidates, js = oracle_sweep(gens, 3, threshold)
    rep = inequality_sweep(gens, 3, threshold)
    assert rep.n_candidates == n_candidates
    got = [v[0] for v in rep.violations]
    assert got == sorted(got)
    assert len(got) == len(js)
    assert np.allclose(got, js, rtol=1e-9, atol=0.0)


def test_pair_blocks_stay_under_the_entry_cap():
    # past 16,384 elements a block of 256 rows would hold more than 2^22
    # pairs, so the kernel takes fewer rows per block instead
    n = 20_000
    mats = np.tile(np.eye(2, dtype=np.complex128), (n, 1, 1))
    rows = np.arange(0, n, 40)
    blocks = [(r, dev.shape) for r, dev in words._pair_devs(mats, rows)]
    assert all(len(r) * n <= 1 << 22 and shape == (len(r), n) for r, shape in blocks)
    assert len(blocks[0][0]) < words._PAIR_BLOCK
    assert np.array_equal(np.concatenate([r for r, _ in blocks]), rows)
