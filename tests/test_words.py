import functools
import inspect
import itertools
import math
import tracemalloc
from functools import reduce
from operator import matmul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jnum import tolerances as tol
from jnum import words
from jnum.catalog import BIANCHI_DS, bianchi_generators, knot_table
from jnum.linalg import Mat2, is_nonelementary, jorgensen_pair, proj_dist
from jnum.riley import RILEY_A, SCREEN_LEN, knot_jreport, riley_b
from jnum.words import (GeneratorSet, Word, ball_levels, evaluate,
                        first_violation, inequality_sweep, min_c_entry,
                        min_loxodromic_defect)
from oracles import commutator, inverse_twins

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
    ("12/5", lambda: GeneratorSet(("A", "B"), (RILEY_A, riley_b(1j))), 6),
]


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,make,length", ORACLE_GROUPS, ids=[g[0] for g in ORACLE_GROUPS])
def test_ball_levels_match_the_full_sort_oracle(name, make, length):
    gens = make()
    assert_same_levels(ball_levels(gens, length), oracle_ball_levels(gens, length))


def test_ball_levels_refuses_an_overlong_length_and_stops_at_the_identity():
    with pytest.raises(ValueError):
        ball_levels(FIG8, words.MAX_BALL_LEN + 1)
    assert_same_levels(ball_levels(FIG8, 0), [np.eye(2, dtype=np.complex128)[None]])


# --- invariants over the ball -------------------------------------------------

def test_min_c_entry_fig8():
    assert abs(min_c_entry(FIG8, 4) - 1.0) <= 1e-12


def test_min_loxodromic_defect_fig8_depth2():
    # minimum at radius 2 is A B^-1 with trace 2 - z, so
    # |tr^2 - 4| = |z| |z - 4| = sqrt(13) exactly
    d = min_loxodromic_defect(FIG8, 2)
    assert abs(d - math.sqrt(13.0)) <= 1e-9


TABLE_KNOTS = [row.label for row in knot_table()]


def _burnside_necklaces(n):
    """Cyclically reduced F_2 necklaces of length n: (1/n) sum_{d|n} phi(n/d) CR(d),
    with CR(d) = 3^d + 1 + (1 + (-1)^d) the cyclically reduced words of length d."""
    def phi(m):
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    total = sum(phi(n // d) * (3 ** d + 1 + (1 + (-1) ** d))
                for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def _kept_necklaces(ns, max_len):
    """The kept necklaces of _necklace_tree(ns, max_len), one list per length,
    each word rebuilt from its (src, nxt) chain."""
    rows, kept = [()], []
    for src, nxt, neck in words._necklace_tree(ns, max_len):
        rows = [rows[s] + (b,) for s, b in zip(src.tolist(), nxt.tolist())]
        kept.append([w for w, k in zip(rows, neck.tolist()) if k])
    return kept


def _least_rotation(w):
    return min(w[k:] + w[:k] for k in range(len(w)))


def _trace_orbit(w):
    """The necklaces of the two-generator word w, its inverse, its reverse and
    its letter inversion: the words whose trace the fold takes to be w's."""
    inverse = tuple(b ^ 1 for b in reversed(w))
    return {_least_rotation(u) for u in (w, inverse, w[::-1], inverse[::-1])}


def test_necklace_counts_match_burnside():
    # the orbits of the kept necklaces are disjoint, cyclically reduced and
    # as many necklaces in all as Burnside counts: the fold drops no orbit
    kept = _kept_necklaces(4, 12)
    assert [len(level) for level in kept] == [2, 4, 6, 13, 22, 52, 106, 266,
                                              630, 1652, 4270, 11595]
    for n, level in enumerate(kept, start=1):
        orbits = [_trace_orbit(w) for w in level]
        union = set().union(*orbits)
        assert len(union) == sum(len(orbit) for orbit in orbits), n
        assert all(len(w) == n and w[0] != w[-1] ^ 1
                   and all(a != b ^ 1 for a, b in zip(w, w[1:])) for w in union), n
        assert len(union) == _burnside_necklaces(n), n
    assert _burnside_necklaces(12) == 44370


def _ball_defect(gens, max_len):
    mats = words._ball_elements(gens, max_len)
    traces = mats[:, 0, 0] + mats[:, 1, 1]
    return words._primitive_min_defect(traces[words._loxodromic_mask(traces)])


@pytest.mark.parametrize("label", TABLE_KNOTS)
def test_necklace_defect_matches_the_ball(label):
    gens = _table_group(label)
    for max_len in range(2, 10):
        assert abs(min_loxodromic_defect(gens, max_len)
                   - _ball_defect(gens, max_len)) <= 1e-9, max_len


def sorted_class_min_defect(traces):
    """The primitive-defect search as a sort: the sign-canonical traces in
    complex order, one representative per run of differences <= CLASS_EPS,
    and the representatives walked in ascending defect with the power test
    of _primitive_min_defect."""
    t = np.sort(_sign_canonical(traces), kind="stable")
    reps = t[np.concatenate(([True], np.abs(np.diff(t)) > tol.CLASS_EPS))]
    lam = np.arccosh(reps / 2.0)
    lam_re, lam_im = np.abs(lam.real), lam.imag
    defect = np.abs(reps * reps - 4.0)
    for i in np.argsort(defect):
        candidates = lam_re <= lam_re[i] / 2.0 + tol.LENGTH_SLACK
        candidates[i] = False
        n = np.round(lam_re[i] / lam_re[candidates])
        slack = tol.CLASS_EPS * np.maximum(n, 1.0)
        re_ok = np.abs(lam_re[i] - n * lam_re[candidates]) <= slack
        im_diff = lam_im[i] - n * lam_im[candidates]
        im_ok = np.abs(im_diff - np.pi * np.round(im_diff / np.pi)) <= slack
        if not ((n >= 2) & re_ok & im_ok).any():
            return float(defect[i])
    raise AssertionError("every class resolved as a power")


@functools.lru_cache(maxsize=None)
def _solved_table_group(label):
    row = next(r for r in knot_table() if r.label == label)
    return GeneratorSet(("A", "B"), (RILEY_A, riley_b(knot_jreport(row.p, row.q).z)))


_RNG = np.random.default_rng(2009)
RANDOM_RILEY_Z = [complex(_RNG.uniform(-3.0, 3.0), _RNG.uniform(0.2, 3.0)) for _ in range(20)]


def _loxodromic_necklace_traces(gens, max_len):
    traces = words._necklace_traces(gens, max_len)
    return traces[words._loxodromic_mask(traces)]


def _defect_cases():
    """(name, loxodromic traces) of the table knots at their solved roots,
    lengths 2..12, and of seeded random Riley groups, lengths 4..10."""
    for label in TABLE_KNOTS:
        for max_len in range(2, 13):
            yield f"{label}/{max_len}", _loxodromic_necklace_traces(
                _solved_table_group(label), max_len)
    for z in RANDOM_RILEY_Z:
        gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(z)))
        for max_len in range(4, 11):
            yield f"{z:.3f}/{max_len}", _loxodromic_necklace_traces(gens, max_len)


@pytest.mark.parametrize("head", [1, words._DEFECT_HEAD])
def test_the_defect_walk_matches_the_sorted_class_search(head, monkeypatch):
    # the walk returns the least defect of its class, the sort the defect
    # of the class's first trace in complex order: they agree to rounding.
    # With a head of one trace every walk that visits more reads the sort.
    monkeypatch.setattr(words, "_DEFECT_HEAD", head)
    for name, lox in _defect_cases():
        got, want = words._primitive_min_defect(lox), sorted_class_min_defect(lox)
        assert math.isclose(got, want, rel_tol=1e-12), name


def test_the_defect_walk_ignores_trace_signs():
    # |t^2 - 4| and |t| are even in t and arccosh(-w) = arccosh(w) +- i pi,
    # so negating any traces leaves the walk and its answer bit for bit
    rng = np.random.default_rng(2009)
    cases = [(label, _loxodromic_necklace_traces(_solved_table_group(label), 12))
             for label in TABLE_KNOTS]
    cases += [(f"O_{d}", _loxodromic_necklace_traces(bianchi_generators(d), 6))
              for d in (1, 3)]
    for name, lox in cases:
        flipped = np.where(rng.random(len(lox)) < 0.5, -lox, lox)
        assert not np.array_equal(flipped, lox), name
        assert words._primitive_min_defect(flipped) == words._primitive_min_defect(lox), name


def test_the_ascending_walk_reads_the_sort_only_past_its_head(monkeypatch):
    values = np.array([5.0, 1.0, 4.0, 1.0, 3.0, 0.5])
    monkeypatch.setattr(words, "_DEFECT_HEAD", 3)
    walk = words._ascending(values)
    head = [next(walk) for _ in range(3)]
    assert values[head].tolist() == [0.5, 1.0, 1.0]
    assert list(walk) == np.argsort(values).tolist()
    monkeypatch.setattr(words, "_DEFECT_HEAD", 64)
    assert values[list(words._ascending(values))[:6]].tolist() == sorted(values)


def test_the_size_prefilter_keeps_every_trace_within_reach():
    # re lam <= reach implies |t| <= _reach_size(reach), as the bound is
    # monotone, exactly when |t| <= _reach_size(re lam) for every trace t
    for name, lox in _defect_cases():
        lam_re = np.abs(np.arccosh(lox / 2.0).real)
        assert np.all(np.abs(lox) <= words._reach_size(lam_re)), name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_the_size_prefilter_bound_holds_across_magnitudes(log_re, log_im):
    # traces near +-2, near the real axis, and of large modulus
    for t in (complex(math.copysign(math.exp(abs(log_re)), log_re), math.exp(log_im)),
              2.0 + complex(math.exp(log_re), math.exp(log_im))):
        lam_re = abs(np.arccosh(np.complex128(t) / 2.0).real)
        assert abs(t) <= words._reach_size(lam_re)


def test_the_size_prefilter_drops_most_traces():
    lox = _loxodromic_necklace_traces(_solved_table_group("5_2"), 12)
    first = np.argmin(np.abs(lox * lox - 4.0))
    reach = abs(np.arccosh(lox[first] / 2.0).real) / 2.0 + tol.LENGTH_SLACK
    kept = np.count_nonzero(np.abs(lox) <= words._reach_size(reach))
    assert 0 < kept < len(lox) // 100


def _sign_canonical(traces):
    t = traces.copy()
    t[(t.real < -tol.ROUND_EPS)
      | ((np.abs(t.real) <= tol.ROUND_EPS) & (t.imag < 0))] *= -1
    return t


def _nearest(points, targets):
    """The distance from each point to the nearest target."""
    return np.concatenate([np.abs(block[:, None] - targets[None, :]).min(axis=1)
                           for block in np.array_split(points, max(1, len(points) // 1024))])


def _farthest_from(points, targets):
    """max over points of the distance to the nearest target."""
    return _nearest(points, targets).max()


@pytest.mark.parametrize("label", TABLE_KNOTS)
def test_necklace_traces_are_the_ball_trace_set(label):
    gens = _table_group(label)
    mats = words._ball_elements(gens, 8)
    ball = np.unique(_sign_canonical(mats[:, 0, 0] + mats[:, 1, 1]))
    necklace = np.unique(_sign_canonical(words._necklace_traces(gens, 8)))
    assert _farthest_from(ball, necklace) <= tol.CLASS_EPS
    assert _farthest_from(necklace, ball) <= tol.CLASS_EPS


THREE_GENS = GeneratorSet(("A", "B", "C"),
                          (RILEY_A, riley_b(Z8), Mat2(1 + 1j, 1, 1j, 1)))


def _oracle_necklace_traces(gens, max_len):
    """Traces of the cyclically reduced least rotations of length 1..max_len:
    every word over the symbols g, g^-1 by itertools.product, multiplied out."""
    syms = [m for g in gens.mats for m in (g, g.inv())]  # symbol 2i + 1 inverts 2i
    out = []
    for length in range(1, max_len + 1):
        for w in itertools.product(range(len(syms)), repeat=length):
            if any(a == b ^ 1 for a, b in zip(w, w[1:] + w[:1])):
                continue  # not cyclically reduced
            if any(w[k:] + w[:k] < w for k in range(1, length)):
                continue  # not the least rotation
            out.append(reduce(matmul, (syms[k] for k in w)).trace)
    return np.array(out)


def test_necklace_traces_match_the_product_oracle_at_arity_2_and_3():
    # interleaved, so that a tree cached on the wrong key gives the wrong rows;
    # the three-generator tree folds over inversion only
    for gens, max_len, n_kept, n in ((FIG8, 5, 47, 102), (THREE_GENS, 5, 434, 868),
                                     (FIG8, 8, 471, 1386)):
        fast = words._necklace_traces(gens, max_len)
        slow = _oracle_necklace_traces(gens, max_len)
        assert len(fast) == n_kept and len(slow) == n
        for a, b in ((fast, slow), (slow, fast)):
            assert (_nearest(a, b) <= 1e-9 * (1 + np.abs(a))).all()


def _random_sl2(rng):
    a, b, c = (complex(*rng.normal(size=2)) for _ in range(3))
    return Mat2(a, b, c, (1 + b * c) / a)


@pytest.mark.parametrize("seed,max_len", [(1, 5), (2, 6), (3, 7), (4, 8)])
def test_folded_traces_are_the_oracle_trace_set_on_random_pairs(seed, max_len):
    # no Riley pair: tr A != tr B, so a fold that took one orbit for another,
    # or dropped one, leaves a trace of the oracle without a near neighbour
    rng = np.random.default_rng(seed)
    gens = GeneratorSet(("A", "B"), (_random_sl2(rng), _random_sl2(rng)))
    fast = words._necklace_traces(gens, max_len)
    slow = _oracle_necklace_traces(gens, max_len)
    assert len(fast) == sum([2, 4, 6, 13, 22, 52, 106, 266][:max_len])
    for a, b in ((fast, slow), (slow, fast)):
        assert (_nearest(a, b) <= 1e-9 * (1 + np.abs(a))).all()


def test_reversal_keeps_the_trace_of_two_generators_only():
    # tr w^rev = tr w for two generators, so the arity-2 tree folds reversal;
    # for three it fails, and the arity-3 tree keeps both tr ABC and tr CBA
    rng = np.random.default_rng(5)
    pair = GeneratorSet(("A", "B"), (_random_sl2(rng), _random_sl2(rng)))
    w = pair.word("AAB'AB")
    t, t_rev = (evaluate(pair, u).trace for u in (w, Word(w.letters[::-1])))
    assert abs(t - t_rev) <= 1e-12 * abs(t)
    t_abc, t_cba = (evaluate(THREE_GENS, THREE_GENS.word(u)).trace for u in ("ABC", "CBA"))
    assert abs(t_abc - t_cba) > 0.5
    fast = words._necklace_traces(THREE_GENS, 3)
    assert (_nearest(np.array([t_abc, t_cba]), fast) <= 1e-12).all()


def test_the_necklace_tree_is_cached_and_read_only():
    tree = words._necklace_tree(6, 4)
    assert words._necklace_tree(6, 4) is tree
    assert len(tree) == 4
    for level in tree:
        for arr in level:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    # at length 1 one of each {g, g^-1}
    assert words._necklace_traces(THREE_GENS, 1).tolist() == [g.trace for g in THREE_GENS.mats]


UNFOLDED_ALPHA_12 = {"5_2": 4.219276205487545, "6_1": 3.955211257828308,
                     "7_4": 4.434378815535585, "7_7": 5.105997169378984}


@pytest.mark.parametrize("label", TABLE_KNOTS)
def test_length_12_defects_keep_the_unfolded_values(label):
    # the defects the tree gave before it was folded, when it formed the
    # trace of every necklace: the fold moves them by rounding only
    got = min_loxodromic_defect(_solved_table_group(label), 12)
    assert math.isclose(got, UNFOLDED_ALPHA_12[label], rel_tol=1e-12)


def test_min_loxodromic_defect_refuses_short_and_overlong_lengths():
    with pytest.raises(words.SearchError, match="empty ball"):
        min_loxodromic_defect(FIG8, 0)
    with pytest.raises(words.SearchError, match="no loxodromic element"):
        min_loxodromic_defect(FIG8, 1)
    with pytest.raises(ValueError):
        min_loxodromic_defect(FIG8, words.MAX_BALL_LEN + 1)


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
    default = inspect.signature(inequality_sweep).parameters["threshold"].default
    assert default == 1.0 - 1e-9


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


@pytest.mark.parametrize("z, radius", [
    (0.1, 2),
    (0.3 + 0.2j, 2),
    (-0.9170454199948046 + 0.5923794975652379j, 3),  # 13/5, root 1
    (Z8, None),
    (0.14292369037585867 + 1.1595156563348346j, None),  # 13/7, root 3: radius 5
], ids=["small_c", "z0.3+0.2i", "13/5", "fig8", "13/7"])
def test_first_violation_matches_the_pair_oracle(z, radius):
    # the screen pairs one element of each {X, X^-1}; the oracle pairs every
    # element of each radius with every other, one pair at a time
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(z)))
    threshold = 1.0 - tol.SCREEN_SLACK
    hit = first_violation(gens, 4, threshold)
    for r in range(2, 5):
        js = oracle_sweep(gens, r, threshold)[1]
        if js:
            break
    assert (r if js else None) == radius
    assert (hit is None) is (not js)
    if js:
        assert math.isclose(hit[0], js[0], rel_tol=1e-12)
        assert math.isclose(jorgensen_pair(hit[1], hit[2]).value, hit[0], rel_tol=1e-9)


def assert_tile_rule(tiles, n, n_rows):
    """The tiles (start, (k, width)) start in order, cover rows
    0..n_rows - 1 once, pair their rows with the columns from their first
    row on, and hold at most _PAIR_ENTRIES pairs unless they are one row."""
    starts = [start for start, _ in tiles]
    assert starts == sorted(starts)
    rows = [np.arange(start, start + k) for start, (k, _) in tiles]
    assert np.array_equal(np.concatenate(rows or [np.arange(0)]), np.arange(n_rows))
    for start, (k, width) in tiles:
        assert width == n - start and 1 <= k <= width
        assert k == 1 or k * width <= words._PAIR_ENTRIES


def test_pair_products_run_in_blocks_one_blas_thread_computes(monkeypatch):
    # Bianchi d = 1 at length 5 has 544 elements: a tile of 120 rows holds
    # 65,280 pairs and runs as four products of 30 rows, each with fewer
    # than 2^16 multiply-adds (inner dimension 4), which OpenBLAS keeps on
    # the calling thread; no tile of several rows is cut to one row (GEMV)
    mats = words._ball_elements(bianchi_generators(1), 5)
    n = len(mats)
    blocks = []
    gemm = np.matmul

    def spy(x, y, out):
        blocks.append((x.shape[-2], y.shape[-1]))
        return gemm(x, y, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    tiles = [(start, dev.copy()) for start, dev in words._pair_devs(mats, n)]
    assert blocks[:4] == [(30, n)] * 4
    assert all(4 * rows * width < 1 << 16 for rows, width in blocks)
    assert all(rows >= 2 for rows, _ in blocks)
    # one product per tile gives the same bits
    n_blocks = len(blocks)
    monkeypatch.setattr(words, "_GEMM_ENTRIES", 1 << 30)
    whole = [(start, dev.copy()) for start, dev in words._pair_devs(mats, n)]
    assert len(blocks) - n_blocks == len(whole) < n_blocks
    assert [start for start, _ in tiles] == [start for start, _ in whole]
    for (_, dev), (_, ref) in zip(tiles, whole):
        assert np.array_equal(dev, ref)


def test_pair_blocks_stay_under_the_entry_cap(monkeypatch):
    # a 20,000-wide tile takes three rows at the default cap; at 2^12 one
    # row is wider than the cap, and such a tile is a single row
    n, n_rows = 20_000, 500
    mats = np.tile(np.eye(2, dtype=np.complex128), (n, 1, 1))
    for entries in (words._PAIR_ENTRIES, 1 << 12):
        monkeypatch.setattr(words, "_PAIR_ENTRIES", entries)
        tiles = [(start, dev.shape) for start, dev in words._pair_devs(mats, n_rows)]
        assert_tile_rule(tiles, n, n_rows)
        assert tiles[0][1][0] == max(1, entries // n)


def full_pair_devs(mats):
    """|tr [X, Y] - 2| for every ordered pair, by einsum and the trace
    identity in its textbook form."""
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    tr_xy = np.einsum("aij,bji->ab", mats, mats)
    comm = (tr[:, None] ** 2 + tr[None, :] ** 2 + tr_xy ** 2
            - tr[:, None] * tr[None, :] * tr_xy - 2.0)
    return np.abs(comm - 2.0)


def test_sweep_count_across_block_seams_matches_a_full_reference():
    # Bianchi d = 1 at length 5 has 544 elements, more than one tile of
    # rows, so the triangle count crosses tile seams
    gens = bianchi_generators(1)
    mats = words._ball_elements(gens, 5)
    n = len(mats)
    assert n == 544
    ref = full_pair_devs(mats) > tol.COMM_EPS
    assert inequality_sweep(gens, 5).n_candidates == int(np.count_nonzero(ref))
    tiles = []
    for start, dev in words._pair_devs(mats, n):
        assert np.array_equal(dev > tol.COMM_EPS, ref[start:start + len(dev), start:])
        tiles.append((start, dev.shape))
    assert_tile_rule(tiles, n, n)
    assert len(tiles) > 1


def test_sweep_violations_in_both_orders_across_block_seams():
    # at threshold 5.5 more rows of the Bianchi d = 1 ball than the first
    # tile holds have a defect below it, so a pair of such rows in two
    # tiles is formed once, right of the first tile's square part, and must
    # count in both orders; the threshold keeps clear of every J in the ball
    gens, threshold = bianchi_generators(1), 5.5
    mats = words._ball_elements(gens, 5)
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    defect = np.abs(tr * tr - 4.0)
    assert np.count_nonzero(defect < threshold) > words._PAIR_ENTRIES // len(mats)
    dev = full_pair_devs(mats)
    jval = defect[:, None] + dev
    assert np.abs(jval - threshold).min() >= 0.02
    js = np.sort(jval[(dev > tol.COMM_EPS) & (jval < threshold)])
    rep = inequality_sweep(gens, 5, threshold)
    assert rep.n_candidates == int(np.count_nonzero(dev > tol.COMM_EPS))
    got = [v[0] for v in rep.violations]
    assert got == sorted(got)
    assert len(got) == len(js)
    assert np.allclose(got, js, rtol=1e-9, atol=0.0)


BIANCHI1_BALL5 = words._ball_elements(bianchi_generators(1), 5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, len(BIANCHI1_BALL5)), st.floats(0.0, 1.0),
       st.sampled_from([1, 2, 37, 1000, 1 << 16]))
def test_pair_tiles_match_a_full_reference_at_any_cap(n, row_frac, entries):
    # any prefix of the Bianchi d = 1 ball, any row count and any cap, down
    # to one entry per tile; threshold 5.5 keeps clear of every J in it
    mats, threshold = BIANCHI1_BALL5[:n], 5.5
    n_rows = round(row_frac * n)
    dev = full_pair_devs(mats)
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    jval = np.abs(tr * tr - 4.0)[:, None] + dev
    cand = dev > tol.COMM_EPS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_PAIR_ENTRIES", entries)
        tiles = []
        for start, tile in words._pair_devs(mats, n_rows):
            assert np.array_equal(tile > tol.COMM_EPS, cand[start:start + len(tile), start:])
            tiles.append((start, tile.shape))
        assert_tile_rule(tiles, n, n_rows)
        n_candidates, jv, x, y = words._pair_pass(mats, inverse_twins(mats), threshold,
                                                  count=True)
    assert n_candidates == int(np.count_nonzero(cand))
    rx, ry = np.nonzero(cand & (jval < threshold))
    assert sorted(zip(x.tolist(), y.tolist())) == sorted(zip(rx.tolist(), ry.tolist()))
    assert np.allclose(jv, jval[x, y], rtol=1e-9, atol=0.0)
    assert np.all(np.diff(jv) >= 0)


@pytest.mark.parametrize("gens,elliptic", [(FIG8, False), (bianchi_generators(1), True)],
                         ids=["fig8", "bianchi1"])
def test_pair_kernel_matches_the_group_commutator(gens, elliptic):
    # both balls hold the parabolic A (r = 0); the Bianchi d = 1 ball also
    # holds elliptic elements, whose tr^2 - 4 < 0 makes r imaginary
    mats = words._ball_elements(gens, 4)
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    assert np.any(tr * tr - 4.0 == 0.0)
    real_inside = (np.abs(tr.imag) <= tol.CX_EPS) & (np.abs(tr.real) < 2.0 - tol.CX_EPS)
    assert np.any(real_inside) == elliptic
    elems = [words._mat_of(m) for m in mats]
    size = np.abs(mats).reshape(len(mats), 4).max(axis=1)
    for start, dev in words._pair_devs(mats, len(mats)):
        for i, row in enumerate(dev):
            x = elems[start + i]
            ref = np.array([abs(commutator(x, y).trace - 2.0) for y in elems[start:]])
            scale = (1.0 + size[start + i] * size[start:]) ** 2
            assert np.all(np.abs(row - ref) <= 1e-12 * scale)
            assert np.array_equal(row > tol.COMM_EPS, ref > tol.COMM_EPS)


def test_sweep_memory_stays_within_its_tiles():
    # two complex and one float tile buffer are 40 bytes a pair; the rest
    # of the bound is the ball and the per-element arrays of the pass
    gens = bianchi_generators(1)
    n = len(words._ball_elements(gens, 6))
    assert n == 1453
    tracemalloc.start()
    try:
        inequality_sweep(gens, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * words._PAIR_ENTRIES + 512 * n


@pytest.mark.parametrize("max_len", [0, -1])
def test_inequality_sweep_refuses_a_ball_without_pairs(max_len):
    with pytest.raises(ValueError, match=f"max_len {max_len} below 1"):
        inequality_sweep(FIG8, max_len)


def test_pair_sweeps_of_an_identity_generator_find_no_pairs():
    # the ball of <I> is the identity alone, so no pair block is formed
    gens = GeneratorSet(("A",), (Mat2(1, 0, 0, 1),))
    rep = inequality_sweep(gens, 3)
    assert (rep.n_elements, rep.n_pairs, rep.n_candidates, rep.violations) == (0, 0, 0, ())
    assert first_violation(gens, 3) is None
    assert len(grown_ball(gens, 3)[1]) == 0


# --- inverse twins -------------------------------------------------------------

def grown_ball(gens, max_len):
    """The ball past the identity and the twins _grow_ball finds for it."""
    levels, twins = zip(*words._grow_ball(gens, max_len))
    return np.concatenate(levels[1:]), np.concatenate(twins[1:])


BIANCHI1_TWINS5 = grown_ball(bianchi_generators(1), 5)[1]


def test_inverse_twins_are_mutual_inverses():
    mats, partner = BIANCHI1_BALL5, BIANCHI1_TWINS5
    paired = np.flatnonzero(partner >= 0)
    assert len(paired) > 0.9 * len(mats)
    assert np.array_equal(partner[partner[paired]], paired)
    assert np.all(partner[paired] != paired)
    for i in paired:
        x, y = words._mat_of(mats[i]), words._mat_of(mats[partner[i]])
        assert x.proj_eq(y.inv()) and y.proj_eq(x.inv())


def test_involutions_stay_alone():
    # Bianchi d = 1 holds elements of order 2 in PSL(2, C): trace 0, X = X^-1
    mats = BIANCHI1_BALL5
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    involution = np.abs(tr) <= tol.CX_EPS
    assert np.count_nonzero(involution) > 0
    assert np.all(BIANCHI1_TWINS5[involution] == -1)


Z73 = -0.21507985450097342 + 1.3071412786820455j  # the root 7/3's screen keeps


def test_each_twin_lies_in_its_own_level():
    # X^-1 has the word length of X, so each radius of a screen is folded whole
    for gens, max_len in ((bianchi_generators(1), 5),
                          (GeneratorSet(("A", "B"), (RILEY_A, riley_b(Z73))), 6)):
        twins = [twin for _, twin in words._grow_ball(gens, max_len)][1:]
        start = 0
        for twin in twins:
            paired = twin[twin >= 0]
            assert np.all((start <= paired) & (paired < start + len(twin)))
            start += len(twin)
    # 7/3's screen ball holds no involution, so each radius sweeps half of it
    assert np.all(np.concatenate(twins) >= 0)


@pytest.mark.parametrize("d", [None, *BIANCHI_DS], ids=lambda d: f"d{d}" if d else "fig8")
def test_grown_twins_match_a_whole_ball_match_on_the_sweep_groups(d):
    mats, twins = grown_ball(FIG8 if d is None else bianchi_generators(d), 5)
    assert np.array_equal(twins, inverse_twins(mats))


def test_a_screen_keys_each_element_once_and_its_adjugate_once(monkeypatch):
    # 7/3's surviving root grows all SCREEN_LEN radii of a free ball: 1,456
    # elements past the identity, each keyed as a candidate and as an adjugate
    rows = []
    keys = words._canonical_keys

    def counted(mats):
        rows.append(len(mats))
        return keys(mats)

    monkeypatch.setattr(words, "_canonical_keys", counted)
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(Z73)))
    assert first_violation(gens, SCREEN_LEN, 1.0 - tol.SCREEN_SLACK) is None
    assert sum(rows) == 1 + 1456 + 1456 == 2913


def test_folded_pass_matches_a_full_reference_with_many_violations():
    # <A, B(0.3 + 0.2i)> is not discrete: its radius-4 ball holds thousands
    # of violations, and each violating pair shows all four of (X^+-1, Y^+-1)
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.3 + 0.2j)))
    mats, threshold = words._ball_elements(gens, 4), 1.0 - tol.J_EPS
    dev = full_pair_devs(mats)
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    jval = np.abs(tr * tr - 4.0)[:, None] + dev
    cand = dev > tol.COMM_EPS
    partner = inverse_twins(mats)
    n_candidates, jv, x, y = words._pair_pass(mats, partner, threshold, count=True)
    assert n_candidates == int(np.count_nonzero(cand))
    got = set(zip(x.tolist(), y.tolist()))
    rx, ry = np.nonzero(cand & (jval < threshold))
    assert got == set(zip(rx.tolist(), ry.tolist()))
    assert len(got) > 1000
    for a, b in got:
        for a2 in {a, partner[a]} - {-1}:
            for b2 in {b, partner[b]} - {-1}:
                assert (a2, b2) in got
    assert np.allclose(jv, jval[x, y], rtol=1e-9, atol=0.0)
    assert np.all(np.diff(jv) >= 0)


@pytest.mark.parametrize("d", [None, *BIANCHI_DS], ids=lambda d: f"d{d}" if d else "fig8")
def test_folded_count_matches_an_unfolded_count_on_the_sweep_groups(d):
    gens = FIG8 if d is None else bianchi_generators(d)
    rep = inequality_sweep(gens, 5)
    mats = words._ball_elements(gens, 5)
    assert rep.n_candidates == int(np.count_nonzero(full_pair_devs(mats) > tol.COMM_EPS))


@pytest.mark.parametrize("count", [False, True])
def test_a_nan_row_keeps_no_low_row_out_of_the_tiles(count):
    # the all-NaN row is formed in the tiles with the low rows, so the pass
    # still forms the parabolic A and finds J(A, Z) = 0 + |c_Z b_A|^2
    nan = np.full((2, 2), np.nan, dtype=np.complex128)
    z = np.array([[1.5, 2.5], [0.5, 1.5]], dtype=np.complex128)
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    mats = np.stack((nan, z, a))
    _, jv, x, y = words._pair_pass(mats, np.full(3, -1), 1.0 - tol.J_EPS, count)
    assert (x.tolist(), y.tolist()) == ([2], [1])
    assert jv.tolist() == pytest.approx([0.25], rel=1e-12)


def test_the_sweep_forms_only_its_front_rows(monkeypatch):
    # Bianchi d = 1 at length 5 sweeps 283 rows, one of each {X, X^-1}, of
    # which 56 have a defect below 1; the elementary pairs among the rest
    # come from their fixed points, so only the 56 are formed in tiles
    formed, pair_devs = [], words._pair_devs

    def recorded(mats, n_rows):
        formed.append((len(mats), n_rows))
        return pair_devs(mats, n_rows)

    monkeypatch.setattr(words, "_pair_devs", recorded)
    gens = bianchi_generators(1)
    rep = inequality_sweep(gens, 5)
    assert formed == [(283, 56)]
    mats = words._ball_elements(gens, 5)
    assert rep.n_candidates == int(np.count_nonzero(full_pair_devs(mats) > tol.COMM_EPS))


def with_fixed_points(p, q, k=1.5 + 0.5j):
    """The element with multiplier k^2 at p and k^-2 at q (p = None for infinity),
    as S diag(k, 1/k) S^-1 with S = [[p, q], [1, 1]] / sqrt(p - q)."""
    s = np.array([[1, q], [0, 1]] if p is None else [[p, q], [1, 1]], dtype=np.complex128)
    s /= np.sqrt(np.linalg.det(s))
    return s @ np.diag([k, 1 / k]) @ np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]])


UNIT = np.exp(1j * math.pi / 3)
FIXED_POINT_CASES = {  # the ordered elementary pairs of each case, diagonal included
    "rotations sharing infinity": ([[[1j, 0], [0, -1j]], [[1j, -1j], [0, -1j]]], 4),
    "X and X^2": ([[[2, 1], [1, 1]], [[5, 3], [3, 2]]], 4),
    "a shared point on |z| = 1": ([with_fixed_points(UNIT, 0.5),
                                   with_fixed_points(UNIT, -3.0, 2.0)], 4),
    # u + r = 0 exactly for diag(1/2, 2), whose points would both be [0 : 0]
    "infinity beside 1e7": ([[[0.5, 0], [0, 2]], with_fixed_points(1e7, 5.0),
                             [[3, 1], [0, 1 / 3]]], 5),
    "points 1e-4 apart": ([with_fixed_points(0.3, 2.0), with_fixed_points(0.3001, 5.0)], 2),
}


@pytest.mark.parametrize("case", [*FIXED_POINT_CASES, "all"])
def test_the_fixed_point_count_matches_a_pairwise_count(case):
    if case == "all":
        rows = [row for rows, _ in FIXED_POINT_CASES.values() for row in rows]
    else:
        rows, n_elementary = FIXED_POINT_CASES[case]
    mats = np.array(rows, dtype=np.complex128)
    elems = [words._mat_of(m) for m in mats]
    for weight in (np.ones(len(mats), dtype=np.int64), np.arange(len(mats)) % 2 + 1):
        ref = sum(int(weight[i] * weight[j])
                  for i, j in itertools.product(range(len(mats)), repeat=2)
                  if not is_nonelementary(elems[i], elems[j]))
        assert words._elementary_back_weight(mats, weight) == ref
        if case != "all" and weight.max() == 1:
            assert ref == n_elementary


def test_sweep_violations_carry_their_pairs_j():
    # each violating element is built once and shared by its pairs
    gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.1)))
    rep = inequality_sweep(gens, 3)
    assert len(rep.violations) > 100
    assert len({id(m) for v in rep.violations for m in v[1:]}) <= rep.n_elements
    for j, x, y in rep.violations:
        assert math.isclose(j, jorgensen_pair(x, y).value, rel_tol=1e-9)
