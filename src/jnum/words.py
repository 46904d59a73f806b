"""Reduced words over a generator set: evaluation, and the ball sweeps
behind waist bounds, loxodromic defect minima, and the Jorgensen
inequality checks.

The aggregate operations (min_c_entry, min_loxodromic_defect,
first_violation, inequality_sweep) walk a breadth-first ball of group
elements with projective dedup on a 1e-6 quantization grid, which is what
keeps depth-12 sweeps tractable. Each element's grid key is hashed to one
64-bit integer; the seen elements are kept sorted by hash, each level's
new elements are found by a sort of its own hashes and a binary search
into the seen ones, and are merged in at their positions, so no key is
sorted twice. Every hash match is confirmed on the full key, and a level
where two different keys share a hash is resolved by a full-key sort
instead. The violation stream behind both inequality checks sweeps only
the rows X with |tr^2 X - 4| below the threshold, since J is never below
that defect, and yields its pairs in ascending J; inequality_sweep counts
its candidates over every row in a pass of its own. A pair counts as
non-elementary when |tr [X, Y] - 2| > COMM_EPS, the test of
linalg.is_nonelementary, decided once in the pair kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .linalg import IDENT, Mat2

MAX_BALL_LEN = 16  # the longest word length a ball is built to
_PAIR_BLOCK = 256  # rows of X per block of the pair kernel
_PAIR_ENTRIES = 1 << 22  # most pairs one block forms, so a big ball takes fewer rows


class SearchError(RuntimeError):
    """An enumeration finished without finding what it was asked for."""


@dataclass(frozen=True)
class Word:
    """Freely reduced word in run-length form: ((generator_index, exponent), ...)."""

    letters: tuple

    def __post_init__(self):
        prev = None
        for idx, exp in self.letters:
            if exp == 0:
                raise ValueError("zero exponent in word")
            if prev is not None and prev == idx:
                raise ValueError("word is not freely reduced")
            prev = idx

    @staticmethod
    def from_letters(pairs) -> "Word":
        """Build a word from (index, exponent) pairs, freely reducing."""
        out = []
        for idx, exp in pairs:
            if exp == 0:
                continue
            if out and out[-1][0] == idx:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((idx, merged))
            else:
                out.append((idx, exp))
        return Word(tuple(out))

    @staticmethod
    def parse(text: str, names) -> "Word":
        """Parse single-letter generator names; a trailing apostrophe inverts.

        Example: parse("ATA'T'", names=("A","T")) is the commutator [A, T].
        """
        index = {name: i for i, name in enumerate(names)}
        pairs = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == " ":
                i += 1
                continue
            if ch not in index:
                raise ValueError(f"unknown generator {ch!r}")
            exp = 1
            if i + 1 < len(text) and text[i + 1] == "'":
                exp = -1
                i += 1
            pairs.append((index[ch], exp))
            i += 1
        return Word.from_letters(pairs)

    def show(self, names) -> str:
        if not self.letters:
            return "1"
        parts = []
        for idx, exp in self.letters:
            parts.append(names[idx] if exp == 1 else f"{names[idx]}^{exp}")
        return " ".join(parts)


@dataclass(frozen=True)
class GeneratorSet:
    names: tuple
    mats: tuple

    def __post_init__(self):
        if not 1 <= len(self.mats) <= 8:
            raise ValueError("generator arity must be between 1 and 8")
        if len(self.names) != len(self.mats):
            raise ValueError("names and matrices differ in length")
        for m in self.mats:
            if not isinstance(m, Mat2):
                raise TypeError("generators must be Mat2")

    @property
    def arity(self) -> int:
        return len(self.mats)

    def word(self, text: str) -> Word:
        return Word.parse(text, self.names)


def evaluate(gens: GeneratorSet, w: Word) -> Mat2:
    """Left-to-right product of generator powers."""
    m = IDENT
    for k, (idx, exp) in enumerate(w.letters):
        if not 0 <= idx < gens.arity:
            raise IndexError(f"generator index {idx} out of range")
        g = gens.mats[idx]
        letter = g if exp == 1 else g.inv() if exp == -1 else g.power(exp)
        m = letter if k == 0 else m @ letter
    return m


# ---------------------------------------------------------------------------
# numpy ball machinery


def _symbol_array(gens: GeneratorSet) -> np.ndarray:
    out = np.empty((2 * gens.arity, 2, 2), dtype=np.complex128)
    for i, m in enumerate(gens.mats):
        inv = m.inv()
        out[2 * i] = [[m.a, m.b], [m.c, m.d]]
        out[2 * i + 1] = [[inv.a, inv.b], [inv.c, inv.d]]
    return out


def _canonical_keys(mats: np.ndarray) -> np.ndarray:
    """Quantized sign-canonical integer keys, one row of 8 int64 per matrix."""
    flat = mats.reshape(len(mats), 4)
    q = np.empty((len(mats), 8), dtype=np.int64)
    q[:, 0::2] = np.round(flat.real / tol.QUANT)
    q[:, 1::2] = np.round(flat.imag / tol.QUANT)
    nonzero = q != 0
    first = np.argmax(nonzero, axis=1)
    lead = q[np.arange(len(q)), first]
    q[lead < 0] *= -1
    return q


# odd per-column multipliers and the murmur3 fmix64 finaliser of _key_hash
_HASH_MULT = tuple(np.uint64(m) for m in (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
    0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9))
_FMIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def _key_hash(keys: np.ndarray) -> np.ndarray:
    """One uint64 per key row: odd per-column multipliers (mod 2^64), then a mix."""
    cols = keys.view(np.uint64)
    h = cols[:, 0] * _HASH_MULT[0]
    term = np.empty_like(h)
    for j in range(1, 8):
        np.multiply(cols[:, j], _HASH_MULT[j], out=term)
        h += term
    for mult in _FMIX:
        h ^= h >> np.uint64(33)
        h *= mult
    h ^= h >> np.uint64(33)
    return h


def _fresh_rows(seen_h: np.ndarray, seen_k: np.ndarray, hashes: np.ndarray,
                keys: np.ndarray):
    """Rows of keys that are first occurrences and not in seen, in hash order.

    seen_h is sorted and seen_k holds the keys in the same order. Returns
    the row indices with their hashes sorted ascending, or None when two
    different keys share a hash, which the caller resolves exactly.
    """
    order = np.argsort(hashes, kind="stable")
    hs = hashes[order]
    same = hs[1:] == hs[:-1]
    pairs = np.flatnonzero(same)
    if not (keys[order[pairs]] == keys[order[pairs + 1]]).all():
        return None
    head = np.ones(len(hs), dtype=bool)
    head[1:] = ~same
    rows, hs = order[head], hs[head]
    pos = np.searchsorted(seen_h, hs)
    hit = pos < len(seen_h)
    hit[hit] = seen_h[pos[hit]] == hs[hit]
    if not (seen_k[pos[hit]] == keys[rows[hit]]).all():
        return None
    return rows[~hit], hs[~hit]


def ball_levels(gens: GeneratorSet, max_len: int):
    """Breadth-first ball of group elements, one (n,2,2) array per radius.

    Level 0 is the identity. Elements are deduplicated projectively across
    all levels, so each group element appears once, at its word-length radius
    (up to grid collisions at the 1e-6 quantization).
    """
    if max_len > MAX_BALL_LEN:
        raise ValueError(f"max_len capped at {MAX_BALL_LEN}")
    syms = _symbol_array(gens)
    ns = len(syms)
    ident = np.eye(2, dtype=np.complex128)[None]
    seen_k = _canonical_keys(ident)  # keys of every element so far, by hash
    seen_h = _key_hash(seen_k)       # their hashes, sorted
    levels = [ident]
    frontier = ident
    last = np.full(1, -1, dtype=np.int64)
    for _ in range(max_len):
        if len(frontier) == 0:
            break
        # each element times every symbol but the inverse of its last one
        src, nxt = np.nonzero(np.arange(ns) != (last[:, None] ^ 1))
        cand = np.einsum("nij,njk->nik", frontier[src], syms[nxt])
        cand_last = nxt
        keys = _canonical_keys(cand)
        hashes = _key_hash(keys)
        fresh = _fresh_rows(seen_h, seen_k, hashes, keys)
        if fresh is None:  # a hash collision: first occurrences by full-key sort
            n_seen = len(seen_k)
            _, first = np.unique(np.concatenate((seen_k, keys)), axis=0,
                                 return_index=True)
            rows = first[first >= n_seen] - n_seen
            rows = rows[np.argsort(hashes[rows], kind="stable")]
            fresh = rows, hashes[rows]
        rows, new_h = fresh
        pos = np.searchsorted(seen_h, new_h)
        seen_h = np.insert(seen_h, pos, new_h)
        seen_k = np.insert(seen_k, pos, keys[rows], axis=0)
        keep = np.sort(rows)
        frontier = cand[keep]
        last = cand_last[keep]
        levels.append(frontier)
    return levels


def _ball_elements(gens: GeneratorSet, max_len: int) -> np.ndarray:
    """All non-identity ball elements as one (n,2,2) array."""
    levels = ball_levels(gens, max_len)
    if len(levels) <= 1:
        return np.empty((0, 2, 2), dtype=np.complex128)
    return np.concatenate(levels[1:], axis=0)


def min_c_entry(gens: GeneratorSet, max_len: int) -> float:
    """min |c| over ball elements with c != 0: an upper bound for the waist size.

    Requires the translation normalization, i.e. the generator set must
    contain [[1,1],[0,1]].
    """
    a_mat = Mat2(1.0, 1.0, 0.0, 1.0)
    if not any(m.proj_eq(a_mat) for m in gens.mats):
        raise ValueError("generator set must contain the unit translation [[1,1],[0,1]]")
    mats = _ball_elements(gens, max_len)
    if len(mats) == 0:
        raise SearchError("empty ball")
    cabs = np.abs(mats[:, 1, 0])
    cabs = cabs[cabs > tol.CX_EPS]
    if len(cabs) == 0:
        raise SearchError("no element with nonzero lower-left entry")
    return float(cabs.min())


def _loxodromic_mask(traces: np.ndarray) -> np.ndarray:
    """Loxodromic-or-hyperbolic in the broad sense (trace outside [-2, 2])."""
    nonreal = np.abs(traces.imag) > tol.CX_EPS
    hyper = (~nonreal) & (np.abs(traces.real) > 2.0 + tol.CX_EPS)
    return nonreal | hyper


def _primitive_min_defect(traces: np.ndarray) -> float:
    """Minimum |tr^2 - 4| over trace classes that are not proper powers.

    Classes are matched to powers through the complex translation length
    lam = arccosh(tr/2): class g is a power of class h when re lam_g is an
    integer multiple n >= 2 of re lam_h and im lam_g = n im lam_h mod pi.
    Detection is complete inside a ball that contains a representative of
    the root class, which holds for the sweeps exercised here.
    """
    t = traces.copy()
    near_zero = np.abs(t.real) <= tol.ROUND_EPS
    flip = (t.real < -tol.ROUND_EPS) | (near_zero & (t.imag < 0))
    t[flip] *= -1
    t = t[np.argsort(t, kind="stable")]
    fresh = np.empty(len(t), dtype=bool)
    fresh[0] = True
    fresh[1:] = np.abs(np.diff(t)) > tol.CLASS_EPS
    reps = t[fresh]
    lam = np.arccosh(reps / 2.0)
    lam_re = np.abs(lam.real)
    lam_im = lam.imag
    defect = np.abs(reps * reps - 4.0)
    for i in np.argsort(defect):
        candidates = lam_re <= lam_re[i] / 2.0 + tol.LENGTH_SLACK
        candidates[i] = False
        if not candidates.any():
            return float(defect[i])
        n = np.round(lam_re[i] / lam_re[candidates])
        slack = tol.CLASS_EPS * np.maximum(n, 1.0)
        re_ok = np.abs(lam_re[i] - n * lam_re[candidates]) <= slack
        im_diff = lam_im[i] - n * lam_im[candidates]
        im_ok = np.abs(im_diff - np.pi * np.round(im_diff / np.pi)) <= slack
        if not ((n >= 2) & re_ok & im_ok).any():
            return float(defect[i])
    raise SearchError("every loxodromic class resolved as a power")  # unreachable


def min_loxodromic_defect(gens: GeneratorSet, max_len: int) -> float:
    """Minimum |tr^2 X - 4| over loxodromic-or-hyperbolic ball elements.

    Proper powers of shorter classes are excluded, so the result is the
    defect of the shortest-geodesic (primitive) classes in the ball and an
    upper bound for the group's primitive defect infimum.
    """
    mats = _ball_elements(gens, max_len)
    if len(mats) == 0:
        raise SearchError("empty ball")
    traces = mats[:, 0, 0] + mats[:, 1, 1]
    lox = traces[_loxodromic_mask(traces)]
    if len(lox) == 0:
        raise SearchError("no loxodromic element in the ball")
    return _primitive_min_defect(lox)


def _pair_devs(mats: np.ndarray, rows: np.ndarray):
    """Yield (block of rows, |tr [X, Y] - 2|) for X in mats[rows], Y in mats.

    Uses the trace identity
        tr [X, Y] = tr^2 X + tr^2 Y + tr^2 XY - tr X tr Y tr XY - 2
    so only traces of pairwise products are formed, never the products.
    """
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    tr2 = tr * tr
    block = min(_PAIR_BLOCK, max(1, _PAIR_ENTRIES // len(mats)))
    for start in range(0, len(rows), block):
        r = rows[start:start + block]
        tr_xy = np.einsum("aij,bji->ab", mats[r], mats)
        comm = (tr2[r, None] + tr2[None, :] + tr_xy * tr_xy
                - tr[r, None] * tr[None, :] * tr_xy - 2.0)
        yield r, np.abs(comm - 2.0)


def _mat_of(row: np.ndarray) -> Mat2:
    return Mat2(complex(row[0, 0]), complex(row[0, 1]),
                complex(row[1, 0]), complex(row[1, 1]))


def _violations(mats: np.ndarray, threshold: float):
    """Non-elementary (J, x, y) with J below threshold, in ascending J.

    J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2| is never below the defect
    |tr^2 X - 4|, in floats too, so only rows X with a defect below
    threshold can violate. A pair is non-elementary when
    |tr [X, Y] - 2| > COMM_EPS, as in linalg.is_nonelementary: the pairs
    at tr [X, Y] = 2 share a fixed point. Mat2 is built only for the
    pairs yielded.
    """
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    defect = np.abs(tr * tr - 4.0)
    low = []
    for rows, dev in _pair_devs(mats, np.flatnonzero(defect < threshold)):
        jval = defect[rows, None] + dev
        r, cols = np.nonzero((dev > tol.COMM_EPS) & (jval < threshold))
        if len(r):
            low.append((jval[r, cols], rows[r], cols))
    if not low:
        return
    jv, rows, cols = (np.concatenate(part) for part in zip(*low))
    for k in np.argsort(jv, kind="stable"):
        yield float(jv[k]), _mat_of(mats[rows[k]]), _mat_of(mats[cols[k]])


def first_violation(gens: GeneratorSet, max_len: int,
                    threshold: float = 1.0 - tol.J_EPS):
    """Cheapest violation in the smallest ball of radius 2..max_len that has one.

    One ball is built to max_len and its radii 2, 3, ... are swept in
    turn; the first non-elementary pair with J below threshold, in
    ascending J, is returned as (J, x, y), else None.
    """
    if max_len < 2:
        raise ValueError(f"max_len {max_len} below 2: the smallest radius swept is 2")
    levels = ball_levels(gens, max_len)
    for radius in range(2, max_len + 1):
        hit = next(_violations(np.concatenate(levels[1:radius + 1]), threshold), None)
        if hit is not None:
            return hit
    return None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an inequality sweep over all ordered ball pairs."""

    n_elements: int
    n_pairs: int
    n_candidates: int
    violations: tuple  # non-elementary (J, x, y) below threshold, ascending J
    threshold: float


def inequality_sweep(gens: GeneratorSet, max_len: int,
                     threshold: float = 1.0 - tol.J_EPS) -> SweepReport:
    """Check J >= threshold for every non-elementary ordered pair in the ball."""
    mats = _ball_elements(gens, max_len)
    n = len(mats)
    # the candidates, pairs with tr [X, Y] != 2, are counted over every row
    n_candidates = sum(int(np.count_nonzero(dev > tol.COMM_EPS))
                       for _, dev in _pair_devs(mats, np.arange(n)))
    violations = tuple(_violations(mats, threshold))
    return SweepReport(n, n * n, n_candidates, violations, threshold)
