"""Reduced words over a generator set: evaluation, and the ball sweeps
behind waist bounds, loxodromic defect minima, and the Jorgensen
inequality checks.

The aggregate operations (min_c_entry, min_loxodromic_defect,
first_violation, inequality_sweep) walk a breadth-first ball of group
elements with projective dedup on a 1e-6 quantization grid, which is what
keeps depth-12 sweeps tractable. The two inequality checks share one
stream of pair candidates: every ordered ball pair is screened by its
commutator trace and J, and the pairs below the threshold are confirmed
in ascending J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .linalg import IDENT, Mat2, is_nonelementary


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

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_letters(self.letters + other.letters)

    def power(self, n: int) -> "Word":
        if n < 0:
            return self.inverse().power(-n)
        w = Word(())
        for _ in range(n):
            w = w * self
        return w

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

    @staticmethod
    def of(**named_mats) -> "GeneratorSet":
        return GeneratorSet(tuple(named_mats.keys()), tuple(named_mats.values()))

    @property
    def arity(self) -> int:
        return len(self.mats)

    def word(self, text: str) -> Word:
        return Word.parse(text, self.names)


def evaluate(gens: GeneratorSet, w: Word) -> Mat2:
    """Left-to-right product of generator powers."""
    m = IDENT
    for idx, exp in w.letters:
        if not 0 <= idx < gens.arity:
            raise IndexError(f"generator index {idx} out of range")
        m = m @ gens.mats[idx].power(exp)
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


def ball_levels(gens: GeneratorSet, max_len: int):
    """Breadth-first ball of group elements, one (n,2,2) array per radius.

    Level 0 is the identity. Elements are deduplicated projectively across
    all levels, so each group element appears once, at its word-length radius
    (up to grid collisions at the 1e-6 quantization).
    """
    if max_len > 16:
        raise ValueError("max_len capped at 16")
    syms = _symbol_array(gens)
    ns = len(syms)
    seen = set()
    ident = np.eye(2, dtype=np.complex128)[None]
    seen.add(_canonical_keys(ident)[0].tobytes())
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
        keys = _canonical_keys(cand)
        uniq, uidx = np.unique(keys, axis=0, return_index=True)
        keep = []
        for row_key, row_idx in zip(uniq, uidx):
            kb = row_key.tobytes()
            if kb not in seen:
                seen.add(kb)
                keep.append(row_idx)
        keep.sort()
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
    flip = (t.real < -1e-12) | ((np.abs(t.real) <= 1e-12) & (t.imag < 0))
    t[flip] *= -1
    order = np.lexsort((t.imag, t.real))
    t = t[order]
    fresh = np.empty(len(t), dtype=bool)
    fresh[0] = True
    fresh[1:] = np.abs(np.diff(t)) > 1e-6
    reps = t[fresh]
    lam = np.arccosh(reps / 2.0)
    lam_re = np.abs(lam.real)
    lam_im = lam.imag
    defect = np.abs(reps * reps - 4.0)
    for i in np.argsort(defect):
        candidates = lam_re <= lam_re[i] / 2.0 + 1e-9
        candidates[i] = False
        if not candidates.any():
            return float(defect[i])
        n = np.round(lam_re[i] / lam_re[candidates])
        re_ok = np.abs(lam_re[i] - n * lam_re[candidates]) <= 1e-6 * np.maximum(n, 1.0)
        im_diff = lam_im[i] - n * lam_im[candidates]
        im_ok = np.abs(im_diff - np.pi * np.round(im_diff / np.pi)) <= 1e-6 * np.maximum(n, 1.0)
        if not ((n >= 2) & re_ok & im_ok).any():
            return float(defect[i])
    raise SearchError("every loxodromic class resolved as a power")  # unreachable


def min_loxodromic_defect(gens: GeneratorSet, max_len: int,
                          include_powers: bool = False) -> float:
    """Minimum |tr^2 X - 4| over loxodromic-or-hyperbolic ball elements.

    By default proper powers of shorter classes are excluded, so the result
    is the defect of the shortest-geodesic (primitive) classes in the ball
    and an upper bound for the group's primitive defect infimum. With
    include_powers=True the minimum runs over every loxodromic element.
    """
    mats = _ball_elements(gens, max_len)
    if len(mats) == 0:
        raise SearchError("empty ball")
    traces = mats[:, 0, 0] + mats[:, 1, 1]
    lox = traces[_loxodromic_mask(traces)]
    if len(lox) == 0:
        raise SearchError("no loxodromic element in the ball")
    if include_powers:
        return float(np.abs(lox * lox - 4.0).min())
    return _primitive_min_defect(lox)


def _pair_stats_blocks(mats: np.ndarray, block: int = 256):
    """Yield (row_start, J_block, comm_block) for all ordered pairs.

    Uses the trace identity
        tr [X, Y] = tr^2 X + tr^2 Y + tr^2 XY - tr X tr Y tr XY - 2
    so only traces of pairwise products are formed, never the products.
    """
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    tr2 = tr * tr
    defect = np.abs(tr2 - 4.0)
    for start in range(0, len(mats), block):
        rows = mats[start:start + block]
        tr_xy = np.einsum("aij,bji->ab", rows, mats)
        tr_row = tr[start:start + block]
        comm = (tr2[start:start + block, None] + tr2[None, :] + tr_xy * tr_xy
                - tr_row[:, None] * tr[None, :] * tr_xy - 2.0)
        jval = defect[start:start + block, None] + np.abs(comm - 2.0)
        yield start, jval, comm


def _mat_of(row: np.ndarray) -> Mat2:
    return Mat2(complex(row[0, 0]), complex(row[0, 1]),
                complex(row[1, 0]), complex(row[1, 1]))


def _violations(mats: np.ndarray, threshold: float):
    """(n_candidates, stream of confirmed violations) over all ordered pairs.

    Candidate pairs are those with tr [X, Y] != 2 (a shared fixed point
    forces the commutator trace to equal 2 exactly); they are only counted.
    The few below threshold are kept and confirmed with the full
    elementarity heuristic lazily, in ascending J, each yielded as (J, x, y).
    """
    n_candidates = 0
    low = []
    for start, jval, comm in _pair_stats_blocks(mats):
        mask = np.abs(comm - 2.0) > 1e-8
        n_candidates += int(np.count_nonzero(mask))
        # named, so it is freed only with the next block: freeing it at once
        # raised the sweep's peak RSS by 5 MB (allocator placement)
        below = mask & (jval < threshold)
        rows, cols = np.nonzero(below)
        if len(rows):
            low.append((jval[rows, cols], rows + start, cols))

    def confirmed():
        if not low:
            return
        jv, rows, cols = (np.concatenate(part) for part in zip(*low))
        for k in np.argsort(jv, kind="stable"):
            x = _mat_of(mats[rows[k]])
            y = _mat_of(mats[cols[k]])
            if is_nonelementary(x, y):
                yield float(jv[k]), x, y

    return n_candidates, confirmed()


def first_violation(gens: GeneratorSet, max_len: int,
                    threshold: Optional[float] = None):
    """Cheapest confirmed non-elementary pair with J below threshold, or None.

    Early-exit form of inequality_sweep: the first confirmed violation in
    ascending J is returned as (J, x, y). Used to discard non-discrete
    candidate groups quickly.
    """
    if threshold is None:
        threshold = 1.0 - tol.J_EPS
    _, stream = _violations(_ball_elements(gens, max_len), threshold)
    return next(stream, None)


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an inequality sweep over all ordered ball pairs."""

    n_elements: int
    n_pairs: int
    n_candidates: int
    violations: tuple  # confirmed non-elementary (J, x, y) below threshold, ascending J
    threshold: float


def inequality_sweep(gens: GeneratorSet, max_len: int,
                     threshold: Optional[float] = None) -> SweepReport:
    """Check J >= threshold for every non-elementary ordered pair in the ball."""
    if threshold is None:
        threshold = 1.0 - tol.J_EPS
    mats = _ball_elements(gens, max_len)
    n_candidates, stream = _violations(mats, threshold)
    n = len(mats)
    return SweepReport(n, n * n, n_candidates, tuple(stream), threshold)
