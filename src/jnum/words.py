"""Reduced words over a generator set: evaluation, and the ball sweeps
behind waist bounds, loxodromic defect minima, and the Jorgensen
inequality checks.

The aggregate operations min_c_entry, first_violation and
inequality_sweep walk a breadth-first ball of group elements with
projective dedup on a 1e-6 quantization grid; min_loxodromic_defect
takes the ball's trace set from cyclically reduced necklaces instead, one
of each orbit under inversion and, for two generators, reversal, each
length's products formed from the one before by one rule, and walks it,
signs as they come, in ascending defect |tr^2 - 4|, stopping at the first
trace that is no power, with no sort into classes. One Python dict maps the
grid key of every element so far to its index: each level keeps the first
candidate, in order, of each key not in it, then finds there each kept
element's inverse twin. The ball grows one radius at a time, so
first_violation pairs each radius as soon as it is built and builds no level
past the radius that rejects.
One pair pass serves both inequality checks, folded over inverse twins:
tr [X^+-1, Y^+-1] is one value, so it pairs one element of each {X, X^-1},
a quarter of the pairs. J is never below the defect |tr^2 X - 4|, so the
pass moves its front rows, those X with a defect below the threshold and
any row that is not finite, to the front and forms only their pairs. When
it counts candidates, it finds the elementary pairs among the other rows
by their shared fixed points, with no pair kernel. The pair kernel
forms tr [X, Y] - 2 = (s - p)(s + p), as in linalg.commutator_dev, in tiles
of k = min(rows left, max(1, _PAIR_ENTRIES // w)) rows against the
w = n - start columns from the tile's first row on: each unordered pair once,
as |tr [X, Y] - 2| is symmetric. Tiles share buffers, so a tile is valid only
until the next. A pair counts as non-elementary when |tr [X, Y] - 2| >
COMM_EPS, the test of linalg.is_nonelementary, decided once in the pass.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import tolerances as tol
from .frozen import frozen
from .linalg import IDENT, UNIT_TRANSLATION, Mat2

MAX_BALL_LEN = 16  # the longest word length a ball is built to
_PAIR_ENTRIES = 1 << 16  # pairs per pair-kernel tile, so its buffers stay in cache
# entries per GEMM call: with inner dimension 4, fewer than 2^16 multiply-adds,
# which OpenBLAS runs on the calling thread instead of waking its thread pool
_GEMM_ENTRIES = (1 << 14) - 1
_DEFECT_HEAD = 64  # traces the defect walk orders before it sorts them all


class SearchError(RuntimeError):
    """An enumeration finished without finding what it was asked for."""


@frozen
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
            if out and out[-1][0] == idx:
                exp += out.pop()[1]
            if exp:
                out.append((idx, exp))
        return Word(tuple(out))

    @staticmethod
    def parse(text: str, names) -> "Word":
        """Parse single-letter generator names; a trailing apostrophe inverts.

        Example: parse("ATA'T'", names=("A","T")) is the commutator [A, T].
        """
        index = {name: i for i, name in enumerate(names)}
        pairs = []
        for ch, prime in re.findall(r"([^ ])('?)", text):  # spaces are skipped
            if ch not in index:
                raise ValueError(f"unknown generator {ch!r}")
            pairs.append((index[ch], -1 if prime else 1))
        return Word.from_letters(pairs)

    def show(self, names) -> str:
        return " ".join(names[idx] if exp == 1 else f"{names[idx]}^{exp}"
                        for idx, exp in self.letters) or "1"


@frozen
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
# numpy ball machinery: each function imports numpy itself, so that the
# catalog commands, which build no ball, start without loading numpy


def _symbol_array(gens: GeneratorSet) -> np.ndarray:
    import numpy as np
    out = np.empty((2 * gens.arity, 2, 2), dtype=np.complex128)
    for i, m in enumerate(gens.mats):
        inv = m.inv()
        out[2 * i] = [[m.a, m.b], [m.c, m.d]]
        out[2 * i + 1] = [[inv.a, inv.b], [inv.c, inv.d]]
    return out


def _canonical_keys(mats: np.ndarray) -> np.ndarray:
    """Quantized sign-canonical integer keys, one row of 8 int64 per matrix."""
    import numpy as np
    flat = mats.reshape(len(mats), 4)
    q = np.empty((len(mats), 8), dtype=np.int64)
    q[:, 0::2] = np.round(flat.real / tol.QUANT)
    q[:, 1::2] = np.round(flat.imag / tol.QUANT)
    nonzero = q != 0
    first = np.argmax(nonzero, axis=1)
    lead = q[np.arange(len(q)), first]
    q[lead < 0] *= -1
    return q


def _grow_ball(gens: GeneratorSet, max_len: int):
    """Yield (level, twin) one radius at a time, each as it is built: the level
    of ball_levels and, per element, the index past the identity of its inverse
    twin, or -1. X^-1 has the word length of X, so the key of each adjugate
    [[d, -b], [-c, a]] is looked up once the whole level is in the key dict; a
    match is a twin only when mutual and another element, so an involution
    (trace 0), its own inverse, stays alone."""
    import numpy as np
    if max_len > MAX_BALL_LEN:
        raise ValueError(f"max_len capped at {MAX_BALL_LEN}")
    syms = _symbol_array(gens)
    ns = len(syms)
    ident = np.eye(2, dtype=np.complex128)[None]
    index = {_canonical_keys(ident).tobytes(): -1}  # grid key -> index past the identity
    frontier, last = ident, np.full(1, -1, dtype=np.int64)
    yield ident, last  # the identity has no twin
    for _ in range(max_len):
        if len(frontier) == 0:
            break
        # each element times every symbol but the inverse of its last one
        src, nxt = np.nonzero(np.arange(ns) != (last[:, None] ^ 1))
        cand = np.einsum("nij,njk->nik", frontier[src], syms[nxt])
        base = len(index) - 1
        keep = []  # first occurrence of each unseen key, in candidate order
        # each 8 x int64 key row as one 64-byte bytes object
        for i, key in enumerate(_canonical_keys(cand).view("V64")[:, 0].tolist()):
            if key not in index:
                index[key] = base + len(keep)
                keep.append(i)
        frontier = cand[keep]
        last = nxt[keep]
        a, b, c, d = frontier.reshape(len(frontier), 4).T
        adj = _canonical_keys(np.stack((d, -b, -c, a), axis=1)).view("V64")[:, 0]
        partner = np.array([index.get(key, -1) for key in adj.tolist()], dtype=np.int64)
        ids = np.arange(base, base + len(frontier))
        twin = (partner >= base) & (partner != ids)
        twin[twin] = partner[partner[twin] - base] == ids[twin]
        yield frontier, np.where(twin, partner, -1)


def ball_levels(gens: GeneratorSet, max_len: int):
    """Breadth-first ball of group elements, one (n,2,2) array per radius.

    Level 0 is the identity. Elements are deduplicated projectively across
    all levels, so each group element appears once, at its word-length radius
    (up to grid collisions at the 1e-6 quantization).
    """
    return [level for level, _ in _grow_ball(gens, max_len)]


def _ball_elements(gens: GeneratorSet, max_len: int) -> np.ndarray:
    """All non-identity ball elements as one (n,2,2) array."""
    import numpy as np
    levels = ball_levels(gens, max_len)
    if len(levels) <= 1:
        return np.empty((0, 2, 2), dtype=np.complex128)
    return np.concatenate(levels[1:], axis=0)


def min_c_entry(gens: GeneratorSet, max_len: int) -> float:
    """min |c| over ball elements with c != 0: an upper bound for the waist size.

    Requires the translation normalization, i.e. the generator set must
    contain [[1,1],[0,1]].
    """
    import numpy as np
    if not any(m.proj_eq(UNIT_TRANSLATION) for m in gens.mats):
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
    import numpy as np
    nonreal = np.abs(traces.imag) > tol.CX_EPS
    hyper = (~nonreal) & (np.abs(traces.real) > 2.0 + tol.CX_EPS)
    return nonreal | hyper


def _reach_size(reach):
    """2 cosh(reach), widened by ROUND_EPS: no trace with re lam <= reach is larger."""
    import numpy as np
    return 2.0 * np.cosh(reach) * (1.0 + tol.ROUND_EPS)


def _ascending(values: np.ndarray):
    """Yield the indices of values in ascending order, lazily: the _DEFECT_HEAD
    least are ordered by a partition, and every index is sorted only if the
    caller reads past them, when the walk starts over from the least."""
    import numpy as np
    head = np.argpartition(values, min(_DEFECT_HEAD, len(values)) - 1)[:_DEFECT_HEAD]
    yield from head[np.argsort(values[head])].tolist()
    yield from np.argsort(values).tolist()


def _primitive_min_defect(traces: np.ndarray) -> float:
    """Minimum |tr^2 - 4| over trace classes that are not proper powers.

    Classes are matched to powers through the complex translation length
    lam = arccosh(tr/2): class g is a power of class h when re lam_g is an
    integer multiple n >= 2 of re lam_h and im lam_g = n im lam_h mod pi.
    Detection is complete when the traces include the root class, which
    holds for the necklace traces of the lengths exercised here.

    The traces are walked in ascending defect, and the first that is no
    power is the answer, so no class is formed: members of one class pass or
    fail the test together, and n >= 2 keeps a class from being its own
    root. The sign of a trace changes nothing: |t^2 - 4| and |t| are even in
    t, and the principal arccosh(-w) is arccosh(w) +- i pi, so re lam is the
    same and the im test, taken mod pi, passes or fails alike. A root of
    trace i has re lam <= reach = re lam_i / 2 + LENGTH_SLACK, so
    |t| = |e^lam + e^-lam| <= 2 cosh(re lam) <= 2 cosh(reach) (Beardon 1983,
    4.3); only the traces inside that bound, widened by ROUND_EPS for
    rounding, have their lam taken.
    """
    import numpy as np
    defect, size = np.abs(traces * traces - 4.0), np.abs(traces)
    for i in _ascending(defect):
        lam_i = np.arccosh(traces[i] / 2.0)
        re_i = abs(lam_i.real)
        reach = re_i / 2.0 + tol.LENGTH_SLACK
        lam = np.arccosh(traces[size <= _reach_size(reach)] / 2.0)
        lam_re = np.abs(lam.real)
        candidates = lam_re <= reach
        n = np.round(re_i / lam_re[candidates])
        slack = tol.CLASS_EPS * np.maximum(n, 1.0)
        re_ok = np.abs(re_i - n * lam_re[candidates]) <= slack
        im_diff = lam_i.imag - n * lam.imag[candidates]
        im_ok = np.abs(im_diff - np.pi * np.round(im_diff / np.pi)) <= slack
        if not ((n >= 2) & re_ok & im_ok).any():
            return float(defect[i])
    raise SearchError("every loxodromic class resolved as a power")  # unreachable


def _least_in_orbit(code, rev, length: int, ns: int, bits: int):
    """Mask of the necklaces, given by their codes and reversed codes, that are
    no larger than every rotation of their inverse and, when ns == 4, of their
    reverse and their letter inversion.

    Letters are bits wide, the first the most significant, so the numeric
    order of codes is the lexicographic order of words and a rotation is two
    shifts. The inverse is the reverse with every letter XOR 1.
    """
    import numpy as np
    width = bits * length
    flip = np.uint64(sum(1 << k for k in range(0, width, bits)))  # XOR 1 per letter
    mask = np.uint64((1 << width) - 1)
    images = [rev ^ flip] + ([rev, code ^ flip] if ns == 4 else [])
    keep = np.ones(len(code), dtype=bool)
    for image in images:
        keep &= code <= image
        for k in range(bits, width, bits):
            keep &= code <= (((image << np.uint64(k)) & mask) | (image >> np.uint64(width - k)))
    return keep


@lru_cache(maxsize=1)
def _necklace_tree(ns: int, max_len: int) -> tuple:
    """Read-only (src, nxt, neck) for each length 1..max_len: the parent row (at
    length 1 the empty word), the last symbol and the kept-necklace mask of each
    row, with one cyclically reduced necklace kept for each orbit of the
    symmetries that keep a trace.

    A necklace is the lexicographically least rotation of a word, periodic
    ones included. The Fredricksen-Kessler-Maiorana pre-necklace tree is
    grown one length at a time: a row (word, period p) of length L takes a
    symbol b that is not the inverse of its last symbol and is >= word[L - p];
    the period stays p when b equals word[L - p] and becomes L + 1 otherwise.
    A row with L % p == 0 is a necklace, and it is cyclically reduced when
    its first symbol is not the inverse of its last.

    The tree is folded over the symmetries that keep every trace (see
    min_loxodromic_defect): inversion, and for two generators (ns == 4)
    reversal and so letter inversion w(A^-1, B^-1) = (w^rev)^-1. A necklace
    is kept when it is least in its orbit (_least_in_orbit). A kept necklace
    starts with its least letter, which is even, or the inverse, holding
    that letter XOR 1, would have a lesser rotation; so the tree grows from
    the even symbols only. A backward pass then drops every row that is
    neither a kept necklace nor an ancestor of one, and renumbers src; the
    last level holds kept necklaces only. The tree depends only on
    (ns, max_len), so one build serves every group over ns symbols.
    """
    import numpy as np
    bits = (ns - 1).bit_length()
    nxt = np.arange(0, ns, 2)
    word, period = nxt[:, None].astype(np.int8), np.ones(len(nxt), dtype=np.int64)
    code = rev = nxt.astype(np.uint64)
    grown = [(np.zeros(len(nxt), dtype=np.intp), nxt, np.ones(len(nxt), dtype=bool))]
    for length in range(1, max_len):
        ref = word[np.arange(len(word)), length - period]
        src, nxt = np.nonzero((np.arange(ns) != (word[:, -1, None] ^ 1))
                              & (np.arange(ns) >= ref[:, None]))
        word = np.concatenate((word[src], nxt[:, None].astype(np.int8)), axis=1)
        period = np.where(nxt == ref[src], period[src], length + 1)
        last = nxt.astype(np.uint64)
        code = (code[src] << np.uint64(bits)) | last
        rev = rev[src] | (last << np.uint64(bits * length))
        neck = np.flatnonzero(((length + 1) % period == 0) & (word[:, 0] != (word[:, -1] ^ 1)))
        kept = np.zeros(len(src), dtype=bool)
        kept[neck[_least_in_orbit(code[neck], rev[neck], length + 1, ns, bits)]] = True
        grown.append((src, nxt, kept))
    levels, stay = [], grown[-1][2]
    for depth in range(len(grown) - 1, -1, -1):
        src, nxt, kept = (arr[stay] for arr in grown[depth])
        if depth:
            stay = grown[depth - 1][2].copy()
            stay[src] = True
            src = np.cumsum(stay)[src] - 1
        for arr in (src, nxt, kept):
            arr.flags.writeable = False
        levels.append((src, nxt, kept))
    return tuple(levels[::-1])


def _necklace_traces(gens: GeneratorSet, max_len: int) -> np.ndarray:
    """Traces of the kept necklaces of _necklace_tree, length 1..max_len: one
    trace of each orbit of the cyclically reduced necklaces.

    The products of the tree's rows are one (2, 2, n) array, a row per entry,
    each level formed from its parents (the identity at length 1) and last
    symbols with 8 complex multiplies.
    """
    import numpy as np
    syms = _symbol_array(gens).transpose(1, 2, 0)
    prod, traces = np.eye(2, dtype=np.complex128)[:, :, None], []
    for parent, symbol, neck in _necklace_tree(syms.shape[2], max_len):
        p, s = np.take(prod, parent, axis=2), np.take(syms, symbol, axis=2)
        prod = p[:, :1] * s[0] + p[:, 1:] * s[1]
        traces.append(prod[0, 0, neck] + prod[1, 1, neck])
    return np.concatenate(traces)


def min_loxodromic_defect(gens: GeneratorSet, max_len: int) -> float:
    """Minimum |tr^2 X - 4| over loxodromic-or-hyperbolic ball elements.

    Proper powers of shorter classes are excluded, so the result is the
    defect of the shortest-geodesic (primitive) classes in the ball and an
    upper bound for the group's primitive defect infimum.

    The traces come from _necklace_traces, not from the ball: a trace is
    constant on a conjugacy class, so every ball element u c u^-1 has the
    trace of its cyclically reduced core c, a rotation of a necklace of
    length <= max_len. Conversely each such necklace's element is in the
    ball, or its grid-dedup partner with the same trace is. So the
    necklace traces, periodic ones included, are the ball's trace set.
    Each trace is taken once per orbit of two identities. tr w^-1 = tr w:
    Mat2.inv is the adjugate, and tr adj P = tr P. For two generators
    tr w^rev = tr w (Horowitz, Comm. Pure Appl. Math. 25, 1972):
    w^rev(A, B) = w(A^T, B^T)^T, and (A^T, B^T) has the tr A, tr B and
    tr AB that fix every trace through its Fricke polynomial; for three
    generators tr ABC and tr CBA differ. At length 12 that is 30,226
    products and 18,618 traces, one for each orbit of the 69,996
    necklaces, from a tree built once per (symbol count, length), where
    the ball has about 1.06 M elements.
    Powers are still found from the traces, since a word that is no power
    in the free group can be a proper power in the group.
    """
    if max_len > MAX_BALL_LEN:
        raise ValueError(f"max_len capped at {MAX_BALL_LEN}")
    if max_len < 1:
        raise SearchError("empty ball")
    traces = _necklace_traces(gens, max_len)
    lox = traces[_loxodromic_mask(traces)]
    if len(lox) == 0:
        raise SearchError("no loxodromic element in the ball")
    return _primitive_min_defect(lox)


def _pair_devs(mats: np.ndarray, n_rows: int):
    """Yield (start, |tr [X, Y] - 2|) for X in mats[start:start + k], Y in mats[start:].

    Tiles of k = min(rows left, max(1, _PAIR_ENTRIES // (n - start))) rows cover rows
    0..n_rows - 1 in order. s + p and s - p of linalg.commutator_dev are one complex
    GEMM of the rows (u, b, c, +-r), u = a - d, r = sqrt(t - 2) sqrt(t + 2), with the
    columns (u/2, c, b, r/2), run in balanced row blocks of at most
    _GEMM_ENTRIES // (n - start) rows, so that every product stays on the calling
    thread. A block is one row, which numpy hands to GEMV, only in a tile of one
    row or where that bound is under 3 rows. Every tile reuses two complex and one
    float buffer, so it is valid only until the next one is yielded.
    """
    import numpy as np
    n = len(mats)
    a, b, c, d = mats.reshape(n, 4).T
    u, r = a - d, np.sqrt(a + d - 2) * np.sqrt(a + d + 2)
    rows = np.stack((np.stack((u, b, c, r), axis=1), np.stack((u, b, c, -r), axis=1)))
    cols = np.stack((u / 2, c, b, r / 2))
    size = min(n_rows * n, max(_PAIR_ENTRIES, n))
    s_pm, dev = np.empty((2, size), dtype=np.complex128), np.empty(size)
    start = 0
    while start < n_rows:
        k = min(n_rows - start, max(1, _PAIR_ENTRIES // (n - start)))
        tile = s_pm[:, :k * (n - start)].reshape(2, k, -1)
        blocks = -(-k // max(1, _GEMM_ENTRIES // (n - start)))
        for i in range(blocks):
            lo, hi = k * i // blocks, k * (i + 1) // blocks
            np.matmul(rows[:, start + lo:start + hi], cols[:, start:], out=tile[:, lo:hi])
        np.multiply(tile[0], tile[1], out=tile[0])
        yield start, np.abs(tile[0], out=dev[:k * (n - start)].reshape(k, -1))
        start += k


def _mat_of(row: np.ndarray) -> Mat2:
    return Mat2(complex(row[0, 0]), complex(row[0, 1]),
                complex(row[1, 0]), complex(row[1, 1]))


def _elementary_back_weight(mats: np.ndarray, weight: np.ndarray) -> int:
    """Sum of w_x w_y over the ordered pairs (X, Y) of rows of mats with
    |tr [X, Y] - 2| <= COMM_EPS; every row is finite and neither +-I nor parabolic.

    For such X, Y, tr [X, Y] = 2 exactly when they share a fixed point
    (Gehring-Martin, Complex Variables 12, 1989), so only the rows that share
    a fixed point's key, and each row with itself, are tested. The fixed points
    [m : 2c] and [2b : -m], m the larger in modulus of u +- r (u = a - d, r as
    in _pair_devs), cancel nothing; each is keyed on the QUANT grid by its point
    (2 Re z1 z2*, 2 Im z1 z2*, |z1|^2 - |z2|^2) / (|z1|^2 + |z2|^2) of the unit
    sphere, so infinity is no special case. The test is linalg.commutator_dev's
    arithmetic, so the sum equals the tiles' count whenever no pair's
    |tr [X, Y] - 2| lies within rounding of COMM_EPS. Where one does, as a row
    with itself or a pair with a shared fixed point can once the entries reach
    the hundreds, the tiles, which sum in another order, may read it on the
    other side of COMM_EPS, and the two counts differ by its weight.
    """
    import numpy as np
    n = len(mats)
    a, b, c, d = mats.reshape(n, 4).T
    u, r = a - d, np.sqrt(a + d - 2) * np.sqrt(a + d + 2)
    m = np.where(np.abs(u + r) >= np.abs(u - r), u + r, u - r)
    z1, z2 = np.concatenate((m, 2 * b)), np.concatenate((2 * c, -m))
    w, n1, n2 = z1 * z2.conj(), np.abs(z1) ** 2, np.abs(z2) ** 2
    key = np.round(np.stack((2 * w.real, 2 * w.imag, n1 - n2)) / ((n1 + n2) * tol.QUANT))
    by_key = np.lexsort(key)
    key, row = key[:, by_key], by_key % n
    x, y, gap = [np.arange(n)], [np.arange(n)], 1  # each row with itself
    # the entries gap apart in key order; the entries of one key are one run,
    # so no two past the longest run share it
    while (same := (key[:, gap:] == key[:, :-gap]).all(axis=0)).any():
        x.append(row[:-gap][same])
        y.append(row[gap:][same])
        gap += 1
    x, y = np.concatenate(x), np.concatenate(y)
    pair = np.sort(np.minimum(x, y) * n + np.maximum(x, y))
    x, y = np.divmod(pair[np.diff(pair, prepend=-1) != 0], n)
    s = u[x] * u[y] / 2 + (b[x] * c[y] + c[x] * b[y])
    p = r[x] * r[y] / 2
    elementary = np.abs((s - p) * (s + p)) <= tol.COMM_EPS
    w = weight[x] * weight[y] * np.where(x == y, 1, 2)
    return int(w[elementary].sum())


def _pair_pass(mats: np.ndarray, partner: np.ndarray, threshold: float, count: bool):
    """(n_candidates, J, x, y): the non-elementary ordered pairs (mats[x], mats[y])
    with J below threshold, in ascending J and ties in (x, y) order.

    partner[i] is the index of mats[i]^-1 in mats, or -1, as _grow_ball finds
    it. The pass is folded over these twins: tr X^-1 = tr X and [X^-1, Y] is
    conjugate to [X, Y]^-1, so J is one value on (X^+-1, Y^+-1). Only the lower
    index of each twin pair is swept, with weight 2 (1 when alone), and each
    violating pair expands to every member of its two twin pairs, with its J.
    J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2| is never below the defect
    |tr^2 X - 4|, in floats too. So the front rows, the swept rows with a
    defect below threshold and those not finite, move to the front, in order,
    and only their tiles are formed, with or without count; one mask decides
    both the order and the number of rows formed. Since |tr [X, Y] - 2| is
    symmetric in X and Y, an entry right of its tile's square part stands for
    both orders, and the tiles hold every pair with a front row. With count,
    n_candidates, the ordered pairs with |tr [X, Y] - 2| > COMM_EPS, is n^2 less
    the weight products of the few elementary swept pairs: those in the tiles,
    NaN pairs among them, and those among the back rows, each finite with a
    nonzero defect at or above threshold, from _elementary_back_weight.
    """
    import numpy as np
    reps = np.flatnonzero((partner < 0) | (partner > np.arange(len(mats))))
    tr = mats[reps, 0, 0] + mats[reps, 1, 1]
    defect = np.abs(tr * tr - 4.0)
    back = (defect >= threshold) & (defect > 0) & np.isfinite(mats[reps]).all(axis=(1, 2))
    order = np.argsort(back, kind="stable")
    n_front = len(order) - int(np.count_nonzero(back))
    defect, order = defect[order], reps[order]
    weight = np.where(partner[order] < 0, 1, 2)
    n_candidates, hits = len(mats) ** 2, [(np.empty(0), order[:0], order[:0])]
    if count:
        n_candidates -= _elementary_back_weight(mats[order[n_front:]], weight[n_front:])
    for start, dev in _pair_devs(mats[order], n_front):
        cand = dev > tol.COMM_EPS
        if count:
            r, c = np.divmod(np.flatnonzero(~cand), dev.shape[1])  # elementary, or NaN
            w = weight[start + r] * weight[start + c]
            n_candidates -= 2 * int(w.sum()) - int(w[c < len(dev)].sum())
        r, c = np.nonzero(cand & (dev < threshold))  # J >= dev, in floats too
        mirror = c >= len(dev)
        x = start + np.concatenate((r, c[mirror]))
        y = start + np.concatenate((c, r[mirror]))
        jv = defect[x] + np.concatenate((dev[r, c], dev[r[mirror], c[mirror]]))
        keep = jv < threshold
        hits.append((jv[keep], order[x[keep]], order[y[keep]]))
    jv, x, y = (np.concatenate(part) for part in zip(*hits))
    px, py = partner[x], partner[y]
    x, y = np.concatenate((x, x, px, px)), np.concatenate((y, py, y, py))
    jv, keep = np.tile(jv, 4), (x >= 0) & (y >= 0)
    jv, x, y = jv[keep], x[keep], y[keep]
    by_j = np.lexsort((y, x, jv))
    return n_candidates, jv[by_j], x[by_j], y[by_j]


def first_violation(gens: GeneratorSet, max_len: int,
                    threshold: float = 1.0 - tol.J_EPS):
    """Cheapest violation in the smallest ball of radius 2..max_len that has one.

    The ball grows one radius at a time, and each radius from 2 on is swept
    by the folded pair pass as soon as it is built, so a violation at
    radius r stops the growth there: the levels past r are never built. A
    radius holds the inverse of each element it holds, so each pairs one
    element of each {X, X^-1}. The first non-elementary pair with J below
    threshold, in ascending J, is returned as (J, x, y), else None.
    """
    import numpy as np
    if max_len < 2:
        raise ValueError(f"max_len {max_len} below 2: the smallest radius swept is 2")
    levels, twins = [], []
    for radius, (level, twin) in enumerate(_grow_ball(gens, max_len)):
        levels.append(level)
        twins.append(twin)
        if radius < 2:
            continue
        mats = np.concatenate(levels[1:])
        _, jv, x, y = _pair_pass(mats, np.concatenate(twins[1:]), threshold, count=False)
        if len(jv):
            return float(jv[0]), _mat_of(mats[x[0]]), _mat_of(mats[y[0]])
    return None


@frozen
class SweepReport:
    """Outcome of an inequality sweep over all ordered ball pairs."""

    n_elements: int
    n_pairs: int
    n_candidates: int
    violations: tuple  # non-elementary (J, x, y) below threshold, ascending J


def inequality_sweep(gens: GeneratorSet, max_len: int,
                     threshold: float = 1.0 - tol.J_EPS) -> SweepReport:
    """Check J >= threshold for every non-elementary ordered pair in the ball."""
    import numpy as np
    if max_len < 1:
        raise ValueError(f"max_len {max_len} below 1: the ball has no pairs")
    levels, twins = zip(*_grow_ball(gens, max_len))
    mats = np.concatenate(levels[1:])
    n_candidates, jv, x, y = _pair_pass(mats, np.concatenate(twins[1:]), threshold, count=True)
    elems = {i: _mat_of(mats[i]) for i in set(x.tolist()) | set(y.tolist())}
    violations = tuple((j, elems[a], elems[b])
                       for j, a, b in zip(jv.tolist(), x.tolist(), y.tolist()))
    return SweepReport(len(mats), len(mats) ** 2, n_candidates, violations)
