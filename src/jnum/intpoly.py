"""Exact integer polynomials, ascending-coefficient order.

Text format (used by the CLI and fixtures): comma-separated ascending
integer coefficients, e.g. "1,2,1,1" = 1 + 2z + z^2 + z^3.
"""

from __future__ import annotations

import math
from itertools import repeat, zip_longest

from .frozen import frozen


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@frozen
class IntPoly:
    coeffs: tuple  # ascending; empty tuple is the zero polynomial

    def __post_init__(self):
        if not all(map(isinstance, self.coeffs, repeat(int))):
            bad = next(c for c in self.coeffs if not isinstance(c, int))
            raise TypeError(f"integer coefficient required, got {bad!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("highest-degree coefficient must be nonzero")

    @staticmethod
    def from_list(coeffs) -> "IntPoly":
        return IntPoly(_trim(int(c) for c in coeffs))

    @staticmethod
    def parse(text: str) -> "IntPoly":
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            return IntPoly(())
        return IntPoly.from_list(int(p) for p in parts)

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_trim([x + y for x, y in zip_longest(self.coeffs, other.coeffs,
                                                            fillvalue=0)]))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return IntPoly(_trim(out))

    def derivative(self) -> "IntPoly":
        return IntPoly(_trim(k * c for k, c in enumerate(self.coeffs) if k))

    def primitive(self) -> "IntPoly":
        """Divide out the content; the leading coefficient comes out positive."""
        if self.is_zero:
            return self
        g = math.gcd(*self.coeffs)
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    def gcd(self, other: "IntPoly") -> "IntPoly":
        """Greatest common divisor over Q, as a primitive integer polynomial.

        Euclid's algorithm on pseudo-remainders, each made primitive, so
        every step stays in exact integer arithmetic.
        """
        a, b = self.primitive(), other.primitive()
        while not b.is_zero:
            r, lead, db = list(a.coeffs), b.coeffs[-1], b.degree
            while len(r) > db:
                head, shift = r[-1], len(r) - 1 - db
                r = [lead * c for c in r]
                for j, bj in enumerate(b.coeffs):
                    r[shift + j] -= head * bj
                r = list(_trim(r))
            a, b = b, IntPoly(tuple(r)).primitive()
        return a

    def valuation(self) -> int:
        """Order of vanishing at z = 0 (0 for nonzero constant term)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no valuation")
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return v

    def shifted_down(self, v: int) -> "IntPoly":
        """Divide by z^v (requires the low coefficients to vanish)."""
        if any(self.coeffs[i] != 0 for i in range(min(v, len(self.coeffs)))):
            raise ValueError(f"not divisible by z^{v}")
        return IntPoly(self.coeffs[v:])

    def divexact(self, divisor: "IntPoly") -> "IntPoly":
        """Exact division over Z; raises if the remainder is nonzero."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dlead = divisor.coeffs[-1]
        dn = len(divisor.coeffs)
        quo = [0] * max(len(rem) - dn + 1, 0)
        for k in range(len(rem) - dn, -1, -1):
            head = rem[k + dn - 1]
            if head % dlead != 0:
                raise ValueError("not exactly divisible over the integers")
            q = head // dlead
            quo[k] = q
            if q:
                for j, dj in enumerate(divisor.coeffs):
                    rem[k + j] -= q * dj
        if any(rem):
            raise ValueError("not exactly divisible over the integers")
        return IntPoly(_trim(quo))


_PRETEST_PRIME = 2 ** 61 - 1  # the word-size prime of the square-free pre-test


def _gcd_degree_mod(a: tuple, b: tuple, prime: int) -> int:
    """Degree of gcd(a mod prime, b mod prime) over F_prime; -1 if both vanish."""
    a = list(_trim(c % prime for c in a))
    b = list(_trim(c % prime for c in b))
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            head, shift = a[-1] * inv % prime, len(a) - len(b)
            a[shift:] = [(x - head * y) % prime for x, y in zip(a[shift:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _yun(poly: IntPoly) -> tuple:
    """Yun's square-free split in exact integer arithmetic."""
    deriv = poly.derivative()
    common = poly.gcd(deriv)
    if common.degree <= 0:
        return ((poly, 1),)
    b, c = poly.divexact(common), deriv.divexact(common)
    d = c - b.derivative()
    out, mult = [], 1
    while b.degree > 0:
        a = b.gcd(d)
        b, c = b.divexact(a), d.divexact(a)
        if a.degree > 0:
            out.append((a, mult))
        mult += 1
        d = c - b.derivative()
    return tuple(out)


def squarefree_factors(poly: IntPoly) -> tuple:
    """((a_1, 1), (a_2, 2), ...): poly = c a_1 a_2^2 a_3^3 ... by Yun's algorithm.

    The a_i are square-free and pairwise coprime, so every root of a_i is a
    root of poly of multiplicity exactly i; only factors of positive degree
    are listed. A square-free poly comes back unchanged as ((poly, 1),).

    A pre-test runs first: when the prime does not divide the leading
    coefficient, a repeated factor of poly over Q stays a repeated factor
    mod the prime, so a constant gcd(poly, poly') over F_prime proves poly
    square-free without the exact gcd. Otherwise Yun decides.
    """
    if (poly.degree > 0 and poly.coeffs[-1] % _PRETEST_PRIME
            and _gcd_degree_mod(poly.coeffs, poly.derivative().coeffs,
                                _PRETEST_PRIME) == 0):
        return ((poly, 1),)
    return _yun(poly)
