"""Jorgensen numbers of two-generator Kleinian groups.

The library computes J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2| for pairs
in SL(2, C), builds the parabolic representations of two-bridge knot and
link groups from their integer representation polynomials, screens pairs
for the arithmetic J = 1 conditions, and ships the tables of known
Jorgensen groups together with verification suites that recompute every
tabulated value. The `jnum` console script exposes the same operations.

The package root re-exports nothing; import each name from its module:

    jnum.linalg      SL2(C) matrices, the Jorgensen functional, JReport
    jnum.intpoly     exact integer polynomials (IntPoly)
    jnum.words       reduced words, word balls and the inequality sweeps
    jnum.riley       two-bridge fractions, representation polynomials, roots
    jnum.arith       invariant trace fields and the elliptic-order screen
    jnum.catalog     Bianchi groups, the G(theta, k) families and the tables
    jnum.tolerances  every numeric threshold, each with its reason
    jnum.frozen      the decorator behind the frozen value classes
    jnum.cli         the command-line front end (`jnum`)
"""

__version__ = "0.1.0"
