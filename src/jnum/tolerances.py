"""Shared numeric tolerances: the only module that picks a threshold.

All equality in this package is tolerance-based. The values below are
constants, chosen so that 8-9 significant-digit table values round-trip;
no environment variable or command-line option overrides them.
"""

CX_EPS = 1e-9    # complex scalar equality |a - b| <= CX_EPS
MAT_EPS = 1e-9   # projective matrix equality min(|M-N|, |M+N|)_inf <= MAT_EPS
DET_EPS = 1e-9   # determinant drift from 1, relative to max(1, |a d|, |b c|)
J_EPS = 1e-9     # slack in the inequality J >= 1 - J_EPS

QUANT = 1e-6     # quantization grid for projective dedup in word sweeps

ROUND_EPS = 1e-12      # an identity exact in real arithmetic, on unit-size doubles
TABLE_EPS = 1e-6       # tabulated decimals (arithcomp, knot table) carry 7-9 digits
PARAM_EPS = 1e-9       # a G(theta, k) within this of a listed k is that family
RECOGNIZE_EPS = 1e-6   # residual of a recognized x^2 + b x + c, relative to 1 + |x|^2
RECOGNIZE_COEFF_CAP = 10 ** 6  # largest |b|, |c| a recognized field may need
ROOT_EPS = 1e-9        # relative accuracy of a computed root: its residual bound
DERIV_FLOOR = 1e-30    # Newton polish leaves a root whose |p'| is below this
SCREEN_SLACK = 1e-6    # a root screen rejects on a pair with J < 1 - SCREEN_SLACK
J_AGREE_EPS = 1e-6     # J of a two-bridge witness pair vs |z| or |z|^2 (relative)
COMM_EPS = 1e-8        # pairs with |tr [X, Y] - 2| <= COMM_EPS are elementary
CLASS_EPS = 1e-6       # traces of one class, or lengths of a class and its power
LENGTH_SLACK = 1e-9    # rounding slack of re lam(root) <= re lam(power) / 2
