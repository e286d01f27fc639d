"""Numeric defaults shared across the library.

All of these can be overridden per call; the module constants only fix the
behaviour when a caller does not say otherwise.
"""

# Coefficients with modulus at or below this are treated as zero when
# canonicalizing polynomials and when checking membership of realized
# matrices in the algebra.
EPS_COEFF = 1e-9

# Default cap on the base-variable degree of a reconstructed witness
# (reconstruct --deg-max).  Exceeding it raises DegreeOverflow; products are
# exact at every degree, and the boundary grid is sized by the data.
DEG_MAX = 64

# Residual threshold deciding whether a linear system for an inner witness
# counts as consistent.
TOL_INNER = 1e-8

# Default number of equispaced unit-circle points used by the grid norm.
NORM_GRID = 512
