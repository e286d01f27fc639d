"""Exception types raised by the library."""

from __future__ import annotations


class CycleAlgebraError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(CycleAlgebraError, ValueError):
    """Operands live over cycles of different sizes or have bad shape."""


class DegreeOverflow(CycleAlgebraError, ValueError):
    """An operation would produce an entry degree above the configured cap."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"entry degree {degree} exceeds cap {cap}")


class GridTooSmall(CycleAlgebraError, ValueError):
    """A boundary grid has too few points to resolve the data's degree."""

    def __init__(self, m: int, needed: int):
        self.m = m
        self.needed = needed
        super().__init__(
            f"a grid of {m} points aliases the data; the smallest grid that "
            f"resolves it has {needed} points"
        )


class NotInAlgebra(CycleAlgebraError, ValueError):
    """A realized matrix has support off the cyclic exponent pattern."""

    def __init__(self, i: int, j: int, power: int, coeff: complex):
        self.i = i
        self.j = j
        self.power = power
        self.coeff = coeff
        super().__init__(
            f"entry ({i},{j}) has coefficient {coeff:.3e} at z^{power}, "
            "which is off the admissible exponent ladder"
        )


class NotLocallyInner(CycleAlgebraError):
    """A boundary-field solve hit a point where no inner witness exists."""

    def __init__(self, lam: complex, residual: float, tol: float):
        self.lam = lam
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"no inner witness at lambda = {lam:.6g}: residual {residual:.3e} "
            f"> tol {tol:.3e}"
        )
