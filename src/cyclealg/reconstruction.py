"""Reconstruction of global inner witnesses from boundary data.

A global derivation D on the algebra, given by its values on the 2n
generators, localizes at every boundary point lambda to point-derivation
data.  When each localization is inner, the pointwise witnesses X(lambda)
assemble along a root-of-unity grid into matrix functions; trigonometric
interpolation then recovers a single element X with D(a) = a X - X a,
provided the data really came from a derivation of the algebra.  The n = 1
algebra has no off-diagonal room and witnesses collapse to scalars, so the
pipeline certifies an inner witness only for D = 0 there.

A derivation is fixed by its generator values, and the witness is checked
on the 2n generator equations alone, so ``GlobalDerivation`` keeps the 2n
values as elements and ``apply`` reads them on the span of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (
    CycleElement,
    element_from_json,
    generators,
    mul_elem,
    norm,
    parse_realized,
    zero,
)
from .derivations import GenDerivation, _point_solve
from .errors import DegreeOverflow, DimensionMismatch, GridTooSmall
from .errors import NotLocallyInner
from .poly import float_from_json, int_from_json
from .poly import interpolate_roots_of_unity
from .representations import (
    Lambda,
    eval_rep,
    eval_rep_at_unit_roots,
    matc_from_json,
    matc_to_json,
)

__all__ = [
    "GlobalDerivation",
    "localize",
    "solve_boundary_field",
    "BoundaryField",
    "reconstruct_witness",
    "verify_global_inner",
    "VerifyReport",
]

@dataclass(frozen=True, eq=False)
class GlobalDerivation:
    """Algebra-valued derivation data on the 2n generators.

    values_e[i] and values_Z[i] are elements of the algebra, the images of
    the 1-based generators gen_e(n, i+1) and gen_Z(n, i+1).
    """

    n: int
    values_e: tuple[CycleElement, ...]
    values_Z: tuple[CycleElement, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("cycle size must be >= 1")
        if len(self.values_e) != self.n or len(self.values_Z) != self.n:
            raise DimensionMismatch("need one value per generator")
        for v in (*self.values_e, *self.values_Z):
            if v.n != self.n:
                raise DimensionMismatch("value lives over the wrong cycle")
        object.__setattr__(self, "values_e", tuple(self.values_e))
        object.__setattr__(self, "values_Z", tuple(self.values_Z))

    @classmethod
    def from_commutator(cls, X0: CycleElement) -> GlobalDerivation:
        """The inner derivation a -> a X0 - X0 a on generators."""
        es, Zs = generators(X0.n)
        return cls(
            X0.n,
            tuple(_bracket(g, X0) for g in es),
            tuple(_bracket(g, X0) for g in Zs),
        )

    @property
    def value_degree(self) -> int:
        """Top entry degree over all generator values (-1 when all zero)."""
        return max(
            v.max_degree for v in (*self.values_e, *self.values_Z)
        )

    def apply(self, a: CycleElement) -> CycleElement:
        """D on an element of the span of the 2n generators.

        A coefficient on the path of m arrows from vertex i reads the data
        value of that generator, values_e[i] at m = 0 and values_Z[i] at
        m = 1, so D agrees with its data on every generator and is linear
        on their span.  A longer path is no generator: ValueError.
        """
        if a.n != self.n:
            raise DimensionMismatch("element and derivation sizes differ")
        n = self.n
        values = (self.values_e, self.values_Z)
        out = zero(n)
        # row-major over (i, j, d), skipping zero coefficients
        for i, j, d in zip(*(x.tolist() for x in np.nonzero(a.coeffs))):
            steps = (j - i) % n + d * n
            if steps >= 2:
                raise ValueError(
                    f"element has a path of {steps} arrows from vertex {i}; "
                    "D is read on the span of the generators only"
                )
            out = out + values[steps][i] * a.coeffs[i, j, d]
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "values_e": [v.to_json() for v in self.values_e],
            "values_Z": [v.to_json() for v in self.values_Z],
        }


def global_derivation_from_json(data: dict) -> GlobalDerivation:
    try:
        n = int_from_json(data["n"], "n", 1)
        values_e = tuple(element_from_json(v) for v in data["values_e"])
        values_Z = tuple(element_from_json(v) for v in data["values_Z"])
    except TypeError as exc:
        raise ValueError(f"malformed derivation JSON: {exc}") from exc
    return GlobalDerivation(n, values_e, values_Z)


def _bracket(g: CycleElement, X: CycleElement) -> CycleElement:
    """g X - X g for a generator g."""
    return mul_elem(g, X) - mul_elem(X, g)


def localize(D: GlobalDerivation, lam: complex) -> GenDerivation:
    """Point-derivation data at Lambda(lam) induced by a global derivation."""
    point = Lambda(lam)
    return GenDerivation(
        point,
        tuple(eval_rep(point, v) for v in D.values_e),
        tuple(eval_rep(point, v) for v in D.values_Z),
    )


@dataclass(frozen=True)
class BoundaryField:
    """Pointwise inner witnesses on a root-of-unity grid.

    X_at[t] solves the localized commutator equations at exp(2*pi*i*t/m),
    normalized so the (1, 1) entry vanishes.
    """

    n: int
    m: int
    X_at: np.ndarray
    max_residual: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "max_residual": self.max_residual,
            "X_at": [matc_to_json(self.X_at[t]) for t in range(self.m)],
        }


def boundary_field_from_json(data: dict) -> BoundaryField:
    try:
        n = int_from_json(data["n"], "n", 1)
        m = int_from_json(data["m"], "m", 1)
        X_at = np.stack([matc_from_json(x) for x in data["X_at"]])
        max_residual = float_from_json(
            data.get("max_residual", 0.0), "max_residual"
        )
    except TypeError as exc:
        raise ValueError(f"malformed boundary field JSON: {exc}") from exc
    if X_at.shape != (m, n, n):
        raise ValueError("boundary field payload has wrong shape")
    if max_residual < 0:
        raise ValueError(f"max_residual must be >= 0, got {max_residual!r}")
    return BoundaryField(n, m, X_at, max_residual)


def solve_boundary_field(
    D: GlobalDerivation,
    m: int | None = None,
    tol: float | None = None,
) -> BoundaryField:
    """Solve for an inner witness at every point of a boundary grid.

    The grid has m points, default n * (d + 1) for the data's top w-degree
    d (n for the zero derivation): one more than the data's top z-degree.
    No witness z-degree exceeds the data's (off-diagonal entries are read
    off D(e_k), the diagonal telescopes the arrow readings), so the
    interpolation in ``reconstruct_witness`` is exact on it, and a nonzero
    local obstruction, a polynomial in lambda of degree below m, cannot
    vanish at all m points.  Smaller grids alias the data: they raise
    GridTooSmall.

    On |lambda| = 1 the arrow equations lambda (P X - X P) = b have the
    least-squares rows of P X - X P = b / lambda, so the grid is one
    closed-form ``_point_solve`` at lambda = 1 with m right-hand sides.
    Raises NotLocallyInner at the first grid point over tolerance.
    """
    tol = config.TOL_INNER if tol is None else tol
    n = D.n
    d = D.value_degree
    if m is None:
        m = n * (max(d, 0) + 1)
    if m < 1:
        raise ValueError("grid size must be >= 1")
    if n * (d + 1) > m:
        raise GridTooSmall(m, n * (d + 1))
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    loc_Z = [eval_rep_at_unit_roots(v, m) for v in D.values_Z]
    for loc in loc_Z:
        loc /= roots[:, None, None]
    X_at, residual = _point_solve(
        Lambda(1.0),
        [eval_rep_at_unit_roots(v, m) for v in D.values_e] + loc_Z,
        tol,
    )
    worst = float(residual.max())
    if worst > tol:
        t = int(np.argmax(residual > tol))
        raise NotLocallyInner(complex(roots[t]), float(residual[t]), tol)
    return BoundaryField(n, m, X_at, worst)


def reconstruct_witness(
    field: BoundaryField, deg_max: int | None = None
) -> CycleElement:
    """Interpolate a boundary field into a single algebra element.

    Off-diagonal entries come from trigonometric interpolation of the
    corresponding witness entries, written as z-coefficients into one
    (n, n, m) array that ``parse_realized`` reads back.  Diagonal entries
    are rebuilt from the arrow commutator readings, telescoped from the
    normalized (1, 1) entry, which keeps the per-point centering of the
    witnesses out of the result.
    The interpolant must land back in the algebra (NotInAlgebra otherwise)
    with entry degrees within the cap (DegreeOverflow otherwise).
    """
    n, m = field.n, field.m
    cap = config.DEG_MAX if deg_max is None else deg_max
    realized = np.zeros((n, n, m), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                row = interpolate_roots_of_unity(field.X_at[:, i, j]).coeffs
                realized[i, j, : len(row)] = row
    # diagonal from arrow readings: the (i, i+1) commutator entry divided by
    # lambda equals X[i+1, i+1] - X[i, i] at each grid point
    diffs = [
        field.X_at[:, (i + 1) % n, (i + 1) % n] - field.X_at[:, i, i]
        for i in range(n - 1)
    ]
    running = np.zeros(m, dtype=complex)
    for i in range(n - 1):
        running = running + diffs[i]
        row = interpolate_roots_of_unity(running).coeffs
        realized[i + 1, i + 1, : len(row)] = row
    element = parse_realized(realized, n)
    if element.max_degree > cap:
        raise DegreeOverflow(element.max_degree, cap)
    return element


@dataclass(frozen=True)
class VerifyReport:
    max_residual: float
    equations: int
    norm_grid: int

    @property
    def ok(self) -> bool:
        return self.max_residual <= 1e-8


def verify_global_inner(
    D: GlobalDerivation,
    X: CycleElement,
    norm_grid: int = config.NORM_GRID,
) -> VerifyReport:
    """Check D(g) = g X - X g on the 2n generators g.

    A derivation is fixed by its generator values, so these 2n equations
    are the whole criterion: the Leibniz rule writes the residual on a path
    of m arrows as a sum of m generator residuals times path monomials of
    norm at most 1, so a word's residual is at most its length times the
    worst generator residual.  The reported residual is the worst grid norm
    of D(g) - (g X - X g).  A nonzero residual of w-degree d may read 0.0 on
    fewer than n * (d + 1) points, the rule of ``solve_boundary_field``, so
    the norms are taken on max(norm_grid, n * (d + 1)) points, the grid the
    report names.
    """
    if X.n != D.n:
        raise DimensionMismatch("witness lives over the wrong cycle")
    if norm_grid < 1:
        raise ValueError("grid size must be >= 1")
    es, Zs = generators(D.n)
    residuals = [D.apply(g) - _bracket(g, X) for g in (*es, *Zs)]
    grid = max(norm_grid, D.n * (max(r.max_degree for r in residuals) + 1))
    worst = max(norm(r, grid) for r in residuals)
    return VerifyReport(worst, 2 * D.n, grid)
