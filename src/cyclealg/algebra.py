"""Elements of the matrix function algebra attached to the directed n-cycle.

An element is an n x n matrix whose (i, j) entry, realized as a function of
the disk variable z, is z**s * f(z**n) where s is the number of forward steps
from vertex i to vertex j around the cycle and f is a polynomial.  We store
the entry as f itself, a polynomial in the compressed variable w = z**n, and
keep the step count implicit in the position.  For n = 1 the pattern is no
constraint and the single entry is an arbitrary polynomial in w = z.

Generators: the vertex idempotents gen_e(n, i) and the arrow elements
gen_Z(n, i), which realize z placed at position (i, i+1) (cyclically).  Their
products walk the cycle; a full loop contributes one power of w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DegreeOverflow, DimensionMismatch, NotInAlgebra
from .poly import Poly, _canonical, eval_at_unit_roots
from .poly import int_from_json, poly_from_json

__all__ = [
    "CycleElement",
    "gen_e",
    "gen_Z",
    "generators",
    "monomial_elem",
    "diagonal",
    "identity",
    "zero",
    "mul_elem",
    "parse_realized",
    "random_element",
    "element_from_json",
    "grid_norms",
    "norm",
    "spectral_norms",
]


def _steps(i: int, j: int, n: int) -> int:
    # forward steps from vertex i to vertex j, 0-indexed
    return (j - i) % n


@dataclass(frozen=True, eq=False)
class CycleElement:
    """Matrix over the n-cycle pattern; entries[i][j] is f_{i,j} in w."""

    n: int
    entries: tuple[tuple[Poly, ...], ...] = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"cycle size must be >= 1, got {self.n}")
        if len(self.entries) != self.n or any(
            len(row) != self.n for row in self.entries
        ):
            raise DimensionMismatch("entry grid is not n x n")
        for row in self.entries:
            for p in row:
                if not isinstance(p, Poly):
                    raise TypeError("entries must be Poly instances")

    # ---- construction helpers -------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> CycleElement:
        rows = tuple(
            tuple(p if isinstance(p, Poly) else Poly([p]) for p in row)
            for row in rows
        )
        return cls(len(rows), rows)

    # ---- ring structure --------------------------------------------------

    def __add__(self, other: CycleElement) -> CycleElement:
        if not isinstance(other, CycleElement):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("cycle sizes differ")
        return CycleElement(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: CycleElement) -> CycleElement:
        return self + (-other)

    def __neg__(self) -> CycleElement:
        return CycleElement(
            self.n, tuple(tuple(-p for p in row) for row in self.entries)
        )

    def __mul__(self, other):
        if isinstance(other, CycleElement):
            return mul_elem(self, other)
        if isinstance(other, (int, float, complex)):
            return CycleElement(
                self.n,
                tuple(tuple(p * other for p in row) for row in self.entries),
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleElement):
            return NotImplemented
        return self.n == other.n and all(
            a == b
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    @property
    def max_degree(self) -> int:
        """Largest entry degree in the compressed variable (-1 if zero)."""
        return max(p.degree for row in self.entries for p in row)

    # ---- realization -----------------------------------------------------

    def realize(self) -> tuple[tuple[Poly, ...], ...]:
        """Entries as polynomials in the disk variable z."""
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                f = self.entries[i][j]
                if f.is_zero:
                    row.append(Poly())
                    continue
                s = _steps(i, j, n)
                c = np.zeros(s + n * f.degree + 1, dtype=complex)
                c[s::n] = f.coeffs
                row.append(Poly(c))
            out.append(tuple(row))
        return tuple(out)

    def realized_coeffs(self, length: int | None = None) -> np.ndarray:
        """(n, n, L) tensor of z-coefficients of the realized entries."""
        n = self.n
        placed = []
        need = 1
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                if not f.is_zero:
                    s = _steps(i, j, n)
                    end = s + n * f.degree + 1
                    placed.append((i, j, s, end, f.coeffs))
                    need = max(need, end)
        L = need if length is None else max(length, need)
        out = np.zeros((n, n, L), dtype=complex)
        for i, j, s, end, c in placed:
            out[i, j, s:end:n] = c
        return out

    def norm(self, grid: int = config.NORM_GRID) -> float:
        return norm(self, grid)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }


def zero(n: int) -> CycleElement:
    return CycleElement(n, tuple(tuple(Poly() for _ in range(n)) for _ in range(n)))


def identity(n: int) -> CycleElement:
    return CycleElement(
        n,
        tuple(
            tuple(Poly.one() if i == j else Poly() for j in range(n))
            for i in range(n)
        ),
    )


def monomial_elem(
    n: int, i: int, j: int, power: int, coeff: complex = 1.0
) -> CycleElement:
    """coeff * w**power placed at position (i, j); i, j are 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"position ({i},{j}) out of range for n = {n}")
    if power < 0:
        raise ValueError("power must be nonnegative")
    c = np.zeros(power + 1, dtype=complex)
    c[power] = coeff
    rows = [[Poly() for _ in range(n)] for _ in range(n)]
    rows[i - 1][j - 1] = Poly(c)
    return CycleElement(n, tuple(tuple(r) for r in rows))


def diagonal(n: int, f: Poly) -> CycleElement:
    """The element with f at every diagonal position."""
    return CycleElement(
        n,
        tuple(
            tuple(f if i == j else Poly() for j in range(n)) for i in range(n)
        ),
    )


def gen_e(n: int, i: int) -> CycleElement:
    """Vertex idempotent at vertex i (1-based)."""
    if not 1 <= i <= n:
        raise IndexError(f"vertex index {i} out of range for n = {n}")
    return monomial_elem(n, i, i, 0)


def gen_Z(n: int, i: int) -> CycleElement:
    """Arrow element for the edge leaving vertex i (1-based).

    Realizes z at position (i, i+1), wrapping to (n, 1) for i = n.  For
    n = 1 this is the single entry z = w itself.
    """
    if not 1 <= i <= n:
        raise IndexError(f"arrow index {i} out of range for n = {n}")
    if n == 1:
        return monomial_elem(1, 1, 1, 1)
    j = i + 1 if i < n else 1
    return monomial_elem(n, i, j, 0)


def generators(n: int) -> tuple[list[CycleElement], list[CycleElement]]:
    """All vertex idempotents and arrow elements, in index order."""
    return (
        [gen_e(n, i) for i in range(1, n + 1)],
        [gen_Z(n, i) for i in range(1, n + 1)],
    )


def mul_elem(
    a: CycleElement, b: CycleElement, deg_max: int | None = None
) -> CycleElement:
    """Product in the algebra.

    Step counts add along the path i -> k -> j; when the concatenated path
    overshoots a full loop relative to the direct one, the excess loop turns
    into one extra power of w on the product entry.  Entries whose canonical
    degree would exceed the cap raise DegreeOverflow; the default cap is
    config.DEG_MAX.
    """
    if a.n != b.n:
        raise DimensionMismatch("cycle sizes differ")
    cap = config.DEG_MAX if deg_max is None else deg_max
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            base = _steps(i, j, n)
            acc: np.ndarray | None = None
            for k in range(n):
                fa = a.entries[i][k]
                fb = b.entries[k][j]
                if fa.is_zero or fb.is_zero:
                    continue
                excess = (_steps(i, k, n) + _steps(k, j, n) - base) // n
                prod = np.convolve(fa.coeffs, fb.coeffs)
                length = excess + len(prod)
                if acc is None or len(acc) < length:
                    grown = np.zeros(length, dtype=complex)
                    if acc is not None:
                        grown[: len(acc)] = acc
                    acc = grown
                acc[excess : excess + len(prod)] += prod
            p = Poly(acc) if acc is not None else Poly()
            if p.degree > cap:
                raise DegreeOverflow(p.degree, cap)
            row.append(p)
        rows.append(tuple(row))
    return CycleElement(n, tuple(rows))


def parse_realized(realized, n: int | None = None) -> CycleElement:
    """Recover an element from its realized z-entry grid.

    Accepts an n x n grid of Poly in z.  Every coefficient of modulus above
    EPS_COEFF must sit on the admissible exponent ladder for its position;
    otherwise NotInAlgebra is raised with 1-based coordinates.
    """
    grid = tuple(tuple(row) for row in realized)
    size = len(grid)
    if n is not None and n != size:
        raise DimensionMismatch(f"expected n = {n}, got grid of size {size}")
    if size < 1 or any(len(row) != size for row in grid):
        raise DimensionMismatch("realized grid is not square")
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            p = grid[i][j]
            if not isinstance(p, Poly):
                p = Poly(p)
            s = _steps(i, j, size)
            c = p.coeffs
            for k in range(len(c)):
                if abs(c[k]) > config.EPS_COEFF and (k - s) % size != 0:
                    raise NotInAlgebra(i + 1, j + 1, k, complex(c[k]))
            row.append(Poly(c[s::size]) if len(c) > s else Poly())
        rows.append(tuple(row))
    return CycleElement(size, tuple(rows))


def _largest_singular_values(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def spectral_norms(stack: np.ndarray, floor: float = np.inf) -> np.ndarray:
    """Spectral norms of a stack of square matrices, exact where they count.

    Returns one value per matrix, shaped like ``stack.shape[:-2]``.  Every
    matrix whose spectral norm reaches min(largest, floor) reads the value
    of a batched singular-value decomposition, bit for bit; every other
    entry holds the matrix's Frobenius norm, an upper bound for its spectral
    norm (Golub and Van Loan, Matrix Computations, 2.3) that lies below that
    level.  So the max, its first index and every value above floor are
    those of a full decomposition, which runs on few matrices.

    The Frobenius norm is taken on a copy scaled by a power of two per
    matrix, so |x|**2 neither overflows nor underflows.  The matrix with the
    largest bound is decomposed first; then every matrix whose bound reaches
    min(that norm, floor) * (1 - 1e-12).  The margin is far above the
    rounding of either norm, so a skipped matrix cannot round above the
    result.  A zero bound belongs to a zero matrix and is its norm.
    """
    stack = np.asarray(stack)
    flat = stack.reshape(-1, *stack.shape[-2:])
    # the real and imaginary parts of each matrix in one row
    parts = np.ascontiguousarray(flat, complex).view(float)
    parts = parts.reshape(len(flat), -1)
    exp = np.frexp(np.abs(parts).max(axis=1))[1]
    scaled = np.ldexp(parts, -exp[:, None])
    out = np.ldexp(np.linalg.norm(scaled, axis=1), exp)
    top = int(np.argmax(out))
    if out[top] > 0:  # a zero bound is a zero matrix, whose norm is 0.0
        out[top] = _largest_singular_values(flat[top : top + 1])[0]
        pick = out >= min(out[top], floor) * (1 - 1e-12)
        pick[top] = False
        if pick.any():
            out[pick] = _largest_singular_values(flat[pick])
    return out.reshape(stack.shape[:-2])


def grid_norms(a: CycleElement, grid: int = config.NORM_GRID) -> np.ndarray:
    """Operator norm of the realized matrix at each grid point.

    Entry t is the largest singular value at exp(2*pi*i*t/grid), taken in
    one batched singular-value decomposition over the grid.
    """
    return _largest_singular_values(_grid_values(a, grid))


def norm(a: CycleElement, grid: int = config.NORM_GRID) -> float:
    """Max operator norm over equispaced unit-circle points.

    The max of ``grid_norms``, bit for bit, read through
    ``spectral_norms``: a dense lower bound for the sup norm of the realized
    matrix function; the default grid has 512 points.
    """
    return float(spectral_norms(_grid_values(a, grid)).max())


def _grid_values(a: CycleElement, grid: int) -> np.ndarray:
    """(grid, n, n) values of the realized matrix at the grid points."""
    return np.moveaxis(eval_at_unit_roots(a.realized_coeffs(), grid), 2, 0)


def random_element(
    n: int,
    rng: np.random.Generator,
    deg: int = 8,
    scale: float = 1.0,
    normalize: bool = False,
) -> CycleElement:
    """Dense random element; coefficients uniform in the complex unit box."""
    coeffs = rng.uniform(-1.0, 1.0, size=(n, n, deg + 1, 2))
    grid = [
        [_canonical((c[:, 0] + 1j * c[:, 1]) * scale) for c in row]
        for row in coeffs
    ]
    if normalize:
        # the largest Poly.norm_l1, taken on the trimmed coefficients
        top = max(float(np.sum(np.abs(c))) for row in grid for c in row)
        if top > 0:
            grid = [[c * (1.0 / top) for c in row] for row in grid]
    return CycleElement(
        n, tuple(tuple(Poly(c) for c in row) for row in grid)
    )


def element_from_json(data: dict) -> CycleElement:
    try:
        n = int_from_json(data["n"], "n", 1)
        rows = tuple(
            tuple(poly_from_json(p) for p in row) for row in data["entries"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc
    return CycleElement(n, rows)
