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

Every operation that makes an element (sums, differences, negation, scalar
and algebra products, random draws, the JSON reader) writes all n**2 entry
coefficients into one (n**2, L) array and canonicalizes that array in one
pass with ``poly._trim_rows``; empty entries share one zero ``Poly``.  The
results are bit for bit those of the same arithmetic done entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import config
from .errors import DegreeOverflow, DimensionMismatch, NotInAlgebra
from .poly import _EMPTY, Poly, _complex_pairs, _trim_rows
from .poly import eval_at_unit_roots
from .poly import int_from_json, poly_from_json

# x + (-0.0) is x bit for bit, the sign of a zero included; 0.0 is not
_NEG_ZERO = complex(-0.0, -0.0)

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
        length = _common_length(self, other)
        return _from_stack(
            self.n,
            _stack(self, length, _NEG_ZERO) + _stack(other, length, _NEG_ZERO),
        )

    def __sub__(self, other: CycleElement) -> CycleElement:
        if not isinstance(other, CycleElement):
            return NotImplemented
        # a - (+0.0) is a + (-0.0), and -0.0 - b is -b: each entry reads as
        # self + (-other) taken entry by entry
        length = _common_length(self, other)
        return _from_stack(
            self.n, _stack(self, length, _NEG_ZERO) - _stack(other, length, 0.0)
        )

    def __neg__(self) -> CycleElement:
        return _from_stack(self.n, -_stack(self, _length(self), 0.0))

    def __mul__(self, other):
        if isinstance(other, CycleElement):
            return mul_elem(self, other)
        if isinstance(other, (int, float, complex)):
            # the padding turns into 0.0 or NaN, which the trim drops
            return _from_stack(self.n, _stack(self, _length(self), 0.0) * other)
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
        return _length(self) - 1

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


def _length(a: CycleElement) -> int:
    """Longest entry coefficient vector."""
    return max([len(p.coeffs) for row in a.entries for p in row])


def _common_length(a: CycleElement, b: CycleElement) -> int:
    if a.n != b.n:
        raise DimensionMismatch("cycle sizes differ")
    return max(_length(a), _length(b))


def _stack(a: CycleElement, length: int, pad: complex) -> np.ndarray:
    """(n**2, length) entry coefficients in row-major order, each row
    filled up with pad after its own coefficients."""
    coeffs = [p.coeffs for row in a.entries for p in row]
    out = np.full((len(coeffs), length), pad, dtype=complex)
    for row, c in zip(out, coeffs):
        row[: len(c)] = c
    return out


def _wrap(c: np.ndarray) -> Poly:
    """A row of ``_trim_rows`` as a Poly; empty rows share one zero."""
    return Poly._from_trimmed(c) if len(c) else _EMPTY


def _from_rows(n: int, rows: list[np.ndarray]) -> CycleElement:
    """The element whose row-major entries are the trimmed rows."""
    polys = [_wrap(c) for c in rows]
    return CycleElement(
        n, tuple(tuple(polys[i * n : (i + 1) * n]) for i in range(n))
    )


def _from_stack(n: int, stack: np.ndarray) -> CycleElement:
    """The element whose row-major entries are the rows of stack."""
    return _from_rows(n, _trim_rows(stack))


def _single_entry_elements(
    n: int, places, stack: np.ndarray
) -> list[CycleElement]:
    """One element per row of stack: the row at the 0-based position
    places[t], every other entry empty; the rows share one trim."""
    blank = (_EMPTY,) * n
    out = []
    for (i, j), c in zip(places, _trim_rows(stack)):
        rows = [blank] * n
        rows[i] = blank[:j] + (_wrap(c),) + blank[j + 1 :]
        out.append(CycleElement(n, tuple(rows)))
    return out


def zero(n: int) -> CycleElement:
    return CycleElement(n, ((_EMPTY,) * n,) * n)


def identity(n: int) -> CycleElement:
    return diagonal(n, Poly.one())


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
    rows = [[_EMPTY] * n for _ in range(n)]
    rows[i - 1][j - 1] = Poly(c)
    return CycleElement(n, tuple(tuple(r) for r in rows))


def diagonal(n: int, f: Poly) -> CycleElement:
    """The element with f at every diagonal position."""
    return CycleElement(
        n,
        tuple(
            tuple(f if i == j else _EMPTY for j in range(n)) for i in range(n)
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
    degree would exceed the cap raise DegreeOverflow, for the first such
    entry in row-major order; the default cap is config.DEG_MAX.

    Only nonzero entries a[i][k] and b[k][j] are convolved, so a product
    with a generator costs n or n**2 convolutions.  Each product entry is
    0.0 plus its terms in ascending k, the order of the textbook sum.
    """
    if a.n != b.n:
        raise DimensionMismatch("cycle sizes differ")
    length = _length(a) + _length(b)  # one more than any product needs
    n = a.n
    out = np.zeros((n * n, length), dtype=complex)
    b_nonzero = [
        [(j, q.coeffs) for j, q in enumerate(row) if len(q.coeffs)]
        for row in b.entries
    ]
    for i, row in enumerate(a.entries):
        for k, p in enumerate(row):
            if not len(p.coeffs):
                continue
            for j, q in b_nonzero[k]:
                excess = (
                    _steps(i, k, n) + _steps(k, j, n) - _steps(i, j, n)
                ) // n
                prod = np.convolve(p.coeffs, q)
                out[i * n + j, excess : excess + len(prod)] += prod
    rows = _trim_rows(out)
    cap = config.DEG_MAX if deg_max is None else deg_max
    for c in rows:
        if len(c) - 1 > cap:
            raise DegreeOverflow(len(c) - 1, cap)
    return _from_rows(n, rows)


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
    ladders = []
    for i in range(size):
        for j in range(size):
            p = grid[i][j]
            c = p.coeffs if isinstance(p, Poly) else Poly(p).coeffs
            s = _steps(i, j, size)
            off = np.abs(c) > config.EPS_COEFF
            off[s::size] = False
            if off.any():
                k = int(np.argmax(off))
                raise NotInAlgebra(i + 1, j + 1, k, complex(c[k]))
            ladders.append(c[s::size])
    stack = np.zeros((size * size, max(map(len, ladders))), dtype=complex)
    for row, c in zip(stack, ladders):
        row[: len(c)] = c
    return _from_stack(size, stack)


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
    matrix function; the default grid has 512 points.  The zero element
    reads 0.0, the value every grid gives it, without a grid pass.
    """
    if grid < 1:
        raise ValueError("grid size must be >= 1")
    if a.is_zero:
        return 0.0
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
    stack = (coeffs[..., 0] + 1j * coeffs[..., 1]) * scale
    stack = stack.reshape(n * n, deg + 1)
    rows = _trim_rows(stack)
    if normalize:
        # the largest Poly.norm_l1, taken row by row on the trimmed rows
        top = max(float(np.sum(np.abs(c))) for c in rows)
        if top > 0:
            for row, c in zip(stack, rows):
                row[len(c) :] = 0.0  # what the first trim dropped stays out
            stack *= 1.0 / top
            rows = _trim_rows(stack)
    return _from_rows(n, rows)


def element_from_json(data: dict) -> CycleElement:
    try:
        n = int_from_json(data["n"], "n", 1)
        rows = _entries_from_json(data["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc
    return CycleElement(n, rows)


def _entries_from_json(grid) -> tuple[tuple[Poly, ...], ...]:
    """The entry grid of an element's JSON, all coefficients in one array.

    Rows of entries that are lists of [re, im] pairs of finite floats are
    read in one pass.  Anything else goes to ``poly_from_json`` entry by
    entry, which reads integers too and raises the first error in reading
    order, with the message of ``float_from_json``.
    """
    try:
        shape = [len(row) for row in grid]
        entries = [p for row in grid for p in row]
        lengths = np.array([len(p) for p in entries], dtype=int)
        values = _complex_pairs(list(chain.from_iterable(entries)))
    except TypeError:
        values = None
    if values is None:
        return tuple(tuple(poly_from_json(p) for p in row) for row in grid)
    stack = np.zeros((len(entries), lengths.max(initial=0)), dtype=complex)
    stack[np.arange(stack.shape[1]) < lengths[:, None]] = values  # row-major
    polys = [_wrap(c) for c in _trim_rows(stack)]
    ends = np.cumsum(shape).tolist()
    return tuple(
        tuple(polys[end - size : end]) for size, end in zip(shape, ends)
    )
