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

The entries of an element live in one read-only complex array ``coeffs`` of
shape (n, n, L): coeffs[i, j, k] is the coefficient of w**k in the (i, j)
entry.  The array is canonical: every entry is trimmed as ``poly._trim``
trims a row, every slot past an entry's end holds +0.0, and L is the length
of the longest entry.  Every operation that makes an element (sums,
differences, negation, scalar and algebra products, random draws, the JSON
reader) writes one raw array and hands it to the one constructor, which
trims it; random draws fill the raw arrays of a whole batch in one call.  Every element API takes or returns coefficient arrays: a
diagonal entry is one coefficient row, and an element is realized in z as
the (n, n, L') array ``realized_coeffs`` and read back by
``parse_realized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import config
from .errors import DimensionMismatch, NotInAlgebra
from .poly import _complex_pairs, _trim, complex_from_json
from .poly import eval_at_unit_roots, int_from_json

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
    """Matrix over the n-cycle pattern; coeffs[i, j] holds f_{i,j} in w.

    ``coeffs`` is the canonical (n, n, L) coefficient array and ``ends`` the
    (n, n) entry lengths, both read-only; the constructor takes any complex
    (n, n, L) array and canonicalizes a copy of it.
    """

    n: int
    coeffs: np.ndarray = field(repr=False)
    ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"cycle size must be >= 1, got {self.n}")
        coeffs = np.asarray(self.coeffs)
        if coeffs.ndim != 3 or coeffs.shape[:2] != (self.n, self.n):
            raise DimensionMismatch("entry grid is not n x n")
        canonical, ends = _trim(coeffs)
        object.__setattr__(self, "coeffs", canonical)
        object.__setattr__(self, "ends", ends)

    def _padded(self, length: int, pad: complex) -> np.ndarray:
        """coeffs widened to length, with pad in every slot past an end."""
        out = np.full((self.n, self.n, length), pad, dtype=complex)
        inside = np.arange(self.coeffs.shape[2]) < self.ends[..., None]
        np.copyto(out[..., : self.coeffs.shape[2]], self.coeffs, where=inside)
        return out

    # ---- ring structure --------------------------------------------------

    def __add__(self, other: CycleElement) -> CycleElement:
        if not isinstance(other, CycleElement):
            return NotImplemented
        length = _common_length(self, other)
        return CycleElement(
            self.n,
            self._padded(length, _NEG_ZERO) + other._padded(length, _NEG_ZERO),
        )

    def __sub__(self, other: CycleElement) -> CycleElement:
        if not isinstance(other, CycleElement):
            return NotImplemented
        # a - (+0.0) is a + (-0.0), and -0.0 - b is -b: each entry reads as
        # self + (-other) taken entry by entry
        length = _common_length(self, other)
        return CycleElement(
            self.n, self._padded(length, _NEG_ZERO) - other._padded(length, 0.0)
        )

    def __neg__(self) -> CycleElement:
        return CycleElement(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CycleElement):
            return mul_elem(self, other)
        if isinstance(other, (int, float, complex)):
            # the +0.0 past each end turns into 0.0 or NaN, which the trim
            # drops
            return CycleElement(self.n, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleElement):
            return NotImplemented
        if self.n != other.n:
            return False
        length = _common_length(self, other)
        diff = self._padded(length, 0.0) - other._padded(length, 0.0)
        return bool(np.all(np.abs(diff) <= config.EPS_COEFF))

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[2] == 0

    @property
    def max_degree(self) -> int:
        """Largest entry degree in the compressed variable (-1 if zero)."""
        return self.coeffs.shape[2] - 1

    @property
    def norm_l1(self) -> float:
        """The largest coefficient l1 sum over the entries.

        One reduction over the whole array: every slot past an entry's end
        holds +0.0 and adds nothing.  A row of 8 or more slots is summed
        pairwise by numpy, so where an entry ends before L its sum may
        differ in the last bits from the sum of its trimmed row alone.
        """
        return float(np.abs(self.coeffs).sum(axis=2).max(initial=0.0))

    # ---- realization -----------------------------------------------------

    def realized_coeffs(self, length: int | None = None) -> np.ndarray:
        """(n, n, L) tensor of z-coefficients of the realized entries."""
        n = self.n
        placed = [
            (i, j, _steps(i, j, n), end)
            for i, row in enumerate(self.ends.tolist())
            for j, end in enumerate(row)
            if end
        ]
        need = max([s + n * (end - 1) + 1 for *_, s, end in placed], default=1)
        L = need if length is None else max(length, need)
        out = np.zeros((n, n, L), dtype=complex)
        for i, j, s, end in placed:
            out[i, j, s : s + n * end : n] = self.coeffs[i, j, :end]
        return out

    def norm(self, grid: int = config.NORM_GRID) -> float:
        return norm(self, grid)

    def to_json(self) -> dict:
        n, L = self.n, self.coeffs.shape[2]
        pairs = self.coeffs.view(float).reshape(n, n, L, 2).tolist()
        return {
            "n": n,
            "entries": [
                [c[:end] for c, end in zip(row, row_ends)]
                for row, row_ends in zip(pairs, self.ends.tolist())
            ],
        }


def _common_length(a: CycleElement, b: CycleElement) -> int:
    if a.n != b.n:
        raise DimensionMismatch("cycle sizes differ")
    return max(a.coeffs.shape[2], b.coeffs.shape[2])


def zero(n: int) -> CycleElement:
    return CycleElement(n, np.zeros((n, n, 0), dtype=complex))


def identity(n: int) -> CycleElement:
    return diagonal(n, [1.0])


def monomial_elem(
    n: int, i: int, j: int, power: int, coeff: complex = 1.0
) -> CycleElement:
    """coeff * w**power placed at position (i, j); i, j are 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"position ({i},{j}) out of range for n = {n}")
    if power < 0:
        raise ValueError("power must be nonnegative")
    c = np.zeros((n, n, power + 1), dtype=complex)
    c[i - 1, j - 1, power] = coeff
    return CycleElement(n, c)


def diagonal(n: int, f) -> CycleElement:
    """The element with the coefficient row f at every diagonal position.

    f[k] is the coefficient of w**k; the constructor trims the row.
    """
    f = np.asarray(f, dtype=complex)
    c = np.zeros((n, n, len(f)), dtype=complex)
    c[range(n), range(n)] = f
    return CycleElement(n, c)


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


def mul_elem(a: CycleElement, b: CycleElement) -> CycleElement:
    """Product in the algebra, exact at every degree.

    Step counts add along the path i -> k -> j; when the concatenated path
    overshoots a full loop relative to the direct one, the excess loop turns
    into one extra power of w on the product entry.

    Only nonzero entries a[i][k] and b[k][j] are convolved, so a product
    with a generator costs n or n**2 convolutions.  Each product entry is
    0.0 plus its terms in ascending k, the order of the textbook sum.
    """
    if a.n != b.n:
        raise DimensionMismatch("cycle sizes differ")
    n = a.n
    out = np.zeros((n, n, a.coeffs.shape[2] + b.coeffs.shape[2]), dtype=complex)
    a_ends, b_ends = a.ends.tolist(), b.ends.tolist()
    b_nonzero = [
        [(j, b.coeffs[k, j, :end]) for j, end in enumerate(row) if end]
        for k, row in enumerate(b_ends)
    ]
    for i, row in enumerate(a_ends):
        for k, end in enumerate(row):
            if not end:
                continue
            p = a.coeffs[i, k, :end]
            for j, q in b_nonzero[k]:
                excess = (
                    _steps(i, k, n) + _steps(k, j, n) - _steps(i, j, n)
                ) // n
                prod = np.convolve(p, q)
                out[i, j, excess : excess + len(prod)] += prod
    return CycleElement(n, out)


def parse_realized(realized, n: int | None = None) -> CycleElement:
    """Recover an element from its realized (n, n, L) z-coefficient array.

    realized[i, j, k] is the coefficient of z**k in entry (i, j), as
    ``realized_coeffs`` writes it.  Every coefficient of modulus above
    EPS_COEFF must sit on the admissible exponent ladder s + n * t of its
    position; otherwise NotInAlgebra names the first one in row-major
    (i, j, k) order, with 1-based coordinates.
    """
    c = np.asarray(realized, dtype=complex)
    size = len(c) if c.ndim else 0
    if n is not None and n != size:
        raise DimensionMismatch(f"expected n = {n}, got grid of size {size}")
    if size < 1 or c.ndim != 3 or c.shape[1] != size:
        raise DimensionMismatch("realized grid is not square")
    r = np.arange(size)
    steps = (r - r[:, None]) % size
    off = np.abs(c) > config.EPS_COEFF
    off &= np.arange(c.shape[2]) % size != steps[..., None]
    if off.any():
        i, j, k = np.unravel_index(np.argmax(off), off.shape)
        raise NotInAlgebra(int(i) + 1, int(j) + 1, int(k), complex(c[i, j, k]))
    # z-exponent s + n * t sits at [t, s] once L is padded to a multiple of n
    padded = np.zeros((size, size, c.shape[2] + -c.shape[2] % size), complex)
    padded[..., : c.shape[2]] = c
    ladders = padded.reshape(size, size, -1, size)[r[:, None], r, :, steps]
    return CycleElement(size, ladders)


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
    result.  A zero bound belongs to a zero matrix and is its norm.  A
    lone matrix is its own max, so it is decomposed without a bound.  An
    empty stack gives an empty array of its leading shape.
    """
    stack = np.asarray(stack)
    flat = stack.reshape(-1, *stack.shape[-2:])
    if not len(flat):
        return np.zeros(stack.shape[:-2])
    if len(flat) == 1:
        return _largest_singular_values(flat).reshape(stack.shape[:-2])
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


def _entry_moduli(a: CycleElement, grid: int) -> np.ndarray | None:
    """Grid norms of an element with at most one entry per row and column.

    Such a matrix is a partial permutation times a diagonal, so its
    singular values are the moduli of its entries (Golub and Van Loan,
    Matrix Computations, 2.3), and |z**s f(z**n)| = |f(z**n)| on the unit
    circle.  So the k <= n nonzero entries are transformed in w alone, and
    grid point t reads their largest modulus at the grid point n t mod
    grid, which is z**n.  When all of them are equal, as on a diagonal
    element such as F_k = h_k 1, one of them is transformed.  Returns None
    for any other element.
    """
    nonzero = a.ends > 0
    if nonzero.sum(axis=0).max() > 1 or nonzero.sum(axis=1).max() > 1:
        return None
    rows = a.coeffs[nonzero]
    if len(rows) > 1 and (rows[1:] == rows[0]).all():
        rows = rows[:1]
    values = eval_at_unit_roots(rows, grid)
    moduli = np.abs(values).max(axis=0, initial=0.0)
    return moduli[a.n * np.arange(grid) % grid]


def grid_norms(a: CycleElement, grid: int = config.NORM_GRID) -> np.ndarray:
    """Operator norm of the realized matrix at each grid point.

    Entry t is the norm at exp(2*pi*i*t/grid).  An element with at most
    one nonzero entry in each row and column (a generator, a monomial, a
    diagonal element such as ``identity``) reads it as the largest entry
    modulus, from one transform of its entries' w-coefficient rows, or of
    one row when they are all equal (``identity``, the ladder's F_k); any
    other element takes the largest singular value of every grid point in
    one batched singular-value decomposition.
    """
    moduli = _entry_moduli(a, grid)
    if moduli is not None:
        return moduli
    return _largest_singular_values(_grid_values(a, grid))


def norm(a: CycleElement, grid: int = config.NORM_GRID) -> float:
    """Max operator norm over equispaced unit-circle points.

    The max of ``grid_norms``, bit for bit: a dense lower bound for the sup
    norm of the realized matrix function; the default grid has 512 points.
    An element with at most one nonzero entry in each row and column reads
    its largest entry modulus, with no decomposition; any other element
    reads its grid values through ``spectral_norms``, which decomposes few
    of them.  The zero element reads 0.0, the value every grid gives it,
    without a grid pass.
    """
    if grid < 1:
        raise ValueError("grid size must be >= 1")
    if a.is_zero:
        return 0.0
    moduli = _entry_moduli(a, grid)
    if moduli is None:
        moduli = spectral_norms(_grid_values(a, grid))
    return float(moduli.max())


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
    """Dense random element; coefficients uniform in the complex unit box.

    With ``normalize`` the element is scaled by 1 / ``norm_l1`` (a zero
    element stays zero).  ``_random_elements`` with count 1, bit for bit.
    """
    return _random_elements(n, rng, 1, deg, scale, normalize)[0]


def _random_elements(
    n: int,
    rng: np.random.Generator,
    count: int,
    deg: int,
    scale: float = 1.0,
    normalize: bool = False,
) -> list[CycleElement]:
    """count draws of ``random_element``, bit for bit, from one draw.

    One ``rng.uniform`` call fills all count elements; numpy's generator
    fills an array in order, so it reads the values of count calls in turn.
    With ``normalize`` the stack is canonicalized once and every element
    scaled by 1 / its ``norm_l1``.  numpy sums a row of 8 or more slots
    pairwise, so a sum depends on the row's length: an element whose own
    canonical length is shorter than the stack's is summed on its own
    length, as ``norm_l1`` sums it.
    """
    parts = rng.uniform(-1.0, 1.0, size=(count, n, n, deg + 1, 2))
    stack = (parts[..., 0] + 1j * parts[..., 1]) * scale
    if normalize:
        stack, ends = _trim(stack)
        widths = ends.max(axis=(1, 2), initial=0)
        tops = np.abs(stack).sum(axis=3).max(axis=(1, 2), initial=0.0)
        for i in np.flatnonzero(widths < stack.shape[3]):
            tops[i] = np.abs(stack[i, ..., : widths[i]]).sum(axis=2).max(
                initial=0.0
            )
        # a zero element (or a NaN mass) is left as drawn, not scaled by 1
        scaled = (tops > 0)[:, None, None, None]
        factors = np.divide(1.0, tops, out=np.ones(count), where=tops > 0)
        stack = np.where(scaled, stack * factors[:, None, None, None], stack)
    return [CycleElement(n, c) for c in stack]


def element_from_json(data: dict) -> CycleElement:
    """An element read from its JSON, all coefficients in one array.

    Entries that are lists of [re, im] pairs of finite floats are read in
    one pass.  Anything else is read pair by pair with
    ``complex_from_json``, which reads integers too and raises the first
    error in reading order, with the message of ``float_from_json``.
    """
    try:
        n = int_from_json(data["n"], "n", 1)
        grid = data["entries"]
        try:
            pairs = chain.from_iterable(chain.from_iterable(grid))
            values = _complex_pairs(list(pairs))
        except TypeError:
            values = None
        if values is None:
            values = [
                complex_from_json(re, im, "coefficient")
                for row in grid
                for p in row
                for re, im in p
            ]
        shape = [len(row) for row in grid]
        lengths = [len(p) for row in grid for p in row]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc
    if shape != [n] * n:
        raise DimensionMismatch("entry grid is not n x n")
    stack = np.zeros((n, n, max(lengths, default=0)), dtype=complex)
    inside = np.arange(stack.shape[2]) < np.reshape(lengths, (n, n, 1))
    stack[inside] = values  # row-major
    return CycleElement(n, stack)
