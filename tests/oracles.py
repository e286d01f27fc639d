"""Entry-by-entry views of elements, for the bit-for-bit test oracles.

The library keeps an element as one (n, n, L) coefficient array and never
builds a ``Poly`` per entry.  The oracles of the tests do: they redo element
arithmetic entry by entry on ``Poly`` objects and compare the bits.  These
helpers read an element as its n x n grid of ``Poly`` entries and build one
back from such a grid; ``raw_gap`` compares elements to rounding.
``poly_at`` evaluates such an entry, and ``leibniz_extension`` extends a
global derivation from its generator values to any element.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from cyclealg.algebra import CycleElement, gen_Z, monomial_elem, mul_elem
from cyclealg.algebra import zero
from cyclealg.errors import DimensionMismatch
from cyclealg.poly import Poly, complex_from_json


def entries(a: CycleElement) -> tuple[tuple[Poly, ...], ...]:
    """The entries of a as Poly objects, entries(a)[i][j] = f_{i,j}."""
    return tuple(
        tuple(Poly(c[:end]) for c, end in zip(row, row_ends))
        for row, row_ends in zip(a.coeffs, a.ends.tolist())
    )


def realize(a: CycleElement) -> tuple[tuple[Poly, ...], ...]:
    """The realized entries of a as Poly objects in the disk variable z."""
    return tuple(tuple(Poly(c) for c in row) for row in a.realized_coeffs())


def from_rows(rows, n: int | None = None) -> CycleElement:
    """The element with entry grid rows, n x n Poly or numbers."""
    rows = [
        [p if isinstance(p, Poly) else Poly([p]) for p in row] for row in rows
    ]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise DimensionMismatch("entry grid is not n x n")
    length = max((len(p.coeffs) for row in rows for p in row), default=0)
    coeffs = np.zeros((size, size, length), dtype=complex)
    for out, row in zip(coeffs, rows):
        for c, p in zip(out, row):
            c[: len(p.coeffs)] = p.coeffs
    return CycleElement(size if n is None else n, coeffs)


def poly_from_json(data) -> Poly:
    """A Poly read from a JSON list of [re, im] pairs, pair by pair."""
    return Poly([complex_from_json(re, im, "coefficient") for re, im in data])


def raw_gap(lhs: CycleElement, *rhs: CycleElement) -> float:
    """Largest coefficient modulus of lhs - sum(rhs), taken on the raw
    coefficient arrays zero-padded to one length: a difference of elements
    would trim every gap below EPS_COEFF and read exactly zero."""
    gap = np.zeros(
        (lhs.n, lhs.n, max(t.coeffs.shape[2] for t in (lhs, *rhs))),
        dtype=complex,
    )
    gap[..., : lhs.coeffs.shape[2]] += lhs.coeffs
    for t in rhs:
        gap[..., : t.coeffs.shape[2]] -= t.coeffs
    return float(np.max(np.abs(gap), initial=0.0))


def poly_at(p: Poly, x):
    """p at the scalar or array x, by numpy's Horner ``polyval``."""
    if p.is_zero:
        return np.zeros(np.shape(x), dtype=complex)
    return np.polynomial.polynomial.polyval(x, p.coeffs)


def leibniz_extension(D, a: CycleElement) -> CycleElement:
    """The global derivation D extended to any element by the Leibniz rule.

    D on the path of m arrows from vertex i is built along the path:
    D(p Z) = D(p) Z + p D(Z), with p the path of its first m - 1 arrows.
    The vertex (m = 0) and the arrow (m = 1) are generators and take their
    data values, so on the span of the generators this is
    ``GlobalDerivation.apply``, bit for bit.
    """
    n = D.n

    @cache
    def path_value(i: int, m: int) -> CycleElement:
        if m <= 1:
            return (D.values_e, D.values_Z)[m][i]
        j = (i + m - 1) % n  # the first m - 1 arrows end where Z_j starts
        prefix = monomial_elem(n, i + 1, j + 1, (m - 1 - (j - i) % n) // n)
        return mul_elem(path_value(i, m - 1), gen_Z(n, j + 1)) + mul_elem(
            prefix, D.values_Z[j]
        )

    out = zero(n)
    # row-major over (i, j, d), skipping zero coefficients
    for i, j, d in zip(*(x.tolist() for x in np.nonzero(a.coeffs))):
        out = out + path_value(i, (j - i) % n + d * n) * a.coeffs[i, j, d]
    return out
