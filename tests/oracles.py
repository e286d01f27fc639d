"""Entry-by-entry views of elements, for the bit-for-bit test oracles.

The library keeps an element as one (n, n, L) coefficient array and never
builds a ``Poly`` per entry.  The oracles of the tests do: they redo element
arithmetic entry by entry on ``Poly`` objects and compare the bits.  These
helpers read an element as its n x n grid of ``Poly`` entries and build one
back from such a grid; ``raw_gap`` compares elements to rounding.
"""

from __future__ import annotations

import numpy as np

from cyclealg.algebra import CycleElement
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
