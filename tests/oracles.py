"""Entry-by-entry views of elements, for the bit-for-bit test oracles.

The library keeps an element as one (n, n, L) coefficient array and never
builds a ``Poly`` per entry.  The oracles of the tests do: they redo element
arithmetic entry by entry on ``Poly`` objects and compare the bits.  These
helpers read an element as its n x n grid of ``Poly`` entries and build one
back from such a grid; ``raw_gap`` compares elements to rounding.
``poly_at`` evaluates such an entry, and ``leibniz_extension`` extends a
global derivation from its generator values to any element.

The rest redo, one matrix or one row at a time, what the library batches:
``svd_grid_norms`` decomposes every grid point of the realized matrix,
``sampled_leibniz`` takes the spectral norm of each sampled Leibniz
residual on its own, ``norm_l1_by_row`` sums each entry on its trimmed
row, ``trim_by_search`` canonicalizes every stack by the search for each
row's end, ``draws_one_by_one`` draws, canonicalizes and normalizes one
random element at a time, ``kernel_values_one_by_one`` takes the spectral
norm of D on each kernel sample on its own, and ``entry_moduli_of_every_row``
transforms every nonzero entry of a one-entry-per-line element.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from cyclealg.algebra import CycleElement, gen_Z, monomial_elem, mul_elem
from cyclealg.algebra import random_element, zero
from cyclealg.errors import DimensionMismatch
from cyclealg.config import EPS_COEFF
from cyclealg.poly import Poly, complex_from_json, eval_at_unit_roots
from cyclealg.representations import eval_rep


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


def svd_grid_norms(a: CycleElement, grid: int) -> np.ndarray:
    """Largest singular value of the realized matrix at each grid point,
    from the z-coefficients of every entry and one decomposition per
    point."""
    values = eval_at_unit_roots(a.realized_coeffs(), grid)
    return np.linalg.svd(np.moveaxis(values, 2, 0), compute_uv=False)[:, 0]


def sampled_leibniz(D, point, n: int, trials: int, seed: int, deg: int = 6):
    """``check_leibniz`` one trial at a time: the draws, products and D
    calls of the library, and one ``np.linalg.norm(m, 2)`` per residual,
    folded into a running Python max from 0.0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = random_element(n, rng, deg=deg, normalize=True)
        b = random_element(n, rng, deg=deg, normalize=True)
        ab = mul_elem(a, b)
        resid = D(ab) - D(a) @ eval_rep(point, b) - eval_rep(point, a) @ D(b)
        worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst


def norm_l1_by_row(a: CycleElement) -> float:
    """The largest coefficient l1 sum, each entry summed on its own
    trimmed row."""
    rows = a.coeffs.reshape(a.n**2, a.coeffs.shape[2])
    return max(
        float(np.sum(np.abs(c[:end])))
        for c, end in zip(rows, a.ends.ravel().tolist())
    )


def trim_by_search(stack) -> tuple[np.ndarray, np.ndarray]:
    """``poly._trim`` with no dense fast path: every row's end is searched
    for, and the canonical form is written by one ``np.where``."""
    c = np.asarray(stack, dtype=complex)
    length = c.shape[-1]
    big = np.ones(c.shape[:-1] + (length + 1,), dtype=bool)
    np.greater(np.abs(c), EPS_COEFF, out=big[..., 1:])
    ends = np.asarray(length - big[..., ::-1].argmax(axis=-1))
    top = int(ends.max(initial=0))
    canonical = np.where(np.arange(top) < ends[..., None], c[..., :top], 0j)
    return canonical, ends


def draws_one_by_one(n: int, rng, count: int, deg: int, scale: float = 1.0,
                     normalize: bool = False) -> list[CycleElement]:
    """count random elements, one ``rng.uniform`` call, one constructor and
    one ``norm_l1`` each, as ``random_element`` drew them one at a time."""
    out = []
    for _ in range(count):
        coeffs = rng.uniform(-1.0, 1.0, size=(n, n, deg + 1, 2))
        a = CycleElement(n, (coeffs[..., 0] + 1j * coeffs[..., 1]) * scale)
        if normalize:
            top = a.norm_l1
            if top > 0:
                a = CycleElement(n, a.coeffs * (1.0 / top))
        out.append(a)
    return out


def kernel_values_one_by_one(D, samples) -> tuple[float, ...]:
    """The spectral norm of D on each sample, one ``np.linalg.norm(m, 2)``
    per sample."""
    return tuple(float(np.linalg.norm(D(k), 2)) for k in samples)


def entry_moduli_of_every_row(a: CycleElement, grid: int) -> np.ndarray:
    """Grid norms of an element with at most one nonzero entry in each row
    and column: every nonzero entry transformed, equal ones included, and
    the largest modulus read at z**n."""
    values = eval_at_unit_roots(a.coeffs[a.ends > 0], grid)
    moduli = np.abs(values).max(axis=0, initial=0.0)
    return moduli[a.n * np.arange(grid) % grid]
