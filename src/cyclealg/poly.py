"""Complex polynomials with coefficient-level canonicalization.

This is the scalar layer everything else sits on: entries of cycle-algebra
elements are polynomials in the base variable.  Coefficients live in
ascending order, index k holding the coefficient of the k-th power.  Trailing
coefficients of modulus <= EPS_COEFF are trimmed on construction; interior
ones are kept.  So the zero polynomial is the empty coefficient vector and
``degree`` of zero is -1.

Canonicalization happens in one routine, ``_trim``, which trims every row of
a coefficient array of any shape in one vectorized pass.  ``Poly(...)``
applies it to one row; the element layer applies it to the (n, n, L) array
that holds all n**2 entries of an element.

``Poly`` itself still serves the powers of the approximate-identity ladder
and the entries interpolated by ``interpolate_roots_of_unity``; the element
layer reads and writes coefficient arrays only.
"""

from __future__ import annotations

import math
from itertools import chain
from numbers import Integral, Real
from typing import Iterable

import numpy as np

from . import config

__all__ = [
    "Poly",
    "powers",
    "eval_at_unit_roots",
    "interpolate_roots_of_unity",
]


def _trim(stack) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form of a stack of coefficient rows, and the row ends.

    The rows run along the last axis and may carry any leading axes.  Each
    row is cut after its last coefficient of modulus above EPS_COEFF;
    ``ends`` holds the kept length of each row, every slot past an end reads
    +0.0, and the columns past the longest row are dropped.  Both results
    are read-only and own their data, so the caller may go on writing to
    its own array.

    When the last slot of every row passes, as in every dense draw and
    product, the canonical form is a copy and every end is the full length;
    that case skips the search.  A stack with no rows has width 0.
    """
    c = np.asarray(stack, dtype=complex)
    length = c.shape[-1]
    moduli = np.abs(c)
    if c.size and moduli[..., -1].min() > config.EPS_COEFF:
        canonical = c.copy()
        ends = np.full(c.shape[:-1], length)
        canonical.flags.writeable = False
        ends.flags.writeable = False
        return canonical, ends
    # a True column in front of the test marks the end of a row in which no
    # coefficient passes, so the last True of each row is found by argmax
    big = np.ones(c.shape[:-1] + (length + 1,), dtype=bool)
    np.greater(moduli, config.EPS_COEFF, out=big[..., 1:])
    ends = np.asarray(length - big[..., ::-1].argmax(axis=-1))
    top = int(ends.max(initial=0))
    canonical = np.where(np.arange(top) < ends[..., None], c[..., :top], 0j)
    canonical.flags.writeable = False
    ends.flags.writeable = False
    return canonical, ends


def _canonical(coeffs) -> np.ndarray:
    """One row of coefficients, trimmed as ``_trim`` trims each row."""
    c = np.array(coeffs, dtype=complex).ravel()
    if not len(c) or abs(c[-1]) > config.EPS_COEFF:
        c.flags.writeable = False  # nothing to trim
        return c
    return _trim(c)[0]


class Poly:
    """Immutable complex polynomial in one variable.

    >>> p = Poly([1, 2, 1])
    >>> (p * Poly([1, -1])).coeffs.tolist()
    [(1+0j), (1+0j), (-1+0j), (-1+0j)]
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def one(cls) -> Poly:
        return cls([1.0])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __add__(self, other) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly(-self.coeffs)

    def __sub__(self, other) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, float, complex)):
            return Poly(self.coeffs * other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        return Poly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        diff = a.copy()
        diff[: len(b)] -= b
        return bool(np.all(np.abs(diff) <= config.EPS_COEFF))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Poly({self.coeffs.tolist()!r})"


def complex_from_json(re, im=0.0, name: str = "number") -> complex:
    """A complex number read from its two JSON parts.

    Each part must be a finite real number.  Booleans, strings, non-finite
    values and integers too large for a float are rejected.
    """
    return complex(float_from_json(re, name), float_from_json(im, name))


def _complex_pairs(pairs) -> np.ndarray | None:
    """A JSON list of [re, im] pairs as one complex array, or None.

    The one-pass path of the JSON readers: it applies when every pair has
    two parts and every part is a finite float, and then gives bit for bit
    the values of ``complex_from_json``.  Otherwise it returns None and the
    caller reads entry by entry, so a rejection keeps its message.
    """
    try:
        parts = list(chain.from_iterable(pairs))
        if set(map(len, pairs)) <= {2} and set(map(type, parts)) <= {float}:
            values = np.array(parts, dtype=float).view(complex)
            if np.isfinite(values).all():
                return values
    except TypeError:
        pass
    return None


def float_from_json(x, name: str) -> float:
    """A finite real number read from JSON.

    Booleans, strings, non-finite values and integers too large for a float
    are rejected with ``ValueError``.
    """
    if type(x) is not float:  # a JSON float needs only the finiteness test
        if isinstance(x, bool) or not isinstance(x, Real):
            raise ValueError(f"{name} must be a finite number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def int_from_json(value, name: str, minimum: int) -> int:
    """A whole number read from JSON, at least ``minimum``.

    Integral floats such as 2.0 are accepted; fractions, non-finite numbers,
    booleans and strings are rejected instead of truncated.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def powers(x: complex, count: int) -> np.ndarray:
    """x**0, ..., x**(count - 1) as running products.

    ``x ** np.arange(count)`` leaves repeated squaring above the exponent
    100 and loses up to 1.6e-13 relative at x = -1; a running product keeps
    the error of x**k near sqrt(k) roundings.
    """
    return np.cumprod(np.concatenate([[1.0], np.full(count - 1, complex(x))]))


def eval_at_unit_roots(coeffs, m: int) -> np.ndarray:
    """Values of polynomials at exp(2*pi*i*t/m) for t = 0..m-1.

    Coefficients run along the last axis of ``coeffs``, which may carry any
    leading axes; the values replace that axis by the m grid points.  Exact
    for any degree: exponents are folded modulo m before the transform,
    which matches evaluation because the grid points are m-th roots of unity.
    The fold adds one slice of m coefficients at a time into a zero array,
    so slot t sums ((0.0 + c[t]) + c[t + m]) + ... in increasing exponent
    order, -0.0 included; coefficients that fit on the grid take one pass.
    """
    if m < 1:
        raise ValueError("grid size must be >= 1")
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    L = c.shape[-1]
    folded = np.zeros(c.shape[:-1] + (m,), dtype=complex)
    for s in range(0, L, m):
        w = min(m, L - s)
        folded[..., :w] += c[..., s:s + w]
    return np.fft.ifft(folded, axis=-1) * m


def interpolate_roots_of_unity(samples) -> Poly:
    """Unique polynomial of degree < m through samples at exp(2*pi*i*t/m).

    Inverse of eval_at_unit_roots on degrees below the grid size.
    """
    s = np.asarray(samples, dtype=complex).ravel()
    if s.size == 0:
        raise ValueError("need at least one sample")
    return Poly(np.fft.fft(s) / s.size)
