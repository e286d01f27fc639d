"""Finite-dimensional representations and kernel machinery.

Two families of evaluation points:

* ``Lambda(lam)`` with |lam| <= 1: the n-dimensional representation sending an
  element to its realized matrix evaluated at z = lam.  At lam = 0 only the
  constant diagonal part survives.
* ``DiagZero(i)``: the one-dimensional representation reading off the constant
  term of the i-th diagonal entry (1-based i).  These are exactly the extra
  characters that appear at the center of the disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CycleElement, _grid_values, _random_elements
from .errors import DimensionMismatch
from .poly import _complex_pairs, complex_from_json, eval_at_unit_roots
from .poly import int_from_json, powers

__all__ = [
    "Lambda",
    "DiagZero",
    "RepPoint",
    "eval_rep",
    "eval_rep_at_unit_roots",
    "generator_images",
    "kernel_sample",
    "semisimplicity_certificate",
    "SemisimplicityVerdict",
    "kernel_square_witness",
    "KernelSquareResult",
    "point_to_json",
    "point_from_json",
    "matc_to_json",
    "matc_from_json",
]

_DISK_SLACK = 1e-12


@dataclass(frozen=True)
class Lambda:
    """Evaluation point in the closed unit disk."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not abs(v) <= 1.0 + _DISK_SLACK:  # also rejects NaN
            raise ValueError(f"point {v} is not in the closed unit disk")


@dataclass(frozen=True)
class DiagZero:
    """Character reading the constant term of the i-th diagonal entry."""

    i: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("vertex index is 1-based and must be >= 1")


RepPoint = Lambda | DiagZero


def _vertex(point: DiagZero, n: int) -> int:
    """The 0-based vertex of a DiagZero point, which must lie on the n-cycle."""
    if point.i > n:
        raise DimensionMismatch(f"vertex {point.i} out of range for n = {n}")
    return point.i - 1


def eval_rep(point: RepPoint, a: CycleElement) -> np.ndarray:
    """Value of the representation at the given point.

    Lambda points give an n x n complex matrix, DiagZero points a 1 x 1.
    """
    if isinstance(point, Lambda):
        R = a.realized_coeffs()
        return R @ powers(point.value, R.shape[2])
    if isinstance(point, DiagZero):
        i = _vertex(point, a.n)
        c = a.coeffs[i, i, 0] if a.ends[i, i] else 0j
        return np.array([[c]], dtype=complex)
    raise TypeError(f"not a representation point: {point!r}")


def eval_rep_at_unit_roots(a: CycleElement, m: int) -> np.ndarray:
    """Values at Lambda(exp(2*pi*i*t/m)) for t = 0..m-1, shape (m, n, n).

    Exact for any entry degree; exponents fold modulo m on the root grid.
    """
    return np.ascontiguousarray(_grid_values(a, m))


def generator_images(point: RepPoint, n: int) -> np.ndarray:
    """Images of the 2n generators at a point, shape (2n, d, d).

    Rows 0..n-1 hold phi(e_0..e_{n-1}), rows n..2n-1 phi(Z_0..Z_{n-1}).  At
    Lambda(lam), d = n: e_i is the unit matrix at (i, i) and Z_i is lam at
    (i, i+1 mod n).  At DiagZero(i), d = 1: e_{i-1} is 1 and every other
    generator is 0.
    """
    if isinstance(point, Lambda):
        images = np.zeros((2 * n, n, n), dtype=complex)
        idx = np.arange(n)
        images[idx, idx, idx] = 1.0
        images[n + idx, idx, (idx + 1) % n] += point.value
        return images
    if isinstance(point, DiagZero):
        images = np.zeros((2 * n, 1, 1), dtype=complex)
        images[_vertex(point, n)] = 1.0
        return images
    raise TypeError(f"not a representation point: {point!r}")


def kernel_sample(
    point: RepPoint,
    n: int,
    seed: int = 0,
    count: int = 10,
    deg: int = 6,
    scale: float = 1.0,
) -> list[CycleElement]:
    """Random elements of the kernel of the representation at the point.

    Lambda points other than the center: random elements multiplied
    entrywise by (w - lam**n), however small lam is.  At the center the
    kernel is larger than that principal ideal, so there the constant terms
    of all diagonal entries are removed instead.  DiagZero points: random
    elements with the constant term of the pinned diagonal entry removed.
    Membership is checked internally, relative to the sample's size: at
    |lam| <= 1 no entry of phi(k) exceeds the l1 mass of the largest entry.
    A draw that trims to the zero element, as at a scale below EPS_COEFF,
    raises ``ValueError``: a zero sample would certify nothing.
    """
    factor, vertices = None, []
    if isinstance(point, Lambda) and point.value != 0:
        factor = np.array([-(point.value**n), 1.0], dtype=complex)
    elif isinstance(point, Lambda):
        vertices = list(range(n))
    elif isinstance(point, DiagZero):
        vertices = [_vertex(point, n)]
    else:
        raise TypeError(f"not a representation point: {point!r}")
    rng = np.random.default_rng(seed)
    out = []
    for g in _random_elements(n, rng, count, deg, scale):
        if g.is_zero:
            raise ValueError(f"a kernel draw at scale {scale:g} trims to zero")
        stack = np.zeros((n, n, deg + 2), dtype=complex)
        if factor is None:
            stack[..., : g.coeffs.shape[2]] = g.coeffs
        else:
            for i, j in zip(*np.nonzero(g.ends)):
                # the principal factor times the entry, by convolution
                c = np.convolve(factor, g.coeffs[i, j, : g.ends[i, j]])
                stack[i, j, : len(c)] = c
        stack[vertices, vertices, 0] = 0.0
        k = CycleElement(n, stack)
        off = float(np.max(np.abs(eval_rep(point, k))))
        if off > 1e-12 * k.norm_l1:
            raise RuntimeError(f"kernel sample evaluates to {off:.3e}")
        out.append(k)
    return out


@dataclass(frozen=True)
class SemisimplicityVerdict:
    is_zero: bool
    max_abs: float
    witness: complex | None
    points: int


def semisimplicity_certificate(a: CycleElement) -> SemisimplicityVerdict:
    """Decide whether an element vanishes in all interior representations.

    Evaluates on n*(d+2) points of the circle of radius 1/2, d the element's
    own top entry degree (0 for the zero element), so a nonzero element
    cannot vanish on the whole grid.  Verdict threshold is max |entry| <=
    1e-10.  Zero here is equivalent to being the zero element; separating
    points force triviality of this kind of radical.
    """
    n = a.n
    m = n * (max(a.max_degree, 0) + 2)
    tensor = a.realized_coeffs()
    L = tensor.shape[2]
    if L > m:
        raise RuntimeError(f"grid of {m} points below realized length {L}")
    radius = 0.5
    values = eval_at_unit_roots(tensor * (radius ** np.arange(L)), m)
    flat = np.max(np.abs(values), axis=(0, 1))
    worst = int(np.argmax(flat))
    max_abs = float(flat[worst])
    if max_abs <= 1e-10:
        return SemisimplicityVerdict(True, max_abs, None, m)
    witness = radius * np.exp(2j * np.pi * worst / m)
    return SemisimplicityVerdict(False, max_abs, complex(witness), m)


@dataclass(frozen=True)
class KernelSquareResult:
    success: bool
    budget: int
    residual: float
    pairs: tuple[tuple[CycleElement, CycleElement], ...]


def kernel_square_witness(
    point: DiagZero, k: CycleElement, budget: int = 2
) -> KernelSquareResult:
    """Try to write a kernel element as a sum of products of kernel elements.

    The factors are the kernel monomials w**d at position (a, b) with d up
    to the budget.  A product of two of them is zero unless the middle
    vertices agree, and otherwise one monomial: (a, b, d)(b, c, e) lands on
    (a, c, d + e + wrap), where wrap is 1 when the path a -> b -> c passes a
    full loop beyond the direct one.  Each coefficient of k is split evenly
    over the pairs that reach its slot, the minimum-norm solution of the
    incidence system.  The residual is the largest coefficient of k on a
    slot that no pair reaches; success means it is at most 1e-8.  For these
    characters the kernel equals its own square (n >= 2), so genuine kernel
    elements decompose.  A pair reaching a slot above the top degree of k
    gets weight 0, so the factors stop at that degree whatever the budget;
    the result echoes the budget asked for.
    """
    if not isinstance(point, DiagZero):
        raise TypeError("kernel_square_witness needs a DiagZero point")
    n = k.n
    i0 = _vertex(point, n)
    if float(np.max(np.abs(eval_rep(point, k)))) > 1e-12:
        raise ValueError("element is not in the kernel at this point")
    top = min(budget, max(k.max_degree, 0))
    # span monomials (a, b, d), row-major; e_i itself is not in the kernel
    in_span = np.ones((n, n, top + 1), dtype=bool)
    in_span[i0, i0, 0] = False
    span = np.argwhere(in_span)
    L = max(2 * top + 2, k.max_degree + 1, 1)
    target = np.zeros((n, n, L), dtype=complex)
    target[..., : k.coeffs.shape[2]] = k.coeffs
    target = target.ravel()
    # pairs (s, t) in row-major order whose middle vertices agree
    s, t = np.nonzero(span[:, 1, None] == span[None, :, 0])
    a, b, d = span[s].T
    c, e = span[t, 1], span[t, 2]
    wrap = ((b - a) % n + (c - b) % n - (c - a) % n) // n
    slot = np.ravel_multi_index((a, c, d + e + wrap), (n, n, L))
    count = np.bincount(slot, minlength=target.size)
    residual = float(np.max(np.abs(target[count == 0]), initial=0.0))
    if residual > 1e-8:
        return KernelSquareResult(False, budget, residual, ())
    weights = target[slot] / count[slot]
    keep = np.nonzero(np.abs(weights) > 1e-12)[0]
    # factor t is monomial_elem(...) * weight: the unit row of its power
    # times the weight, at its position
    units = np.eye(top + 1, dtype=complex)[span[:, 2]]

    def factors(index, rows):
        stack = np.zeros((len(index), n, n, top + 1), dtype=complex)
        stack[np.arange(len(index)), span[index, 0], span[index, 1]] = rows
        return [CycleElement(n, c) for c in stack]

    right = np.unique(t[keep])
    rights = dict(zip(right, factors(right, units[right])))
    lefts = factors(s[keep], units[s[keep]] * weights[keep, None])
    pairs = tuple(zip(lefts, (rights[index] for index in t[keep])))
    return KernelSquareResult(True, budget, residual, pairs)


def point_to_json(point: RepPoint) -> dict:
    if isinstance(point, Lambda):
        return {
            "kind": "lambda",
            "re": float(point.value.real),
            "im": float(point.value.imag),
        }
    if isinstance(point, DiagZero):
        return {"kind": "diag0", "i": int(point.i)}
    raise TypeError(f"not a representation point: {point!r}")


def point_from_json(data: dict) -> RepPoint:
    if not isinstance(data, dict):
        raise ValueError(f"point must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "lambda":
        return Lambda(
            complex_from_json(data["re"], data.get("im", 0.0), "point")
        )
    if kind == "diag0":
        return DiagZero(int_from_json(data["i"], "i", 1))
    raise ValueError(f"unknown representation point kind: {kind!r}")


def matc_to_json(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def matc_from_json(data) -> np.ndarray:
    flat = _complex_pairs(data)
    if flat is None:
        try:
            flat = np.array(
                [complex_from_json(re, im, "matrix entry") for re, im in data],
                dtype=complex,
            )
        except TypeError as exc:
            raise ValueError(f"malformed matrix JSON: {exc}") from exc
    n = int(round(len(flat) ** 0.5))
    if n * n != len(flat):
        raise ValueError("matrix payload length is not a perfect square")
    return flat.reshape(n, n)
