"""Point derivations at representation points and their classification.

A point derivation at a representation point phi is a linear map D from the
algebra into matrices satisfying D(ab) = D(a) phi(b) + phi(a) D(b).  Such a
map is determined by its values on the 2n generators; ``GenDerivation``
stores those values once, as one read-only (2n, d, d) array, and extends
them to arbitrary elements along canonical monomials, which walk the cycle
with arrow steps.  Every reader (``apply``, ``relation_residual``,
``inner_solve``) takes slices of that one array.

Generator data extends to a point derivation exactly when the Leibniz rule
holds on the defining relations of the path algebra of the directed n-cycle
(0-based indices, Z_j runs from vertex j to vertex j + 1 mod n):

    e_i e_j = delta_ij e_i,
    e_k Z_j = delta_kj Z_j,
    Z_j e_k = delta_{k,j+1} Z_j.

``relation_residual`` measures the worst defect over these 3n^2 relations;
``check_leibniz`` samples random element pairs instead and accepts any
callable, so it can test independent implementations.

The solvers below decide whether given derivation data is inner, i.e. of the
form a -> phi(a) X - X phi(a), produce the witness X when it is, certify
non-inner data through kernel samples, and build the explicit approximate
identity used at boundary points.  That identity F_k = h_k(w) 1 is central,
so ``boundary_approx_identity`` reads every residual ||F_k a - a|| of its k
ladder as |h_k - 1| ||a|| on the grid, without forming a product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import config
from .algebra import (
    CycleElement,
    _random_elements,
    diagonal,
    grid_norms,
    mul_elem,
    spectral_norms,
)
from .errors import DimensionMismatch, GridTooSmall
from .poly import Poly, eval_at_unit_roots, powers
from .representations import (
    DiagZero,
    Lambda,
    RepPoint,
    _vertex,
    eval_rep,
    generator_images,
)

__all__ = [
    "GenDerivation",
    "delta_X",
    "F_point_derivation",
    "check_leibniz",
    "relation_residual",
    "inner_solve",
    "InnerSolveResult",
    "kernel_vanishing_test",
    "KernelVanishing",
    "decompose_at_zero",
    "ZeroSplit",
    "decompose_experiment",
    "boundary_approx_identity",
    "canonical_kernel_elements",
]


@dataclass(frozen=True, eq=False)
class GenDerivation:
    """Derivation data at one representation point: values on generators.

    ``values`` is one read-only (2n, d, d) array, a copy of the input: rows
    0..n-1 are the images of the vertex idempotents and rows n..2n-1 those
    of the arrow elements (0-based storage of the 1-based generator lists),
    d = n at Lambda points and 1 at DiagZero points.  values_e and values_Z
    are tuples of read-only views of its two halves.
    """

    point: RepPoint
    values_e: tuple[np.ndarray, ...]
    values_Z: tuple[np.ndarray, ...]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.values_e)
        if len(self.values_Z) != n or n < 1:
            raise DimensionMismatch("need one value per generator")
        if isinstance(self.point, DiagZero):
            _vertex(self.point, n)
        dim = n if isinstance(self.point, Lambda) else 1
        values = np.empty((2 * n, dim, dim), dtype=complex)
        for slot, v in zip(values, (*self.values_e, *self.values_Z)):
            v = np.asarray(v, dtype=complex)
            if v.shape != (dim, dim):
                raise DimensionMismatch(
                    f"derivation value has shape {v.shape}, "
                    f"expected {(dim, dim)}"
                )
            slot[...] = v
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "values_e", tuple(values[:n]))
        object.__setattr__(self, "values_Z", tuple(values[n:]))

    @property
    def n(self) -> int:
        return len(self.values_e)

    @classmethod
    def from_commutator(
        cls, point: RepPoint, X: np.ndarray, n: int
    ) -> GenDerivation:
        """The inner derivation a -> phi(a) X - X phi(a) on generators.

        X is read on its leading d x d block, d the dimension of the point:
        at a DiagZero point every commutator of the 1 x 1 images is 0,
        whatever X is.
        """
        images = generator_images(point, n)
        d = images.shape[1]
        X = np.asarray(X, dtype=complex)[:d, :d]
        values = [p @ X - X @ p for p in images]
        return cls(point, tuple(values[:n]), tuple(values[n:]))

    @cached_property
    def _path_weights(self) -> tuple[np.ndarray, ...]:
        """F, G, the reading sum and Q of the closed form in ``apply``.

        Column i of F is D(Z_i)[:, i+1], row j of G is D(Z_{j-1})[j-1, :],
        and Q[i, j] sums the (j - i - 2) mod n arrow readings
        s_k = D(Z_k)[k, k+1] that start at vertex i+1.
        """
        n = self.n
        idx = np.arange(n)
        nxt = (idx + 1) % n
        VZ = self.values[n:]
        s = VZ[idx, idx, nxt]
        csum = np.concatenate([[0], np.cumsum(np.concatenate([s, s]))])
        rem = (idx[None, :] - idx[:, None] - 2) % n
        Q = csum[nxt[:, None] + rem] - csum[nxt][:, None]
        return VZ[idx, :, nxt].T, VZ[idx - 1, idx - 1, :], s.sum(), Q

    @cached_property
    def _length_weights(self) -> dict[int, np.ndarray]:
        """The (L - 2, 2) weights of ``apply`` per realized length L."""
        return {}

    def _weights(self, length: int) -> np.ndarray:
        """[lam**(m-1), lam**(m-1) ((m-2)//n)] for m = 2..L-1, made once
        per length."""
        weights = self._length_weights.get(length)
        if weights is None:
            weight = powers(self.point.value, length)[1:-1]  # lam**(m-1)
            k = np.arange(len(weight))  # m - 2
            weights = np.stack([weight, weight * (k // self.n)], axis=1)
            weights.flags.writeable = False
            self._length_weights[length] = weights
        return weights

    def apply(self, a: CycleElement) -> np.ndarray:
        """Extend the generator values to an arbitrary element.

        R[i, j, m] is the coefficient of the m-step path leaving vertex i;
        paths of length 0 and 1 are the generators themselves.  Along a
        longer path at a Lambda point the Leibniz rule leaves lam**(m-1)
        times one column of D(Z_first), one row of D(Z_last) and the
        readings of the m - 2 interior arrows, so with the power sums
        S0 = sum_m R lam**(m-1) and S1 = sum_m R lam**(m-1) (m-2)//n over
        m >= 2 the paths add F S0 + S0 G + (sum s) S1 + Q * S0 (see
        ``_path_weights``).  At a DiagZero point every such path dies.
        """
        if a.n != self.n:
            raise DimensionMismatch("element and derivation sizes differ")
        n = self.n
        R = a.realized_coeffs(2)
        idx = np.arange(n)
        lead = np.concatenate([R[idx, idx, 0], R[idx, (idx + 1) % n, 1]])
        values = self.values
        out = (lead @ values.reshape(2 * n, -1)).reshape(values.shape[1:])
        if isinstance(self.point, DiagZero) or R.shape[2] == 2:
            return out
        F, G, total, Q = self._path_weights
        sums = R[:, :, 2:] @ self._weights(R.shape[2])
        S0, S1 = sums[:, :, 0], sums[:, :, 1]
        return out + F @ S0 + S0 @ G + total * S1 + Q * S0

    def to_json(self) -> dict:
        from .representations import matc_to_json, point_to_json

        return {
            "point": point_to_json(self.point),
            "values_e": [matc_to_json(v) for v in self.values_e],
            "values_Z": [matc_to_json(v) for v in self.values_Z],
        }


def gen_derivation_from_json(data: dict) -> GenDerivation:
    from .representations import matc_from_json, point_from_json

    try:
        point = point_from_json(data["point"])
        values_e = tuple(matc_from_json(v) for v in data["values_e"])
        values_Z = tuple(matc_from_json(v) for v in data["values_Z"])
    except TypeError as exc:
        raise ValueError(f"malformed derivation JSON: {exc}") from exc
    return GenDerivation(point, values_e, values_Z)


def delta_X(point: RepPoint, X: np.ndarray, a: CycleElement) -> np.ndarray:
    """The inner derivation phi(a) X - X phi(a), evaluated directly."""
    p = eval_rep(point, a)
    X = np.asarray(X, dtype=complex)
    return p @ X - X @ p


def F_point_derivation(lam: complex, a: CycleElement) -> np.ndarray:
    """Entrywise z-derivative of the realized matrix at z = lam.

    A point derivation at Lambda(lam) whose value on arrow elements is the
    unit matrix pattern; for |lam| < 1 it is the canonical non-inner
    example, and at lam = 0 it sees exactly the arrow coefficients.
    """
    tensor = a.realized_coeffs()
    L = tensor.shape[2]
    if L <= 1:
        return np.zeros((a.n, a.n), dtype=complex)
    der = tensor[:, :, 1:] * np.arange(1, L)
    return np.polynomial.polynomial.polyval(lam, np.moveaxis(der, 2, 0))


def check_leibniz(
    D: Callable[[CycleElement], np.ndarray],
    point: RepPoint,
    n: int,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Max Leibniz residual of D over random normalized element pairs.

    Residual of a pair (a, b) of degree-6 elements is the spectral norm of
    D(ab) - D(a) phi(b) - phi(a) D(b).  Pairs are normalized so entry
    coefficient mass is at most 1, keeping the float noise floor well under
    1e-12.  The trials residual matrices are decided in one
    ``spectral_norms`` call, whose max is that of a full decomposition, bit
    for bit.  No trials read 0.0; a residual with a non-finite entry reads
    inf, so the result never passes a bound it did not meet.
    """
    rng = np.random.default_rng(seed)
    draws = _random_elements(n, rng, 2 * trials, 6, normalize=True)
    residuals = []
    for a, b in zip(draws[::2], draws[1::2]):
        ab = mul_elem(a, b)
        residuals.append(
            D(ab) - D(a) @ eval_rep(point, b) - eval_rep(point, a) @ D(b)
        )
    if not residuals:
        return 0.0
    stack = np.stack(residuals)
    if not np.isfinite(stack).all():
        return math.inf
    return float(spectral_norms(stack).max())


def relation_residual(D: GenDerivation) -> tuple[float, str]:
    """Worst Leibniz defect of the data over the 3n^2 defining relations.

    For each relation ab = c of the path algebra (see the module docstring)
    the defect is the spectral norm of D(c) - D(a) phi(b) - phi(a) D(b).
    The data extends to a point derivation exactly when every defect is
    zero.  Returns the worst defect and the relation that attains it, e.g.
    ``"e_0 Z_0 = Z_0"`` or ``"Z_1 e_0 = 0"`` (0-based indices).  The images
    phi(a) are those of ``generator_images``, at either kind of point.
    """
    n = D.n
    images = generator_images(D.point, n)
    Pe, PZ = images[:n], images[n:]
    Ve, VZ = D.values[:n], D.values[n:]
    same = np.eye(n)[:, :, None, None]  # [a, b] -> delta_ab
    step = np.roll(same, 1, axis=1)  # [j, k] -> delta_{k,j+1}
    defects = np.stack(
        [
            # [i, j]: e_i e_j = delta_ij e_i
            same * Ve[:, None] - Ve[:, None] @ Pe - Pe[:, None] @ Ve,
            # [k, j]: e_k Z_j = delta_kj Z_j
            same * VZ - Ve[:, None] @ PZ - Pe[:, None] @ VZ,
            # [j, k]: Z_j e_k = delta_{k,j+1} Z_j
            step * VZ[:, None] - VZ[:, None] @ Pe - PZ[:, None] @ Ve,
        ]
    )
    norms = spectral_norms(defects)
    family, a, b = np.unravel_index(np.argmax(norms), norms.shape)
    left = ("e_{} e_{}", "e_{} Z_{}", "Z_{} e_{}")[family].format(a, b)
    kept = (f"e_{a}", f"Z_{b}", f"Z_{a}")[family]
    keeps = (same, same, step)[family][a, b, 0, 0]
    return float(norms[family, a, b]), f"{left} = {kept if keeps else 0}"


@dataclass(frozen=True)
class InnerSolveResult:
    point: RepPoint
    X: np.ndarray
    residual: float
    consistent: bool
    tol: float
    normalization: str = "X[1,1] = 0"


def _shift_bracket(lam: complex, g: int, X: np.ndarray) -> np.ndarray:
    """phi(g) X - X phi(g) at Lambda(lam) for a (K, n, n) stack of X.

    g numbers the generators as ``generator_images`` does.  Each bracket is
    a row shift minus a column shift: e_k X - X e_k is row k of X minus
    column k, and Z_k X - X Z_k is lam times row k + 1 of X put in row k,
    minus lam times column k put in column k + 1.  Both terms go into a zero
    array, so every entry holds the value the products ``P @ X - X @ P``
    give (the sign of a zero aside).  When n = 1 every bracket is 0.
    """
    out = np.zeros_like(X)
    n = X.shape[1]
    if n == 1:
        return out
    k, j = g % n, (g + 1) % n
    if g < n:
        out[:, k] = X[:, k]
        out[:, :, k] -= X[:, :, k]
    else:
        out[:, k] = lam * X[:, j]
        out[:, :, j] -= lam * X[:, :, k]
    return out


def _point_solve(
    point: RepPoint,
    value_stacks: Sequence[np.ndarray],
    floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares for phi(g) X - X phi(g) = D(g) over all generators g.

    Each of the 2n generators brings a (K, d, d) stack of values, K
    right-hand sides at one point, in the order of ``generator_images``.
    At Lambda(lam) the normal equations of the map ad: X -> (phi(g) X -
    X phi(g))_g split: ad* ad is the scalar 2 (1 + |lam|^2) on every
    off-diagonal entry, and on the diagonal it is |lam|^2 times the
    Laplacian of the n-cycle, x_k -> 2 x_k - x_{k-1} - x_{k+1}.  So the
    minimum-norm solution divides r = ad*(V) = sum_g (phi(g)^H V_g -
    V_g phi(g)^H), formed by row and column shifts, by that scalar off the
    diagonal, and solves the diagonal with one ``lstsq`` on the n x n
    Laplacian for all K right-hand sides (at lam = 0 the Laplacian is 0, and
    so is the diagonal).  The solutions are then shifted so X[0, 0] = 0
    exactly; the identity is central, so the shift changes no bracket.
    Where d = 1 (DiagZero points, and n = 1) every bracket is 0 and X = 0.

    Returns X, shape (K, d, d), and per right-hand side the worst spectral
    residual over the generator equations, taken one generator at a time
    over all K.  Through ``spectral_norms`` that residual is exact, bit for
    bit, at its max and wherever it exceeds floor; elsewhere it may read an
    upper bound that stays below both.
    """
    n = len(value_stacks) // 2
    K, d, _ = value_stacks[0].shape
    X = np.zeros((K, d, d), dtype=complex)
    lam = point.value if d > 1 else 0.0  # a 1 x 1 bracket is 0 at any lam
    if d > 1:
        lam_h = lam.conjugate()
        for k in range(n):
            ve, vz, j = value_stacks[k], value_stacks[n + k], (k + 1) % n
            X[:, k] += ve[:, k]
            X[:, :, k] -= ve[:, :, k]
            X[:, j] += lam_h * vz[:, k]
            X[:, :, k] -= lam_h * vz[:, :, j]
        idx = np.arange(n)
        rhs = X[:, idx, idx].T
        X /= 2 + 2 * abs(lam) ** 2
        eye = np.eye(n)
        cycle = 2 * eye - eye[idx - 1] - eye[(idx + 1) % n]
        diag, *_ = np.linalg.lstsq(abs(lam) ** 2 * cycle, rhs, rcond=None)
        X[:, idx, idx] = (diag - diag[:1]).T
    residual = np.zeros(K)
    for g, v in enumerate(value_stacks):
        norms = spectral_norms(_shift_bracket(lam, g, X) - v, floor)
        np.maximum(residual, norms, out=residual)
    return X, residual


def inner_solve(D: GenDerivation, tol: float | None = None) -> InnerSolveResult:
    """Decide whether derivation data at a representation point is inner.

    Solves the commutator equations on all 2n generators by least squares,
    in the closed form of ``_point_solve`` with one right-hand side, and
    reports the post-hoc worst-case residual; data counts as inner when the
    residual is at most the tolerance (default config.TOL_INNER).  At a
    DiagZero point, and at n = 1, every commutator of the 1 x 1 images is
    0: X = 0 without a solve, and the residual is the largest generator
    value.
    """
    tol = config.TOL_INNER if tol is None else tol
    X, residual = _point_solve(D.point, D.values[:, None], tol)
    residual = float(residual[0])
    return InnerSolveResult(D.point, X[0], residual, residual <= tol, tol)


@dataclass(frozen=True)
class KernelVanishing:
    max_norm: float
    witness_index: int
    witness: CycleElement | None
    values: tuple[float, ...]


def kernel_vanishing_test(
    D: Callable[[CycleElement], np.ndarray],
    samples: Sequence[CycleElement],
) -> KernelVanishing:
    """Max of the spectral norm of D over the given kernel samples.

    Inner derivations vanish on the kernel of their point, so a sample with
    a large value certifies that no inner witness exists.  The values of
    all samples are decided in one ``spectral_norms`` call with floor 0.0,
    so each is that of a full decomposition, bit for bit; a value with a
    non-finite entry reads inf, as in ``check_leibniz``.
    """
    if not samples:
        return KernelVanishing(0.0, -1, None, ())
    stack = np.stack([D(k) for k in samples])
    finite = np.isfinite(stack).all(axis=(1, 2))
    norms = np.full(len(samples), math.inf)
    norms[finite] = spectral_norms(stack[finite], floor=0.0)
    values = tuple(norms.tolist())
    worst = int(np.argmax(norms))
    return KernelVanishing(values[worst], worst, samples[worst], values)


@dataclass(frozen=True)
class ZeroSplit:
    """Splitting of derivation data at Lambda(0) into inner + arrow parts."""

    d0: GenDerivation
    d1: GenDerivation
    d0_solve: InnerSolveResult


def _split_parts(D: GenDerivation) -> tuple[GenDerivation, GenDerivation]:
    """D's vertex values with zero arrows, and its arrow values alone."""
    n = D.n
    zero_vals = tuple(np.zeros((n, n), dtype=complex) for _ in range(n))
    return (
        GenDerivation(D.point, D.values_e, zero_vals),
        GenDerivation(D.point, zero_vals, D.values_Z),
    )


def decompose_at_zero(D: GenDerivation) -> ZeroSplit:
    """Split data at the center into an inner part and an arrow part.

    d0 keeps the vertex values and extends with zero on arrows; d1 keeps the
    arrow values and kills everything else.  At Lambda(0) every monomial of
    length >= 2 is annihilated by the extension, so D = d0 + d1 exactly on
    all elements and d1 is already determined by the n arrow values alone.
    The inner part is solved for a witness.
    """
    if not isinstance(D.point, Lambda) or abs(D.point.value) > 1e-15:
        raise ValueError("decomposition is specific to the point lambda = 0")
    d0, d1 = _split_parts(D)
    return ZeroSplit(d0, d1, inner_solve(d0))


def decompose_experiment(D: GenDerivation, seed: int = 0) -> dict:
    """Try the center splitting at an interior point and report what breaks.

    At lambda != 0 the arrow part of the data, extended on its own, need not
    satisfy the Leibniz rule, and the vertex part need not be inner.  This
    runs both checks and returns the measurements without interpreting them.
    """
    if not isinstance(D.point, Lambda):
        raise ValueError("experiment needs data at a Lambda point")
    n = D.n
    d0, d1 = _split_parts(D)
    d0_solve = inner_solve(d0)
    d1_solve = inner_solve(d1)
    return {
        "lambda": [D.point.value.real, D.point.value.imag],
        "d0_leibniz": check_leibniz(d0.apply, D.point, n, trials=40, seed=seed),
        "d1_leibniz": check_leibniz(
            d1.apply, D.point, n, trials=40, seed=seed + 1
        ),
        "d0_inner_residual": d0_solve.residual,
        "d0_consistent": d0_solve.consistent,
        "d1_inner_residual": d1_solve.residual,
        "d1_consistent": d1_solve.consistent,
    }


def canonical_kernel_elements(n: int, lam: complex) -> list[CycleElement]:
    """Distinct unit-scale elements of the kernel at Lambda(lam).

    The vanishing factor (w - lam**n) placed on the full diagonal, on the
    first vertex alone, and on the first arrow position.  At n = 1 the full
    diagonal is the first vertex, so two elements are returned.
    """
    factor = [-(lam**n), 1.0]
    shift = int(n == 1)  # the n = 1 arrow is w itself
    tensors = np.zeros((3, n, n, 3), dtype=complex)
    tensors[0, range(n), range(n), :2] = factor
    tensors[1, 0, 0, :2] = factor
    tensors[2, 0, 1 % n, shift : shift + 2] = factor
    elements = [CycleElement(n, c) for c in tensors]
    return elements[::2] if n == 1 else elements


def _distinct_powers(grid: int, n: int) -> int:
    """Number of distinct values of z**n over the grid-point unit roots."""
    return grid // math.gcd(grid, n)


def boundary_approx_identity(
    lam: complex,
    k_values: Sequence[int],
    n: int,
    kernel_elems: Sequence[CycleElement] = (),
    norm_grid: int = 4099,
) -> tuple[list[CycleElement], dict]:
    """Approximate identity ladder for the kernel ideal at a boundary point.

    For |lam| = 1 the diagonal element F_k = h_k(w) 1 with
    h_k = 1 - ((1 + conj(lam**n) w) / 2)**k lies in the kernel at
    Lambda(lam), stays uniformly bounded by 2 on the circle, and F_k a -> a
    for kernel elements a as k grows.  F_k is central, so F_k a - a is
    (h_k - 1) a and its operator norm at a grid point z is
    |h_k(z**n) - 1| ||a(z)||: each element needs one batched grid norm and
    each k one transform of h_k.

    Returns F_k for each k in ascending order and a report with one row per
    k: ``norm_F`` (grid norm of F_k), ``kernel_value_F`` (its value at the
    point), the ``residuals`` ||F_k a - a|| on the grid and their
    ``worst_residual``.  ``monotone_and_bounded`` holds when every
    ``norm_F`` <= 2 + 1e-9, every ``kernel_value_F`` <= 1e-12 and the worst
    residual never grows by more than 1e-12 along the ladder.  A supplied
    element whose value at the point exceeds 1e-12 * max(1, its grid norm)
    is not in the kernel and raises ``ValueError``.  A grid on which
    z**n takes no more distinct values than the largest w-degree of the
    elements can read a nonzero element as zero and raises
    ``GridTooSmall``.  The default grid size is prime so it cannot
    phase-lock with the k-th power pattern and under-read the norm.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError("approximate identity lives over boundary points")
    ks = sorted(k_values)
    if not ks:
        raise ValueError("k_values must be nonempty")
    if ks[0] < 1:
        raise ValueError("index k must be >= 1")
    # the grid samples w = z**n at grid / gcd(grid, n) distinct points, and
    # a nonzero entry of w-degree d vanishes at no more than d of them
    degree = max((a.max_degree for a in kernel_elems), default=-1)
    if _distinct_powers(norm_grid, n) <= degree:
        needed = next(
            m for m in itertools.count(1) if _distinct_powers(m, n) > degree
        )
        raise GridTooSmall(norm_grid, needed)
    point = Lambda(lam)
    elem_norms = []
    for index, a in enumerate(kernel_elems):
        if a.n != n:
            raise DimensionMismatch(
                f"kernel element {index} has n = {a.n}, ladder has n = {n}"
            )
        norms = grid_norms(a, norm_grid)
        value = float(np.max(np.abs(eval_rep(point, a))))
        if value > 1e-12 * max(1.0, float(norms.max())):
            raise ValueError(
                f"kernel element {index} is not in the kernel: its value "
                f"at lambda has modulus {value:.3e}"
            )
        elem_norms.append(norms)
    # grid point t carries z**n = the grid point n * t mod norm_grid
    fold = n * np.arange(norm_grid) % norm_grid
    w0 = lam**n
    Fs = []
    rows = []
    ok = True
    prev = None
    for k in ks:
        bump = Poly([0.5, 0.5 * np.conj(w0)]) ** k
        h = Poly.one() - bump
        # h(w0) is 0 exactly; the stored tail is trimmed and rounded, so
        # shift the constant coefficient (1 - 2**-k, never trimmed) below
        # the canonicalization threshold to keep the kernel membership at
        # float precision.  The defect is summed on the powers of lam, as
        # eval_rep does: Horner in the rounded w0 missed it by up to about
        # k * n * eps
        defect = h.coeffs @ powers(lam, n * h.degree + 1)[::n]
        coeffs = h.coeffs.copy()
        coeffs[0] -= defect
        h = Poly(coeffs)
        F = diagonal(n, h.coeffs)
        shifted = h.coeffs.copy()
        shifted[0] -= 1.0
        gap = np.abs(eval_at_unit_roots(shifted, norm_grid))[fold]
        residuals = [float(np.max(gap * norms)) for norms in elem_norms]
        worst = max(residuals, default=0.0)
        row = {
            "k": k,
            "norm_F": F.norm(norm_grid),
            "kernel_value_F": float(np.max(np.abs(eval_rep(point, F)))),
            "residuals": residuals,
            "worst_residual": worst,
        }
        if row["norm_F"] > 2 + 1e-9 or row["kernel_value_F"] > 1e-12:
            ok = False
        if prev is not None and worst > prev + 1e-12:
            ok = False
        prev = worst
        Fs.append(F)
        rows.append(row)
    return Fs, {
        "lambda": [lam.real, lam.imag],
        "n": n,
        "grid": norm_grid,
        "monotone_and_bounded": ok,
        "rows": rows,
    }
