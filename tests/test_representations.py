"""Evaluation points, kernels, semisimplicity, and kernel-square witnesses."""

from __future__ import annotations

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cyclealg.algebra import (
    CycleElement,
    gen_Z,
    gen_e,
    generators,
    identity,
    monomial_elem,
    mul_elem,
    random_element,
    zero,
)
from cyclealg import representations
from cyclealg.errors import DimensionMismatch
from cyclealg.poly import Poly, complex_from_json
from cyclealg.representations import (
    DiagZero,
    KernelSquareResult,
    Lambda,
    eval_rep,
    eval_rep_at_unit_roots,
    kernel_sample,
    kernel_square_witness,
    matc_from_json,
    matc_to_json,
    generator_images,
    point_from_json,
    point_to_json,
    semisimplicity_certificate,
)

from oracles import entries, from_rows, poly_at, realize


def eval_rep_oracle(lam: complex, a) -> np.ndarray:
    """Independent evaluation through the realized z-polynomials."""
    return np.array([[poly_at(p, lam) for p in row] for row in realize(a)])


# ----------------------------------------------------------------------
# frozen values
# ----------------------------------------------------------------------


def test_eval_arrow_frozen():
    val = eval_rep(Lambda(0.5), gen_Z(2, 1))
    assert np.allclose(val, [[0, 0.5], [0, 0]])


def test_eval_identity_any_point():
    for lam in (0.0, 0.3 + 0.1j, 1.0):
        assert np.allclose(eval_rep(Lambda(lam), identity(3)), np.eye(3))
    assert np.allclose(eval_rep(DiagZero(2), identity(3)), [[1.0]])


def test_eval_at_center_keeps_diagonal_constants():
    # at lam = 0 all z powers die; only constant diagonal terms survive
    a = (
        monomial_elem(3, 1, 1, 0, 2.0)
        + monomial_elem(3, 1, 1, 1, 5.0)
        + monomial_elem(3, 1, 2, 0, 7.0)
    )
    val = eval_rep(Lambda(0.0), a)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 2.0
    assert np.allclose(val, expected)


def test_diag_zero_reads_constant_term():
    a = monomial_elem(2, 2, 2, 0, 3.0) + monomial_elem(2, 2, 2, 1, 4.0)
    assert np.allclose(eval_rep(DiagZero(2), a), [[3.0]])
    assert np.allclose(eval_rep(DiagZero(1), a), [[0.0]])


def test_diag_zero_agrees_with_center_on_diagonal():
    rng = np.random.default_rng(31)
    a = random_element(3, rng, deg=4)
    center = eval_rep(Lambda(0.0), a)
    for i in range(1, 4):
        assert np.allclose(
            eval_rep(DiagZero(i), a), [[center[i - 1, i - 1]]]
        )


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------


def test_eval_is_multiplicative():
    rng = np.random.default_rng(32)
    for n in (1, 2, 4):
        a = random_element(n, rng, deg=4)
        b = random_element(n, rng, deg=4)
        ab = mul_elem(a, b)
        for point in (Lambda(0.6), Lambda(0.0), Lambda(1j), DiagZero(1)):
            va = eval_rep(point, a)
            vb = eval_rep(point, b)
            assert np.allclose(eval_rep(point, ab), va @ vb, atol=1e-10)


def test_eval_is_linear():
    rng = np.random.default_rng(33)
    a = random_element(2, rng, deg=3)
    b = random_element(2, rng, deg=3)
    for point in (Lambda(0.4 + 0.2j), DiagZero(2)):
        assert np.allclose(
            eval_rep(point, a + b),
            eval_rep(point, a) + eval_rep(point, b),
            atol=1e-12,
        )


def test_eval_matches_realized_oracle():
    rng = np.random.default_rng(34)
    for n in range(1, 7):
        for deg in (0, 1, 2, 5, 13, 40):
            a = random_element(n, rng, deg=deg)
            for lam in (0.0, 0.7, -0.3 + 0.4j, np.exp(0.3j), -1.0):
                assert np.allclose(
                    eval_rep(Lambda(lam), a),
                    eval_rep_oracle(lam, a),
                    atol=1e-10,
                )


def test_disk_validation():
    with pytest.raises(ValueError):
        Lambda(1.2)
    Lambda(np.exp(0.5j))  # boundary is allowed
    with pytest.raises(ValueError):
        DiagZero(0)
    with pytest.raises(DimensionMismatch):
        eval_rep(DiagZero(3), identity(2))


def test_phi_generator_values_match_eval():
    for n in (1, 2, 4):
        es, Zs = generators(n)
        points = [Lambda(0.3 - 0.5j)] + [DiagZero(i) for i in range(1, n + 1)]
        for point in points:
            images = generator_images(point, n)
            assert images.shape[0] == 2 * n
            for mat, g in zip(images, es + Zs):
                assert np.allclose(mat, eval_rep(point, g))


def test_grid_eval_matches_pointwise():
    rng = np.random.default_rng(35)
    for n in (1, 2, 3):
        a = random_element(n, rng, deg=7)  # realized degree exceeds the grid
        m = 8
        batch = eval_rep_at_unit_roots(a, m)
        assert batch.shape == (m, n, n)
        for t in range(m):
            lam = np.exp(2j * np.pi * t / m)
            assert np.allclose(batch[t], eval_rep(Lambda(lam), a), atol=1e-9)


# ----------------------------------------------------------------------
# kernel samples
# ----------------------------------------------------------------------


def test_kernel_sample_membership():
    for point in (Lambda(0.5), Lambda(0.0), Lambda(-0.2 + 0.7j), DiagZero(2)):
        samples = kernel_sample(point, 3, seed=1, count=6)
        assert len(samples) == 6
        for k in samples:
            assert np.max(np.abs(eval_rep(point, k))) <= 1e-12
            assert not k.is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lam", [1e-13, 1e-12, -1e-12j])
def test_kernel_sample_near_the_center_uses_the_principal_factor(n, lam):
    # (w - lam**n) g vanishes at lam up to rounding on the scale of lam**n;
    # removing the diagonal constants instead leaves values of order |lam|
    point = Lambda(lam)
    for k in kernel_sample(point, n, seed=0, count=20):
        value = float(np.max(np.abs(eval_rep(point, k))))
        assert value <= 1e-14 * abs(lam) ** n


@pytest.mark.parametrize("point", [Lambda(0.4), Lambda(0.0), DiagZero(1)])
def test_kernel_sample_membership_check_is_relative(monkeypatch, point):
    # a sample a millionth of its own size off the kernel is refused at any
    # scale; an absolute bound of 1e-12 (1 + scale) passed it at scale 1e-8
    true_eval = representations.eval_rep
    monkeypatch.setattr(
        representations,
        "eval_rep",
        lambda p, k: true_eval(p, k) + 1e-6 * k.norm_l1,
    )
    with pytest.raises(RuntimeError, match="kernel sample evaluates"):
        kernel_sample(point, 2, seed=1, count=1, scale=1e-8)


@pytest.mark.parametrize("point", [Lambda(0.4), Lambda(0.0), DiagZero(1)])
def test_kernel_sample_refuses_a_draw_that_trims_to_zero(point):
    # at scale 1e-14 every coefficient trims away, and a zero sample would
    # pass any kernel-vanishing test
    with pytest.raises(ValueError, match="trims to zero"):
        kernel_sample(point, 2, scale=1e-14)


def test_kernel_sample_keeps_a_zero_kernel_slice():
    # each draw is a nonzero constant, and at the center of the 1-cycle the
    # constants of degree 0 are all the kernel removes: that slice is {0}
    samples = kernel_sample(Lambda(0.0), 1, deg=0)
    assert len(samples) == 10
    assert all(k.is_zero for k in samples)


def test_kernel_sample_deterministic():
    a = kernel_sample(Lambda(0.4), 2, seed=7, count=3)
    b = kernel_sample(Lambda(0.4), 2, seed=7, count=3)
    assert all(x == y for x, y in zip(a, b))


def kernel_sample_oracle(point, n, seed, count, deg, scale=1.0):
    """Kernel samples built entry by entry, one Poly per step."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = random_element(n, rng, deg=deg, scale=scale)
        rows = [list(row) for row in entries(g)]
        principal = isinstance(point, Lambda) and point.value != 0
        if principal:
            factor = Poly([-(point.value**n), 1.0])
            rows = [[factor * p for p in row] for row in rows]
        elif isinstance(point, Lambda):
            vertices = range(n)
        else:
            vertices = (point.i - 1,)
        if not principal:
            for i in vertices:
                c = rows[i][i].coeffs.copy()
                if len(c):
                    c[0] = 0.0
                rows[i][i] = Poly(c)
        out.append(from_rows(rows))
    return out


def _bits(a: CycleElement):
    return [[p.coeffs.tobytes() for p in row] for row in entries(a)]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize(
    "point", [Lambda(0.4 - 0.3j), Lambda(0.0), Lambda(np.exp(1j)),
              DiagZero(1)]
)
# at 2e-9 about a fifth of the coefficients fall below EPS_COEFF: interior
# ones stay and trailing ones are trimmed, yet no draw trims to zero
@pytest.mark.parametrize("scale", [1.0, 2e-9])
def test_kernel_sample_matches_entry_by_entry_oracle(n, point, scale):
    got = kernel_sample(point, n, seed=5, count=3, deg=4, scale=scale)
    want = kernel_sample_oracle(point, n, 5, 3, 4, scale)
    assert [_bits(k) for k in got] == [_bits(k) for k in want]


def test_kernel_square_factors_are_scaled_unit_monomials_bit_for_bit():
    # each factor is Poly(unit * weight) for the unit row of its power
    k = kernel_sample(DiagZero(2), 3, seed=8, count=1, deg=2)[0]
    result = kernel_square_witness(DiagZero(2), k, budget=2)
    assert result.success and result.pairs
    for factor in (f for pair in result.pairs for f in pair):
        (entry,) = [
            p for row in entries(factor) for p in row if len(p.coeffs)
        ]
        unit = np.zeros(entry.degree + 1, dtype=complex)
        unit[-1] = 1.0
        weight = complex(entry.coeffs[-1])
        assert entry.coeffs.tobytes() == Poly(unit * weight).coeffs.tobytes()


def test_kernel_sample_center_contains_offdiagonal_constants():
    # the center kernel is bigger than the principal ideal generated by w:
    # arrow-position constants already vanish at lam = 0
    samples = kernel_sample(Lambda(0.0), 2, seed=3, count=4)
    found = any(
        k.ends[0, 1] and abs(k.coeffs[0, 1, 0]) > 1e-6 for k in samples
    )
    assert found


# ----------------------------------------------------------------------
# semisimplicity certificate
# ----------------------------------------------------------------------


def test_semisimplicity_zero_iff_zero():
    rng = np.random.default_rng(36)
    for n in (1, 2, 3):
        assert semisimplicity_certificate(zero(n)).is_zero
        for _ in range(10):
            a = random_element(n, rng, deg=6)
            verdict = semisimplicity_certificate(a)
            assert not verdict.is_zero
            assert verdict.witness is not None
            # the witness point genuinely separates the element from zero
            val = eval_rep(Lambda(verdict.witness), a)
            assert np.max(np.abs(val)) == pytest.approx(
                verdict.max_abs, rel=1e-9
            )


def test_semisimplicity_catches_tiny_but_real_entries():
    a = monomial_elem(2, 1, 2, 3, 1e-6)
    verdict = semisimplicity_certificate(a)
    assert not verdict.is_zero


def test_semisimplicity_difference_of_equal_products():
    # a realistic zero: e_1 Z_1 - Z_1 e_2 at n = 2
    diff = mul_elem(gen_e(2, 1), gen_Z(2, 1)) - mul_elem(
        gen_Z(2, 1), gen_e(2, 2)
    )
    assert semisimplicity_certificate(diff).is_zero


# ----------------------------------------------------------------------
# kernel square witnesses
# ----------------------------------------------------------------------


def test_kernel_square_spanning_monomials_decompose():
    for n in (2, 3):
        point = DiagZero(1)
        span = [
            monomial_elem(n, i + 1, j + 1, d)
            for i in range(n)
            for j in range(n)
            for d in range(2)
            if not (i == j == 0 and d == 0)
        ]
        for k in span:
            result = kernel_square_witness(point, k, budget=2)
            assert result.success, (n, k.to_json(), result.residual)
            assert result.residual <= 1e-8
            # pairs reproduce k exactly
            total = zero(n)
            for left, right in result.pairs:
                total = total + mul_elem(left, right)
            assert total == k


def test_kernel_square_fails_for_disk_coordinate():
    # n = 1: z spans the kernel modulo its square, so no decomposition
    z = monomial_elem(1, 1, 1, 1)
    result = kernel_square_witness(DiagZero(1), z, budget=2)
    assert not result.success
    assert result.residual > 1e-3


def test_kernel_square_rejects_non_kernel_element():
    with pytest.raises(ValueError):
        kernel_square_witness(DiagZero(1), identity(2), budget=2)
    with pytest.raises(TypeError):
        kernel_square_witness(Lambda(0.0), zero(2), budget=2)


@functools.lru_cache(maxsize=None)
def _dense_products(n, i0, budget, L):
    """Span monomials, the product of every pair as a column, and the pairs."""
    span = [
        monomial_elem(n, a + 1, b + 1, d)
        for a in range(n)
        for b in range(n)
        for d in range(budget + 1)
        if not (a == b == i0 and d == 0)
    ]
    cols = []
    pairs_idx = []
    for s, left in enumerate(span):
        for t, right in enumerate(span):
            prod = mul_elem(left, right)
            if prod.is_zero:
                continue
            cols.append(_dense_vec(prod, L))
            pairs_idx.append((s, t))
    return span, cols, pairs_idx


def _dense_vec(elem, L):
    n = elem.n
    buf = np.zeros((n, n, L), dtype=complex)
    for i in range(n):
        for j in range(n):
            c = entries(elem)[i][j].coeffs
            buf[i, j, : len(c)] = c
    return buf.ravel()


def kernel_square_oracle(point, k, budget):
    """Dense least squares over every pairwise product of span monomials."""
    L = max(2 * budget + 2, k.max_degree + 1, 1)
    span, cols, pairs_idx = _dense_products(k.n, point.i - 1, budget, L)
    target = _dense_vec(k, L)
    if not cols:
        residual = float(np.max(np.abs(target)))
        return KernelSquareResult(residual <= 1e-8, budget, residual, ())
    A = np.stack(cols, axis=1)
    x, *_ = np.linalg.lstsq(A, target, rcond=None)
    residual = float(np.max(np.abs(A @ x - target)))
    if residual > 1e-8:
        return KernelSquareResult(False, budget, residual, ())
    pairs = tuple(
        (span[s] * complex(weight), span[t])
        for (s, t), weight in zip(pairs_idx, x)
        if abs(weight) > 1e-12
    )
    return KernelSquareResult(True, budget, residual, pairs)


def _monomial(elem):
    """(row, column, w-degree, coefficient) of a one-term element."""
    (a, b, f), = [
        (a, b, f)
        for a, row in enumerate(entries(elem))
        for b, f in enumerate(row)
        if not f.is_zero
    ]
    assert np.count_nonzero(f.coeffs) == 1
    return a, b, f.degree, complex(f.coeffs[-1])


def _kernel_square_cases():
    cases = [
        pytest.param(DiagZero(1), n, ("monomial", a, b, d), 2,
                     id=f"monomial-n{n}-{a}{b}{d}")
        for n in (2, 3)
        for a in range(n)
        for b in range(n)
        for d in range(3)
        if not (a == b == 0 and d == 0)
    ]
    cases.append(pytest.param(DiagZero(1), 1, ("monomial", 0, 0, 1), 2,
                              id="z-n1"))
    cases += [
        pytest.param(DiagZero(i), n, ("sample", deg), budget,
                     id=f"sample-n{n}-i{i}-b{budget}-deg{deg}")
        for n in range(1, 5)
        for i in range(1, n + 1)
        for budget in range(4)
        for deg in (0, 2, 5)
    ]
    return cases


@pytest.mark.parametrize("point, n, kind, budget", _kernel_square_cases())
def test_kernel_square_matches_dense_oracle(point, n, kind, budget):
    if kind[0] == "monomial":
        _, a, b, d = kind
        elements = [monomial_elem(n, a + 1, b + 1, d)]
    else:
        seed = 1000 * n + 100 * point.i + 10 * budget + kind[1]
        elements = kernel_sample(point, n, seed=seed, count=2, deg=kind[1])
    for k in elements:
        got = kernel_square_witness(point, k, budget=budget)
        want = kernel_square_oracle(point, k, budget)
        assert got.success == want.success
        assert got.budget == budget
        if not want.success:
            assert got.residual == pytest.approx(want.residual, abs=1e-12)
            assert got.pairs == ()
            continue
        assert len(got.pairs) == len(want.pairs)
        for (gl, gr), (wl, wr) in zip(got.pairs, want.pairs):
            assert _monomial(gr) == _monomial(wr)
            *g_pos, g_weight = _monomial(gl)
            *w_pos, w_weight = _monomial(wl)
            assert g_pos == w_pos
            assert abs(g_weight - w_weight) <= 1e-15


@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_equals_its_square_at_every_scalar_point(n):
    # k = sum_{j != i} k e_j + k' Z_{i-1}, k' = column i of k with the last
    # arrow removed; every factor lies in the kernel of DiagZero(i)
    es, Zs = generators(n)
    for i in range(1, n + 1):
        point = DiagZero(i)
        k = kernel_sample(point, n, seed=60 + n, count=1, deg=2)[0]
        i0, prev = i - 1, (i - 2) % n
        rows = [[Poly() for _ in range(n)] for _ in range(n)]
        for a in range(n):
            f = entries(k)[a][i0]
            rows[a][prev] = Poly(f.coeffs[1:]) if a == i0 else f
        k_prime = from_rows(rows)
        factors = [(k, es[j]) for j in range(n) if j != i0]
        factors.append((k_prime, Zs[prev]))
        total = zero(n)
        for left, right in factors:
            for f in (left, right):
                assert np.max(np.abs(eval_rep(point, f))) <= 1e-12
            total = total + mul_elem(left, right)
        assert total == k
        result = kernel_square_witness(point, k, budget=2)
        assert result.success and result.residual == 0.0
        # realized degrees stay below m, so the grid values decide equality
        m = 6 * n
        rebuilt = sum(
            eval_rep_at_unit_roots(left, m) @ eval_rep_at_unit_roots(right, m)
            for left, right in result.pairs
        )
        assert np.allclose(rebuilt, eval_rep_at_unit_roots(k, m), atol=1e-12)


@pytest.mark.parametrize("budget", range(4))
@pytest.mark.parametrize("position", [(1, 1), (1, 2), (3, 1)])
def test_kernel_square_residual_is_the_unreached_coefficient(budget, position):
    # products of span monomials reach w-degree 2 * budget + 1 at most
    coeff = 0.37 - 0.21j
    k = monomial_elem(3, 2, 3, 0) + monomial_elem(
        3, *position, 2 * budget + 2, coeff
    )
    result = kernel_square_witness(DiagZero(1), k, budget=budget)
    assert not result.success
    assert result.residual == pytest.approx(abs(coeff), rel=1e-15)
    assert result.pairs == ()


def test_kernel_square_budget_above_the_degree_is_the_degree():
    # pairs above the element's degree carry no weight, so budget 200 gives
    # the budget-2 pairs of a degree-2 element without pair arrays that grow
    # with the square of the budget
    k = kernel_sample(DiagZero(1), 2, seed=3, count=1, deg=2)[0]
    want = kernel_square_witness(DiagZero(1), k, budget=2)
    tracemalloc.start()
    try:
        got = kernel_square_witness(DiagZero(1), k, budget=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert got.budget == 200
    assert (got.success, got.residual) == (want.success, want.residual)
    assert want.success and len(got.pairs) == len(want.pairs)
    for (gl, gr), (wl, wr) in zip(got.pairs, want.pairs):
        assert gl.coeffs.tobytes() == wl.coeffs.tobytes()
        assert gr.coeffs.tobytes() == wr.coeffs.tobytes()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_point_json_round_trip():
    for point in (Lambda(0.3 - 0.7j), Lambda(0.0), DiagZero(4)):
        assert point_from_json(point_to_json(point)) == point
    with pytest.raises(ValueError):
        point_from_json({"kind": "mystery"})


def test_matrix_json_round_trip():
    rng = np.random.default_rng(37)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(matc_from_json(matc_to_json(m)), m)
    with pytest.raises(ValueError):
        matc_from_json([[1.0, 0.0], [2.0, 0.0]])


def legacy_matc_from_json(data):
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


def matc_outcome(data):
    out = []
    for read in (matc_from_json, legacy_matc_from_json):
        try:
            m = read(data)
            out.append((m.shape, m.dtype, m.tobytes()))
        except ValueError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_matrix_json_reader_matches_entry_by_entry_reader(n):
    rng = np.random.default_rng(40 + n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m[0, 0] = complex(-0.0, 0.0)
    data = json.loads(json.dumps(matc_to_json(m)))
    got, want = matc_outcome(data)
    assert got == want == ((n, n), np.dtype(complex), m.tobytes())


@pytest.mark.parametrize(
    "data",
    [
        [[1.0, 2.0], [True, 0.0], [0.0, 0.0], [1.0, 1.0]],
        [[1.0, "2"]],
        [[1.0, math.nan]],
        [[math.inf, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[10**400, 0.0]],
        [[1.0]],
        [[1.0, 2.0, 3.0]],
        [[1.0, 0.0], [2.0], [3.0, 4.0, 5.0], [0.0, 0.0]],
        [[1, 2], [3, 4], [0, -1], [5, 0]],
        [[1, 2.5], [-0.0, 4], [0.0, -1.0], [5.0, 0]],
        [[1.0, 0.0], [2.0, 0.0]],
        [],
        [None],
        [[None, 1.0]],
        "ab",
        {"a": 1},
        7,
        None,
    ],
)
def test_matrix_json_reader_rejects_like_entry_by_entry_reader(data):
    got, want = matc_outcome(data)
    assert got == want
