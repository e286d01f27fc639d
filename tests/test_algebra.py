"""Cycle-pattern matrix elements: generators, products, norms, parsing."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclealg.algebra import (
    CycleElement,
    diagonal,
    element_from_json,
    gen_Z,
    gen_e,
    generators,
    grid_norms,
    identity,
    monomial_elem,
    mul_elem,
    norm,
    parse_realized,
    random_element,
    spectral_norms,
    zero,
)
from cyclealg.errors import DimensionMismatch, NotInAlgebra
from cyclealg.config import EPS_COEFF
from cyclealg.derivations import canonical_kernel_elements
from cyclealg.poly import Poly, _trim

from oracles import entries, from_rows, poly_at, poly_from_json, raw_gap
from oracles import realize


def realized_product(a: CycleElement, b: CycleElement) -> np.ndarray:
    """Oracle: multiply the realized z-coefficient tensors directly.

    Entry (i, j) of the product is sum_k a_{ik}(z) b_{kj}(z), computed by
    plain convolution of dense z-coefficient vectors with no knowledge of
    the step-count bookkeeping.
    """
    n = a.n
    ta, tb = a.realized_coeffs(), b.realized_coeffs()
    L = ta.shape[2] + tb.shape[2] - 1
    out = np.zeros((n, n, L), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j, : ta.shape[2] + tb.shape[2] - 1] += np.convolve(
                    ta[i, k], tb[k, j]
                )
    return out


def tensors_close(x: np.ndarray, y: np.ndarray, atol=1e-12) -> bool:
    L = max(x.shape[2], y.shape[2])
    xp = np.zeros((*x.shape[:2], L), dtype=complex)
    yp = np.zeros((*y.shape[:2], L), dtype=complex)
    xp[:, :, : x.shape[2]] = x
    yp[:, :, : y.shape[2]] = y
    return np.allclose(xp, yp, atol=atol)


# ----------------------------------------------------------------------
# generators and their relations
# ----------------------------------------------------------------------


def test_vertex_idempotents_sum_to_identity():
    for n in (1, 2, 3, 5):
        es, _ = generators(n)
        total = zero(n)
        for e in es:
            total = total + e
            assert mul_elem(e, e) == e
        assert total == identity(n)


def test_vertex_idempotents_are_orthogonal():
    es, _ = generators(4)
    for i, ei in enumerate(es):
        for j, ej in enumerate(es):
            prod = mul_elem(ei, ej)
            assert prod == (ei if i == j else zero(4))


def test_arrow_vertex_relations():
    # Z_i = e_i Z_i = Z_i e_{i+1}, cyclically
    for n in (2, 3, 5):
        es, Zs = generators(n)
        for i in range(n):
            assert mul_elem(es[i], Zs[i]) == Zs[i]
            assert mul_elem(Zs[i], es[(i + 1) % n]) == Zs[i]
            assert mul_elem(es[(i + 1) % n], Zs[i]) == zero(n)


def test_full_loop_gives_w():
    # Z_1 Z_2 ... Z_n walks 1 -> 2 -> ... -> 1 and picks up one power of w
    for n in (1, 2, 3, 6):
        _, Zs = generators(n)
        prod = identity(n)
        for Z in Zs:
            prod = mul_elem(prod, Z)
        assert prod == monomial_elem(n, 1, 1, 1)


def test_partial_path_is_plain_step_monomial():
    # Z_1 Z_2 at n = 3 is one entry at (1, 3) with no w factor
    Zs = generators(3)[1]
    prod = mul_elem(Zs[0], Zs[1])
    assert prod == monomial_elem(3, 1, 3, 0)


def test_n1_is_scalar_polynomials():
    z = gen_Z(1, 1)
    assert mul_elem(z, z) == monomial_elem(1, 1, 1, 2)
    assert gen_e(1, 1) == identity(1)


# ----------------------------------------------------------------------
# product oracle and ring properties
# ----------------------------------------------------------------------


def test_product_matches_realized_convolution():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            a = random_element(n, rng, deg=4)
            b = random_element(n, rng, deg=4)
            prod = mul_elem(a, b)
            assert tensors_close(
                prod.realized_coeffs(), realized_product(a, b), atol=1e-10
            )


def rounding_bound(n: int, deg: int, *norms: float) -> float:
    """Rounding bound on a coefficient of a product of len(norms) factors
    of w-degree at most deg and norm_l1 at most norms.

    Each coefficient sums products of one coefficient per factor whose
    moduli add up to at most n**(k - 1) times the product of the k norms,
    along a chain of at most K = 4 n (deg + 1) + 8 roundings (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3); a gap
    between two such sums is at most twice that."""
    K = 4 * n * (deg + 1) + 8
    return 2 * K * np.finfo(float).eps * n ** (len(norms) - 1) * math.prod(
        norms
    )


def test_ring_axioms_random():
    rng = np.random.default_rng(22)
    deg = 3
    for n in (1, 3):
        one = identity(n)
        for _ in range(8):
            a, b, c = (random_element(n, rng, deg=deg) for _ in range(3))
            assert mul_elem(mul_elem(a, b), c) == mul_elem(a, mul_elem(b, c))
            assert mul_elem(a, b + c) == mul_elem(a, b) + mul_elem(a, c)
            assert mul_elem(a + b, c) == mul_elem(a, c) + mul_elem(b, c)
            assert mul_elem(a, one) == a
            assert mul_elem(one, a) == a
            assert a - a == zero(n)
            # the same axioms to rounding, on raw coefficient arrays
            bound = rounding_bound(n, deg, a.norm_l1, b.norm_l1 + c.norm_l1)
            assert raw_gap(
                mul_elem(a, b + c), mul_elem(a, b), mul_elem(a, c)
            ) <= bound
            bound = rounding_bound(n, deg, a.norm_l1 + b.norm_l1, c.norm_l1)
            assert raw_gap(
                mul_elem(a + b, c), mul_elem(a, c), mul_elem(b, c)
            ) <= bound
            bound = rounding_bound(n, deg, a.norm_l1, one.norm_l1)
            assert raw_gap(mul_elem(a, one), a) <= bound
            assert raw_gap(mul_elem(one, a), a) <= bound


@st.composite
def factors(draw, n, deg):
    """A generator, or a seeded dense element of w-degree deg at scale 1 or
    1e3; dense coefficients are uniform in the complex unit box."""
    if draw(st.booleans()):
        gen = draw(st.sampled_from([gen_e, gen_Z]))
        return gen(n, draw(st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    return random_element(n, rng, deg=deg, scale=scale)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 8))
def test_mul_elem_is_associative_to_rounding(data, n, deg):
    a, b, c = (data.draw(factors(n, deg)) for _ in range(3))
    gap = raw_gap(mul_elem(mul_elem(a, b), c), mul_elem(a, mul_elem(b, c)))
    assert gap <= rounding_bound(n, deg, a.norm_l1, b.norm_l1, c.norm_l1)


def test_operator_syntax():
    a = gen_Z(2, 1)
    b = gen_Z(2, 2)
    assert a * b == mul_elem(a, b)
    assert 2 * a == a + a
    assert (-a) + a == zero(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mul_elem(gen_e(2, 1), gen_e(3, 1))
    with pytest.raises(DimensionMismatch):
        gen_e(2, 1) + gen_e(3, 1)
    with pytest.raises(IndexError):
        gen_e(2, 3)
    with pytest.raises(IndexError):
        gen_Z(2, 0)


# ----------------------------------------------------------------------
# realization and parsing
# ----------------------------------------------------------------------


def test_realize_places_arrow_at_z():
    Z = gen_Z(2, 1)
    grid = realize(Z)
    assert grid[0][1] == Poly([0, 1])
    assert grid[0][0].is_zero and grid[1][0].is_zero and grid[1][1].is_zero


def test_realize_ladder_spacing():
    # entry (2, 1) of an n = 3 element with f = 1 + w realizes as z^2 + z^5
    a = monomial_elem(3, 2, 1, 0) + monomial_elem(3, 2, 1, 1)
    assert realize(a)[1][0] == Poly([0, 0, 1, 0, 0, 1])


def test_parse_realized_round_trip():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4):
        a = random_element(n, rng, deg=5)
        assert parse_realized(a.realized_coeffs(), n) == a


def test_parse_realized_rejects_off_ladder():
    grid = np.zeros((2, 2, 2), dtype=complex)
    grid[0, 0, 1] = 1.0
    # z at position (1, 1) needs exponent 0 mod 2
    with pytest.raises(NotInAlgebra) as info:
        parse_realized(grid, 2)
    assert "(1,1)" in str(info.value)


def test_parse_realized_shape_checks():
    with pytest.raises(DimensionMismatch):
        parse_realized(np.zeros((1, 1, 0)), 2)
    with pytest.raises(DimensionMismatch):
        parse_realized(np.zeros((1, 2, 0)), None)
    # a grid without a coefficient axis is no realized array
    with pytest.raises(DimensionMismatch):
        parse_realized(np.zeros((2, 2)), None)


# ----------------------------------------------------------------------
# norm
# ----------------------------------------------------------------------


def test_norm_frozen_values():
    # identity has norm 1; z has modulus 1 on the circle; the two-arrow sum
    # Z_1 + Z_2 at n = 2 is a permutation-like matrix of unimodular entries
    assert identity(3).norm() == pytest.approx(1.0, abs=1e-12)
    assert gen_Z(1, 1).norm() == pytest.approx(1.0, abs=1e-12)
    assert (gen_Z(2, 1) + gen_Z(2, 2)).norm() == pytest.approx(1.0, abs=1e-12)
    # 1 + w on the diagonal peaks at w = 1
    assert diagonal(2, [1, 1]).norm() == pytest.approx(2.0, abs=1e-9)


def test_norm_matches_dense_svd_oracle():
    rng = np.random.default_rng(24)
    for n in (1, 2, 3):
        a = random_element(n, rng, deg=4)
        grid = 64
        worst = 0.0
        realized = realize(a)
        for t in range(grid):
            zt = np.exp(2j * np.pi * t / grid)
            mat = np.array([[poly_at(p, zt) for p in row] for row in realized])
            worst = max(worst, float(np.linalg.norm(mat, 2)))
        assert a.norm(grid) == pytest.approx(worst, rel=1e-10)


def test_norm_is_submultiplicative_on_samples():
    rng = np.random.default_rng(25)
    for _ in range(5):
        a = random_element(2, rng, deg=3)
        b = random_element(2, rng, deg=3)
        # exact on a grid that resolves the product degree
        g = 257
        assert mul_elem(a, b).norm(g) <= a.norm(g) * b.norm(g) + 1e-9


def full_svd_norms(stack):
    """Oracle: the largest singular value of every matrix in the stack."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    return np.linalg.svd(flat, compute_uv=False)[:, 0]


def assert_exact_where_it_counts(stack, floor=np.inf):
    want = full_svd_norms(stack)
    got = spectral_norms(stack, floor).ravel()
    assert got.shape == want.shape
    # the max and its first index, bit for bit
    assert got.max() == want.max()
    assert np.argmax(got) == np.argmax(want)
    # every matrix at or above min(max, floor) reads the decomposition
    level = min(want.max(), floor)
    assert np.array_equal(got[want >= level], want[want >= level])
    # every other entry is a bound that stays below that level
    assert np.all(got >= want * (1 - 1e-13))
    assert np.all(got[want < level] < level)


def mixed_scale_stack(rng, count, n):
    shape = (count, n, n)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # whole matrices scaled over 1e+-130 and single entries by 1e+-170, so
    # that an unscaled |x|**2 would overflow or underflow
    stack *= 10.0 ** rng.uniform(-130, 130, size=(count, 1, 1))
    stack *= 10.0 ** rng.choice([-170.0, 0.0, 170.0], size=shape)
    return stack


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_spectral_norms_match_full_svd_on_mixed_scales(n):
    rng = np.random.default_rng(90 + n)
    for count in (1, 2, 7, 300):
        stack = mixed_scale_stack(rng, count, n)
        assert_exact_where_it_counts(stack)
        top = full_svd_norms(stack).max()
        for floor in (0.0, top * 1e-200, top * 1e-3, top, top * 10):
            assert_exact_where_it_counts(stack, floor)


def test_spectral_norms_match_full_svd_on_noise_and_real_input():
    # a stack of rounding noise, as in the residuals of a consistent solve,
    # and a real stack of the same values
    rng = np.random.default_rng(96)
    noise = (rng.normal(size=(448, 8, 8)) + 1j) * 1e-15
    for floor in (np.inf, 1e-8, 3e-15, 0.0):
        assert_exact_where_it_counts(noise, floor)
        assert_exact_where_it_counts(noise.real.copy(), floor)


def test_spectral_norms_on_zero_stacks_and_ties():
    for n in (1, 3):
        zeros = np.zeros((5, n, n), dtype=complex)
        assert np.array_equal(spectral_norms(zeros), np.zeros(5))
        assert not np.signbit(spectral_norms(zeros)).any()
        assert_exact_where_it_counts(zeros)
        assert_exact_where_it_counts(zeros, 1e-8)
    rng = np.random.default_rng(97)
    for n in (1, 2, 4):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        stack = np.zeros((9, n, n), dtype=complex)
        stack[[2, 5, 7]] = m  # exact ties at the top
        stack[[0, 4]] = 0.5 * m
        stack[8] = -m  # the same norm from another matrix
        for floor in (np.inf, 0.1, 0.0):
            assert_exact_where_it_counts(stack, floor)
        assert np.argmax(spectral_norms(stack)) == 2
    # row and column permutations of the top matrix tie it up to rounding
    m = rng.normal(size=(3, 3))
    stack = np.stack([0.9 * m, m[::-1], m, m[:, ::-1]])
    assert_exact_where_it_counts(stack)
    # a matrix just above the one with the largest bound: its own bound
    # exceeds that norm by less than 1e-12 relative, yet differs from its
    # spectral norm in the last bits, so it must be decomposed
    near = np.array([[1 + 1e-13, 0], [0, 1e-7]])
    assert_exact_where_it_counts(np.stack([np.eye(2), near]))
    # subnormal entries are scaled, not read as zero
    assert_exact_where_it_counts(rng.normal(size=(4, 3, 3)) * 1e-310)


def test_spectral_norms_survive_rounding_inversions():
    # rank-one matrices a and a * (1 + k eps) have Frobenius and spectral
    # norms equal up to rounding, so the rounded bound of the larger one can
    # fall below the rounded norm of the smaller one; the margin must still
    # send it to the decomposition
    rng = np.random.default_rng(95)
    eps = np.finfo(float).eps
    for _ in range(500):
        u = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        a = u @ rng.normal(size=(1, 2))
        for k in range(-3, 4):
            assert_exact_where_it_counts(np.stack([a, a * (1 + k * eps)]))


def test_spectral_norms_keep_the_leading_shape():
    rng = np.random.default_rng(98)
    stack = rng.normal(size=(3, 2, 4, 5, 5))
    got = spectral_norms(stack)
    assert got.shape == (3, 2, 4)
    assert_exact_where_it_counts(stack)


def test_norm_is_the_max_of_grid_norms_bit_for_bit():
    rng = np.random.default_rng(99)
    for n in (1, 2, 3, 5):
        elems = [
            zero(n),
            identity(n),
            *canonical_kernel_elements(n, np.exp(0.7j)),
            random_element(n, rng, deg=8),
            random_element(n, rng, deg=3, scale=1e150),
        ]
        for a in elems:
            for grid in (1, 7, 512):
                assert norm(a, grid) == grid_norms(a, grid).max()


def test_norm_of_zero_takes_no_grid_pass(monkeypatch):
    from cyclealg import algebra

    def no_grid_pass(*args, **kwargs):
        raise AssertionError("spectral_norms called on the zero element")

    monkeypatch.setattr(algebra, "spectral_norms", no_grid_pass)
    for n in (1, 2, 8):
        for grid in (1, 7, 512):
            value = norm(zero(n), grid)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
            assert zero(n).norm(grid) == 0.0
        for grid in (0, -3):
            with pytest.raises(ValueError, match="grid size must be >= 1"):
                norm(zero(n), grid)
            with pytest.raises(ValueError, match="grid size must be >= 1"):
                norm(identity(n), grid)


# ----------------------------------------------------------------------
# serialization and misc
# ----------------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(26)
    a = random_element(3, rng, deg=4)
    assert element_from_json(a.to_json()) == a
    with pytest.raises(ValueError):
        element_from_json({"n": 2})


def test_max_degree_and_is_zero():
    assert zero(2).is_zero
    assert zero(2).max_degree == -1
    assert monomial_elem(2, 1, 2, 3).max_degree == 3


def test_random_element_normalized():
    rng = np.random.default_rng(27)
    a = random_element(2, rng, deg=5, normalize=True)
    mass = max(np.abs(p.coeffs).sum() for row in entries(a) for p in row)
    assert mass <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# one array per operation, against entry-by-entry arithmetic
# ----------------------------------------------------------------------


def entrywise(op, *elements) -> CycleElement:
    n = elements[0].n
    grids = [entries(e) for e in elements]
    return from_rows(
        tuple(
            tuple(op(*(g[i][j] for g in grids)) for j in range(n))
            for i in range(n)
        ),
    )


def mul_oracle(a, b) -> CycleElement:
    """The product entry by entry: acc = 0.0, then + a_ik b_kj in ascending
    k, one Poly per entry."""
    n = a.n
    a_entries, b_entries = entries(a), entries(b)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            base = (j - i) % n
            acc = None
            for k in range(n):
                fa, fb = a_entries[i][k], b_entries[k][j]
                if fa.is_zero or fb.is_zero:
                    continue
                excess = ((k - i) % n + (j - k) % n - base) // n
                prod = np.convolve(fa.coeffs, fb.coeffs)
                length = excess + len(prod)
                if acc is None or len(acc) < length:
                    grown = np.zeros(length, dtype=complex)
                    if acc is not None:
                        grown[: len(acc)] = acc
                    acc = grown
                acc[excess : excess + len(prod)] += prod
            row.append(Poly(acc) if acc is not None else Poly())
        rows.append(tuple(row))
    return from_rows(tuple(rows))


def bits(a: CycleElement):
    """Every coefficient bit of an element, and its JSON text."""
    raw = [[p.coeffs.tobytes() for p in row] for row in entries(a)]
    return a.n, raw, json.dumps(a.to_json())


# parts at and around the trim threshold, signed zeros and ordinary values
PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, EPS_COEFF, -EPS_COEFF, np.nextafter(EPS_COEFF, 1.0),
         1.0, -1.0]
    ),
    st.floats(-4.0, 4.0),
)
POLYS = st.lists(st.builds(complex, PARTS, PARTS), max_size=4).map(Poly)
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1e-10, -1.0]),
    st.floats(-4.0, 4.0),
    st.builds(complex, PARTS, PARTS),
)


@st.composite
def elements(draw, n):
    kind = draw(st.sampled_from(["dense", "generator", "monomial", "zero"]))
    if kind == "generator":
        gen = draw(st.sampled_from([gen_e, gen_Z]))
        return gen(n, draw(st.integers(1, n)))
    if kind == "monomial":
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        coeff = draw(st.builds(complex, PARTS, PARTS))
        return monomial_elem(n, i, j, draw(st.integers(0, 3)), coeff)
    if kind == "zero":
        return zero(n)
    return from_rows(
        tuple(tuple(draw(POLYS) for _ in range(n)) for _ in range(n))
    )


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 4))
    a = draw(elements(n))
    if draw(st.booleans()):
        # b cancels a on some entries, so sums trim down to nothing there
        b = from_rows(
            tuple(
                tuple(-p if draw(st.booleans()) else draw(POLYS) for p in row)
                for row in entries(a)
            ),
        )
    else:
        b = draw(elements(n))
    return a, b


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), SCALARS)
def test_bulk_arithmetic_matches_entrywise_bit_for_bit(pair, c):
    a, b = pair
    assert bits(a + b) == bits(entrywise(lambda p, q: p + q, a, b))
    assert bits(a - b) == bits(entrywise(lambda p, q: p + (-q), a, b))
    assert bits(-a) == bits(entrywise(lambda p: -p, a))
    assert bits(a * c) == bits(entrywise(lambda p: p * c, a))
    assert bits(c * a) == bits(a * c)
    # results of bulk operations feed further ones alike
    assert bits((a + b) - a) == bits(
        entrywise(lambda p, q: (p + q) + (-p), a, b)
    )


def assert_canonical(a: CycleElement):
    """One read-only (n, n, L) array: every entry trimmed as ``_trim``
    trims it, +0.0 in every slot past an end, and L the longest entry."""
    want, ends = _trim(a.coeffs)
    assert not a.coeffs.flags.writeable and not a.ends.flags.writeable
    assert a.coeffs.shape == (a.n, a.n, a.coeffs.shape[2])
    assert a.ends.tolist() == ends.tolist()
    assert a.coeffs.tobytes() == want.tobytes()
    past = np.arange(a.coeffs.shape[2]) >= a.ends[..., None]
    assert a.coeffs[past].tobytes() == np.zeros(past.sum(), complex).tobytes()
    assert a.coeffs.shape[2] == a.ends.max()


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), SCALARS)
def test_every_operation_keeps_the_canonical_array(pair, c):
    a, b = pair
    results = [a + b, a - b, -a, a * c, c * a, (a + b) - a]
    results.append(element_from_json(json.loads(json.dumps(a.to_json()))))
    results.append(parse_realized(a.realized_coeffs(), a.n))
    results.append(mul_elem(a, b))
    for r in results:
        assert_canonical(r)


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
def test_mul_elem_matches_entrywise_oracle(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(mul_elem(x, y)) == bits(mul_oracle(x, y))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 6),
    st.sampled_from([1.0, 1e-10, 3.5]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_random_element_matches_entrywise_draw(n, deg, scale, normalize, seed):
    got = random_element(
        n, np.random.default_rng(seed), deg=deg, scale=scale,
        normalize=normalize,
    )
    coeffs = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(n, n, deg + 1, 2)
    )
    grid = [
        [Poly((c[:, 0] + 1j * c[:, 1]) * scale).coeffs for c in row]
        for row in coeffs
    ]
    if normalize:
        top = max(float(np.sum(np.abs(c))) for row in grid for c in row)
        if top > 0:
            grid = [[c * (1.0 / top) for c in row] for row in grid]
    want = from_rows(tuple(tuple(Poly(c) for c in row) for row in grid))
    assert bits(got) == bits(want)


def legacy_element_from_json(data):
    try:
        rows = tuple(
            tuple(poly_from_json(p) for p in row) for row in data["entries"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc
    return from_rows(rows, data["n"])


def outcome(read, data):
    try:
        return bits(read(data))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(operand_pairs())
def test_json_reader_matches_entry_by_entry_reader(pair):
    for a in pair:
        doc = json.loads(json.dumps(a.to_json()))
        assert outcome(element_from_json, doc) == bits(a)
        assert outcome(element_from_json, doc) == outcome(
            legacy_element_from_json, doc
        )


@pytest.mark.parametrize(
    "entries",
    [
        [[[[1.0, 2.0]], []], [[], [[True, 0.0]]]],
        [[[[1.0, "2"]], []], [[], []]],
        [[[[1.0, math.nan]], []], [[], []]],
        [[[[1.0, 0.0], [math.inf, 0.0]], []], [[], []]],
        [[[[10**400, 0.0]], []], [[], []]],
        [[[[1.0]], []], [[], []]],
        [[[[1.0, 2.0, 3.0]], []], [[], []]],
        [[[[1.0], [2.0, 3.0, 4.0]]], [[], []]],
        [[[], []], [[]]],
        [[[], [], []], [[], []]],
        [[[[1.0, 0.0]], [[1.0, 0.0]]], 5],
        [[[[1, 2]], [[3.5, -0.0]]], [[], [[0, 1e-12]]]],
        [[[[1.0, 2.0]], {"a": 1}], [[], []]],
        [[[[1.0, 2.0]], "ab"], [[], []]],
        [[[None], []], [[], []]],
        7,
    ],
)
def test_json_reader_rejects_like_entry_by_entry_reader(entries):
    doc = {"n": 2, "entries": entries}
    assert outcome(element_from_json, doc) == outcome(
        legacy_element_from_json, doc
    )
