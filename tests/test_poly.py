"""Scalar polynomial layer: hand-checked values, oracles, ring properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclealg.config import EPS_COEFF
from cyclealg.poly import (
    Poly,
    _trim,
    complex_from_json,
    eval_at_unit_roots,
    interpolate_roots_of_unity,
    powers,
)

from oracles import poly_at, trim_by_search


def random_poly(rng, deg=8, scale=1.0):
    c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    return Poly(scale * c)


def naive_mul(p: Poly, q: Poly) -> Poly:
    """Schoolbook product used as an oracle for the convolution path."""
    if p.is_zero or q.is_zero:
        return Poly()
    out = np.zeros(len(p.coeffs) + len(q.coeffs) - 1, dtype=complex)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


# ----------------------------------------------------------------------
# hand-checked values
# ----------------------------------------------------------------------


def test_add_hand_value():
    # (1 + 2w) + (3w + w^2) = 1 + 5w + w^2
    total = Poly([1, 2]) + Poly([0, 3, 1])
    assert total.coeffs.tolist() == [1 + 0j, 5 + 0j, 1 + 0j]


def test_mul_hand_value():
    # (1 + w)(1 - w) = 1 - w^2
    prod = Poly([1, 1]) * Poly([1, -1])
    assert prod.coeffs.tolist() == [1 + 0j, 0j, -1 + 0j]


def test_eval_hand_value():
    # 1 + 2w + w^2 at w = 2 is 9, as the library sums it (coefficients
    # against ``powers``) and as the test oracle ``poly_at`` does
    p = Poly([1, 2, 1])
    assert p.coeffs @ powers(2, 3) == 9 + 0j
    assert poly_at(p, 2) == 9 + 0j


def test_interpolation_hand_value():
    # 1 + w^2 sampled at the 4th roots of unity: values 2, 0, 2, 0
    samples = eval_at_unit_roots([1, 0, 1], 4)
    assert np.allclose(samples, [2, 0, 2, 0])
    assert interpolate_roots_of_unity(samples) == Poly([1, 0, 1])


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------


def test_trailing_trim_and_degree():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert Poly([0, 0]).is_zero
    assert Poly().degree == -1
    assert Poly([EPS_COEFF / 2]).is_zero


def test_immutability():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = np.array([3.0])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_equality_is_tolerance_based():
    assert Poly([1.0]) == Poly([1.0 + EPS_COEFF / 2])
    assert Poly([1.0]) != Poly([1.0 + 10 * EPS_COEFF])
    assert Poly([1, 2]) != Poly([1, 2, 3])


def test_zero_and_one():
    assert Poly().is_zero
    assert poly_at(Poly.one(), 0.37) == 1 + 0j
    p = Poly([2, 1])
    assert p + Poly() == p
    assert p * Poly.one() == p


# ----------------------------------------------------------------------
# oracles against independent implementations
# ----------------------------------------------------------------------


def test_mul_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_poly(rng, deg=int(rng.integers(0, 9)))
        q = random_poly(rng, deg=int(rng.integers(0, 9)))
        assert p * q == naive_mul(p, q)


def test_eval_matches_horner_by_hand():
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = random_poly(rng, deg=6)
        x = complex(rng.normal(), rng.normal())
        acc = 0j
        for c in p.coeffs[::-1]:
            acc = acc * x + c
        assert abs(p.coeffs @ powers(x, 7) - acc) <= 1e-12 * (1 + abs(acc))
        assert abs(poly_at(p, x) - acc) <= 1e-12 * (1 + abs(acc))


def _fold_oracle(c, m):
    """Exponents folded modulo m with np.add.at, then transformed."""
    folded = np.zeros(c.shape[:-1] + (m,), dtype=complex)
    np.add.at(folded, (..., np.arange(c.shape[-1]) % m), c)
    return np.fft.ifft(folded, axis=-1) * m


@pytest.mark.parametrize("m", [2, 7, 16])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_eval_at_unit_roots_matches_fold_bit_for_bit(m, extra, lead):
    # L = m - 1 and m fit on the grid in one pass, m + 1 wraps around it
    L = m + extra
    rng = np.random.default_rng(m * 10 + extra)
    c = rng.normal(size=lead + (L, 2)) @ np.array([1.0, 1j])
    c.flat[::3] = complex(-0.0, -0.0)
    c.flat[1::5] = complex(0.0, -0.0)
    got = eval_at_unit_roots(c, m)
    want = _fold_oracle(c, m)
    assert got.shape == want.shape == lead + (m,)
    assert got.tobytes() == want.tobytes()


def test_eval_at_unit_roots_matches_loop():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 8, 11):
        p = random_poly(rng, deg=17)
        grid = eval_at_unit_roots(p.coeffs, m)
        direct = np.array(
            [poly_at(p, np.exp(2j * np.pi * t / m)) for t in range(m)]
        )
        assert np.allclose(grid, direct, atol=1e-10)


def test_power_matches_repeated_mul():
    rng = np.random.default_rng(14)
    p = random_poly(rng, deg=3, scale=0.5)
    by_mul = Poly.one()
    for k in range(6):
        assert p**k == by_mul
        by_mul = by_mul * p
    with pytest.raises(ValueError):
        p ** (-1)


# ----------------------------------------------------------------------
# ring and calculus properties on random inputs
# ----------------------------------------------------------------------


def test_ring_axioms_random():
    rng = np.random.default_rng(15)
    for _ in range(30):
        a, b, c = (random_poly(rng, deg=7) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly()


def test_eval_is_ring_hom():
    rng = np.random.default_rng(16)
    for _ in range(30):
        a = random_poly(rng, deg=7)
        b = random_poly(rng, deg=7)
        x = complex(rng.normal(), rng.normal()) * 0.7
        ax, bx = poly_at(a, x), poly_at(b, x)
        assert abs(poly_at(a + b, x) - (ax + bx)) < 1e-10
        assert abs(poly_at(a * b, x) - ax * bx) < 1e-10


def test_interpolation_round_trip():
    rng = np.random.default_rng(19)
    for m in (1, 2, 5, 16):
        p = random_poly(rng, deg=m - 1)
        assert interpolate_roots_of_unity(eval_at_unit_roots(p.coeffs, m)) == p


def test_eval_folding_beyond_grid():
    # degree >= m folds exponents mod m on the root grid, by w^m = 1
    grid = eval_at_unit_roots(np.eye(8)[7], 4)
    assert np.allclose(grid, eval_at_unit_roots(np.eye(4)[3], 4))


# ----------------------------------------------------------------------
# misc API
# ----------------------------------------------------------------------


def test_scalar_arithmetic():
    p = Poly([1, 1])
    assert 2 * p == Poly([2, 2])
    assert p * 0.5j == Poly([0.5j, 0.5j])
    # + and - take only a Poly; a number is not coerced
    for bad in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p):
        with pytest.raises(TypeError):
            bad()


def test_complex_from_json():
    assert complex_from_json(1, -2.5) == complex(1, -2.5)
    assert complex_from_json(0.25) == 0.25
    for bad in (True, False, "1", None, [1.0], float("nan"), float("-inf"),
                10**400):
        with pytest.raises(ValueError):
            complex_from_json(bad, 0.0)
        with pytest.raises(ValueError):
            complex_from_json(0.0, bad)


# ----------------------------------------------------------------------
# the one-pass trim
# ----------------------------------------------------------------------


def trimmed_oracle(coeffs) -> np.ndarray:
    """Entry-by-entry trim: cut after the last modulus above EPS_COEFF."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    keep = np.nonzero(np.abs(c) > EPS_COEFF)[0]
    return c[: keep[-1] + 1] if keep.size else c[:0]


# parts at and around the trim threshold, signed zeros and ordinary values
PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, EPS_COEFF, -EPS_COEFF, np.nextafter(EPS_COEFF, 1.0),
         EPS_COEFF / 2, 1.0, -2.5]
    ),
    st.floats(-4.0, 4.0),
)
COEFFS = st.lists(st.builds(complex, PARTS, PARTS), max_size=6)


@given(COEFFS)
def test_poly_trim_matches_oracle_bit_for_bit(coeffs):
    p = Poly(coeffs)
    assert p.coeffs.tobytes() == trimmed_oracle(coeffs).tobytes()
    assert not p.coeffs.flags.writeable


@given(st.lists(COEFFS, max_size=5), st.integers(0, 3))
def test_trim_matches_poly_row_by_row(rows, extra):
    length = max(map(len, rows), default=0) + extra
    stack = np.zeros((len(rows), length), dtype=complex)
    for out, c in zip(stack, rows):
        out[: len(c)] = c
    trimmed, ends = _trim(stack)
    assert len(trimmed) == len(ends) == len(rows)
    assert not trimmed.flags.writeable
    for got, end, c in zip(trimmed, ends, rows):
        assert got[:end].tobytes() == Poly(c).coeffs.tobytes()
    stack[:] = 7.0  # the rows live in the routine's own copy
    assert all(
        got[:end].tobytes() == Poly(c).coeffs.tobytes()
        for got, end, c in zip(trimmed, ends, rows)
    )


def test_trim_threshold_is_inclusive():
    # modulus exactly EPS_COEFF is trimmed, the next float up is kept
    assert Poly([1.0, EPS_COEFF]).coeffs.tolist() == [1.0]
    above = np.nextafter(EPS_COEFF, 1.0)
    assert Poly([1.0, above]).coeffs.tolist() == [1.0, above]
    # interior small coefficients stay; only trailing ones go
    assert Poly([EPS_COEFF, 0.0, 1.0]).degree == 2
    assert _trim(np.zeros((2, 0)))[1].tolist() == [0, 0]


def _same_trim(stack):
    got, want = _trim(stack), trim_by_search(stack)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert not got[0].flags.writeable and not got[1].flags.writeable


@pytest.mark.parametrize("lead", [(), (3,), (2, 3), (0,), (3, 0)])
def test_trim_matches_the_search_bit_for_bit(lead):
    # the dense fast path (every row's last slot passes) and the search
    # agree on dense rows, monomials, trailing values at and below
    # EPS_COEFF, signed zeros, L = 0 and an empty leading axis
    rng = np.random.default_rng(33)
    for L in (0, 1, 2, 7, 9):
        dense = rng.normal(size=lead + (L, 2)) @ [1.0, 1j]
        _same_trim(dense)
        _same_trim(dense * 1e-12)  # every slot below the threshold
        _same_trim(-0.0 * dense)  # signed zeros only
        if not L or not np.prod(lead, dtype=int):
            continue
        mono = np.zeros(lead + (L,), dtype=complex)
        mono[(0,) * len(lead) + (L - 1,)] = 2.5 - 1j
        _same_trim(mono)
        for tail in (EPS_COEFF, EPS_COEFF / 3, np.nextafter(EPS_COEFF, 1.0)):
            edge = dense.copy()
            edge[(0,) * len(lead) + (L - 1,)] = tail
            _same_trim(edge)  # the fast path fails on one row only
            edge[..., -1] = -tail
            _same_trim(edge)
        neg = dense.copy()
        neg[..., 0] = complex(-0.0, -0.0)  # interior signed zeros stay
        _same_trim(neg)
        nan = dense.copy()
        nan[..., -1] = np.nan  # a NaN slot fails the threshold
        _same_trim(nan)
    # a stack with no rows keeps width 0, whatever its row length
    assert _trim(np.zeros((0, 5)))[0].shape == (0, 0)
    assert _trim(np.zeros((3, 0, 5)))[0].shape == (3, 0, 0)
