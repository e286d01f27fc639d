"""Global derivations and the boundary-field reconstruction pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from cyclealg.algebra import (
    diagonal,
    gen_Z,
    gen_e,
    generators,
    identity,
    monomial_elem,
    mul_elem,
    random_element,
    zero,
)
from cyclealg.errors import (
    DegreeOverflow,
    DimensionMismatch,
    GridTooSmall,
    NotInAlgebra,
    NotLocallyInner,
)
from cyclealg import derivations
from cyclealg.derivations import inner_solve
from cyclealg.poly import Poly
from cyclealg.reconstruction import (
    BoundaryField,
    GlobalDerivation,
    boundary_field_from_json,
    global_derivation_from_json,
    localize,
    reconstruct_witness,
    solve_boundary_field,
    verify_global_inner,
)
from cyclealg.representations import Lambda, eval_rep

from oracles import entries, leibniz_extension, raw_gap


def commutator(a, X):
    return mul_elem(a, X) - mul_elem(X, a)


def run_pipeline(X0):
    D = GlobalDerivation.from_commutator(X0)
    field = solve_boundary_field(D)
    witness = reconstruct_witness(field)
    return D, field, witness


# ----------------------------------------------------------------------
# the generator extension
# ----------------------------------------------------------------------


def test_apply_matches_direct_commutator():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        X0 = random_element(n, rng, deg=3)
        D = GlobalDerivation.from_commutator(X0)
        for _ in range(6):
            a = random_element(n, rng, deg=4)
            assert leibniz_extension(D, a) == commutator(a, X0)


def test_apply_word_matches_apply():
    # D on the word e_1 Z_1 Z_2 Z_3 Z_1, a path once around the cycle and
    # one step further, is the commutator with the source witness
    rng = np.random.default_rng(62)
    n = 3
    X0 = random_element(n, rng, deg=2)
    D = GlobalDerivation.from_commutator(X0)
    elem = mul_elem(
        mul_elem(mul_elem(gen_e(n, 1), gen_Z(n, 1)), gen_Z(n, 2)),
        mul_elem(gen_Z(n, 3), gen_Z(n, 1)),
    )
    assert leibniz_extension(D, elem) == commutator(elem, X0)


def test_localize_commutes_with_evaluation():
    # inner data, and random generator data that is no derivation: the
    # global Leibniz extension and the local one agree on every element
    rng = np.random.default_rng(63)
    inputs = [
        GlobalDerivation.from_commutator(random_element(n, rng, deg=3))
        for n in (1, 2, 3)
    ] + [
        GlobalDerivation(
            n,
            tuple(random_element(n, rng, deg=2) for _ in range(n)),
            tuple(random_element(n, rng, deg=2) for _ in range(n)),
        )
        for n in (1, 2, 3, 4)
    ]
    for D in inputs:
        n = D.n
        for lam in (0.0, 0.6, np.exp(0.9j)):
            local = localize(D, lam)
            for _ in range(4):
                a = random_element(n, rng, deg=4)
                assert np.allclose(
                    local.apply(a),
                    eval_rep(Lambda(lam), leibniz_extension(D, a)),
                    atol=1e-9,
                )


def test_apply_reads_the_generator_span():
    # on the span of the generators apply is the Leibniz extension, bit for
    # bit; a path of two or more arrows is no generator and raises
    rng = np.random.default_rng(64)
    for n in (1, 2, 3, 4):
        inputs = [
            GlobalDerivation.from_commutator(random_element(n, rng, deg=3)),
            GlobalDerivation(
                n,
                tuple(random_element(n, rng, deg=2) for _ in range(n)),
                tuple(random_element(n, rng, deg=2) for _ in range(n)),
            ),
        ]
        es, Zs = generators(n)
        for D in inputs:
            combos = [
                sum(
                    (complex(*rng.normal(size=2)) * g for g in (*es, *Zs)),
                    zero(n),
                )
                for _ in range(3)
            ]
            for a in (*es, *Zs, *combos):
                got, want = D.apply(a), leibniz_extension(D, a)
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
            for i in range(n):
                for m in range(2, 2 * n + 2):
                    j = (i + m) % n
                    path = monomial_elem(
                        n, i + 1, j + 1, (m - (j - i) % n) // n
                    )
                    with pytest.raises(ValueError):
                        D.apply(path)
            with pytest.raises(ValueError):
                D.apply(random_element(n, rng, deg=4))


def test_global_derivation_validation():
    with pytest.raises(DimensionMismatch):
        GlobalDerivation(2, (zero(2),), (zero(2), zero(2)))
    with pytest.raises(DimensionMismatch):
        GlobalDerivation(2, (zero(3), zero(3)), (zero(3), zero(3)))


# ----------------------------------------------------------------------
# pipeline round trips
# ----------------------------------------------------------------------


def test_round_trip_single_arrow():
    D, field, witness = run_pipeline(gen_Z(2, 1))
    assert field.max_residual <= 1e-10
    # the recovered witness generates the same derivation as Z_1
    for g in (gen_e(2, 1), gen_e(2, 2), gen_Z(2, 1), gen_Z(2, 2)):
        assert commutator(g, witness) == commutator(g, gen_Z(2, 1))
    report = verify_global_inner(D, witness)
    assert report.ok
    # normalization pins the leading diagonal entry to zero
    assert witness.ends[0, 0] == 0


def test_round_trip_random_witnesses():
    rng = np.random.default_rng(64)
    for n in (1, 2, 3, 4):
        X0 = random_element(n, rng, deg=5)
        D, field, witness = run_pipeline(X0)
        report = verify_global_inner(D, witness)
        assert report.ok, (n, report.max_residual)


def test_round_trip_witness_differs_from_source_by_center():
    # witnesses are only determined modulo the center; the difference must
    # be a scalar polynomial in w times the identity
    rng = np.random.default_rng(65)
    n = 3
    X0 = random_element(n, rng, deg=4)
    _, _, witness = run_pipeline(X0)
    diff = entries(witness - X0)
    central = diff[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                assert diff[i][j] == central
            else:
                assert diff[i][j].is_zero


def test_round_trip_n1_forces_zero():
    # polynomials commute, so every inner derivation over n = 1 vanishes
    rng = np.random.default_rng(66)
    X0 = random_element(1, rng, deg=6)
    D, field, witness = run_pipeline(X0)
    assert witness.is_zero
    assert all(v.is_zero for v in (*D.values_e, *D.values_Z))


def test_rejects_non_derivation_data():
    # D(Z) = 1 over n = 1 admits no commutator witness anywhere
    bad = GlobalDerivation(1, (zero(1),), (identity(1),))
    with pytest.raises(NotLocallyInner) as info:
        solve_boundary_field(bad, m=16)
    assert info.value.residual > 1e-3


def test_degree_cap_honored():
    X0 = monomial_elem(2, 1, 2, 3)  # witness entries of w-degree 3
    D = GlobalDerivation.from_commutator(X0)
    field = solve_boundary_field(D)
    with pytest.raises(DegreeOverflow):
        reconstruct_witness(field, deg_max=1)
    witness = reconstruct_witness(field, deg_max=8)
    assert verify_global_inner(D, witness).ok


def test_undersampled_grid_fails_honestly():
    # a 4-point grid cannot carry degree-6 data over n = 2: the solve refuses
    # before it starts and names the smallest grid that resolves the data
    rng = np.random.default_rng(67)
    X0 = random_element(2, rng, deg=5)
    D = GlobalDerivation.from_commutator(X0)
    needed = 2 * (D.value_degree + 1)
    with pytest.raises(GridTooSmall) as info:
        solve_boundary_field(D, m=4)
    assert info.value.needed == needed
    assert f"{needed} points" in str(info.value)
    # the smallest grid the message names is enough for the whole pipeline
    field = solve_boundary_field(D, m=needed)
    witness = reconstruct_witness(field, deg_max=12)
    assert verify_global_inner(D, witness).ok
    with pytest.raises(GridTooSmall):
        solve_boundary_field(D, m=needed - 1)


def test_default_grid_is_sized_by_the_data():
    # the default grid is the smallest one the GridTooSmall rule admits:
    # one point more than the data's top z-degree, n for the zero derivation
    rng = np.random.default_rng(77)
    for n in range(1, 9):
        for deg in (0, 3, 9):
            D = GlobalDerivation.from_commutator(
                random_element(n, rng, deg=deg)
            )
            field = solve_boundary_field(D)
            if D.value_degree >= 0:
                assert field.m == n * (D.value_degree + 1)
            else:
                assert field.m == n
        field = solve_boundary_field(GlobalDerivation.from_commutator(zero(n)))
        assert field.m == n
        assert reconstruct_witness(field).is_zero


def test_data_sized_grid_matches_an_oversampled_grid():
    # the witness z-degree never exceeds the data's, so interpolation on the
    # default grid is exact: it gives the witness of a grid of 4 n (64 + 2)
    # points to rounding, and both verify
    rng = np.random.default_rng(78)
    for n in range(1, 9):
        for deg in (0, 4, 10):
            D = GlobalDerivation.from_commutator(
                random_element(n, rng, deg=deg)
            )
            small = reconstruct_witness(solve_boundary_field(D))
            large = reconstruct_witness(
                solve_boundary_field(D, m=4 * n * 66)
            )
            assert raw_gap(small, large) <= 1e-12, (n, deg)
            assert verify_global_inner(D, small).ok


def test_off_form_data_rejected_alike_on_both_grids():
    # a shifted constant in D(e_1)[1, 1] is off form at lambda = 1, the
    # first point of every grid: the default grid rejects there with the
    # residual an oversampled grid reports
    rng = np.random.default_rng(79)
    for n in range(1, 9):
        good = GlobalDerivation.from_commutator(random_element(n, rng, deg=8))
        shift = complex(*rng.normal(size=2))
        off = good.values_e[0] + monomial_elem(n, 1, 1, 0, shift)
        D = GlobalDerivation(n, (off, *good.values_e[1:]), good.values_Z)
        outcomes = []
        for m in (None, 4 * n * 66):
            with pytest.raises(NotLocallyInner) as info:
                solve_boundary_field(D, m=m)
            outcomes.append((info.value.lam, info.value.residual))
        (lam_small, res_small), (lam_large, res_large) = outcomes
        assert lam_small == lam_large == 1.0
        assert res_small == pytest.approx(res_large, rel=1e-12, abs=0.0)


def test_batched_field_matches_pointwise_inner_solve():
    # the one multi-right-hand-side solve over the grid gives, at every grid
    # point, the witness of the per-point solve of the localized data
    rng = np.random.default_rng(70)
    for n in (1, 2, 3, 4):
        D = GlobalDerivation.from_commutator(random_element(n, rng, deg=4))
        m = 8 * n
        field = solve_boundary_field(D, m=m)
        for t in range(m):
            point = localize(D, np.exp(2j * np.pi * t / m))
            np.testing.assert_allclose(
                field.X_at[t], inner_solve(point).X, rtol=0, atol=1e-12
            )


def test_rejecting_point_is_first_pointwise_failure():
    # off-form data vanishing at the first grid points: the batched solve
    # must reject at the first grid point where the per-point solve fails
    rng = np.random.default_rng(71)
    for n in (2, 3, 4):
        m = 6 * n
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        bump = Poly([1.0])
        for t in range(3):
            bump = bump * Poly([-(roots[t] ** n), 1.0])
        good = GlobalDerivation.from_commutator(random_element(n, rng, deg=2))
        bump = diagonal(n, bump.coeffs)
        off = good.values_e[0] + mul_elem(gen_e(n, 1), bump)
        D = GlobalDerivation(n, (off, *good.values_e[1:]), good.values_Z)
        first = next(
            t
            for t in range(m)
            if not inner_solve(localize(D, roots[t])).consistent
        )
        assert first == 3
        with pytest.raises(NotLocallyInner) as info:
            solve_boundary_field(D, m=m)
        assert abs(info.value.lam - roots[first]) <= 1e-15


def full_spectral_norms(stack, floor=np.inf):
    """Oracle for spectral_norms: one decomposition per matrix, no pruning."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _solve_outcome(D, m, tol):
    try:
        field = solve_boundary_field(D, m=m, tol=tol)
    except NotLocallyInner as exc:
        return "rejected", exc.lam, exc.residual
    return "solved", field.max_residual, field.X_at.tobytes()


def test_solve_outcome_matches_full_per_point_residuals(monkeypatch):
    # the pruned residual must name the same first rejecting point with the
    # same residual, and report the same worst residual, bit for bit, as a
    # decomposition at every grid point and generator
    rng = np.random.default_rng(72)
    cases = []
    for n in (1, 2, 3, 5):
        m = 8 * n
        good = GlobalDerivation.from_commutator(random_element(n, rng, deg=4))
        # off form of full rank away from the first three grid points,
        # growing along the grid: each tolerance below rejects at another
        # point
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        bump = Poly([1.0])
        for t in range(3):
            bump = bump * Poly([-(roots[t] ** n), 1.0])
        off = good.values_e[0] + diagonal(n, bump.coeffs) + monomial_elem(
            n, n, 1, 0, 0.3j
        )
        D = GlobalDerivation(n, (off, *good.values_e[1:]), good.values_Z)
        for tol in (1e-8, 1.0, 3.0, 10.0):
            cases += [(good, m, tol), (D, m, tol)]
    got = [_solve_outcome(*case) for case in cases]
    monkeypatch.setattr(derivations, "spectral_norms", full_spectral_norms)
    want = [_solve_outcome(*case) for case in cases]
    assert got == want
    rejected_at = {outcome[1] for outcome in want if outcome[0] == "rejected"}
    assert len(rejected_at) >= 2
    assert any(outcome[0] == "solved" for outcome in want)


def test_field_normalization_and_shape():
    D = GlobalDerivation.from_commutator(gen_Z(3, 2))
    field = solve_boundary_field(D, m=24)
    assert field.X_at.shape == (24, 3, 3)
    assert np.allclose(field.X_at[:, 0, 0], 0.0)


def test_reconstruct_rejects_corrupted_field():
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    field = solve_boundary_field(D, m=16)
    X_at = field.X_at.copy()
    X_at[3, 0, 0] += 0.37  # breaks the gauge and the diagonal ladder
    broken = BoundaryField(field.n, field.m, X_at, field.max_residual)
    with pytest.raises(NotInAlgebra) as info:
        reconstruct_witness(broken, deg_max=8)
    assert "entry" in str(info.value)


# ----------------------------------------------------------------------
# verification harness
# ----------------------------------------------------------------------


def test_verify_flags_wrong_witness():
    rng = np.random.default_rng(68)
    X0 = random_element(2, rng, deg=3)
    D = GlobalDerivation.from_commutator(X0)
    wrong = X0 + gen_Z(2, 1)
    report = verify_global_inner(D, wrong)
    assert not report.ok
    with pytest.raises(DimensionMismatch):
        verify_global_inner(D, random_element(3, rng))


def test_verify_rejects_witness_off_by_one_vertex():
    # X0 + e_k breaks exactly the equations of the two arrows at vertex k,
    # each by a residual of 1; every such witness must fail
    rng = np.random.default_rng(72)
    for n in (6, 8):
        X0 = random_element(n, rng, deg=2)
        D = GlobalDerivation.from_commutator(X0)
        for k in range(1, n + 1):
            report = verify_global_inner(D, X0 + gen_e(n, k))
            assert not report.ok, (n, k)
            assert report.max_residual == pytest.approx(1.0)
            assert report.equations == 2 * n


def test_verify_refuses_a_grid_that_aliases_a_nonzero_residual():
    # 0.5 (w^64 - 1) at (1, 1) vanishes at all 512 default grid points at
    # n = 8, so a norm on that grid would read 0.0 and pass the wrong
    # witness; the verification measures on the n * 65 points it needs
    rng = np.random.default_rng(74)
    n = 8
    X0 = random_element(n, rng, deg=4)
    D = GlobalDerivation.from_commutator(X0)
    bump = (monomial_elem(n, 1, 1, 64) - monomial_elem(n, 1, 1, 0)) * 0.5
    report = verify_global_inner(D, X0 + bump)
    assert report.norm_grid == n * 65
    assert not report.ok and report.max_residual > 0.99
    with pytest.raises(ValueError):
        verify_global_inner(D, X0 + bump, norm_grid=0)
    assert verify_global_inner(D, X0 + bump, norm_grid=1024).max_residual == (
        pytest.approx(1.0)
    )


def test_verify_needs_no_grid_for_zero_residuals():
    rng = np.random.default_rng(75)
    for n in (1, 3, 8):
        X0 = random_element(n, rng, deg=8)
        D = GlobalDerivation.from_commutator(X0)
        for grid in (1, 512):
            report = verify_global_inner(D, X0, norm_grid=grid)
            assert report.ok and report.max_residual == 0.0
        with pytest.raises(ValueError):
            verify_global_inner(D, X0, norm_grid=0)


def test_boundary_solve_memory_stays_chunked():
    # The residual is taken one generator at a time over all m points, so
    # the traced peak of the whole solve, in units of one (m, n, n) value
    # stack of the grid it solves on, reads about 20 at n = 8: the 2n value
    # stacks, the witness stack, and one generator's bracket, residual and
    # norm temporaries.  Forming the residuals of all 2n generators at once
    # would add at least 2n stacks; a bound of 30 catches that before it
    # shows in a process's peak memory.
    import tracemalloc

    n = 8
    rng = np.random.default_rng(76)
    D = GlobalDerivation.from_commutator(random_element(n, rng, deg=8))
    solve_boundary_field(D)  # warm every lazy cache
    tracemalloc.start()
    try:
        field = solve_boundary_field(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    units = peak / (field.m * n * n * 16)
    assert units < 30, units


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_global_derivation_json_round_trip():
    rng = np.random.default_rng(69)
    X0 = random_element(2, rng, deg=3)
    D = GlobalDerivation.from_commutator(X0)
    back = global_derivation_from_json(D.to_json())
    assert back.n == D.n
    for got, want in zip(
        back.values_e + back.values_Z, D.values_e + D.values_Z
    ):
        assert got == want


def test_boundary_field_json_round_trip():
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    field = solve_boundary_field(D, m=12)
    back = boundary_field_from_json(field.to_json())
    assert back.n == field.n and back.m == field.m
    assert np.allclose(back.X_at, field.X_at)
    assert back.max_residual == pytest.approx(field.max_residual)
    with pytest.raises(ValueError):
        boundary_field_from_json({"n": 2, "m": 3, "X_at": []})
