"""Point derivations: extension, Leibniz checks, inner solves, dichotomy."""

from __future__ import annotations

import numpy as np
import pytest

from cyclealg import derivations
from cyclealg.algebra import (
    diagonal,
    gen_Z,
    generators,
    identity,
    monomial_elem,
    mul_elem,
    random_element,
    spectral_norms,
)
from cyclealg.derivations import (
    F_point_derivation,
    GenDerivation,
    boundary_approx_identity,
    canonical_kernel_elements,
    check_leibniz,
    decompose_at_zero,
    decompose_experiment,
    delta_X,
    gen_derivation_from_json,
    inner_solve,
    kernel_vanishing_test,
    relation_residual,
)
from cyclealg.errors import DimensionMismatch, GridTooSmall
from cyclealg.representations import DiagZero, Lambda, eval_rep, kernel_sample
from cyclealg.representations import generator_images

from oracles import kernel_values_one_by_one, sampled_leibniz


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def commutator_derivation(point, X, n):
    """Reference derivation a -> phi(a) X - X phi(a), no generator shortcut."""
    return lambda a: delta_X(point, X, a)


def apply_oracle(D: GenDerivation, a) -> np.ndarray:
    """The Leibniz rule walked along every path, one coefficient at a time.

    A path of m >= 2 arrow steps from vertex i to j contributes
    lam**(m-1) times column i+1 of D(Z_i) in column j, row m-1+i of
    D(Z_{m-1+i}) in row i, and the readings D(Z_k)[k, k+1] of its m - 2
    interior arrows at (i, j).  At a DiagZero point only paths of length
    0 and 1 survive.
    """
    n = D.n
    lam = None
    if isinstance(D.point, Lambda):
        lam = D.point.value
        readings = [D.values_Z[k][k, (k + 1) % n] for k in range(n)]
    out = np.zeros(D.values_e[0].shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            for d, c in enumerate(a.coeffs[i, j, : a.ends[i, j]]):
                m = (j - i) % n + d * n
                if m == 0:
                    out += c * D.values_e[i]
                elif m == 1:
                    out += c * D.values_Z[i]
                elif lam is not None:
                    w = c * lam ** (m - 1)
                    last = (i + m - 1) % n
                    out[:, j] += w * D.values_Z[i][:, (i + 1) % n]
                    out[i, :] += w * D.values_Z[last][last, :]
                    out[i, j] += w * sum(
                        readings[(i + 1 + t) % n] for t in range(m - 2)
                    )
    return out


POINTS = [
    Lambda(0.0),
    Lambda(0.5),
    Lambda(-0.3 + 0.6j),
    Lambda(np.exp(0.7j)),
]


# ----------------------------------------------------------------------
# the generator-data extension agrees with honest commutators
# ----------------------------------------------------------------------


def test_extension_matches_commutator():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5):
        for point in POINTS:
            X = random_matrix(rng, n)
            D = GenDerivation.from_commutator(point, X, n)
            direct = commutator_derivation(point, X, n)
            for _ in range(6):
                a = random_element(n, rng, deg=6)
                assert np.allclose(D.apply(a), direct(a), atol=1e-10)


def test_extension_matches_commutator_diag0():
    rng = np.random.default_rng(42)
    D = GenDerivation.from_commutator(DiagZero(2), random_matrix(rng, 1), 3)
    for _ in range(5):
        a = random_element(3, rng, deg=5)
        # one-dimensional commutators vanish identically
        assert np.allclose(D.apply(a), 0.0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_matches_path_walk(n):
    # random data that is no derivation, so no Leibniz identity can hide
    # a wrong weight on some path
    rng = np.random.default_rng(60 + n)
    points = [Lambda(0.0), Lambda(0.45 - 0.3j), Lambda(np.exp(2.1j))]
    points += [DiagZero(i) for i in range(1, n + 1)]
    for point in points:
        dim = n if isinstance(point, Lambda) else 1
        D = GenDerivation(
            point,
            tuple(random_matrix(rng, dim) for _ in range(n)),
            tuple(random_matrix(rng, dim) for _ in range(n)),
        )
        for deg in (0, 1, 2, 13, 40):
            a = random_element(n, rng, deg=deg)
            expected = apply_oracle(D, a)
            gap = np.max(np.abs(D.apply(a) - expected))
            assert gap <= 1e-12 * np.max(np.abs(expected)), (point, deg)


def test_extension_is_linear_in_the_element():
    rng = np.random.default_rng(43)
    n = 3
    X = random_matrix(rng, n)
    D = GenDerivation.from_commutator(Lambda(0.4), X, n)
    a = random_element(n, rng, deg=5)
    b = random_element(n, rng, deg=5)
    assert np.allclose(D.apply(a + b), D.apply(a) + D.apply(b), atol=1e-10)
    assert np.allclose(D.apply(a * 2.5), 2.5 * D.apply(a), atol=1e-10)


# ----------------------------------------------------------------------
# Leibniz checks
# ----------------------------------------------------------------------


def test_leibniz_of_commutator_data_is_tiny():
    rng = np.random.default_rng(44)
    for n in (1, 2, 4):
        for point in (Lambda(0.0), Lambda(0.6 - 0.2j)):
            X = random_matrix(rng, n)
            D = GenDerivation.from_commutator(point, X, n)
            assert check_leibniz(D.apply, point, n, trials=30, seed=1) < 1e-12


def test_leibniz_of_derivative_data_is_tiny():
    for n in (1, 2, 3):
        lam = 0.45 + 0.3j
        es, Zs = generators(n)
        D = GenDerivation(
            Lambda(lam),
            tuple(F_point_derivation(lam, e) for e in es),
            tuple(F_point_derivation(lam, Z) for Z in Zs),
        )
        assert check_leibniz(D.apply, Lambda(lam), n, trials=30, seed=2) < 1e-12


def test_leibniz_negative_control():
    # the representation itself is multiplicative, not a derivation
    point = Lambda(0.4)
    fake = lambda a: eval_rep(point, a)
    assert check_leibniz(fake, point, 2, trials=40, seed=3) > 1e-3


def test_leibniz_longer_runs_extend_the_same_sample():
    # a run's pairs are a prefix of a longer run's with the same seed, so the
    # reported max never falls as trials grow; one pair already witnesses a
    # map that is not a derivation
    point = Lambda(0.4)
    fake = lambda a: eval_rep(point, a)
    values = [
        check_leibniz(fake, point, 2, trials=t, seed=3) for t in (1, 5, 40)
    ]
    assert values[0] >= 1e-4
    assert values == sorted(values)


@pytest.mark.parametrize("n", range(1, 9))
def test_check_leibniz_matches_the_per_trial_loop_bit_for_bit(n):
    # the one batched decision reads the max of one decomposition per
    # trial, on commutator data (noise), random data (large residuals) and
    # a map that is not a derivation, at both kinds of point
    rng = np.random.default_rng(300 + n)
    for point in (Lambda(0.45 - 0.3j), Lambda(0.0), DiagZero(1)):
        d = 1 if isinstance(point, DiagZero) else n
        values = rng.normal(size=(2 * n, d, d, 2)) @ [1.0, 1j]
        maps = [
            GenDerivation.from_commutator(point, random_matrix(rng, n), n),
            GenDerivation(point, tuple(values[:n]), tuple(values[n:])),
        ]
        maps = [D.apply for D in maps] + [lambda a: eval_rep(point, a)]
        for D in maps:
            for seed in range(5):
                for trials in (0, 1, 7):
                    got = check_leibniz(D, point, n, trials=trials, seed=seed)
                    want = sampled_leibniz(D, point, n, trials, seed)
                    assert got == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_leibniz_reads_a_non_finite_residual_as_inf(bad):
    point = Lambda(0.4)
    calls = []

    def spoiled(a):
        # one bad entry in the 5th D call, which belongs to the 2nd trial
        calls.append(None)
        out = delta_X(point, np.eye(2), a)
        if len(calls) == 5:
            out[0, 1] = bad
        return out

    assert check_leibniz(spoiled, point, 2, trials=3, seed=0) == np.inf
    # every D call of a trial reads the same spoiled value
    spoiled_all = lambda a: np.full((2, 2), bad, dtype=complex)
    for trials in (1, 4):
        got = check_leibniz(spoiled_all, point, 2, trials=trials, seed=0)
        assert got == np.inf
    # no trial reads 0.0, whatever D is
    assert check_leibniz(spoiled_all, point, 2, trials=0, seed=0) == 0.0


# ----------------------------------------------------------------------
# the Leibniz rule on the 3n^2 defining relations
# ----------------------------------------------------------------------

GATE = 1e-6  # the inner-check Leibniz gate


def derivative_derivation(point, n):
    lam = point.value
    es, Zs = generators(n)
    return GenDerivation(
        point,
        tuple(F_point_derivation(lam, e) for e in es),
        tuple(F_point_derivation(lam, Z) for Z in Zs),
    )


def diag0_data(n, i, arrow=0.0, j=None):
    """Data at DiagZero(i): zero except D(Z_j) = arrow (j defaults to i-1)."""
    zeros = [np.zeros((1, 1), complex) for _ in range(n)]
    arrows = list(zeros)
    arrows[i - 1 if j is None else j] = np.array([[arrow]], dtype=complex)
    return GenDerivation(DiagZero(i), tuple(zeros), tuple(arrows))


def random_data(rng, point, n):
    dim = n if isinstance(point, Lambda) else 1
    return GenDerivation(
        point,
        tuple(random_matrix(rng, dim) for _ in range(n)),
        tuple(random_matrix(rng, dim) for _ in range(n)),
    )


def agreement_cases(n):
    """Commutator, F-derivative and random data at lambda = 0, 0.4+0.1i and
    e^{0.9i}; zero, arrow-only and random data at every DiagZero(i)."""
    rng = np.random.default_rng(80 + n)
    cases = []
    for lam in (0.0, 0.4 + 0.1j, np.exp(0.9j)):
        point = Lambda(lam)
        cases.append(
            GenDerivation.from_commutator(point, random_matrix(rng, n), n)
        )
        cases.append(derivative_derivation(point, n))
        cases.append(random_data(rng, point, n))
    for i in range(1, n + 1):
        arrow = complex(rng.normal(), rng.normal())
        cases += [diag0_data(n, i), diag0_data(n, i, arrow)]
        cases.append(random_data(rng, DiagZero(i), n))
    return cases


def relation_defects_oracle(D: GenDerivation) -> dict[str, float]:
    """Every relation defect, through real products of generator elements.

    Names the product of each generator pair by comparing it with the
    generators, and evaluates D(ab) - D(a) phi(b) - phi(a) D(b) with the
    closed-form extension and the representation.
    """
    n = D.n
    es, Zs = generators(n)
    named = [(f"e_{i}", g) for i, g in enumerate(es)]
    named += [(f"Z_{i}", g) for i, g in enumerate(Zs)]
    pairs = [(named[i], named[j]) for i in range(n) for j in range(n)]
    pairs += [(named[k], named[n + j]) for k in range(n) for j in range(n)]
    pairs += [(named[n + j], named[k]) for j in range(n) for k in range(n)]
    defects = {}
    for (a_name, a), (b_name, b) in pairs:
        ab = mul_elem(a, b)
        kept = [name for name, g in named if ab == g]
        assert kept or ab.is_zero
        phi_a, phi_b = eval_rep(D.point, a), eval_rep(D.point, b)
        defect = D.apply(ab) - D.apply(a) @ phi_b - phi_a @ D.apply(b)
        name = f"{a_name} {b_name} = {kept[0] if kept else 0}"
        defects[name] = float(np.linalg.norm(defect, 2))
    return defects


@pytest.mark.parametrize("n", range(1, 7))
def test_relation_gate_agrees_with_sampled_leibniz(n):
    cases = agreement_cases(n)
    assert len(cases) == 9 + 3 * n  # 117 cases over n = 1..6
    for D in cases:
        exact, _ = relation_residual(D)
        sampled = check_leibniz(D.apply, D.point, n, trials=40)
        assert (exact <= GATE) == (sampled <= GATE), (D.point, exact, sampled)


@pytest.mark.parametrize("n", range(1, 5))
def test_relation_residual_matches_product_oracle(n):
    rng = np.random.default_rng(90 + n)
    points = [Lambda(0.0), Lambda(0.4 + 0.1j), Lambda(np.exp(0.9j))]
    points += [DiagZero(i) for i in range(1, n + 1)]
    for point in points:
        D = random_data(rng, point, n)
        defects = relation_defects_oracle(D)
        assert len(defects) == 3 * n * n
        worst = max(defects, key=defects.get)
        value, relation = relation_residual(D)
        assert value == pytest.approx(defects[worst], rel=1e-12)
        assert relation == worst


def full_spectral_norms(stack, floor=np.inf):
    """Oracle for spectral_norms: one decomposition per matrix, no pruning."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def test_relation_residual_matches_full_decomposition(monkeypatch):
    # the pruned defects must name the same relation with the same value,
    # bit for bit, as a decomposition of every defect: on all-zero defects
    # (zero data at a character), on exact ties (the paired arrow breaks)
    # and on the agreement cases
    rng = np.random.default_rng(98)
    cases = [D for n in range(1, 7) for D in agreement_cases(n)]
    point = Lambda(0.4 + 0.1j)
    D0 = GenDerivation.from_commutator(point, random_matrix(rng, 3), 3)
    for j, r in ((0, 1), (2, 0)):
        values_Z = [v.copy() for v in D0.values_Z]
        values_Z[j][r, (j + 1) % 3] += 1e-3
        cases.append(GenDerivation(point, D0.values_e, tuple(values_Z)))
    got = [relation_residual(D) for D in cases]
    monkeypatch.setattr(derivations, "spectral_norms", full_spectral_norms)
    want = [relation_residual(D) for D in cases]
    assert got == want
    assert ("e_0 e_0 = e_0", 0.0) in [(name, v) for v, name in want]


def broken(defects, eps):
    return {name for name, value in defects.items() if value > eps / 2}


@pytest.mark.parametrize("i, c", [(0, 1), (0, 2), (1, 0), (2, 1)])
def test_broken_idempotent_relation_is_named(i, c):
    # at lambda = 0 the arrows act as zero, so a stray entry in row i of
    # D(e_i) breaks e_i e_c alone
    rng = np.random.default_rng(95)
    D0 = GenDerivation.from_commutator(Lambda(0.0), random_matrix(rng, 3), 3)
    values_e = [v.copy() for v in D0.values_e]
    values_e[i][i, c] += 1e-3
    D = GenDerivation(D0.point, tuple(values_e), D0.values_Z)
    assert broken(relation_defects_oracle(D), 1e-3) == {f"e_{i} e_{c} = 0"}
    value, relation = relation_residual(D)
    assert relation == f"e_{i} e_{c} = 0"
    assert value == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("n, i", [(1, 1), (2, 2), (3, 1), (3, 3)])
def test_broken_idempotent_relation_at_a_vertex_character(n, i):
    values_e = [np.zeros((1, 1), complex) for _ in range(n)]
    values_e[i - 1] = np.array([[2e-3]])
    D = GenDerivation(DiagZero(i), tuple(values_e), diag0_data(n, i).values_Z)
    name = f"e_{i - 1} e_{i - 1} = e_{i - 1}"
    assert broken(relation_defects_oracle(D), 2e-3) == {name}
    assert relation_residual(D) == (2e-3, name)


@pytest.mark.parametrize("j, r", [(0, 1), (1, 2), (2, 0), (2, 1)])
def test_broken_vertex_arrow_relation_is_named(j, r):
    # sum_k e_k Z_j = Z_j ties the e_k Z_j defects together: they sum to
    # -(sum_k D(e_k)) phi(Z_j), so with the idempotent relations intact
    # they break in pairs.  A stray entry (r, j+1) in D(Z_j) breaks exactly
    # e_j Z_j and e_r Z_j.
    rng = np.random.default_rng(96)
    point = Lambda(0.4 + 0.1j)
    D0 = GenDerivation.from_commutator(point, random_matrix(rng, 3), 3)
    values_Z = [v.copy() for v in D0.values_Z]
    values_Z[j][r, (j + 1) % 3] += 1e-3
    D = GenDerivation(point, D0.values_e, tuple(values_Z))
    pair = {f"e_{j} Z_{j} = Z_{j}", f"e_{r} Z_{j} = 0"}
    assert broken(relation_defects_oracle(D), 1e-3) == pair
    value, relation = relation_residual(D)
    assert relation in pair
    assert value == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("j, c", [(0, 0), (0, 2), (1, 0), (2, 2)])
def test_broken_arrow_vertex_relation_is_named(j, c):
    # the mirror image: a stray entry (j, c) with c != j+1 in D(Z_j) breaks
    # exactly Z_j e_{j+1} and Z_j e_c
    rng = np.random.default_rng(97)
    point = Lambda(np.exp(0.9j))
    D0 = GenDerivation.from_commutator(point, random_matrix(rng, 3), 3)
    values_Z = [v.copy() for v in D0.values_Z]
    values_Z[j][j, c] += 1e-3
    D = GenDerivation(point, D0.values_e, tuple(values_Z))
    nxt = (j + 1) % 3
    pair = {f"Z_{j} e_{nxt} = Z_{j}", f"Z_{j} e_{c} = 0"}
    assert broken(relation_defects_oracle(D), 1e-3) == pair
    value, relation = relation_residual(D)
    assert relation in pair
    assert value == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("n", range(1, 7))
def test_derivations_pass_the_relations(n):
    rng = np.random.default_rng(100 + n)
    for lam in (0.0, 0.4 + 0.1j, -0.7j, np.exp(0.9j), 1.0):
        point = Lambda(lam)
        D = GenDerivation.from_commutator(point, random_matrix(rng, n), n)
        assert relation_residual(D)[0] <= 1e-12
        assert relation_residual(derivative_derivation(point, n))[0] <= 1e-12
    for i in range(1, n + 1):
        X = random_matrix(rng, 1)
        D = GenDerivation.from_commutator(DiagZero(i), X, n)
        assert relation_residual(D)[0] == 0.0


def test_every_arrow_passes_at_the_character_for_n_1():
    for arrow in (0.0, 1.0, -3 + 2j, 1e-9, 1e6):
        assert relation_residual(diag0_data(1, 1, arrow))[0] == 0.0


@pytest.mark.parametrize("n", range(2, 6))
def test_every_nonzero_arrow_fails_at_a_character(n):
    # rigidity: for n >= 2 the relations e_j Z_j = Z_j and Z_j e_{j+1} = Z_j
    # cannot both hold at a vertex character unless D(Z_j) = 0
    for i in range(1, n + 1):
        for j in range(n):
            for arrow in (1.0, -3 + 2j, 1e-5, 1e-9):
                value, _ = relation_residual(diag0_data(n, i, arrow, j))
                assert value == pytest.approx(abs(arrow), rel=1e-15)
                assert (value > GATE) == (abs(arrow) > GATE)


# ----------------------------------------------------------------------
# the entrywise derivative as a point derivation
# ----------------------------------------------------------------------


def test_derivative_frozen_values():
    lam = 0.5
    # arrows realize z, so their derivative reading is 1 at the arrow slot
    F_Z = F_point_derivation(lam, gen_Z(3, 1))
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.allclose(F_Z, expected)
    # w^2 at (1, 1) realizes z^6; derivative 6 z^5
    a = monomial_elem(3, 1, 1, 2)
    assert F_point_derivation(lam, a)[0, 0] == pytest.approx(6 * lam**5)
    # w at (1, 2) realizes z^4; derivative 4 z^3
    b = monomial_elem(3, 1, 2, 1)
    assert F_point_derivation(lam, b)[0, 1] == pytest.approx(4 * lam**3)


def test_derivative_of_compressed_diagonal():
    # f(w) on the diagonal realizes f(z^n); chain rule gives n z^(n-1) f'(z^n)
    rng = np.random.default_rng(45)
    for n in (1, 2, 4):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = diagonal(n, f)
        lam = 0.37 - 0.52j
        value = F_point_derivation(lam, a)
        polynomial = np.polynomial.polynomial
        slope = polynomial.polyval(lam**n, polynomial.polyder(f))
        chain = n * lam ** (n - 1) * slope
        assert np.allclose(value, chain * np.eye(n), atol=1e-12)


def test_derivative_at_center_reads_arrow_coefficients():
    rng = np.random.default_rng(46)
    a = random_element(3, rng, deg=4)
    value = F_point_derivation(0.0, a)
    # the only realized z-linear terms are the arrow-position constants
    for i in range(3):
        j = (i + 1) % 3
        c = a.coeffs[i, j, 0]
        assert value[i, j] == pytest.approx(c)
    assert value[0, 0] == 0 and value[0, 2] == 0


# ----------------------------------------------------------------------
# inner solve: recovery and dichotomy
# ----------------------------------------------------------------------


def test_inner_solve_recovers_commutator_witness():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3, 5):
        for lam in (0.0, 0.5, -0.2 + 0.6j, np.exp(1.1j)):
            X = random_matrix(rng, n)
            D = GenDerivation.from_commutator(Lambda(lam), X, n)
            result = inner_solve(D)
            assert result.consistent
            assert result.residual <= 1e-9
            # witnesses agree after matching the (1, 1)-entry normalization
            gauge = X - X[0, 0] * np.eye(n)
            if abs(lam) > 1e-12:
                assert np.allclose(result.X, gauge, atol=1e-8)
            # either way the recovered X reproduces the data
            recovered = GenDerivation.from_commutator(Lambda(lam), result.X, n)
            for got, want in zip(
                recovered.values_e + recovered.values_Z,
                D.values_e + D.values_Z,
            ):
                assert np.allclose(got, want, atol=1e-9)


def test_inner_solve_rejects_derivative_data():
    lam, n = 0.5, 3
    es, Zs = generators(n)
    D = GenDerivation(
        Lambda(lam),
        tuple(F_point_derivation(lam, e) for e in es),
        tuple(F_point_derivation(lam, Z) for Z in Zs),
    )
    result = inner_solve(D)
    assert not result.consistent
    assert result.residual == pytest.approx(1.0, abs=1e-6)


def test_non_inner_data_moves_on_the_kernel():
    # inner derivations kill the kernel of their point; the derivative does not
    rng = np.random.default_rng(48)
    for n in (1, 2, 3):
        for lam in (0.0, 0.5, -0.3 + 0.4j):
            es, Zs = generators(n)
            D = GenDerivation(
                Lambda(lam),
                tuple(F_point_derivation(lam, e) for e in es),
                tuple(F_point_derivation(lam, Z) for Z in Zs),
            )
            samples = kernel_sample(Lambda(lam), n, seed=5, count=12)
            witness = kernel_vanishing_test(D.apply, samples)
            assert witness.max_norm > 1e-3
            assert witness.witness is not None
            X = random_matrix(rng, n)
            inner = GenDerivation.from_commutator(Lambda(lam), X, n)
            vanish = kernel_vanishing_test(inner.apply, samples)
            assert vanish.max_norm < 1e-9


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_kernel_vanishing_test_matches_the_per_sample_loop_bit_for_bit(n):
    # the one batched decision with floor 0.0 reads every sample's value
    # as one decomposition per sample gives it: inner data (noise), non-
    # inner data, random data and a map that is not a derivation
    rng = np.random.default_rng(560 + n)
    for point in (Lambda(0.45 - 0.3j), Lambda(0.0), DiagZero(1)):
        d = 1 if isinstance(point, DiagZero) else n
        values = rng.normal(size=(2 * n, d, d, 2)) @ [1.0, 1j]
        maps = [
            GenDerivation.from_commutator(point, random_matrix(rng, n), n),
            GenDerivation(point, tuple(values[:n]), tuple(values[n:])),
        ]
        if isinstance(point, Lambda):
            es, Zs = generators(n)
            lam = point.value
            maps.append(GenDerivation(
                point,
                tuple(F_point_derivation(lam, e) for e in es),
                tuple(F_point_derivation(lam, Z) for Z in Zs),
            ))
        maps = [D.apply for D in maps] + [lambda a: eval_rep(point, a)]
        for count in (1, 2, 20):
            samples = kernel_sample(point, n, seed=count, count=count)
            for D in maps:
                got = kernel_vanishing_test(D, samples)
                want = kernel_values_one_by_one(D, samples)
                assert got.values == want
                assert got.max_norm == max(want)
                assert got.witness_index == int(np.argmax(want))
                assert got.witness is samples[got.witness_index]
    empty = kernel_vanishing_test(lambda a: 1 / 0, [])
    assert (empty.max_norm, empty.witness_index) == (0.0, -1)
    assert empty.witness is None and empty.values == ()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_vanishing_test_reads_a_non_finite_value_as_inf(bad):
    point = Lambda(0.4)
    samples = kernel_sample(point, 2, seed=3, count=4)
    D = GenDerivation.from_commutator(point, np.eye(2) * 3j, 2)

    def spoiled_at(index):
        def spoiled(a):
            out = D.apply(a)
            if a is samples[index]:
                out[1, 0] = bad
            return out
        return spoiled

    for index in (0, 2):
        got = kernel_vanishing_test(spoiled_at(index), samples)
        assert got.values[index] == np.inf
        assert (got.max_norm, got.witness_index) == (np.inf, index)
        kept = [v for i, v in enumerate(got.values) if i != index]
        want = kernel_values_one_by_one(D.apply, samples)
        assert kept == [v for i, v in enumerate(want) if i != index]
    every = kernel_vanishing_test(
        lambda a: np.full((2, 2), bad, dtype=complex), samples
    )
    assert every.values == (np.inf,) * 4 and every.witness_index == 0


def test_apply_with_cached_weights_matches_a_fresh_derivation():
    # the path weights are kept per realized length: a derivation that has
    # seen many elements of many lengths gives, bit for bit, what a fresh
    # derivation gives on its first call
    rng = np.random.default_rng(570)
    for n in (1, 2, 3, 5):
        for point in (Lambda(0.45 - 0.3j), Lambda(np.exp(0.7j)), Lambda(0)):
            X = random_matrix(rng, n)
            D = GenDerivation.from_commutator(point, X, n)
            elems = [
                random_element(n, rng, deg=int(rng.integers(0, 9)))
                for _ in range(12)
            ]
            elems += [*generators(n)[1], monomial_elem(n, 1, n, 4)]
            for a in elems + elems[::-1]:
                fresh = GenDerivation.from_commutator(point, X, n)
                assert D.apply(a).tobytes() == fresh.apply(a).tobytes()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_inner_solve_at_a_diag0_point(n):
    # every 1 x 1 commutator is 0, so X = 0 and the residual is the largest
    # generator value
    rng = np.random.default_rng(70 + n)
    for i in range(1, n + 1):
        X = random_matrix(rng, 1)
        inner = inner_solve(GenDerivation.from_commutator(DiagZero(i), X, n))
        assert inner.consistent and inner.residual == 0.0
        assert inner.X.tobytes() == np.zeros((1, 1), complex).tobytes()
        assert inner.normalization == "X[1,1] = 0"
        D = random_data(rng, DiagZero(i), n)
        solve = inner_solve(D, tol=1e-3)
        top = max(abs(v[0, 0]) for v in D.values_e + D.values_Z)
        assert solve.residual == pytest.approx(top, rel=1e-15, abs=0.0)
        assert not solve.consistent
        assert solve.X.tobytes() == np.zeros((1, 1), complex).tobytes()
        small = diag0_data(n, i, arrow=1e-9)
        assert inner_solve(small).consistent
        assert not inner_solve(small, tol=1e-10).consistent


def _commutator_blocks(P):
    """The matrices of X -> p X - X p for a (G, n, n) stack of p.

    On row-major vec(X), block g is kron(p, 1) - kron(1, p.T), that is
    ``blocks[g, (i, j), (k, l)] = p[i, k] delta_jl - delta_ik p[l, j]``.
    All G blocks come from one broadcast, with the same complex products
    as ``np.kron`` takes, so every entry (the sign of a zero included) is
    bit for bit the kron one.
    """
    G, n, _ = P.shape
    eye = np.eye(n, dtype=complex)
    left = P[:, :, None, :, None] * eye[:, None, :]
    right = eye[:, None, :, None] * P.transpose(0, 2, 1)[:, None, :, None, :]
    return (left - right).reshape(G, n * n, n * n)


def _per_pair_commutators(P, X):
    """The broadcast oracle: one n x n product per (witness, generator)."""
    return P @ X[:, None] - X[:, None] @ P


def kron_solve(D: GenDerivation):
    """The dense least-squares oracle for inner_solve: one ``lstsq`` on the
    2n stacked commutator blocks (zero rows dropped), the minimum-norm
    solution shifted to X[0, 0] = 0, and the worst spectral residual of
    the per-pair products over all generators in one stack."""
    n, dim = D.n, D.values_e[0].shape[0]
    P = generator_images(D.point, n)
    V = np.stack(D.values_e + D.values_Z)
    blocks = _commutator_blocks(P)
    live = np.any(blocks != 0, axis=2)
    x, *_ = np.linalg.lstsq(
        blocks[live], V.reshape(2 * n, -1)[live], rcond=None
    )
    X = x.reshape(dim, dim)
    X = X - X[0, 0] * np.eye(dim)
    residuals = spectral_norms(_per_pair_commutators(P, X[None]) - V)
    return X, float(residuals.max())


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize(
    "lam", [0.0, 1.0, 0.3 + 0.4j, complex(np.exp(0.7j)), -0.7j]
)
def test_commutator_blocks_match_kron_bit_for_bit(n, lam):
    # -0.7j has real part -0.0: the blocks keep the kron sign of every zero
    P = generator_images(Lambda(lam), n)
    eye = np.eye(n, dtype=complex)
    want = np.stack([np.kron(p, eye) - np.kron(eye, p.T) for p in P])
    got = _commutator_blocks(P)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


SOLVE_POINTS = [
    Lambda(0.0),
    Lambda(1.0),
    Lambda(1j),
    Lambda(np.exp(0.7j)),
    Lambda(0.3 + 0.2j),
    DiagZero(1),
]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("point", SOLVE_POINTS, ids=repr)
def test_closed_form_solve_matches_the_kron_least_squares(n, point):
    # the normal equations are 2 (1 + |lam|^2) off the diagonal and
    # |lam|^2 times the cycle Laplacian on it, so the closed form is the
    # minimum-norm solution the dense lstsq returns
    rng = np.random.default_rng(100 + n)
    dim = n if isinstance(point, Lambda) else 1
    D = GenDerivation.from_commutator(point, random_matrix(rng, dim), n)
    noise = random_data(rng, point, n)
    bumped = GenDerivation(
        point,
        tuple(v + 1e-3 * w for v, w in zip(D.values_e, noise.values_e)),
        tuple(v + 1e-3 * w for v, w in zip(D.values_Z, noise.values_Z)),
    )
    for data in (D, bumped):
        want_X, want_residual = kron_solve(data)
        got = inner_solve(data)
        scale = max(np.abs(want_X).max(), 1.0)
        assert np.abs(got.X - want_X).max() <= 1e-13 * scale
        assert got.X[0, 0] == 0.0
        if point == Lambda(0.0):
            # the diagonal is free at the center; the minimum norm is 0
            assert np.all(np.diag(got.X) == 0.0)
    # on perturbed data the residual is about 1e-3, far above rounding
    assert got.residual == pytest.approx(want_residual, rel=1e-12, abs=0.0)


def test_inner_solve_at_n_64_holds_no_dense_matrix():
    # the closed form holds a few n x n arrays per right-hand side; its
    # traced peak at n = 64 reads 0.35 MB, where the dense 2n n^2 x n^2
    # commutator matrix alone would take 34 GB
    import tracemalloc

    n = 64
    rng = np.random.default_rng(120)
    D = GenDerivation.from_commutator(
        Lambda(0.45 - 0.3j), random_matrix(rng, n), n
    )
    tracemalloc.start()
    try:
        result = inner_solve(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.consistent and result.residual < 1e-12
    assert peak < 32e6, peak


@pytest.mark.parametrize("n", [1, 3, 6])
def test_one_by_one_points_take_no_solve(n, monkeypatch):
    # where d = 1 every bracket is 0: X = 0 without an lstsq, and the
    # residual, one spectral norm per generator, is the dense solve's bit
    # for bit
    rng = np.random.default_rng(110 + n)
    points = [DiagZero(i) for i in range(1, n + 1)]
    cases = [random_data(rng, point, n) for point in points]
    for i in (1, n):
        cases.append(diag0_data(n, i, complex(rng.normal(), rng.normal())))
    if n == 1:
        cases += [random_data(rng, Lambda(lam), 1) for lam in (0.0, 0.6j, 1.0)]
    want = [kron_solve(D)[1] for D in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("lstsq called at a 1 x 1 point")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for D, residual in zip(cases, want):
        solve = inner_solve(D)
        assert solve.X.tobytes() == np.zeros((1, 1), complex).tobytes()
        assert solve.residual == residual


@pytest.mark.parametrize("n", range(1, 9))
def test_shift_brackets_equal_the_products(n):
    # gX - Xg by index arithmetic.  At lambda = 1 and at the dyadic
    # 0.5 - 0.25i every real product of a bracket is exact, so both routes
    # round the same sums once and agree under == (which reads -0.0 ==
    # 0.0).  At a generic lambda the BLAS kernel may fuse a product into
    # its sum, so the two agree only to rounding.
    rng = np.random.default_rng(90 + n)
    cases = ((1.0, True), (0.5 - 0.25j, True), (np.exp(0.7j), False))
    for lam, exact in cases:
        P = generator_images(Lambda(lam), n)
        for K in (1, 28, 56 * n):
            X = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
            X[:, 0, 0] = 0.0
            want = _per_pair_commutators(P, X)
            for g in range(2 * n):
                got = derivations._shift_bracket(lam, g, X)
                assert got.shape == (K, n, n)
                if exact:
                    assert np.array_equal(got, want[:, g]), (lam, K, g)
                else:
                    gap = np.abs(got - want[:, g]).max()
                    assert gap <= 4e-16 * np.abs(X).max(), (K, g)


# ----------------------------------------------------------------------
# the center: splitting into inner and arrow parts
# ----------------------------------------------------------------------


def test_decompose_at_zero_reproduces_data():
    rng = np.random.default_rng(49)
    for n in (1, 2, 4):
        X = random_matrix(rng, n)
        D0 = GenDerivation.from_commutator(Lambda(0.0), X, n)
        arrows = [v.copy() for v in D0.values_Z]
        for i in range(n):
            arrows[i][i, (i + 1) % n] += complex(rng.normal(), rng.normal())
        D = GenDerivation(Lambda(0.0), D0.values_e, tuple(arrows))
        split = decompose_at_zero(D)
        assert split.d0_solve.consistent
        for _ in range(5):
            a = random_element(n, rng, deg=5)
            total = split.d0.apply(a) + split.d1.apply(a)
            assert np.allclose(total, D.apply(a), atol=1e-12)
        # the arrow part is pinned by the arrow readings alone
        for i in range(n):
            assert np.allclose(
                split.d1.values_Z[i], D.values_Z[i], atol=1e-14
            )
            assert np.allclose(split.d1.values_e[i], 0.0)


def test_decompose_at_zero_rejects_other_points():
    D = GenDerivation.from_commutator(Lambda(0.3), np.eye(2), 2)
    with pytest.raises(ValueError):
        decompose_at_zero(D)


def test_decompose_experiment_away_from_center():
    # at an interior point the naive split loses the Leibniz rule
    rng = np.random.default_rng(50)
    X = random_matrix(rng, 2)
    D = GenDerivation.from_commutator(Lambda(0.5), X, 2)
    report = decompose_experiment(D, seed=0)
    assert report["d0_leibniz"] > 1e-6 or report["d1_leibniz"] > 1e-6


# ----------------------------------------------------------------------
# rigidity at the vertex characters
# ----------------------------------------------------------------------


def test_diag0_leibniz_forces_zero_for_n_at_least_2():
    # any nonzero generator assignment at a DiagZero point breaks Leibniz
    rng = np.random.default_rng(51)
    for n in (2, 3):
        values_e = tuple(
            np.array([[complex(rng.normal(), rng.normal())]])
            for _ in range(n)
        )
        values_Z = tuple(
            np.array([[complex(rng.normal(), rng.normal())]])
            for _ in range(n)
        )
        D = GenDerivation(DiagZero(1), values_e, values_Z)
        assert check_leibniz(D.apply, DiagZero(1), n, trials=40, seed=6) > 1e-3


def test_diag0_derivative_survives_for_n_1():
    # for n = 1 the vertex character coincides with evaluation at 0 and the
    # ordinary derivative is a genuine nonzero point derivation
    D = GenDerivation(
        DiagZero(1),
        (np.zeros((1, 1), complex),),
        (np.ones((1, 1), complex),),
    )
    assert check_leibniz(D.apply, DiagZero(1), 1, trials=40, seed=7) < 1e-12
    z = monomial_elem(1, 1, 1, 1)
    assert D.apply(z)[0, 0] == pytest.approx(1.0)
    assert D.apply(mul_elem(z, z))[0, 0] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# boundary approximate identity
# ----------------------------------------------------------------------


def test_approx_identity_frozen_value():
    elems = canonical_kernel_elements(2, 1.0)
    _, report = boundary_approx_identity(1.0, [64], 2, kernel_elems=elems)
    (row,) = report["rows"]
    assert max(row["residuals"]) == pytest.approx(0.151044, abs=1e-4)
    assert row["kernel_value_F"] <= 1e-12
    assert row["norm_F"] <= 2.0 + 1e-9


def test_approx_identity_monotone_decay():
    lam = np.exp(0.4j)
    elems = canonical_kernel_elements(3, lam)
    Fs, report = boundary_approx_identity(
        lam, (4, 16, 64, 256), 3, kernel_elems=elems
    )
    assert report["monotone_and_bounded"]
    prev = None
    for F, row in zip(Fs, report["rows"], strict=True):
        worst = max(row["residuals"])
        assert row["kernel_value_F"] <= 1e-12
        assert row["norm_F"] <= 2.0 + 1e-9
        if prev is not None:
            assert worst <= prev + 1e-12
        prev = worst
        # F_k itself stays in the kernel ideal
        assert np.max(np.abs(eval_rep(Lambda(lam), F))) <= 1e-12
    assert prev < 0.1


def test_approx_identity_lies_in_the_kernel():
    # F(lam) = h(lam**n) summed in extended precision: the constant shift
    # must cancel h at the point itself, not at a rounded lam**n
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("numpy has no extended precision on this platform")
    lam = np.exp(2.3j)
    for n in (2, 3):
        (F,), report = boundary_approx_identity(lam, [4096], n, norm_grid=7)
        coeffs = F.coeffs[0, 0, : F.ends[0, 0]].astype(np.clongdouble)
        w0 = np.clongdouble(lam) ** n
        # about 1e-13 at n = 2 when the shift was taken by Horner in w0
        assert abs(np.polynomial.polynomial.polyval(w0, coeffs)) <= 2.5e-14
        assert report["rows"][0]["kernel_value_F"] <= 2.5e-14


def test_approx_identity_validation():
    with pytest.raises(ValueError):
        boundary_approx_identity(0.5, [4], 2)
    with pytest.raises(ValueError):
        boundary_approx_identity(1.0, [0], 2)
    with pytest.raises(ValueError, match="nonempty"):
        boundary_approx_identity(1.0, [], 2)


LADDER = [2**j for j in range(13)]  # 1 .. 4096


def _product_residual(F, a, grid):
    """||F a - a|| on the grid through the algebra product."""
    return (mul_elem(F, a) - a).norm(grid)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_approx_identity_ladder_matches_product_oracle(n):
    # F_k is central, so the ladder reads ||F_k a - a|| as
    # |h_k - 1| * ||a|| on the grid; the product path must agree.  On the
    # composite grid z -> z**n is not one to one for even n
    for lam, grid in (
        (1.0 + 0j, 4099),
        (complex(np.exp(0.73j)), 1024),
        (complex(np.exp(2.3j)), 1031),
    ):
        canonical = canonical_kernel_elements(n, lam)
        dense = kernel_sample(Lambda(lam), n, seed=40 + n, count=2)
        Fs, report = boundary_approx_identity(
            lam, LADDER, n, kernel_elems=canonical + dense, norm_grid=grid
        )
        assert report["monotone_and_bounded"]
        assert [row["k"] for row in report["rows"]] == LADDER
        for F, row in zip(Fs, report["rows"], strict=True):
            assert row["norm_F"] == F.norm(grid)  # bit for bit
            got = row["residuals"]
            for a, value in zip(canonical, got[: len(canonical)], strict=True):
                assert abs(value - _product_residual(F, a, grid)) <= 1e-12
            for a, value in zip(dense, got[len(canonical) :], strict=True):
                # the product path trims coefficients below 1e-9
                want = _product_residual(F, a, grid)
                assert abs(value - want) <= 1e-9 * a.norm(grid)
            assert row["worst_residual"] == max(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_kernel_elements_are_distinct(n):
    lam = complex(np.exp(0.73j))
    elems = canonical_kernel_elements(n, lam)
    assert len(elems) == (2 if n == 1 else 3)
    for i, a in enumerate(elems):
        assert np.max(np.abs(eval_rep(Lambda(lam), a))) <= 1e-15
        assert not any(a == b for b in elems[i + 1 :])


@pytest.mark.parametrize(
    "n, grid, ok",
    [(2, 1, False), (2, 2, False), (2, 3, True), (4, 4, False),
     (4, 6, True), (1, 2, False), (1, 3, True), (3, 4099, True)],
)
def test_approx_identity_grid_must_resolve_the_elements(n, grid, ok):
    # z**n takes grid / gcd(grid, n) distinct values on the grid; the
    # canonical elements have w-degree 1 (2 for the n = 1 arrow element)
    elems = canonical_kernel_elements(n, 1.0)
    if ok:
        _, report = boundary_approx_identity(
            1.0, [1, 4096], n, kernel_elems=elems, norm_grid=grid
        )
        assert min(report["rows"][0]["residuals"]) > 0
        return
    with pytest.raises(GridTooSmall) as info:
        boundary_approx_identity(
            1.0, [1, 4096], n, kernel_elems=elems, norm_grid=grid
        )
    # the smallest grid that resolves them is named, and it does
    needed = info.value.needed
    _, report = boundary_approx_identity(
        1.0, [1, 4096], n, kernel_elems=elems, norm_grid=needed
    )
    assert min(report["rows"][0]["residuals"]) > 0
    # without elements there is nothing to resolve
    boundary_approx_identity(1.0, [1, 4096], n, norm_grid=grid)


def test_approx_identity_sorts_the_ladder():
    lam = complex(np.exp(0.73j))
    elems = canonical_kernel_elements(2, lam)
    Fs, report = boundary_approx_identity(
        lam, [64, 4, 16], 2, kernel_elems=elems
    )
    sorted_Fs, sorted_report = boundary_approx_identity(
        lam, [4, 16, 64], 2, kernel_elems=elems
    )
    assert report == sorted_report
    assert [row["k"] for row in report["rows"]] == [4, 16, 64]
    assert Fs == sorted_Fs


def test_approx_identity_rejects_elements_outside_the_kernel():
    elems = canonical_kernel_elements(2, 1.0)
    with pytest.raises(ValueError, match="kernel element 1 is not in"):
        boundary_approx_identity(
            1.0, [4], 2, kernel_elems=[elems[0], identity(2)]
        )
    with pytest.raises(DimensionMismatch, match="kernel element 0"):
        boundary_approx_identity(
            1.0, [4], 2, kernel_elems=canonical_kernel_elements(1, 1.0)
        )


def test_approx_identity_kernel_rule_is_relative():
    # a kernel element scaled up keeps its relative defect near 1e-16, so
    # it stays accepted although its value at the point passes 1e-12
    lam = complex(np.exp(2.3j))
    big = [a * 1e6 for a in canonical_kernel_elements(3, lam)]
    values = [np.max(np.abs(eval_rep(Lambda(lam), a))) for a in big]
    assert max(values) > 1e-12
    _, report = boundary_approx_identity(lam, [4, 4096], 3, kernel_elems=big)
    assert report["monotone_and_bounded"]


# ----------------------------------------------------------------------
# construction and serialization
# ----------------------------------------------------------------------


def test_gen_derivation_validation():
    with pytest.raises(DimensionMismatch):
        GenDerivation(Lambda(0.3), (np.zeros((2, 2)),), ())
    with pytest.raises(DimensionMismatch):
        GenDerivation(
            DiagZero(4),
            (np.zeros((1, 1)), np.zeros((1, 1))),
            (np.zeros((1, 1)), np.zeros((1, 1))),
        )
    with pytest.raises(DimensionMismatch):
        D = GenDerivation.from_commutator(Lambda(0.2), np.eye(2), 2)
        D.apply(random_element(3, np.random.default_rng(0)))


def test_gen_derivation_values_are_locked():
    D = GenDerivation.from_commutator(Lambda(0.2), np.eye(2), 2)
    with pytest.raises(ValueError):
        D.values_e[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        D.values[0, 0, 0] = 5.0
    # one (2n, d, d) copy of the input; values_e and values_Z are tuples
    # of views of its halves
    rng = np.random.default_rng(53)
    for point, n, dim in ((Lambda(0.2), 3, 3), (DiagZero(2), 3, 1)):
        inputs = [random_matrix(rng, dim) for _ in range(2 * n)]
        D = GenDerivation(point, tuple(inputs[:n]), tuple(inputs[n:]))
        assert D.values.shape == (2 * n, dim, dim)
        assert isinstance(D.values_e, tuple)
        assert isinstance(D.values_Z, tuple)
        assert all(
            np.shares_memory(v, D.values) for v in D.values_e + D.values_Z
        )
        before = D.values.copy()
        assert np.array_equal(before, np.stack(inputs))
        for v in inputs:
            v[...] = 7.0
        assert np.array_equal(D.values, before)
        assert np.array_equal(np.stack(D.values_e + D.values_Z), before)


def test_gen_derivation_json_round_trip():
    rng = np.random.default_rng(52)
    for point in (Lambda(0.3 + 0.4j), DiagZero(2)):
        n = 3
        X = random_matrix(rng, n)
        D = GenDerivation.from_commutator(point, X, n)
        back = gen_derivation_from_json(D.to_json())
        assert back.point == D.point
        for got, want in zip(
            back.values_e + back.values_Z, D.values_e + D.values_Z
        ):
            assert np.allclose(got, want)
