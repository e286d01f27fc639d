"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each test prints exactly one [PASS]/[FAIL] line (visible under pytest -s)
and enforces its runtime budget.  Criteria cover ring closure, the Leibniz
property, the inner/non-inner dichotomy at interior points, rigidity of the
vertex characters, the boundary approximate identity, the reconstruction
round trip, the semisimplicity certificate, and the center decomposition.
"""

from __future__ import annotations

import time

import numpy as np

from cyclealg.algebra import (
    gen_Z,
    gen_e,
    generators,
    monomial_elem,
    mul_elem,
    parse_realized,
    random_element,
    zero,
)
from cyclealg.derivations import (
    F_point_derivation,
    GenDerivation,
    boundary_approx_identity,
    canonical_kernel_elements,
    check_leibniz,
    decompose_at_zero,
    inner_solve,
    kernel_vanishing_test,
)
from cyclealg.reconstruction import (
    GlobalDerivation,
    reconstruct_witness,
    solve_boundary_field,
    verify_global_inner,
)
from cyclealg.representations import (
    DiagZero,
    Lambda,
    eval_rep,
    kernel_sample,
    kernel_square_witness,
    semisimplicity_certificate,
)


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _derivative_data(n: int, lam: complex) -> GenDerivation:
    es, Zs = generators(n)
    return GenDerivation(
        Lambda(lam),
        tuple(F_point_derivation(lam, e) for e in es),
        tuple(F_point_derivation(lam, Z) for Z in Zs),
    )


def test_criterion_1_closure_and_multiplicativity():
    """500 random pairs: products stay on the ladder, evaluation is a hom."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = (1, 2, 3, 4, 6)
    worst = 0.0
    closure_ok = True
    for t in range(500):
        n = sizes[t % len(sizes)]
        a = random_element(n, rng, deg=8)
        b = random_element(n, rng, deg=8)
        ab = mul_elem(a, b)
        # closure: realized entries parse back onto the ladder, exactly
        if parse_realized(ab.realized_coeffs(), n) != ab:
            closure_ok = False
        lam = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
        point = Lambda(lam)
        resid = np.max(
            np.abs(
                eval_rep(point, ab)
                - eval_rep(point, a) @ eval_rep(point, b)
            )
        )
        worst = max(worst, float(resid))
    elapsed = time.perf_counter() - start
    passed = closure_ok and worst <= 1e-10 and elapsed <= 10.0
    _report(
        1,
        passed,
        f"closure + multiplicativity on 500 pairs, worst residual "
        f"{worst:.2e} (<= 1e-10), {elapsed:.1f}s (<= 10s)",
    )


def test_criterion_2_leibniz_suite():
    """200 trials across 20 points for commutator and derivative data."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    sizes = (1, 2, 3, 4, 6)
    points = [0.0, 1.0, np.exp(2.1j), np.exp(-0.8j)]
    while len(points) < 20:
        points.append(
            rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        )
    worst_inner = 0.0
    worst_deriv = 0.0
    for idx, lam in enumerate(points):
        n = sizes[idx % len(sizes)]
        X = _random_matrix(rng, n)
        D = GenDerivation.from_commutator(Lambda(lam), X, n)
        worst_inner = max(
            worst_inner,
            check_leibniz(D.apply, Lambda(lam), n, trials=10, seed=idx),
        )
        F = _derivative_data(n, lam)
        worst_deriv = max(
            worst_deriv,
            check_leibniz(F.apply, Lambda(lam), n, trials=10, seed=idx + 50),
        )
    elapsed = time.perf_counter() - start
    passed = (
        worst_inner <= 1e-12 and worst_deriv <= 1e-10 and elapsed <= 10.0
    )
    _report(
        2,
        passed,
        f"Leibniz residuals: commutator {worst_inner:.2e} (<= 1e-12), "
        f"derivative {worst_deriv:.2e} (<= 1e-10), {elapsed:.1f}s (<= 10s)",
    )


def test_criterion_3_inner_dichotomy():
    """Commutator data is recovered exactly; derivative data is rejected
    with a kernel witness at interior points."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    sizes = (1, 2, 3, 4, 6)
    lams = [0.9, -0.6, 0.45j, 0.3 - 0.3j, np.exp(0.5j)]
    while len(lams) < 10:
        lams.append(rng.uniform(0.1, 0.95) * np.exp(2j * np.pi * rng.uniform()))
    worst_gap = 0.0
    for idx, lam in enumerate(lams):
        for t in range(50):
            n = sizes[(idx + t) % len(sizes)]
            X = _random_matrix(rng, n)
            D = GenDerivation.from_commutator(Lambda(lam), X, n)
            result = inner_solve(D)
            if not result.consistent:
                worst_gap = np.inf
                break
            gauge = X - X[0, 0] * np.eye(n)
            worst_gap = max(
                worst_gap, float(np.max(np.abs(result.X - gauge)))
            )
    rejected = True
    weakest_witness = np.inf
    for lam in (0.0, 0.3, 0.5j, -0.7):
        for n in (1, 2, 3):
            F = _derivative_data(n, lam)
            if inner_solve(F).consistent:
                rejected = False
            samples = kernel_sample(Lambda(lam), n, seed=7, count=15)
            witness = kernel_vanishing_test(F.apply, samples)
            weakest_witness = min(weakest_witness, witness.max_norm)
    elapsed = time.perf_counter() - start
    passed = (
        worst_gap <= 1e-9
        and rejected
        and weakest_witness >= 1e-3
        and elapsed <= 20.0
    )
    _report(
        3,
        passed,
        f"recovery gap {worst_gap:.2e} (<= 1e-9) over 500 inner solves, "
        f"derivative data rejected with witness >= {weakest_witness:.2e} "
        f"(>= 1e-3), {elapsed:.1f}s (<= 20s)",
    )


def test_criterion_4_vertex_character_rigidity():
    """Random generator data at vertex characters fails Leibniz; kernel
    monomials decompose as products."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    attempts = 0
    failures = 0
    for n in (2, 3):
        for _ in range(500):
            attempts += 1
            i = int(rng.integers(1, n + 1))
            values_e = tuple(
                np.array([[complex(rng.normal(), rng.normal())]])
                for _ in range(n)
            )
            values_Z = tuple(
                np.array([[complex(rng.normal(), rng.normal())]])
                for _ in range(n)
            )
            D = GenDerivation(DiagZero(i), values_e, values_Z)
            resid = check_leibniz(
                D.apply,
                DiagZero(i),
                n,
                trials=30,
                seed=attempts,
            )
            if resid >= 1e-3:
                failures += 1
    rate = failures / attempts
    decomposed = True
    for n in (2, 3):
        span = [
            monomial_elem(n, i + 1, j + 1, d)
            for i in range(n)
            for j in range(n)
            for d in range(3)
            if not (i == j == 0 and d == 0)
        ]
        for k in span:
            result = kernel_square_witness(DiagZero(1), k, budget=2)
            if not result.success:
                decomposed = False
    elapsed = time.perf_counter() - start
    passed = rate >= 0.99 and decomposed
    _report(
        4,
        passed,
        f"{failures}/{attempts} nonzero assignments fail Leibniz "
        f"({100 * rate:.1f}% >= 99%), kernel spanning set decomposes at "
        f"budget 2, {elapsed:.1f}s",
    )


def test_criterion_5_boundary_approximate_identity():
    """F_k acts as a bounded approximate identity on the kernel at 1."""
    start = time.perf_counter()
    ks = (4, 16, 64, 256, 1024, 4096)
    monotone = True
    bounded = True
    final_worst = 0.0
    for n in (1, 2, 3):
        elems = canonical_kernel_elements(n, 1.0)
        _, report = boundary_approx_identity(1.0, ks, n, kernel_elems=elems)
        prev = None
        for row in report["rows"]:
            if row["norm_F"] > 2.0 + 1e-9:
                bounded = False
            if prev is not None:
                for r, p in zip(row["residuals"], prev):
                    if r > p + 1e-12:
                        monotone = False
            prev = row["residuals"]
        final_worst = max(final_worst, max(prev))
    elapsed = time.perf_counter() - start
    passed = monotone and bounded and final_worst <= 0.02
    _report(
        5,
        passed,
        f"residuals decay monotonically over k = 4..4096, final "
        f"{final_worst:.4f} (<= 0.02), norms <= 2 + 1e-9, {elapsed:.1f}s",
    )


def test_criterion_6_reconstruction_round_trip():
    """100 random inner derivations are recovered through the boundary
    field with small global residual; n = 1 forces the zero derivation."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    n1_all_zero = True
    for t in range(100):
        n = (t % 6) + 1
        X0 = random_element(n, rng, deg=8)
        D = GlobalDerivation.from_commutator(X0)
        field = solve_boundary_field(D)
        witness = reconstruct_witness(field, deg_max=12)
        report = verify_global_inner(D, witness)
        worst = max(worst, report.max_residual)
        if n == 1:
            if not witness.is_zero:
                n1_all_zero = False
            if any(not v.is_zero for v in (*D.values_e, *D.values_Z)):
                n1_all_zero = False
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and n1_all_zero and elapsed <= 60.0
    _report(
        6,
        passed,
        f"worst residual {worst:.2e} (<= 1e-8) over 100 round trips x 2n "
        f"generator equations, n = 1 derivations vanish, {elapsed:.1f}s "
        f"(<= 60s)",
    )


def test_criterion_7_semisimplicity_certificate():
    """The certificate says zero exactly for canonical zeros and exhibits a
    witness point otherwise."""
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    ok = True
    for t in range(500):
        n = (t % 4) + 1
        if t % 10 == 0:
            # canonical zeros, some written as cancelling products
            a = random_element(n, rng, deg=6)
            elem = a - a
            if t % 20 == 0 and n >= 2:
                elem = mul_elem(gen_e(n, 1), gen_Z(n, 1)) - mul_elem(
                    gen_Z(n, 1), gen_e(n, 2)
                )
            verdict = semisimplicity_certificate(elem)
            if not verdict.is_zero or verdict.witness is not None:
                ok = False
        else:
            elem = random_element(n, rng, deg=6)
            if elem.is_zero:
                continue
            verdict = semisimplicity_certificate(elem)
            if verdict.is_zero or verdict.witness is None:
                ok = False
                continue
            value = eval_rep(Lambda(verdict.witness), elem)
            if np.max(np.abs(value)) <= 1e-10:
                ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed <= 5.0
    _report(
        7,
        passed,
        f"zero <=> certificate-zero on 500 elements with live witness "
        f"points, {elapsed:.1f}s (<= 5s)",
    )


def test_criterion_8_center_decomposition():
    """At the center D splits as D0 + D1 exactly and D1 depends only on the
    arrow readings."""
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    exact = True
    worst_d1_gap = 0.0
    for n in (1, 2, 3):
        arrows = []
        base = GenDerivation.from_commutator(
            Lambda(0.0), _random_matrix(rng, n), n
        )
        for i in range(n):
            v = base.values_Z[i].copy()
            v[i, (i + 1) % n] += complex(rng.normal(), rng.normal())
            arrows.append(v)
        D = GenDerivation(Lambda(0.0), base.values_e, tuple(arrows))
        other = GenDerivation.from_commutator(
            Lambda(0.0), _random_matrix(rng, n), n
        )
        other_arrows = []
        for i in range(n):
            v = other.values_Z[i].copy()
            # same arrow readings as D, different vertex data
            v[i, (i + 1) % n] = arrows[i][i, (i + 1) % n]
            other_arrows.append(v)
        D_alt = GenDerivation(Lambda(0.0), other.values_e, tuple(other_arrows))
        split = decompose_at_zero(D)
        split_alt = decompose_at_zero(D_alt)
        es, Zs = generators(n)
        for g in es + Zs:
            total = split.d0.apply(g) + split.d1.apply(g)
            if not np.array_equal(total, D.apply(g)):
                exact = False
        trials = 67 if n < 3 else 66  # 200 elements across the three sizes
        for _ in range(trials):
            a = random_element(n, rng, deg=6)
            gap = np.max(np.abs(split.d1.apply(a) - split_alt.d1.apply(a)))
            worst_d1_gap = max(worst_d1_gap, float(gap))
    elapsed = time.perf_counter() - start
    passed = exact and worst_d1_gap <= 1e-10
    _report(
        8,
        passed,
        f"split reproduces generators exactly, arrow part determined by "
        f"arrow readings (gap {worst_d1_gap:.2e} <= 1e-10) on 200 elements, "
        f"{elapsed:.1f}s",
    )
