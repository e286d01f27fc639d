"""Named invariant checks, runnable as one deterministic verification suite.

Each check exercises one family of library invariants at moderate sizes and
returns a row with its worst observed metric and the threshold it is held
to.  Rows are deterministic for a fixed seed and configuration.  Checks
whose verdict depends on the inner-witness tolerance are marked tolerance
sensitive; when such a check fails under a stricter-than-default tolerance
the row is flagged as tolerance induced rather than treated as a library
defect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (
    CycleElement,
    gen_e,
    gen_Z,
    generators,
    identity,
    monomial_elem,
    mul_elem,
    norm,
    parse_realized,
    random_element,
    zero,
)
from .derivations import (
    GenDerivation,
    boundary_approx_identity,
    canonical_kernel_elements,
    check_leibniz,
    decompose_at_zero,
    delta_X,
    F_point_derivation,
    inner_solve,
    kernel_vanishing_test,
)
from .errors import NotLocallyInner
from .poly import Poly, eval_at_unit_roots, interpolate_roots_of_unity
from .reconstruction import (
    GlobalDerivation,
    reconstruct_witness,
    solve_boundary_field,
    verify_global_inner,
)
from .representations import (
    DiagZero,
    Lambda,
    eval_rep,
    kernel_sample,
    kernel_square_witness,
    semisimplicity_certificate,
)

__all__ = ["SuiteConfig", "run_suite", "summarize"]


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    tol_inner: float = config.TOL_INNER
    deg_max: int = config.DEG_MAX
    grid: int = config.NORM_GRID


def _rng(cfg: SuiteConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, salt))


def _random_poly(rng, deg: int) -> Poly:
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return Poly(c)


def _random_points(rng, count: int) -> list[complex]:
    """Interior and boundary evaluation points, always including 0 and 1."""
    pts = [0j, 1 + 0j]
    while len(pts) < count:
        if rng.uniform() < 0.25:
            pts.append(complex(np.exp(2j * np.pi * rng.uniform())))
        else:
            r = rng.uniform(0.1, 0.95)
            pts.append(complex(r * np.exp(2j * np.pi * rng.uniform())))
    return pts[:count]


def _raw_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b on raw coefficient arrays, zero-padded along the last axis to
    one length: subtracting Poly or CycleElement operands would trim
    differences below EPS_COEFF and hide them."""
    diff = np.zeros(a.shape[:-1] + (max(a.shape[-1], b.shape[-1]),), complex)
    diff[..., : a.shape[-1]] += a
    diff[..., : b.shape[-1]] -= b
    return diff


def _coeff_gap(p: Poly, q: Poly) -> float:
    """Largest coefficient difference of two polynomials."""
    diff = _raw_diff(p.coeffs, q.coeffs)
    return float(np.max(np.abs(diff))) if len(diff) else 0.0


def _l1_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry l1 norm of the difference of two coefficient arrays."""
    return float(np.abs(_raw_diff(a, b)).sum(axis=-1).max(initial=0.0))


def _gauge(X: np.ndarray) -> np.ndarray:
    return X - X[0, 0] * np.eye(X.shape[0])


# ---------------------------------------------------------------------------
# individual checks; each returns (metric, threshold, comparator, detail)
# comparator "<=" means pass iff metric <= threshold, ">=" the reverse


def _check_poly_ring_axioms(cfg: SuiteConfig):
    rng = _rng(cfg, 1)
    worst = 0.0
    for _ in range(60):
        p, q, r = (_random_poly(rng, int(rng.integers(0, 9))) for _ in range(3))
        for lhs, rhs in (
            ((p + q) + r, p + (q + r)),
            (p * q, q * p),
            (p * (q + r), p * q + p * r),
            ((p * q) * r, p * (q * r)),
        ):
            worst = max(worst, _coeff_gap(lhs, rhs))
    return worst, 1e-9, "<=", "assoc/comm/dist over 60 random triples"


def _check_poly_eval_hom(cfg: SuiteConfig):
    rng = _rng(cfg, 2)
    worst = 0.0
    for _ in range(100):
        p, q = _random_poly(rng, 8), _random_poly(rng, 8)
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst = max(worst, abs((p * q).eval(x) - p.eval(x) * q.eval(x)))
        worst = max(worst, abs((p + q).eval(x) - p.eval(x) - q.eval(x)))
    return worst, 1e-10, "<=", "evaluation respects + and * at random points"


def _check_poly_interpolation(cfg: SuiteConfig):
    rng = _rng(cfg, 4)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 40))
        p = _random_poly(rng, int(rng.integers(0, m)))
        back = interpolate_roots_of_unity(eval_at_unit_roots(p.coeffs, m))
        worst = max(worst, _coeff_gap(back, p))
    return worst, 1e-10, "<=", "roots-of-unity interpolation round trip"


def _check_generator_relations(cfg: SuiteConfig):
    worst = 0.0
    for n in range(1, 9):
        es, Zs = generators(n)
        s = es[0]
        for e in es[1:]:
            s = s + e
        if not s == identity(n):
            worst = 1.0
        loop = Zs[0]
        for Z in Zs[1:]:
            loop = mul_elem(loop, Z)
        if not loop == monomial_elem(n, 1, 1, 1):
            worst = 1.0
        for i in range(n):
            j = (i + 1) % n
            if not mul_elem(es[i], Zs[i]) == Zs[i]:
                worst = 1.0
            if not mul_elem(Zs[i], es[j]) == Zs[i]:
                worst = 1.0
            for k in range(n):
                prod = mul_elem(es[i], es[k])
                expect = es[i] if i == k else zero(n)
                if not prod == expect:
                    worst = 1.0
    return worst, 0.5, "<=", "idempotents, arrows and the full-loop relation"


def _check_mul_closure(cfg: SuiteConfig):
    rng = _rng(cfg, 5)
    worst = 0.0
    for _ in range(40):
        n = int(rng.choice([1, 2, 3, 4, 6]))
        a = random_element(n, rng, deg=8)
        b = random_element(n, rng, deg=8)
        ra, rb = a.realized_coeffs(), b.realized_coeffs()
        product = np.zeros((n, n, ra.shape[2] + rb.shape[2] - 1), complex)
        for i, j, k in itertools.product(range(n), repeat=3):
            product[i, j] += np.convolve(ra[i, k], rb[k, j])
        ab = mul_elem(a, b)
        worst = max(worst, _l1_gap(product, ab.realized_coeffs()))
        parse_realized(product, n)
    return worst, 1e-9, "<=", "stored product equals realized matrix product"


def _check_mul_assoc(cfg: SuiteConfig):
    rng = _rng(cfg, 6)
    worst = 0.0
    for _ in range(30):
        n = int(rng.choice([1, 2, 3, 5]))
        a, b, c = (random_element(n, rng, deg=5) for _ in range(3))
        lhs = mul_elem(mul_elem(a, b), c)
        rhs = mul_elem(a, mul_elem(b, c))
        worst = max(worst, _l1_gap(lhs.coeffs, rhs.coeffs))
    return worst, 1e-9, "<=", "associativity of the structured product"


def _check_norm_grid(cfg: SuiteConfig):
    rng = _rng(cfg, 7)
    worst = abs(norm(identity(3), cfg.grid) - 1.0)
    worst = max(worst, abs(norm(gen_Z(2, 1), cfg.grid) - 1.0))
    for _ in range(20):
        n = int(rng.choice([1, 2, 3]))
        a = random_element(n, rng, deg=5)
        b = random_element(n, rng, deg=5)
        gap = norm(mul_elem(a, b), cfg.grid) - norm(
            a, cfg.grid
        ) * norm(b, cfg.grid)
        worst = max(worst, gap)
    return worst, 1e-9, "<=", "unit norms and grid submultiplicativity"


def _check_rep_hom(cfg: SuiteConfig):
    rng = _rng(cfg, 8)
    pts = _random_points(rng, 8)
    worst = 0.0
    for _ in range(60):
        n = int(rng.choice([1, 2, 3, 4]))
        a = random_element(n, rng, deg=6)
        b = random_element(n, rng, deg=6)
        ab = mul_elem(a, b)
        for lam in pts:
            point = Lambda(lam)
            err = np.max(
                np.abs(
                    eval_rep(point, ab)
                    - eval_rep(point, a) @ eval_rep(point, b)
                )
            )
            worst = max(worst, float(err))
        point = DiagZero(int(rng.integers(1, n + 1)))
        err = np.max(
            np.abs(
                eval_rep(point, ab) - eval_rep(point, a) @ eval_rep(point, b)
            )
        )
        worst = max(worst, float(err))
    return worst, 1e-10, "<=", "representations are multiplicative"


def _check_kernel_membership(cfg: SuiteConfig):
    rng = _rng(cfg, 9)
    worst = 0.0
    for trial in range(10):
        n = int(rng.choice([1, 2, 3]))
        lam = complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
        for point in (Lambda(lam), DiagZero(int(rng.integers(1, n + 1)))):
            for k in kernel_sample(point, n, seed=cfg.seed + trial, count=4):
                worst = max(
                    worst, float(np.max(np.abs(eval_rep(point, k))))
                )
    return worst, 1e-12, "<=", "kernel samples evaluate to zero"


def _check_leibniz_delta(cfg: SuiteConfig):
    rng = _rng(cfg, 10)
    worst = 0.0
    for lam in _random_points(rng, 6):
        n = int(rng.choice([1, 2, 3]))
        X = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        point = Lambda(lam)
        worst = max(
            worst,
            check_leibniz(
                lambda a: delta_X(point, X, a),
                point,
                n,
                trials=60,
                seed=cfg.seed,
            ),
        )
    return worst, 1e-12, "<=", "inner derivations satisfy the Leibniz rule"


def _check_leibniz_F(cfg: SuiteConfig):
    rng = _rng(cfg, 11)
    worst = 0.0
    for lam in _random_points(rng, 6):
        n = int(rng.choice([1, 2, 3]))
        point = Lambda(lam)
        worst = max(
            worst,
            check_leibniz(
                lambda a: F_point_derivation(lam, a),
                point,
                n,
                trials=60,
                seed=cfg.seed + 1,
            ),
        )
    return worst, 1e-10, "<=", "entrywise differentiation satisfies Leibniz"


def _check_inner_recovery(cfg: SuiteConfig):
    rng = _rng(cfg, 12)
    worst = 0.0
    for _ in range(10):
        n = int(rng.choice([2, 3, 4]))
        lam = complex(
            rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        )
        X = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        D = GenDerivation.from_commutator(Lambda(lam), X, n)
        res = inner_solve(D, tol=cfg.tol_inner)
        if not res.consistent:
            return 1.0, 1e-9, "<=", "inner data reported inconsistent"
        worst = max(worst, float(np.max(np.abs(res.X - _gauge(X)))))
    return worst, 1e-9, "<=", "witness recovered up to gauge at lambda != 0"


def _check_F_non_inner(cfg: SuiteConfig):
    margin = np.inf
    for lam in (0j, 0.3 + 0j, 0.5j, -0.7 + 0j):
        for n in (1, 2, 3):
            es, Zs = generators(n)
            D = GenDerivation(
                Lambda(lam),
                tuple(F_point_derivation(lam, g) for g in es),
                tuple(F_point_derivation(lam, g) for g in Zs),
            )
            res = inner_solve(D, tol=cfg.tol_inner)
            if res.consistent:
                return 0.0, 1e-3, ">=", f"F at {lam} reported inner (n={n})"
            samples = kernel_sample(Lambda(lam), n, seed=cfg.seed, count=20)
            kv = kernel_vanishing_test(
                lambda a: F_point_derivation(lam, a), samples
            )
            margin = min(margin, kv.max_norm)
    return float(margin), 1e-3, ">=", "differentiation is not inner inside"


def _check_delta_kernel_vanishing(cfg: SuiteConfig):
    rng = _rng(cfg, 13)
    worst = 0.0
    for trial in range(8):
        n = int(rng.choice([1, 2, 3]))
        lam = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        X = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        point = Lambda(lam)
        samples = kernel_sample(point, n, seed=cfg.seed + trial, count=10)
        kv = kernel_vanishing_test(lambda a: delta_X(point, X, a), samples)
        worst = max(worst, kv.max_norm)
    return worst, 1e-9, "<=", "inner derivations vanish on the kernel"


def _check_diag0_rigidity(cfg: SuiteConfig):
    rng = _rng(cfg, 14)
    attempts = 0
    failures = 0
    for n in (2, 3):
        point = DiagZero(1)
        for _ in range(100):
            ve = rng.uniform(-1, 1, (n, 1, 1)) + 1j * rng.uniform(-1, 1, (n, 1, 1))
            vz = rng.uniform(-1, 1, (n, 1, 1)) + 1j * rng.uniform(-1, 1, (n, 1, 1))
            D = GenDerivation(point, tuple(ve), tuple(vz))
            resid = check_leibniz(
                D.apply, point, n, trials=200, seed=cfg.seed,
                stop_above=1e-3,
            )
            attempts += 1
            if resid >= 1e-3:
                failures += 1
    zero_vals = tuple(np.zeros((1, 1), complex) for _ in range(2))
    D0 = GenDerivation(DiagZero(1), zero_vals, zero_vals)
    ok_zero = check_leibniz(D0.apply, DiagZero(1), 2, trials=40, seed=cfg.seed)
    if ok_zero > 1e-12:
        return 0.0, 0.99, ">=", "zero assignment failed Leibniz"
    return (
        failures / attempts,
        0.99,
        ">=",
        "nonzero scalar-point assignments break Leibniz",
    )


def _check_kernel_square(cfg: SuiteConfig):
    worst = 0.0
    for n in (2, 3):
        point = DiagZero(1)
        spanning = [
            monomial_elem(n, a + 1, b + 1, d)
            for a in range(n)
            for b in range(n)
            for d in range(3)
            if not (a == b == 0 and d == 0)
        ]
        for k in spanning:
            res = kernel_square_witness(point, k, budget=2)
            if not res.success:
                return 1.0, 1e-8, "<=", f"monomial not decomposed at n={n}"
            worst = max(worst, res.residual)
    res1 = kernel_square_witness(DiagZero(1), gen_Z(1, 1), budget=2)
    if res1.success:
        return 1.0, 1e-8, "<=", "single-variable arrow wrongly decomposed"
    return worst, 1e-8, "<=", "scalar-point kernel equals its square (n>=2)"


def _check_boundary_identity(cfg: SuiteConfig):
    worst_final = 0.0
    for lam in (1.0 + 0j, complex(np.exp(0.73j))):
        for n in (1, 2, 3):
            _, rep = boundary_approx_identity(
                lam,
                (4, 16, 64, 256, 1024, 4096),
                n,
                kernel_elems=canonical_kernel_elements(n, lam),
            )
            if not rep["monotone_and_bounded"]:
                return 1.0, 0.02, "<=", f"ladder failed at n={n}"
            worst_final = max(
                worst_final, rep["rows"][-1]["worst_residual"]
            )
    return worst_final, 0.02, "<=", "kernel approximate identity converges"


def _check_semisimplicity(cfg: SuiteConfig):
    rng = _rng(cfg, 15)
    for _ in range(100):
        n = int(rng.choice([1, 2, 3, 4]))
        a = random_element(n, rng, deg=6)
        v = semisimplicity_certificate(a)
        if v.is_zero:
            return 1.0, 0.5, "<=", "random nonzero element certified zero"
        check = eval_rep(Lambda(v.witness), a)
        if not np.isclose(np.max(np.abs(check)), v.max_abs, rtol=1e-6):
            return 1.0, 0.5, "<=", "witness does not reproduce the maximum"
    for n in (1, 2, 3):
        if not semisimplicity_certificate(zero(n)).is_zero:
            return 1.0, 0.5, "<=", "zero element certified nonzero"
    return 0.0, 0.5, "<=", "certificate separates zero from nonzero"


def _check_reconstruction(cfg: SuiteConfig):
    rng = _rng(cfg, 16)
    worst = 0.0
    try:
        for n in (1, 2, 3, 4):
            X0 = random_element(n, rng, deg=4)
            D = GlobalDerivation.from_commutator(X0)
            field = solve_boundary_field(D, tol=cfg.tol_inner)
            X = reconstruct_witness(field, deg_max=cfg.deg_max)
            rep = verify_global_inner(D, X, norm_grid=cfg.grid)
            worst = max(worst, rep.max_residual)
            if n == 1 and not X.is_zero:
                return 1.0, 1e-8, "<=", "single-vertex witness not central"
    except NotLocallyInner as exc:
        # threshold 0 so the interrupted pipeline counts as failed while the
        # row still reports the rejecting residual
        return (
            float(exc.residual),
            0.0,
            "<=",
            f"inner solve rejected at lambda={exc.lam:.4f}",
        )
    return worst, 1e-8, "<=", "boundary field reassembles a global witness"


def _check_reconstruction_rejects(cfg: SuiteConfig):
    bad = GlobalDerivation(1, (zero(1),), (gen_Z(1, 1),))
    try:
        solve_boundary_field(bad, tol=cfg.tol_inner)
    except NotLocallyInner:
        return 0.0, 0.5, "<=", "non-derivation data rejected fast"
    return 1.0, 0.5, "<=", "non-derivation data slipped through"


def _check_zero_split(cfg: SuiteConfig):
    rng = _rng(cfg, 17)
    worst = 0.0
    for n in (2, 3):
        point = Lambda(0)
        X = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        D = GenDerivation.from_commutator(point, X, n)
        # perturb the arrow values so D is not purely inner data
        vz = tuple(
            v + rng.uniform(-1, 1, (n, n)) for v in D.values_Z
        )
        D = GenDerivation(point, D.values_e, vz)
        split = decompose_at_zero(D)
        es, Zs = generators(n)
        for g in (*es, *Zs):
            err = np.max(
                np.abs(D.apply(g) - split.d0.apply(g) - split.d1.apply(g))
            )
            worst = max(worst, float(err))
        if not split.d0_solve.consistent:
            return 1.0, 1e-10, "<=", "vertex part not inner at the center"
        other = GenDerivation(
            point,
            tuple(rng.uniform(-1, 1, (n, n)) for _ in range(n)),
            D.values_Z,
        )
        split2 = decompose_at_zero(other)
        for _ in range(50):
            a = random_element(n, rng, deg=6)
            err = np.max(np.abs(split.d1.apply(a) - split2.d1.apply(a)))
            worst = max(worst, float(err))
    return worst, 1e-10, "<=", "center split reproduces D; arrow part unique"


_CHECKS = [
    ("poly_ring_axioms", _check_poly_ring_axioms, False),
    ("poly_eval_hom", _check_poly_eval_hom, False),
    ("poly_interpolation", _check_poly_interpolation, False),
    ("generator_relations", _check_generator_relations, False),
    ("mul_closure", _check_mul_closure, False),
    ("mul_associativity", _check_mul_assoc, False),
    ("norm_grid", _check_norm_grid, False),
    ("rep_multiplicative", _check_rep_hom, False),
    ("kernel_membership", _check_kernel_membership, False),
    ("leibniz_inner", _check_leibniz_delta, False),
    ("leibniz_derivative", _check_leibniz_F, False),
    ("inner_recovery", _check_inner_recovery, True),
    ("derivative_non_inner", _check_F_non_inner, True),
    ("inner_kernel_vanishing", _check_delta_kernel_vanishing, False),
    ("scalar_point_rigidity", _check_diag0_rigidity, False),
    ("kernel_square", _check_kernel_square, False),
    ("boundary_identity", _check_boundary_identity, False),
    ("semisimplicity", _check_semisimplicity, False),
    ("reconstruction_roundtrip", _check_reconstruction, True),
    ("reconstruction_rejects", _check_reconstruction_rejects, True),
    ("zero_split", _check_zero_split, True),
]


def run_suite(cfg: SuiteConfig | None = None) -> list[dict]:
    """Run every invariant check and return one report row per check."""
    cfg = cfg or SuiteConfig()
    rows = []
    for name, fn, tol_sensitive in _CHECKS:
        try:
            metric, threshold, comparator, detail = fn(cfg)
            passed = (
                metric <= threshold if comparator == "<=" else metric >= threshold
            )
            error = None
        except Exception as exc:  # pragma: no cover - defensive surface
            metric, threshold, comparator = None, 0.0, "<="
            passed = False
            detail = "check raised"
            error = f"{type(exc).__name__}: {exc}"
        induced = (
            (not passed)
            and tol_sensitive
            and cfg.tol_inner < config.TOL_INNER
        )
        row = {
            "name": name,
            "passed": bool(passed),
            "metric": None if metric is None else float(metric),
            "threshold": float(threshold),
            "comparator": comparator,
            "tolerance_sensitive": tol_sensitive,
            "tolerance_induced": induced,
            "detail": detail,
        }
        if error is not None:
            row["error"] = error
        rows.append(row)
    return rows


def summarize(rows: list[dict]) -> dict:
    failed = [r["name"] for r in rows if not r["passed"]]
    induced = [r["name"] for r in rows if r["tolerance_induced"]]
    return {
        "total": len(rows),
        "passed": len(rows) - len(failed),
        "failed": failed,
        "tolerance_induced": induced,
        "ok": not failed,
    }
