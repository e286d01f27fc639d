"""The paper's results on the n-cycle algebra, run as one deterministic suite.

Each row states one result and decides it with a routine the library
already has, on moderate seeded inputs:

- the representations are multiplicative and kill their kernel samples;
- every commutator, and entrywise differentiation at every point, satisfies
  the Leibniz rule on the 3n^2 defining relations (``relation_residual``);
- commutator data is inner, with its witness recovered up to the center;
  differentiation is inner at no point of the open disk, and at the center
  the n arrow readings are outer directions (``inner_solve``);
- at a scalar point every nonzero assignment breaks the relations, and the
  kernel equals its square;
- at a boundary point the kernel has a bounded approximate identity F_k, on
  which differentiation grows as k n / 2 (``boundary_approx_identity``);
- a global commutator is inner at every point, and its boundary field
  reassembles one global witness (the reconstruction pipeline).

``check_leibniz`` samples the Leibniz rule only on the independent
implementations ``delta_X`` and ``F_point_derivation``; the ring and product
invariants of the library itself are left to the unit tests.

A row reports its worst observed metric and the threshold it is held to.
Rows are deterministic for a fixed seed and configuration.  Rows whose
verdict depends on the inner-witness tolerance are marked tolerance
sensitive; when such a row fails under a stricter-than-default tolerance it
is flagged as tolerance induced rather than treated as a library defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (
    gen_Z,
    generators,
    identity,
    monomial_elem,
    mul_elem,
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
    relation_residual,
)
from .errors import NotLocallyInner
from .reconstruction import (
    GlobalDerivation,
    localize,
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

_LADDER = (4, 16, 64, 256, 1024, 4096)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    tol_inner: float = config.TOL_INNER
    grid: int = config.NORM_GRID


def _rng(cfg: SuiteConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, salt))


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


def _point_kinds(rng) -> list[complex]:
    """The center, a random interior point and a random boundary point."""
    turns = np.exp(2j * np.pi * rng.uniform(size=2))
    return [0j, complex(rng.uniform(0.1, 0.95) * turns[0]), complex(turns[1])]


def _gauge(X: np.ndarray) -> np.ndarray:
    return X - X[0, 0] * np.eye(X.shape[0])


def _derivative_data(lam: complex, n: int) -> GenDerivation:
    """Generator values of entrywise differentiation at Lambda(lam)."""
    es, Zs = generators(n)
    return GenDerivation(
        Lambda(lam),
        tuple(F_point_derivation(lam, g) for g in es),
        tuple(F_point_derivation(lam, g) for g in Zs),
    )


# ---------------------------------------------------------------------------
# individual checks; each returns (metric, threshold, comparator, detail)
# comparator "<=" means pass iff metric <= threshold, ">=" the reverse


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


def _check_relations_inner(cfg: SuiteConfig):
    rng = _rng(cfg, 18)
    worst = 0.0
    for n in range(1, 5):
        X = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        points = [Lambda(lam) for lam in _point_kinds(rng)]
        points += [DiagZero(i) for i in range(1, n + 1)]
        for point in points:
            D = GenDerivation.from_commutator(point, X, n)
            worst = max(worst, relation_residual(D)[0])
    return worst, 1e-12, "<=", "commutators satisfy the relations everywhere"


def _check_relations_F(cfg: SuiteConfig):
    rng = _rng(cfg, 19)
    worst = 0.0
    for n in range(1, 5):
        for lam in _point_kinds(rng):
            worst = max(worst, relation_residual(_derivative_data(lam, n))[0])
    return worst, 1e-12, "<=", "differentiation satisfies the relations"


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
            res = inner_solve(_derivative_data(lam, n), tol=cfg.tol_inner)
            if res.consistent:
                return 0.0, 1e-3, ">=", f"F at {lam} reported inner (n={n})"
            samples = kernel_sample(Lambda(lam), n, seed=cfg.seed, count=20)
            kv = kernel_vanishing_test(
                lambda a: F_point_derivation(lam, a), samples
            )
            margin = min(margin, kv.max_norm)
    return float(margin), 1e-3, ">=", "differentiation is not inner inside"


def _check_center_arrows(cfg: SuiteConfig):
    margin = np.inf
    for n in range(1, 5):
        no_values = tuple(np.zeros((n, n, n), complex))
        for k in range(n):
            arrows = np.zeros((n, n, n), complex)
            arrows[k, k, (k + 1) % n] = 1.0
            D = GenDerivation(Lambda(0), no_values, tuple(arrows))
            if relation_residual(D)[0] > 1e-12:
                return 0.0, 1e-3, ">=", f"arrow {k} breaks a relation (n={n})"
            res = inner_solve(D, tol=cfg.tol_inner)
            if res.consistent:
                return 0.0, 1e-3, ">=", f"arrow {k} reported inner (n={n})"
            margin = min(margin, res.residual)
    return float(margin), 1e-3, ">=", "the center's n arrow readings are outer"


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


def _rigidity_draws(cfg: SuiteConfig) -> list[GenDerivation]:
    """Random nonzero 1 x 1 data at DiagZero(1), 100 draws each at n = 2, 3."""
    rng = _rng(cfg, 14)
    draws = []
    for n in (2, 3):
        for _ in range(100):
            ve = rng.uniform(-1, 1, (n, 1, 1)) + 1j * rng.uniform(-1, 1, (n, 1, 1))
            vz = rng.uniform(-1, 1, (n, 1, 1)) + 1j * rng.uniform(-1, 1, (n, 1, 1))
            draws.append(GenDerivation(DiagZero(1), tuple(ve), tuple(vz)))
    return draws


def _check_diag0_rigidity(cfg: SuiteConfig):
    zero_vals = tuple(np.zeros((1, 1), complex) for _ in range(2))
    D0 = GenDerivation(DiagZero(1), zero_vals, zero_vals)
    if relation_residual(D0)[0] > 0:
        return 0.0, 0.99, ">=", "zero assignment broke a relation"
    draws = _rigidity_draws(cfg)
    failures = sum(relation_residual(D)[0] >= 1e-3 for D in draws)
    return (
        failures / len(draws),
        0.99,
        ">=",
        "nonzero scalar-point assignments break a relation",
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
                _LADDER,
                n,
                kernel_elems=canonical_kernel_elements(n, lam),
            )
            if not rep["monotone_and_bounded"]:
                return 1.0, 0.02, "<=", f"ladder failed at n={n}"
            worst_final = max(
                worst_final, rep["rows"][-1]["worst_residual"]
            )
    return worst_final, 0.02, "<=", "kernel approximate identity converges"


def _check_boundary_derivative(cfg: SuiteConfig):
    # d/dz of h_k(z**n) at lam has modulus k n / 2 on every diagonal entry
    worst = np.inf
    for lam in (1.0 + 0j, complex(np.exp(0.73j))):
        for n in (1, 2, 3):
            Fs, rep = boundary_approx_identity(lam, _LADDER, n)
            for F, row in zip(Fs, rep["rows"]):
                if row["norm_F"] > 2 + 1e-9:
                    return 0.0, 0.99, ">=", f"||F_k|| above 2 at n={n}"
                growth = np.linalg.norm(F_point_derivation(lam, F), 2)
                worst = min(worst, growth / (row["k"] * n / 2))
    return float(worst), 0.99, ">=", "d/dz(F_k) grows as k n / 2, ||F_k|| <= 2"


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


def _check_localized_inner(cfg: SuiteConfig):
    rng = _rng(cfg, 20)
    worst = 0.0
    for n in range(1, 5):
        D = GlobalDerivation.from_commutator(random_element(n, rng, deg=4))
        for lam in _point_kinds(rng):
            res = inner_solve(localize(D, lam), tol=cfg.tol_inner)
            worst = max(worst, res.residual)
    return worst, cfg.tol_inner, "<=", "a global commutator is inner pointwise"


def _check_reconstruction(cfg: SuiteConfig):
    rng = _rng(cfg, 16)
    worst = 0.0
    try:
        for n in (1, 2, 3, 4):
            X0 = random_element(n, rng, deg=4)
            D = GlobalDerivation.from_commutator(X0)
            field = solve_boundary_field(D, tol=cfg.tol_inner)
            X = reconstruct_witness(field)
            rep = verify_global_inner(D, X, norm_grid=cfg.grid)
            # the verify residual is taken after the coefficient trim, so
            # also hold the raw coefficients to the gauge X0 - X0[0][0] 1,
            # which is 0 at n = 1
            target = X0.coeffs - X0.coeffs[0, 0] * np.eye(n)[..., None]
            length = max(X.coeffs.shape[2], target.shape[2])
            gap = np.zeros((n, n, length), complex)
            gap[..., : X.coeffs.shape[2]] += X.coeffs
            gap[..., : target.shape[2]] -= target
            l1_gap = float(np.abs(gap).sum(axis=2).max())
            worst = max(worst, rep.max_residual, l1_gap)
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
    ("generator_relations", _check_generator_relations, False),
    ("rep_multiplicative", _check_rep_hom, False),
    ("kernel_membership", _check_kernel_membership, False),
    ("leibniz_inner", _check_leibniz_delta, False),
    ("leibniz_derivative", _check_leibniz_F, False),
    ("relations_inner", _check_relations_inner, False),
    ("relations_derivative", _check_relations_F, False),
    ("inner_recovery", _check_inner_recovery, True),
    ("derivative_non_inner", _check_F_non_inner, True),
    ("center_arrows_outer", _check_center_arrows, True),
    ("inner_kernel_vanishing", _check_delta_kernel_vanishing, False),
    ("scalar_point_rigidity", _check_diag0_rigidity, False),
    ("kernel_square", _check_kernel_square, False),
    ("boundary_identity", _check_boundary_identity, False),
    ("boundary_derivative_unbounded", _check_boundary_derivative, False),
    ("semisimplicity", _check_semisimplicity, False),
    ("localized_inner", _check_localized_inner, True),
    ("reconstruction_roundtrip", _check_reconstruction, True),
    ("reconstruction_rejects", _check_reconstruction_rejects, True),
    ("zero_split", _check_zero_split, True),
]


def run_suite(cfg: SuiteConfig | None = None) -> list[dict]:
    """Run every check and return one report row per check."""
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
