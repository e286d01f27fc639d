"""Request mixes for the two workloads, generated from a seed.

A workload is one round: a fixed list of request kinds and sizes, with
coefficients, points and order drawn from the seed.  The benchmark replays
the round until its time is up, always stopping at a round boundary, so
every run sees the same mix in the same shares whatever the seed.

Each request carries the exit code and verdict its input was built to
produce, and an oracle check from ``oracle`` that reads only the input and
the report.  See README.md for why these mixes were chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from cyclealg.algebra import generators, random_element, zero
from cyclealg.derivations import F_point_derivation, GenDerivation
from cyclealg.reconstruction import GlobalDerivation
from cyclealg.representations import DiagZero, Lambda, kernel_sample


@dataclass(frozen=True)
class Request:
    argv: list[str]
    n: int
    path: str  # verdict path, for the mix shares
    code: int  # expected exit code
    verdict: str | None  # expected report["verdict"]; None: no verdict key
    check: Callable[[dict], str | None]


def _write(workdir: Path, index: int, doc: dict) -> str:
    path = workdir / f"req{index:03d}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _no_check(report: dict) -> None:
    return None


def _both(first, second, report: dict) -> str | None:
    return first(report) or second(report)


def _interior(rng) -> complex:
    return complex(rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform()))


def _boundary(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _sample_points(rng, count: int = 4) -> list[complex]:
    return [_boundary(rng) for _ in range(count)] + [
        _interior(rng) for _ in range(count)
    ]


# ----------------------------------------------------------------------
# reconstruct: the boundary-solve pipeline
# ----------------------------------------------------------------------

# (n, kind) for one round.  n = 8 costs about as much as fifteen n = 3
# requests, so it appears once; two requests in eighteen are rejected by the
# fail-fast path.  Six requests sort below the six n = 4 ones and six above,
# so the median is the middle of the n = 4 class: long enough requests that
# sub-second swings in the host's speed average out within each one.  The
# tail sample, with ten beyond it, lies in the n = 6 class for any run of 2
# to 10 rounds.
RECONSTRUCT_ROUND = (
    [(2, "inner")] * 2
    + [(3, "inner")] * 2
    + [(4, "inner")] * 6
    + [(6, "inner")] * 5
    + [(8, "inner")]
    + [(3, "rejected_fast"), (6, "rejected_fast")]
)


def _off_commutator(doc: dict, shift: complex) -> dict:
    """Add shift to the constant term of D(e_1)[1, 1]."""
    entry = doc["values_e"][0]["entries"][0][0]
    if entry:
        entry[0] = [entry[0][0] + shift.real, entry[0][1] + shift.imag]
    else:
        entry.append([shift.real, shift.imag])
    return doc


def build_reconstruct(rng, workdir: Path) -> list[Request]:
    out = []
    for index, (n, kind) in enumerate(RECONSTRUCT_ROUND):
        doc = GlobalDerivation.from_commutator(
            random_element(n, rng, deg=8)
        ).to_json()
        if kind == "rejected_fast":
            doc = _off_commutator(doc, complex(0.5, 0.25))
            code, verdict = 1, "not_locally_inner"
            check = partial(oracle.check_reconstruct_rejected, doc)
        else:
            code, verdict = 0, "inner"
            check = partial(
                oracle.check_reconstruct_inner, doc, lams=_sample_points(rng)
            )
        argv = ["reconstruct", "--deg-max", "12", "--input"]
        out.append(
            Request(argv + [_write(workdir, index, doc)], n, kind, code,
                    verdict, check)
        )
    return out


# ----------------------------------------------------------------------
# classify: short point queries
# ----------------------------------------------------------------------

# (kind, n) for one round.  The two approx-identity requests bring long
# entries into the mix: a k ladder to 4096 on the default 4099-point grid,
# so Poly powers reach degree 4096 and norm takes an SVD at 4099 points.
CLASSIFY_ROUND = (
    [("inner", n) for n in (1, 2, 3, 4, 5, 6)]
    + [("not_inner", n) for n in (1, 2, 3, 4, 5, 6)]
    + [("indeterminate", n) for n in (1, 3, 5)]
    + [("inner_split", 2), ("inner_split_center", 4)]
    + [("not_inner_split", 3), ("not_inner_split_center", 6)]
    + [("diag0_inner", 2), ("diag0_inner", 5), ("diag0_not_inner", 1)]
    + [("diag0_indeterminate", 3), ("diag0_indeterminate", 6)]
    + [("eval", n) for n in (1, 2, 3, 4, 5, 6)]
    + [("semisimple_zero", 3)]
    + [("semisimple_nonzero", n) for n in (2, 4, 6)]
    + [("kernel_witness", n) for n in (2, 3, 4)]
    + [("approx_identity", n) for n in (1, 2)]
)


K_LADDER = [2**j for j in range(13)]  # 1 .. 4096


def _inner_data(rng, n: int, lam: complex) -> GenDerivation:
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GenDerivation.from_commutator(Lambda(lam), X, n)


def _derivative_data(n: int, lam: complex) -> GenDerivation:
    es, Zs = generators(n)
    return GenDerivation(
        Lambda(lam),
        tuple(F_point_derivation(lam, e) for e in es),
        tuple(F_point_derivation(lam, Z) for Z in Zs),
    )


def _random_data(rng, n: int, lam: complex) -> GenDerivation:
    def value():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    return GenDerivation(
        Lambda(lam),
        tuple(value() for _ in range(n)),
        tuple(value() for _ in range(n)),
    )


def _diag0_data(n: int, i: int, arrow: complex) -> GenDerivation:
    """Data at DiagZero(i): zero except D(Z_i) = arrow.

    With arrow = 0 this is the inner (zero) derivation.  For n = 1 any
    arrow value is a point derivation, and a nonzero one is not inner.  For
    n >= 2 a nonzero arrow value breaks the Leibniz rule.
    """
    zeros = [np.zeros((1, 1), complex) for _ in range(n)]
    arrows = list(zeros)
    arrows[i - 1] = np.array([[arrow]])
    return GenDerivation(DiagZero(i), tuple(zeros), tuple(arrows))


def _classify_request(rng, workdir, index, kind, n) -> Request:
    command = "inner-check"
    if kind in ("inner", "inner_split", "inner_split_center"):
        lam = 0j if kind == "inner_split_center" else _interior(rng)
        doc = _inner_data(rng, n, lam).to_json()
        code, verdict, check = 0, "inner", partial(oracle.check_inner, doc)
        path = "inner"
    elif kind in ("not_inner", "not_inner_split", "not_inner_split_center"):
        lam = 0j if kind == "not_inner_split_center" else _interior(rng)
        doc = _derivative_data(n, lam).to_json()
        code, verdict = 1, "not_inner"
        check = partial(oracle.check_not_inner_derivative, doc)
        path = "not_inner"
    elif kind == "indeterminate":
        doc = _random_data(rng, n, _interior(rng)).to_json()
        code, verdict, check = 1, "indeterminate", _no_check
        path = "indeterminate"
    elif kind.startswith("diag0_"):
        i = int(rng.integers(1, n + 1))
        arrow = 0j if kind == "diag0_inner" else complex(*rng.normal(size=2))
        doc = _diag0_data(n, i, arrow).to_json()
        verdict = kind[len("diag0_"):]
        code = 0 if verdict == "inner" else 1
        check = (
            partial(oracle.check_not_inner_diag0, doc)
            if verdict == "not_inner"
            else _no_check
        )
        path = "diag0"
    elif kind == "eval":
        # interior, center and character points in turn
        if n % 3 == 0:
            point = {"kind": "diag0", "i": int(rng.integers(1, n + 1))}
        else:
            lam = _interior(rng) if n % 3 == 1 else 0j
            point = {"kind": "lambda", "re": lam.real, "im": lam.imag}
        doc = {
            "element": random_element(n, rng, deg=6).to_json(),
            "point": point,
        }
        command, code, verdict = "eval", 0, None
        check, path = partial(oracle.check_eval, doc), "eval"
    elif kind == "semisimple_zero":
        doc = zero(n).to_json()
        command, code, verdict, check = "semisimple", 0, "zero", _no_check
        path = "semisimple"
    elif kind == "semisimple_nonzero":
        doc = random_element(n, rng, deg=int(rng.integers(2, 9))).to_json()
        command, code, verdict = "semisimple", 1, "nonzero"
        check = partial(oracle.check_semisimple_nonzero, doc)
        path = "semisimple"
    elif kind == "kernel_witness":
        i = int(rng.integers(1, n + 1))
        element = kernel_sample(
            DiagZero(i), n, seed=int(rng.integers(2**31)), count=1, deg=2
        )[0]
        doc = {
            "point": {"kind": "diag0", "i": i},
            "element": element.to_json(),
            "budget": 2,
        }
        command, code, verdict = "kernel-witness", 0, "decomposed"
        check = partial(oracle.check_kernel_witness, doc,
                        lams=[_interior(rng) for _ in range(3)])
        path = "kernel_witness"
    elif kind == "approx_identity":
        lam = _boundary(rng)
        doc = {"lambda": [lam.real, lam.imag], "n": n, "k_values": K_LADDER}
        command, code, verdict = "approx-identity", 0, None
        check = partial(oracle.check_approx_identity, doc)
        path = "approx_identity"
    else:
        raise ValueError(f"unknown classify kind {kind!r}")
    argv = [command]
    if "split" in kind:
        argv.append("--split")
        path = "split"
        check = partial(_both, check, partial(oracle.check_split, doc))
    argv += ["--input", _write(workdir, index, doc)]
    return Request(argv, n, path, code, verdict, check)


def build_classify(rng, workdir: Path) -> list[Request]:
    return [
        _classify_request(rng, workdir, index, kind, n)
        for index, (kind, n) in enumerate(CLASSIFY_ROUND)
    ]


BUILDERS = {
    "reconstruct": build_reconstruct,
    "classify": build_classify,
}

# Functions that must record calls in a traced run of each workload; a zero
# count means a wrapper was bypassed or the mix stopped reaching the layer.
REQUIRED_CALLS = {
    "reconstruct": [
        "cli.main",
        "algebra.element_from_json",
        "reconstruction.solve_boundary_field",
        "reconstruction.reconstruct_witness",
        "reconstruction.verify_global_inner",
        "reconstruction.GlobalDerivation.apply",
        "representations.eval_rep_at_unit_roots",
        "poly.interpolate_roots_of_unity",
        "algebra.parse_realized",
        "algebra.mul_elem",
        "algebra.norm",
        "poly.Poly.construct",
        "numpy.linalg.lstsq",
        "numpy.linalg.norm",
        "numpy.convolve",
        "numpy.fft",
    ],
    "classify": [
        "cli.main",
        "algebra.element_from_json",
        "derivations.check_leibniz",
        "derivations.inner_solve",
        "derivations.kernel_vanishing_test",
        "derivations.decompose_experiment",
        "derivations.GenDerivation.apply",
        "representations.eval_rep",
        "representations.kernel_sample",
        "representations.semisimplicity_certificate",
        "representations.kernel_square_witness",
        "algebra.mul_elem",
        "poly.Poly.construct",
        "numpy.linalg.lstsq",
        "numpy.convolve",
        "derivations.boundary_approx_identity",
        "poly.Poly.pow",
        "poly.Poly.mul",
        "algebra.norm",
        "numpy.linalg.svd",
        "numpy.fft",
    ],
}

# Layers a workload must not reach: it bypasses them by design.
BYPASSED_LAYERS = {
    "reconstruct": [],
    "classify": ["reconstruction"],
}
