"""Command-line interface: JSON in, JSON (or CSV) out, deterministic runs.

Commands
  eval            evaluate an element at a representation point
  inner-check     classify point-derivation data as inner / not_inner /
                  indeterminate, with witness or kernel certificate; the
                  Leibniz gate is decided on the 3n^2 defining relations
                  (``leibniz_residual``, ``leibniz_relation``)
  reconstruct     run the boundary-field pipeline on global derivation data
  suite           check the paper's results and summarize
  approx-identity boundary approximate identity convergence report
  semisimple      zero/nonzero certificate for an element
  kernel-witness  decompose a kernel element at a scalar point into products

``_COMMANDS`` lists the options each command reads, with the default it
uses.  Each command's subparser holds only those, so any other option is
an argparse usage error (exit 2), and options go after the command.
A report's ``config`` is the command and every option it read except
``--input`` and ``--output``, each with the value in force.

Exit codes: 0 success, 1 negative verdict, 2 input error (an option the
command does not read, an unwritable ``--output`` and a negative
``--deg-max`` included), 3 internal failure.  Reports embed that
configuration and the library version and are byte stable for a fixed
seed and configuration.  Every JSON report is one line,
``json.dumps(report, sort_keys=True, allow_nan=False)``, the standard
library's C encoder; ``python -m json.tool`` pretty-prints it.  A
non-finite number that reaches a report exits 3.  The argument parser is
built on the first ``main`` call and reused by every later call in the
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import __version__, config
from .algebra import element_from_json
from .derivations import (
    GenDerivation,
    boundary_approx_identity,
    canonical_kernel_elements,
    decompose_at_zero,
    decompose_experiment,
    gen_derivation_from_json,
    inner_solve,
    kernel_vanishing_test,
    relation_residual,
)
from .errors import CycleAlgebraError, NotLocallyInner
from .poly import complex_from_json, int_from_json
from .reconstruction import (
    boundary_field_from_json,
    global_derivation_from_json,
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
    matc_to_json,
    point_from_json,
    point_to_json,
    semisimplicity_certificate,
)

_LEIBNIZ_GATE = 1e-6


class _InputError(Exception):
    pass


def _load_doc(path: str | None) -> dict:
    if not path:
        raise _InputError("this command requires --input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise _InputError("input must be a JSON object")
    return doc


def _check_n(args, n: int):
    if args.n is not None and args.n != n:
        raise _InputError(f"--n {args.n} does not match input n = {n}")


def _cmd_eval(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    if "element" not in doc or "point" not in doc:
        raise _InputError('eval input needs {"element": ..., "point": ...}')
    element = element_from_json(doc["element"])
    point = point_from_json(doc["point"])
    _check_n(args, element.n)
    value = eval_rep(point, element)
    return 0, {
        "point": point_to_json(point),
        "n": element.n,
        "matrix": matc_to_json(value),
    }


def _add_kernel_witness(report: dict, D: GenDerivation, seed: int) -> None:
    """Certify non-inner data by its largest value on kernel samples."""
    samples = kernel_sample(D.point, D.n, seed=seed, count=20)
    kv = kernel_vanishing_test(D.apply, samples)
    report["kernel_witness_norm"] = kv.max_norm
    if kv.witness is not None:
        report["kernel_witness"] = kv.witness.to_json()


def _cmd_inner_check(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    D = gen_derivation_from_json(doc)
    _check_n(args, D.n)
    leibniz, relation = relation_residual(D)
    report: dict = {
        "point": point_to_json(D.point),
        "n": D.n,
        "leibniz_residual": leibniz,
        "leibniz_relation": relation,
        "tol_inner": args.tol_inner,
    }
    if leibniz > _LEIBNIZ_GATE:
        report["verdict"] = "indeterminate"
        report["reason"] = "generator data does not satisfy the Leibniz rule"
        return 1, report
    solve = inner_solve(D, tol=args.tol_inner)
    report["residual"] = solve.residual
    if solve.consistent:
        report["verdict"] = "inner"
        report["X"] = matc_to_json(solve.X)
        report["normalization"] = solve.normalization
        code = 0
    else:
        report["verdict"] = "not_inner"
        _add_kernel_witness(report, D, args.seed)
        code = 1
    if args.split and isinstance(D.point, Lambda):
        if abs(D.point.value) <= 1e-15:
            split = decompose_at_zero(D)
            report["split"] = {
                "kind": "center",
                "d0_inner_residual": split.d0_solve.residual,
                "d0_consistent": split.d0_solve.consistent,
                "d1_values_Z": [matc_to_json(v) for v in split.d1.values_Z],
            }
        else:
            report["split"] = {
                "kind": "experiment",
                **decompose_experiment(D, seed=args.seed),
            }
    return code, report


def _cmd_reconstruct(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    if "X_at" in doc:
        field = boundary_field_from_json(doc)
        _check_n(args, field.n)
        witness = reconstruct_witness(field, deg_max=args.deg_max)
        return 0, {
            "source": "field",
            "n": field.n,
            "grid": field.m,
            "witness": witness.to_json(),
            "field_residual": field.max_residual,
        }
    D = global_derivation_from_json(doc)
    _check_n(args, D.n)
    try:
        field = solve_boundary_field(D, tol=args.tol_inner)
    except NotLocallyInner as exc:
        return 1, {
            "verdict": "not_locally_inner",
            "n": D.n,
            "lambda": [exc.lam.real, exc.lam.imag],
            "residual": exc.residual,
            "tol_inner": exc.tol,
        }
    witness = reconstruct_witness(field, deg_max=args.deg_max)
    verify = verify_global_inner(D, witness)
    verdict = "inner" if verify.ok else "verify_failed"
    return 0 if verify.ok else 1, {
        "verdict": verdict,
        "n": D.n,
        "grid": field.m,
        "witness": witness.to_json(),
        "field_residual": field.max_residual,
        "verify_residual": verify.max_residual,
        "verify_equations": verify.equations,
        "verify_grid": verify.norm_grid,
    }


def _cmd_suite(args) -> tuple[int, dict]:
    from .suite import SuiteConfig, run_suite, summarize  # only this command

    cfg = SuiteConfig(seed=args.seed, tol_inner=args.tol_inner, grid=args.grid)
    rows = run_suite(cfg)
    summary = summarize(rows)
    return (0 if summary["ok"] else 1), {
        "rows": rows,
        "summary": summary,
    }


def _cmd_approx_identity(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    try:
        lam = complex_from_json(
            doc["lambda"][0], doc["lambda"][1], "boundary point lambda"
        )
        n = int_from_json(doc["n"], "n", 1)
        k_values = [int_from_json(k, "k", 1) for k in doc["k_values"]]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise _InputError(f"malformed approx-identity input: {exc}") from exc
    _check_n(args, n)
    if "kernel_elements" in doc:
        elems = [element_from_json(e) for e in doc["kernel_elements"]]
    else:
        elems = canonical_kernel_elements(n, lam)
    _, report = boundary_approx_identity(
        lam, k_values, n, kernel_elems=elems, norm_grid=args.grid
    )
    return (0 if report["monotone_and_bounded"] else 1), report


def _cmd_semisimple(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    element = element_from_json(doc.get("element", doc))
    _check_n(args, element.n)
    verdict = semisimplicity_certificate(element)
    report = {
        "n": element.n,
        "verdict": "zero" if verdict.is_zero else "nonzero",
        "max_abs": verdict.max_abs,
        "points": verdict.points,
    }
    if verdict.witness is not None:
        report["witness"] = [verdict.witness.real, verdict.witness.imag]
    return (0 if verdict.is_zero else 1), report


def _cmd_kernel_witness(args) -> tuple[int, dict]:
    doc = _load_doc(args.input)
    if "element" not in doc or "point" not in doc:
        raise _InputError(
            'kernel-witness input needs {"point": ..., "element": ...}'
        )
    point = point_from_json(doc["point"])
    if not isinstance(point, DiagZero):
        raise _InputError("kernel-witness needs a diag0 point")
    element = element_from_json(doc["element"])
    _check_n(args, element.n)
    budget = int_from_json(doc.get("budget", 2), "budget", 0)
    result = kernel_square_witness(point, element, budget=budget)
    report = {
        "point": point_to_json(point),
        "n": element.n,
        "verdict": "decomposed" if result.success else "failure",
        "budget": result.budget,
        "residual": result.residual,
        "pairs": [
            [left.to_json(), right.to_json()] for left, right in result.pairs
        ],
    }
    return (0 if result.success else 1), report


# How each option is parsed.
_OPTIONS = {
    "n": {"type": int},
    "deg_max": {"type": int},
    "grid": {"type": int},
    "tol_inner": {"type": float},
    "seed": {"type": int},
    "split": {"action": "store_true"},
    "format": {"choices": ("json", "csv")},
    "input": {},
    "output": {},
}
# Bounds on option values; a value outside one exits 2.
_CHECKS = {
    "tol_inner": (
        lambda v: 0 < v < np.inf, "tol-inner must be positive and finite"
    ),
    "grid": (lambda v: v >= 1, "grid must be >= 1"),
    "deg_max": (lambda v: v >= 0, "deg-max must be >= 0"),
}

# Each command: its handler and the options it reads, with their defaults.
_COMMANDS = {
    "eval": (_cmd_eval, {"n": None, "input": None, "output": None}),
    "inner-check": (_cmd_inner_check, {
        "n": None, "tol_inner": config.TOL_INNER, "seed": 0, "split": False,
        "input": None, "output": None,
    }),
    "reconstruct": (_cmd_reconstruct, {
        "n": None, "deg_max": config.DEG_MAX, "tol_inner": config.TOL_INNER,
        "input": None, "output": None,
    }),
    "suite": (_cmd_suite, {
        "grid": config.NORM_GRID, "tol_inner": config.TOL_INNER, "seed": 0,
        "format": "json", "output": None,
    }),
    "approx-identity": (_cmd_approx_identity, {
        "n": None, "grid": 4099, "format": "json", "input": None,
        "output": None,
    }),
    "semisimple": (
        _cmd_semisimple, {"n": None, "input": None, "output": None}
    ),
    "kernel-witness": (
        _cmd_kernel_witness, {"n": None, "input": None, "output": None}
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclealg",
        description="cycle function algebras: evaluation, derivations, "
        "reconstruction",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        sub = commands.add_parser(name)
        for option, default in defaults.items():
            sub.add_argument(
                "--" + option.replace("_", "-"), default=default,
                **_OPTIONS[option],
            )
    return parser


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    fields = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: json.dumps(v, sort_keys=True)
                if isinstance(v, (list, dict))
                else v
                for k, v in row.items()
            }
        )
    return buf.getvalue()


def _emit(args, report: dict) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _rows_to_csv(report["rows"])
    else:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write output: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    used = vars(args)
    for option, (ok, message) in _CHECKS.items():
        if option in used and not ok(used[option]):
            return _fail(2, message)
    try:
        code, payload = _COMMANDS[args.command][0](args)
    except _InputError as exc:
        return _fail(2, str(exc))
    except NotLocallyInner as exc:
        return _fail(1, str(exc))
    except (ValueError, KeyError, CycleAlgebraError) as exc:
        return _fail(2, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # pragma: no cover - unexpected
        return _fail(3, f"internal error: {type(exc).__name__}: {exc}")
    report = {
        "version": __version__,
        "config": {
            k: v for k, v in used.items() if k not in ("input", "output")
        },
        **payload,
    }
    try:
        _emit(args, report)
    except _InputError as exc:
        return _fail(2, str(exc))
    except ValueError as exc:  # a non-finite number reached the report
        return _fail(3, f"internal error: {exc}")
    return code


def _fail(code: int, message: str) -> int:
    """Write the error report to stderr and return the exit code."""
    sys.stderr.write(
        json.dumps({"error": message, "exit_code": code}, sort_keys=True)
        + "\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
