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

Exit codes: 0 success, 1 negative verdict, 2 input error (an unwritable
``--output`` and a negative ``--deg-max`` included), 3 internal failure.
Reports embed the resolved configuration and library version and are byte
stable for a fixed seed and configuration.  One encoder, ``_dumps``, writes
every JSON report, byte for byte as ``json.dumps(report, sort_keys=True,
indent=2, allow_nan=False)``.  The argument parser is built on the first
``main`` call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from itertools import chain

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
from .errors import CycleAlgebraError, GridTooSmall, NotLocallyInner
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


def _resolved_config(args) -> dict:
    return {
        "command": args.command,
        "n": args.n,
        "deg_max": args.deg_max if args.deg_max is not None else config.DEG_MAX,
        "grid": args.grid,
        "tol_inner": args.tol_inner,
        "seed": args.seed,
        "format": args.format,
    }


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
        field = solve_boundary_field(D, m=args.grid, tol=args.tol_inner)
    except NotLocallyInner as exc:
        return 1, {
            "verdict": "not_locally_inner",
            "n": D.n,
            "lambda": [exc.lam.real, exc.lam.imag],
            "residual": exc.residual,
            "tol_inner": exc.tol,
        }
    witness = reconstruct_witness(field, deg_max=args.deg_max)
    try:
        verify = verify_global_inner(D, witness)
    except GridTooSmall as exc:
        # a nonzero residual too long for the default grid: measure it on
        # the smallest grid that resolves it
        verify = verify_global_inner(D, witness, norm_grid=exc.needed)
    verdict = "inner" if verify.ok else "verify_failed"
    return 0 if verify.ok else 1, {
        "verdict": verdict,
        "n": D.n,
        "grid": field.m,
        "witness": witness.to_json(),
        "field_residual": field.max_residual,
        "verify_residual": verify.max_residual,
        "verify_equations": verify.equations,
    }


def _cmd_suite(args) -> tuple[int, dict]:
    from .suite import SuiteConfig, run_suite, summarize  # only this command

    cfg = SuiteConfig(
        seed=args.seed,
        tol_inner=args.tol_inner,
        grid=args.grid or config.NORM_GRID,
    )
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
        lam, k_values, n, kernel_elems=elems, norm_grid=args.grid or 4099
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


_COMMANDS = {
    "eval": _cmd_eval,
    "inner-check": _cmd_inner_check,
    "reconstruct": _cmd_reconstruct,
    "suite": _cmd_suite,
    "approx-identity": _cmd_approx_identity,
    "semisimple": _cmd_semisimple,
    "kernel-witness": _cmd_kernel_witness,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclealg",
        description="cycle function algebras: evaluation, derivations, "
        "reconstruction",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--deg-max", dest="deg_max", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument(
        "--tol-inner", dest="tol_inner", type=float,
        default=config.TOL_INNER,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input", type=str, default=None)
    parser.add_argument("--output", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--split", action="store_true")  # inner-check only
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


_ESCAPE = json.encoder.encode_basestring_ascii


def _float_list(items, nl: str) -> str | None:
    """The body of a list of floats, or of [re, im] float pairs, or None."""
    pairs = set(map(type, items)) <= {list, tuple}
    try:
        if pairs and set(map(len, items)) == {2}:
            flat = map(float.__repr__, chain.from_iterable(items))
            pair = nl + "  "
            body = (nl + "]," + nl + "[" + pair).join(
                map(("," + pair).join, zip(flat, flat))
            )
            body = "[" + pair + body + nl + "]"
        else:
            body = ("," + nl).join(map(float.__repr__, items))
    except TypeError:  # an item that is not a float
        return None
    # the repr of a finite float has no "n"; "nan", "inf" and "-inf" do
    return None if "n" in body else body


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``.

    Byte for byte, including its errors: a non-finite float raises
    ``ValueError``.  ``nl`` is the newline and indentation of obj's depth.
    """
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        if "n" not in text:
            return text
    inner = nl + "  "
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        items = sorted(obj.items())
        body = ("," + inner).join(
            [f"{_ESCAPE(k)}: {_dumps(v, inner)}" for k, v in items]
        )
        return "{" + inner + body + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _float_list(obj, inner)
        if body is None:
            body = ("," + inner).join([_dumps(v, inner) for v in obj])
        return "[" + inner + body + nl + "]"
    # a non-finite float, a key that is not a string, a type JSON lacks
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", nl)


def _emit(args, report: dict) -> None:
    if args.format == "csv":
        if "rows" not in report:
            raise _InputError(
                f"csv output is not available for {args.command}"
            )
        text = _rows_to_csv(report["rows"])
    else:
        text = _dumps(report) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write output: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.split and args.command != "inner-check":
        parser.error("unrecognized arguments: --split")
    if not 0 < args.tol_inner < np.inf:
        return _fail(2, "tol-inner must be positive and finite")
    if args.grid is not None and args.grid < 1:
        return _fail(2, "grid must be >= 1")
    if args.deg_max is not None and args.deg_max < 0:
        return _fail(2, "deg-max must be >= 0")
    try:
        code, payload = _COMMANDS[args.command](args)
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
        "config": _resolved_config(args),
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
