"""Per-layer timings of the point-derivation path, one column per checkout.

    python bench/layers.py --column parent=../parent/src --column change=src \
        --out BENCH_24.json

Each ``--column LABEL=SRC`` imports ``cyclealg`` from the directory SRC in
a fresh interpreter (BLAS pinned to one thread) and times, at n = 1, 2, 4
and 6 on fixed seeded inputs:

- ``GenDerivation.apply`` and ``eval_rep`` at an interior Lambda point on a
  product of two degree-6 elements (the element ``check_leibniz`` feeds
  them),
- ``GenDerivation(...)``, the construction at that point from 2n seeded
  n x n complex matrices,
- ``check_leibniz`` with 40 trials on commutator data, and
  ``relation_residual`` on the same data,
- ``gen_derivation_from_json`` of that data (from parsed JSON), and the
  ``inner-check`` command through ``cli.main`` on it (report written to
  the null device),
- ``cli._build_parser().parse_args`` on an ``inner-check`` command line
  (one cell, keyed ``any``: it does not depend on n; the parser is built
  once per process, so the cell times the parse alone),
- the report writer ``cli._emit`` on that ``inner-check`` report and on
  the ``reconstruct`` reports below (read back from the report file; written
  to the null device, so the cells time the encoding and one write),
- the ``semisimple`` command through ``cli.main`` on ``zero(1)`` (report
  written to the null device), the fixed cost of one request (keyed
  ``n1``),
- ``random_element(deg=6, normalize=True)``,
- ``mul_elem``, ``CycleElement.__sub__`` of two degree-6 elements, and
  ``CycleElement.to_json`` of the first,
- ``kernel_sample`` of 20 degree-6 elements at the same Lambda point,
- ``kernel_vanishing_test`` of the entrywise derivative data at that point
  on 20 such samples, at n = 6 only (the ``not_inner`` certificate of
  ``inner-check``),
- the canonicalization ``poly._trim`` on a dense seeded (3, 3, 7) array
  (every row's last slot passes) and on a (3, 3, 7) monomial (one entry
  of 7 coefficients, every other entry zero), keyed ``n3``,
- ``kernel_square_witness`` with budget 2 on a degree-2 kernel sample at
  ``DiagZero(1)``, at n = 2, 3, 4 and 6 instead, and the ``kernel-witness``
  command through ``cli.main`` on the n = 4 sample (report written to the
  null device; about 0.3 MB of JSON, the largest ``classify`` report),
- ``inner_solve`` of seeded random 1 x 1 data at ``DiagZero(1)``, at n = 1,
  3 and 6 instead,
- ``inner_solve`` of commutator data at the same interior Lambda point at
  n = 16, 32 and 64 instead, with its tracemalloc peak in MB (10^6 bytes)
  as the cell ``inner_solve(interior) peak MB``,
- the ``approx-identity`` command through ``cli.main`` (report written to
  the null device) at lambda = exp(0.7i), k = 1, 2, 4, ..., 4096, on the
  default grid and the canonical kernel elements, at n = 1, 2 and 3
  instead; at the same lambda and n, ``norm`` of the ladder's top element
  F_4096 and ``grid_norms`` of the canonical kernel elements (one cell for
  all of them), both on that 4099-point grid,
- on the data of a ``reconstruct --deg-max 12`` request,
  ``GlobalDerivation.from_commutator(random_element(n, deg=8))`` at n = 2,
  4, 6 and 8 instead: ``solve_boundary_field`` on its default grid,
  n (d + 1) = 10 n points for this data's top w-degree d = 9,
  ``verify_global_inner`` of the
  reconstructed witness, ``GlobalDerivation.apply`` on each of the 2n
  generators (one cell), ``algebra.norm`` of the first arrow value and of
  the zero element on the default 512-point norm grid, the ``reconstruct
  --deg-max 12`` command on the data through ``cli.main`` (report written
  to the null device), and
  ``inner_solve`` of the data localized at lambda = exp(0.7i); on the same
  data, ``element_from_json`` of the first arrow value and
  ``global_derivation_from_json`` of the whole derivation (both from parsed
  JSON), ``CycleElement.__add__`` of the first vertex and arrow values,
  ``mul_elem`` of the witness by the first arrow generator,
  ``eval_rep_at_unit_roots`` of the first arrow value on 56 n points,
  ``Poly.__mul__`` of two seeded polynomials of degree 4 n,
  ``reconstruct_witness`` of the solved boundary field, and
  ``parse_realized`` of the witness realized at its grid length m, the
  shape ``reconstruct_witness`` hands it.

Within one interpreter a timing is the median over 7 repeats of the
per-call time; each repeat runs as many calls as ``timeit`` needs to last at
least 0.2 s.  The columns take turns, in alternating order, for 3 rounds,
so a drift in the host's speed reaches every column alike; the reported
timing is the median of the 3 rounds.  All columns run on the machine
recorded in the output.  With no ``--column`` the checkout's own ``src`` is
timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = (1, 2, 4, 6)
KERNEL_SIZES = (2, 3, 4, 6)
DIAG0_SIZES = (1, 3, 6)
SCALE_SIZES = (16, 32, 64)
LADDER_SIZES = (1, 2, 3)
RECONSTRUCT_SIZES = (2, 4, 6, 8)
LADDER = [2**j for j in range(13)]  # 1 .. 4096
LADDER_GRID = 4099  # the approx-identity default grid
REPEATS = 7
ROUNDS = 3
DEG = 6
POINT = 0.45 - 0.3j
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(src: str) -> dict:
    """Median per-call seconds of each layer at each n, imported from src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import tempfile
    import timeit
    import tracemalloc

    import numpy as np

    from cyclealg import cli
    from cyclealg.algebra import element_from_json, gen_Z, generators
    from cyclealg.algebra import grid_norms, mul_elem, norm
    from cyclealg.algebra import parse_realized, random_element, zero
    from cyclealg.derivations import F_point_derivation, GenDerivation
    from cyclealg.derivations import check_leibniz, inner_solve
    from cyclealg.derivations import boundary_approx_identity
    from cyclealg.derivations import kernel_vanishing_test
    from cyclealg.derivations import canonical_kernel_elements
    from cyclealg.derivations import gen_derivation_from_json
    from cyclealg.derivations import relation_residual
    from cyclealg.poly import Poly, _trim
    from cyclealg.reconstruction import (
        GlobalDerivation,
        global_derivation_from_json,
        localize,
        reconstruct_witness,
        solve_boundary_field,
        verify_global_inner,
    )
    from cyclealg.representations import (
        DiagZero,
        Lambda,
        eval_rep,
        eval_rep_at_unit_roots,
        kernel_sample,
        kernel_square_witness,
    )

    def median_call(fn) -> float:
        timer = timeit.Timer(fn)
        number, _ = timer.autorange()
        number = max(number, 1)
        runs = timer.repeat(repeat=REPEATS, number=number)
        return statistics.median(runs) / number

    out: dict[str, dict[str, float]] = {}
    point = Lambda(POINT)
    for n in SIZES:
        rng = np.random.default_rng(500 + n)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        D = GenDerivation.from_commutator(point, X, n)
        a = random_element(n, rng, deg=DEG, normalize=True)
        b = random_element(n, rng, deg=DEG, normalize=True)
        ab = mul_elem(a, b)
        mats = np.random.default_rng(550 + n).normal(size=(2, n, n, n, 2))
        mats = mats @ [1.0, 1j]
        cases = {
            "GenDerivation.apply": lambda: D.apply(ab),
            "GenDerivation(...)": lambda: GenDerivation(
                point, tuple(mats[0]), tuple(mats[1])
            ),
            "eval_rep": lambda: eval_rep(point, ab),
            "check_leibniz(trials=40)": lambda: check_leibniz(
                D.apply, point, n, trials=40, seed=1
            ),
            "random_element(normalize=True)": lambda: random_element(
                n, rng, deg=DEG, normalize=True
            ),
            "mul_elem": lambda: mul_elem(a, b),
            "CycleElement.__sub__": lambda: a - b,
            "CycleElement.to_json": lambda: a.to_json(),
            "kernel_sample(count=20)": lambda: kernel_sample(
                point, n, seed=1, count=20
            ),
            "relation_residual": lambda: relation_residual(D),
        }
        for name, fn in cases.items():
            out.setdefault(name, {})[f"n{n}"] = median_call(fn)
    es, Zs = generators(6)
    derivative = GenDerivation(
        point,
        tuple(F_point_derivation(POINT, e) for e in es),
        tuple(F_point_derivation(POINT, Z) for Z in Zs),
    )
    samples = kernel_sample(point, 6, seed=1, count=20)
    out["kernel_vanishing_test(count=20)"] = {
        "n6": median_call(
            lambda: kernel_vanishing_test(derivative.apply, samples)
        )
    }
    dense = np.random.default_rng(590).normal(size=(3, 3, 7, 2)) @ [1.0, 1j]
    monomial = np.zeros((3, 3, 7), dtype=complex)
    monomial[0, 1] = dense[0, 1]
    out["_trim(dense)"] = {"n3": median_call(lambda: _trim(dense))}
    out["_trim(monomial)"] = {"n3": median_call(lambda: _trim(monomial))}
    for n in KERNEL_SIZES:
        k = kernel_sample(DiagZero(1), n, seed=600 + n, count=1, deg=2)[0]
        out.setdefault("kernel_square_witness", {})[f"n{n}"] = median_call(
            lambda: kernel_square_witness(DiagZero(1), k, budget=2)
        )
    for n in DIAG0_SIZES:
        rng = np.random.default_rng(650 + n)
        values = rng.normal(size=(2, n, 1, 1, 2)) @ [1.0, 1j]
        D = GenDerivation(DiagZero(1), tuple(values[0]), tuple(values[1]))
        out.setdefault("inner_solve(DiagZero(1))", {})[f"n{n}"] = median_call(
            lambda: inner_solve(D)
        )
    for n in SCALE_SIZES:
        rng = np.random.default_rng(680 + n)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        D = GenDerivation.from_commutator(point, X, n)
        inner_solve(D)
        tracemalloc.start()
        try:
            inner_solve(D)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        size = f"n{n}"
        out.setdefault("inner_solve(interior)", {})[size] = median_call(
            lambda: inner_solve(D)
        )
        out.setdefault("inner_solve(interior) peak MB", {})[size] = peak
    lam = complex(np.exp(0.7j))
    for n in LADDER_SIZES:
        (F,), _ = boundary_approx_identity(lam, LADDER[-1:], n)
        kernel = canonical_kernel_elements(n, lam)
        cases = {
            "norm(F_4096)": lambda: norm(F, LADDER_GRID),
            "grid_norms(kernel elements)": lambda: [
                grid_norms(k, LADDER_GRID) for k in kernel
            ],
        }
        for name, fn in cases.items():
            out.setdefault(name, {})[f"n{n}"] = median_call(fn)
    for n in RECONSTRUCT_SIZES:
        rng = np.random.default_rng(700 + n)
        D = GlobalDerivation.from_commutator(random_element(n, rng, deg=8))
        field = solve_boundary_field(D)
        witness = reconstruct_witness(field, deg_max=12)
        realized = witness.realized_coeffs(field.m)
        local = localize(D, lam)
        doc = json.loads(json.dumps(D.to_json()))
        arrow = gen_Z(n, 1)
        gens = [g for half in generators(n) for g in half]
        p, q = (Poly(rng.normal(size=4 * n + 1)) for _ in range(2))
        cases = {
            "solve_boundary_field": lambda: solve_boundary_field(D),
            "verify_global_inner": lambda: verify_global_inner(D, witness),
            "GlobalDerivation.apply(generators)": lambda: [
                D.apply(g) for g in gens
            ],
            "norm": lambda: norm(D.values_Z[0]),
            "norm(zero)": lambda: norm(zero(n)),
            "inner_solve": lambda: inner_solve(local),
            "element_from_json": lambda: element_from_json(
                doc["values_Z"][0]
            ),
            "global_derivation_from_json": lambda: (
                global_derivation_from_json(doc)
            ),
            "CycleElement.__add__": lambda: D.values_e[0] + D.values_Z[0],
            "mul_elem(generator)": lambda: mul_elem(witness, arrow),
            "eval_rep_at_unit_roots": lambda: eval_rep_at_unit_roots(
                D.values_Z[0], 56 * n
            ),
            "Poly.__mul__": lambda: p * q,
            "reconstruct_witness": lambda: reconstruct_witness(
                field, deg_max=12
            ),
            "parse_realized": lambda: parse_realized(realized, n),
        }
        for name, fn in cases.items():
            out.setdefault(name, {})[f"n{n}"] = median_call(fn)
    parser = cli._build_parser()
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp, "report.json")
        path = Path(tmp, "zero1.json")
        path.write_text(json.dumps(zero(1).to_json()), encoding="utf-8")
        argv = ["semisimple", "--input", str(path), "--output", os.devnull]
        if cli.main(argv) != 0:
            raise RuntimeError("semisimple failed on zero(1)")
        out["semisimple(zero(1))"] = {
            "n1": median_call(lambda: cli.main(argv))
        }
        for n in SIZES:
            rng = np.random.default_rng(500 + n)
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            doc = GenDerivation.from_commutator(point, X, n).to_json()
            path = Path(tmp, f"inner{n}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["inner-check", "--input", str(path)]
            if cli.main(argv + ["--output", str(report_path)]) != 0:
                raise RuntimeError(f"inner-check failed at n = {n}")
            doc = json.loads(path.read_text(encoding="utf-8"))
            report = json.loads(report_path.read_text(encoding="utf-8"))
            null = parser.parse_args(argv + ["--output", os.devnull])
            cases = {
                "encode(inner-check)": lambda: cli._emit(null, report),
                "gen_derivation_from_json": lambda: gen_derivation_from_json(
                    doc
                ),
                "inner-check": lambda: cli.main(
                    argv + ["--output", os.devnull]
                ),
            }
            for name, fn in cases.items():
                out.setdefault(name, {})[f"n{n}"] = median_call(fn)
        out["parse_args(inner-check)"] = {
            "any": median_call(lambda: cli._build_parser().parse_args(argv))
        }
        k = kernel_sample(DiagZero(1), 4, seed=604, count=1, deg=2)[0]
        doc = {"point": {"kind": "diag0", "i": 1}, "element": k.to_json()}
        path = Path(tmp, "witness4.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["kernel-witness", "--input", str(path)]
        argv += ["--output", os.devnull]
        if cli.main(argv) != 0:
            raise RuntimeError("kernel-witness failed at n = 4")
        out["kernel-witness"] = {"n4": median_call(lambda: cli.main(argv))}
        for n in LADDER_SIZES:
            path = Path(tmp, f"ladder{n}.json")
            doc = {"lambda": [lam.real, lam.imag], "n": n, "k_values": LADDER}
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["approx-identity", "--input", str(path)]
            argv += ["--output", os.devnull]
            if cli.main(argv) != 0:
                raise RuntimeError(f"approx-identity failed at n = {n}")
            out.setdefault("approx-identity", {})[f"n{n}"] = median_call(
                lambda: cli.main(argv)
            )
        for n in RECONSTRUCT_SIZES:
            rng = np.random.default_rng(700 + n)
            D = GlobalDerivation.from_commutator(random_element(n, rng, deg=8))
            path = Path(tmp, f"global{n}.json")
            path.write_text(json.dumps(D.to_json()), encoding="utf-8")
            argv = ["reconstruct", "--deg-max", "12", "--input", str(path)]
            if cli.main(argv + ["--output", str(report_path)]) != 0:
                raise RuntimeError(f"reconstruct failed at n = {n}")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            argv += ["--output", os.devnull]
            null = parser.parse_args(argv)
            out.setdefault("reconstruct", {})[f"n{n}"] = median_call(
                lambda: cli.main(argv)
            )
            out.setdefault("encode(reconstruct)", {})[f"n{n}"] = median_call(
                lambda: cli._emit(null, report)
            )
    return out


def machine() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--column",
        action="append",
        default=[],
        metavar="LABEL=SRC",
        help="label and source directory of one column (repeatable)",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument("--measure", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        json.dump(measure(args.measure), sys.stdout)
        return 0

    own_src = Path(__file__).resolve().parent.parent / "src"
    columns = args.column or [f"change={own_src}"]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    for column in columns:
        _, sep, src = column.partition("=")
        if not sep or not Path(src, "cyclealg").is_dir():
            parser.error(f"--column {column!r}: want LABEL=SRC, SRC/cyclealg")
    runs: dict[str, dict[str, dict[str, list[float]]]] = {}
    for turn in range(ROUNDS):
        for column in columns if turn % 2 == 0 else columns[::-1]:
            label, _, src = column.partition("=")
            done = subprocess.run(
                [sys.executable, __file__, "--measure", src],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            )
            for name, by_n in json.loads(done.stdout).items():
                for size, seconds in by_n.items():
                    row = runs.setdefault(name, {}).setdefault(size, {})
                    row.setdefault(label, []).append(seconds)
    layers = {
        name: {
            size: {
                label: statistics.median(v)
                for label, v in row.items()
            }
            for size, row in by_n.items()
        }
        for name, by_n in runs.items()
    }
    report = {
        "machine": machine(),
        "method": (
            f"median over {ROUNDS} alternating rounds of the median of "
            f"{REPEATS} repeats of the per-call time, each repeat at least "
            "0.2 s of calls; BLAS pinned to one thread; one fresh "
            "interpreter per column and round"
        ),
        "unit": "s per call; MB in the cells named '... peak MB'",
        "columns": [column.partition("=")[0] for column in columns],
        "layers": layers,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
