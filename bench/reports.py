"""Every benchmark request's report, recorded for a byte-for-byte comparison.

    python bench/reports.py --src ../parent/src --out parent.json
    python bench/reports.py --src src --out change.json
    python bench/reports.py --compare parent.json change.json

``--src DIR --out FILE`` imports ``cyclealg`` from the directory DIR and the
request builders from this checkout's ``perfbench/workloads.py`` (read only),
builds the requests of seeds 1, 2 and 3 of both workloads, runs each once
through ``cyclealg.cli.main`` (BLAS pinned to one thread), and writes its
stdout, stderr and exit code to FILE, with the SHA-256 of its input file.
The inputs are written to a temporary directory and named by relative
paths, so every checkout sees the same command lines.

``--compare A B`` lists each request whose record differs between two such
files, with the fields that differ, and exits 1 if there is one.  Where
both stdouts are JSON reports, ``stdout`` is followed by the top-level
report keys whose values differ.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("reconstruct", "classify")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIELDS = ("argv", "input_sha256", "code", "stdout", "stderr")


def record(src: str) -> dict:
    """Report of every request of every seed and workload, keyed by name."""
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    import numpy as np

    import cyclealg.cli
    import workloads

    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in WORKLOADS:
            for seed in SEEDS:
                workdir = Path(f"{workload}-{seed}")
                workdir.mkdir()
                rng = np.random.default_rng(seed)
                requests = workloads.BUILDERS[workload](rng, workdir)
                for index, req in enumerate(requests):
                    path = req.argv[req.argv.index("--input") + 1]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout):
                        with contextlib.redirect_stderr(stderr):
                            try:
                                code = cyclealg.cli.main(req.argv)
                            except SystemExit as exc:
                                code = exc.code
                    out[f"{workload}/seed{seed}/{index:03d}"] = {
                        "argv": req.argv,
                        "input_sha256": hashlib.sha256(
                            Path(path).read_bytes()
                        ).hexdigest(),
                        "code": code,
                        "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(),
                    }
        os.chdir(home)
    return out


def _stdout_keys(a: str, b: str) -> str:
    """``stdout``, with the top-level keys two JSON reports differ in."""
    try:
        x, y = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return "stdout"
    missing = object()
    keys = sorted(
        k for k in x.keys() | y.keys()
        if x.get(k, missing) != y.get(k, missing)
    )
    return f"stdout ({', '.join(keys) or 'same JSON'})"


def compare(a: dict, b: dict) -> list[str]:
    """One line per request whose record differs, naming the fields."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key in b else 'A'}")
            continue
        fields = [f for f in FIELDS if a[key][f] != b[key][f]]
        if "stdout" in fields:
            fields[fields.index("stdout")] = _stdout_keys(
                a[key]["stdout"], b[key]["stdout"]
            )
        if fields:
            lines.append(f"{key}: {', '.join(fields)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="directory holding the cyclealg package")
    parser.add_argument("--out", help="write the records here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        a, b = (
            json.loads(Path(p).read_text(encoding="utf-8"))["requests"]
            for p in args.compare
        )
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(a | b)} requests, {len(lines)} differ"]))
        return 1 if lines else 0
    if not args.src or not args.out:
        parser.error("want --src DIR --out FILE, or --compare A B")
    if not Path(args.src, "cyclealg").is_dir():
        parser.error(f"--src {args.src!r}: no cyclealg package there")
    out = Path(args.out).resolve()
    requests = record(args.src)
    doc = {"src": str(Path(args.src).resolve()), "requests": requests}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    print(f"{len(requests)} reports written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
