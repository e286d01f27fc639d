"""cyclealg benchmark: CLI requests driven in-process, closed loop.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client in one process sends each request to
``cyclealg.cli.main`` only after the previous one returned.  Inputs are
generated from ``--seed`` into a scratch directory in the checkout, and
the round of requests is replayed until ``--seconds`` have passed, stopping
at a round boundary.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` times one untraced round, then installs the tracer and
reports the per-layer metrics.  Every report is checked by the oracle in
``oracle.py``.  The last line of output is one JSON object; the lines
before it name every metric with its unit, the mix shares, and the
machine (nproc, Python, numpy and BLAS versions, thread settings).
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads: the matrices are at
# most 8 x 8, and OpenBLAS would otherwise start a thread per core.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# seconds between set-up probes in the timed phase: the host's speed shifts
# over seconds, so probes spread over the whole run see the same mix of its
# states as the requests do
SETUP_INTERVAL_S = 2.0
TAIL_BEYOND = 10
# the child prints the monotonic clock once the import is done; on Linux
# perf_counter reads CLOCK_MONOTONIC, which every process shares
SETUP_PROBE = "import cyclealg.cli, time; print(time.perf_counter())"


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def setup_probe() -> float:
    """Time from a fresh interpreter's start to cyclealg.cli loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip()) - start


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


class SetupProber:
    """Called between requests: runs one set-up probe when one is due and
    returns the seconds it took, which the caller keeps out of the timed
    phase."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.due = time.perf_counter()

    def __call__(self) -> float:
        start = time.perf_counter()
        if start < self.due:
            return 0.0
        self.samples.append(setup_probe())
        end = time.perf_counter()
        self.due = end + self.interval
        return end - start


class Client:
    """Sends requests to cyclealg.cli.main and times each call."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv: list[str]) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                # looked up per call so an installed tracer is used
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue()


def run_rounds(client, requests, order, seconds, on_request=None,
               between=None):
    """Replay the round until `seconds` pass; returns (index, elapsed, code,
    output) per request and the wall time less the seconds `between`
    reports it spent before requests.  An output equal to the first one for
    its request is kept as None, so memory holds one report each."""
    results, first = [], {}
    paused = 0.0
    start = time.perf_counter()
    while True:
        for index in order:
            if between is not None:
                paused += between()
            if on_request is not None:
                on_request(len(results))
            elapsed, code, out = client.call(requests[index].argv)
            if index not in first:
                first[index] = (code, out)
            elif first[index] == (code, out):
                out = None
            results.append((index, elapsed, code, out))
        if time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start - paused


class Checker:
    """Oracle verdict per request instance.  The first report of each
    request is checked; a repeat (output None) shares its verdict, and a
    report that differs from the first fails."""

    def __init__(self, requests):
        self.requests = requests
        self.first: dict[int, str | None] = {}
        self.reasons: Counter = Counter()

    def failed(self, index: int, code: int, out: str | None) -> bool:
        if index not in self.first:
            reason = self.first[index] = self._check(index, code, out)
        elif out is None:
            reason = self.first[index]
        else:
            reason = "output differs from an earlier round"
        if reason is not None:
            self.reasons[reason] += 1
        return reason is not None

    def _check(self, index: int, code: int, out: str) -> str | None:
        req = self.requests[index]
        if code in (2, 3):
            return f"exit code {code}"
        if code != req.code:
            return f"exit code {code}, expected {req.code}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "report is not JSON"
        if report.get("verdict") != req.verdict:
            return f"verdict {report.get('verdict')}, expected {req.verdict}"
        try:
            return req.check(report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"oracle could not read the report: {exc!r}"


def mix_shares(requests, results) -> dict:
    """Shares of requests and of request time per n and per verdict path."""
    count = {"n": Counter(), "path": Counter()}
    spent = {"n": Counter(), "path": Counter()}
    for index, elapsed, _, _ in results:
        req = requests[index]
        for key, value in (("n", f"n{req.n}"), ("path", req.path)):
            count[key][value] += 1
            spent[key][value] += elapsed
    total_n = len(results)
    total_s = sum(r[1] for r in results)
    return {
        key: {
            value: {
                "requests": round(count[key][value] / total_n, 4),
                "time": round(spent[key][value] / total_s, 4),
            }
            for value in sorted(count[key])
        }
        for key in count
    }


def end_to_end(results, wall, failed, setup) -> tuple[dict, str]:
    times = sorted(r[1] for r in results)
    n = len(times)
    # highest percentile with at least TAIL_BEYOND samples beyond it; a run
    # too short to have one reports its median
    rank = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    percentile = 100.0 * (rank + 1) / n
    values = {
        "request_p50_s": statistics.median(times),
        "request_tail_s": times[rank],
        "requests_per_s": (n - failed) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    note = (
        f"samples {n}; tail is p{percentile:.2f} "
        f"({n - rank - 1} samples beyond it); "
        f"failed_ratio {failed / n:.6f} ({failed}/{n}); "
        f"setup_s is the median of {len(setup)} probes"
    )
    return values, note


def per_layer(tracer, traced, untraced) -> dict:
    """Per-request means over the traced rounds, by metric name."""
    self_s, calls, roots = tracer.totals()
    count = len(traced)
    values = {f"{label}.self_s": total / count for label, total in self_s.items()}
    values.update(
        (f"{label}.calls", total / count) for label, total in calls.items()
    )
    values.update(
        (name, total / count) for name, total in tracer.observed.items()
    )
    layers: Counter = Counter()
    for label, total in self_s.items():
        layers[label.split(".")[0]] += total
    for layer, total in layers.items():
        values[f"layer.{layer}.self_s"] = total / count
    traced_wall = sum(r[1] for r in traced)
    values["untraced_s"] = (traced_wall - sum(roots.values())) / count
    values["trace_overhead_ratio"] = (traced_wall / count) / (
        sum(r[1] for r in untraced) / len(untraced)
    )
    return values


def known_metric(name: str, labels: set[str]) -> bool:
    """A per-layer metric name that some wrapper or summary can produce."""
    if name in ("untraced_s", "trace_overhead_ratio"):
        return True
    label, _, suffix = name.rpartition(".")
    if label.startswith("layer."):
        return label[len("layer."):] in tracing.LAYERS + ("numpy",)
    return label in labels and suffix in ("self_s", "calls", "grid_points")


def traced_run(client, requests, order, seconds):
    """One untraced round, then traced rounds for the rest of the time."""
    untraced, untraced_wall = run_rounds(client, requests, order, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stale = tracer.stale_bindings()
        traced, wall = run_rounds(
            client, requests, order, max(seconds - untraced_wall, 0),
            on_request=lambda i: setattr(tracer, "request", i),
        )
    finally:
        tracer.uninstall()
    return tracer, stale, untraced, traced, wall


def trace_report(tracer, stale, untraced, traced, spec, required, bypassed):
    """Per-layer values, the self-check verdict and the lines explaining
    them.  `required` functions must record calls; `bypassed` layers must
    not."""
    values = per_layer(tracer, traced, untraced)
    unknown = [
        m["name"] for m in spec["per_layer"]
        if not known_metric(m["name"], tracer.labels)
    ]
    if unknown:
        _fail(f"BENCHMARK.json names metrics no wrapper produces: {unknown}")
    missing = [
        label for label in required if not values.get(f"{label}.calls")
    ]
    reached = [
        name for name, value in values.items()
        if name.endswith(".calls") and value
        and name.split(".")[0] in bypassed
    ]
    traced_wall = sum(r[1] for r in traced)
    top = sorted(
        (kv for kv in tracer.inclusive().items() if kv[0] != "cli.main"),
        key=lambda kv: -kv[1],
    )[:8]
    lines = [
        f"# coverage: {len(tracer.spans)} spans over {len(traced)} requests; "
        f"zero calls: {missing or 'none'}; "
        f"stale bindings: {stale or 'none'}; "
        f"bypassed layers reached: {reached or 'none'}",
        "# inclusive share of traced request time: " + ", ".join(
            f"{label} {total / traced_wall:.1%}" for label, total in top
        ),
    ]
    return values, not (missing or stale or reached), lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "cyclealg" / "cli.py").is_file():
        _fail(f"no cyclealg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cyclealg.cli
    import workloads

    if not Path(cyclealg.cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"cyclealg was imported from {cyclealg.cli.__file__}")
    if args.workload not in workloads.BUILDERS:
        _fail(f"unknown workload {args.workload!r}")

    if not args.trace:
        setup_probe()  # discarded: it may compile the package's bytecode
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        requests = workloads.BUILDERS[args.workload](rng, workdir)
        order = [int(i) for i in rng.permutation(len(requests))]
        client = Client(cyclealg.cli)
        # warm-up: one request per command, so lazy imports are done
        first_of = {}
        for index, req in enumerate(requests):
            first_of.setdefault(req.argv[0], index)
        for index in first_of.values():
            client.call(requests[index].argv)
        if args.trace:
            tracer, stale, untraced, results, wall = traced_run(
                client, requests, order, args.seconds
            )
        else:
            prober = SetupProber(SETUP_INTERVAL_S)
            results, wall = run_rounds(
                client, requests, order, args.seconds, between=prober
            )
        checker = Checker(requests)
        failed = sum(
            checker.failed(index, code, out)
            for index, _, code, out in results
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    lines = [
        f"# machine {json.dumps(machine(), sort_keys=True)}",
        f"# workload {args.workload} seed {args.seed}: "
        f"{len(results) // len(requests)} rounds of {len(requests)} "
        f"requests in {wall:.2f} s",
        f"# mix {json.dumps(mix_shares(requests, results))}",
    ]
    lines += [
        f"# FAILED x{times}: {reason}"
        for reason, times in checker.reasons.most_common()
    ]
    correct = failed == 0
    if args.trace:
        values, covered, more = trace_report(
            tracer, stale, untraced, results, spec,
            workloads.REQUIRED_CALLS[args.workload],
            workloads.BYPASSED_LAYERS[args.workload],
        )
        correct = correct and covered
        metrics_spec = spec["per_layer"]
    else:
        values, note = end_to_end(results, wall, failed, prober.samples)
        more = [f"# {note}"]
        metrics_spec = spec["end_to_end"]
    lines += more

    metrics = {}
    for metric in metrics_spec:
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        lines.append(f"{metric['name']:<52} {value:>16.6g} {metric['unit']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
