"""Invariant suite: verdict stability, tolerance attribution, determinism."""

from __future__ import annotations

import json

from cyclealg import suite
from cyclealg.derivations import check_leibniz, relation_residual
from cyclealg.suite import SuiteConfig, run_suite, summarize

ROW_FIELDS = {
    "name",
    "passed",
    "metric",
    "threshold",
    "comparator",
    "tolerance_sensitive",
    "tolerance_induced",
    "detail",
}

ROW_NAMES = [
    "generator_relations",
    "rep_multiplicative",
    "kernel_membership",
    "leibniz_inner",
    "leibniz_derivative",
    "relations_inner",
    "relations_derivative",
    "inner_recovery",
    "derivative_non_inner",
    "center_arrows_outer",
    "inner_kernel_vanishing",
    "scalar_point_rigidity",
    "kernel_square",
    "boundary_identity",
    "boundary_derivative_unbounded",
    "semisimplicity",
    "localized_inner",
    "reconstruction_roundtrip",
    "reconstruction_rejects",
    "zero_split",
]


def test_default_suite_is_green():
    rows = run_suite(SuiteConfig())
    summary = summarize(rows)
    assert summary["ok"], summary["failed"]
    assert summary["failed"] == []
    assert summary["tolerance_induced"] == []
    assert summary["total"] == len(rows) >= 20


def test_raising_check_reports_null_metric(monkeypatch):
    # a check that raises is a failed row whose metric is null, so the
    # report stays valid JSON
    def broken(cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(suite, "_CHECKS", [("broken", broken, False)])
    (row,) = run_suite(SuiteConfig())
    assert row["metric"] is None and not row["passed"]
    assert row["error"] == "ZeroDivisionError: boom"
    json.dumps(row, allow_nan=False)


def test_rows_are_well_formed():
    for row in run_suite(SuiteConfig(seed=2)):
        assert ROW_FIELDS.issubset(row.keys())
        assert row["comparator"] in ("<=", ">=")
        assert isinstance(row["passed"], bool)


def test_verdicts_are_seed_invariant():
    a = {r["name"]: r["passed"] for r in run_suite(SuiteConfig(seed=1))}
    b = {r["name"]: r["passed"] for r in run_suite(SuiteConfig(seed=9))}
    assert a == b


def test_repeat_runs_are_bit_identical():
    rows1 = run_suite(SuiteConfig(seed=4))
    rows2 = run_suite(SuiteConfig(seed=4))
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows2, sort_keys=True)


def test_strict_tolerance_failures_are_attributed():
    # an unreachable tolerance must fail some checks and each such failure
    # must be flagged as induced by the tolerance choice, not the library
    rows = run_suite(SuiteConfig(tol_inner=1e-20))
    summary = summarize(rows)
    assert not summary["ok"]
    assert summary["failed"]
    assert set(summary["failed"]) == set(summary["tolerance_induced"])
    by_name = {r["name"]: r for r in rows}
    for name in summary["failed"]:
        assert by_name[name]["tolerance_sensitive"]


def test_row_names_are_frozen():
    # each row states one of the paper's results; the ring and product
    # invariants of the library are left to the unit tests
    assert [name for name, _, _ in suite._CHECKS] == ROW_NAMES


def test_rigidity_verdicts_agree_with_sampled_leibniz():
    # the rigidity row decides each draw on the 3n^2 relations; sampling
    # random element pairs, the independent oracle, reaches the same verdict
    draws = suite._rigidity_draws(SuiteConfig())
    assert len(draws) == 200
    for D in draws:
        exact, _ = relation_residual(D)
        sampled = check_leibniz(D.apply, D.point, D.n, trials=10, seed=0)
        assert (exact >= 1e-3) == (sampled >= 1e-3), (exact, sampled)
