"""End-to-end CLI behavior: verdicts, exit codes, determinism, formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclealg
from cyclealg import __version__
from cyclealg.algebra import (
    gen_Z,
    gen_e,
    identity,
    monomial_elem,
    random_element,
    zero,
)
from cyclealg.cli import _COMMANDS, _build_parser, _dumps, main
from cyclealg.derivations import F_point_derivation, GenDerivation
from cyclealg.reconstruction import GlobalDerivation, solve_boundary_field
from cyclealg.representations import DiagZero, Lambda
from cyclealg.algebra import generators


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inner_data(n=2, lam=0.4, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GenDerivation.from_commutator(Lambda(lam), X, n).to_json()


def derivative_data(n=2, lam=0.5):
    es, Zs = generators(n)
    D = GenDerivation(
        Lambda(lam),
        tuple(F_point_derivation(lam, e) for e in es),
        tuple(F_point_derivation(lam, Z) for Z in Zs),
    )
    return D.to_json()


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def test_eval_command(tmp_path, capsys):
    doc = {
        "element": gen_Z(2, 1).to_json(),
        "point": {"kind": "lambda", "re": 0.5, "im": 0.0},
    }
    code, out, _ = run(capsys, ["eval", "--input", write(tmp_path, "in.json", doc)])
    assert code == 0
    report = json.loads(out)
    assert report["version"] == __version__
    assert report["config"]["command"] == "eval"
    # row-major [re, im] pairs: z evaluates to 0.5 at the arrow slot
    assert report["matrix"] == [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_eval_requires_both_keys(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"element": gen_e(2, 1).to_json()})
    code, _, err = run(capsys, ["eval", "--input", path])
    assert code == 2
    assert "point" in err


@pytest.mark.parametrize(
    "field, bad",
    [
        ("re", float("nan")),
        ("im", float("inf")),
        ("element", float("nan")),
        ("element", float("-inf")),
    ],
)
def test_eval_rejects_non_finite_input(tmp_path, capsys, field, bad):
    # json reads NaN and Infinity tokens; they must stop at the boundary
    # instead of flowing into a report that is no longer valid JSON
    element = gen_e(2, 1).to_json()
    point = {"kind": "lambda", "re": 0.5, "im": 0.0}
    if field == "element":
        element["entries"][0][0][0][1] = bad
    else:
        point[field] = bad
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"element": element, "point": point}))
    code, out, err = run(capsys, ["eval", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


def test_non_finite_derivation_and_lambda_rejected(tmp_path, capsys):
    doc = inner_data()
    doc["values_Z"][1][2][0] = float("nan")
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["inner-check", "--input", str(path)])
    assert code == 2 and "finite" in err
    path.write_text(
        json.dumps({"lambda": [float("nan"), 0.0], "n": 1, "k_values": [4]})
    )
    code, _, err = run(capsys, ["approx-identity", "--input", str(path)])
    assert code == 2 and "boundary" in err
    code, _, err = run(capsys, ["suite", "--tol-inner", "nan"])
    assert code == 2 and "finite" in err


@pytest.mark.parametrize(
    "bad", [True, "0.5", 10**400, float("inf")],
    ids=["bool", "string", "huge-int", "inf"],
)
@pytest.mark.parametrize(
    "where", ["coefficient", "point", "matrix-entry", "lambda"]
)
def test_bad_numbers_are_input_errors(tmp_path, capsys, where, bad):
    # every [re, im] part a command reads goes through one number reader
    if where == "coefficient":
        element = gen_e(2, 1).to_json()
        element["entries"][0][0][0] = [bad, 0.0]
        point = {"kind": "lambda", "re": 0.5, "im": 0.0}
        argv, doc = ["eval"], {"element": element, "point": point}
    elif where == "point":
        point = {"kind": "lambda", "re": bad, "im": 0.0}
        element = gen_e(2, 1).to_json()
        argv, doc = ["eval"], {"element": element, "point": point}
    elif where == "matrix-entry":
        doc = inner_data()
        doc["values_Z"][0][1] = [0.0, bad]
        argv = ["inner-check"]
    else:
        doc = {"lambda": [bad, 0.0], "n": 2, "k_values": [4]}
        argv = ["approx-identity"]
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, argv + ["--input", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


def test_boolean_lambda_is_not_the_point_one(tmp_path, capsys):
    doc = {"lambda": [True, False], "n": 2, "k_values": [4]}
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2 and out == ""
    assert "boundary point lambda must be a finite number" in err


# ----------------------------------------------------------------------
# inner-check
# ----------------------------------------------------------------------


def test_inner_check_inner_verdict(tmp_path, capsys):
    path = write(tmp_path, "in.json", inner_data())
    code, out, _ = run(capsys, ["inner-check", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "inner"
    assert report["residual"] <= 1e-9
    assert "X" in report


def test_inner_check_not_inner_verdict(tmp_path, capsys):
    path = write(tmp_path, "in.json", derivative_data())
    code, out, _ = run(capsys, ["inner-check", "--input", path])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "not_inner"
    assert report["kernel_witness_norm"] > 1e-3
    assert "kernel_witness" in report


def test_inner_check_indeterminate_on_non_derivation(tmp_path, capsys):
    doc = {
        "point": {"kind": "lambda", "re": 0.3, "im": 0.0},
        "values_e": [[[1.0, 0.0]] * 4, [[0.0, 0.0]] * 4],
        "values_Z": [[[1.0, 0.0]] * 4, [[1.0, 0.0]] * 4],
    }
    path = write(tmp_path, "in.json", doc)
    code, out, _ = run(capsys, ["inner-check", "--input", path])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "indeterminate"
    assert report["leibniz_residual"] > 1e-6


def test_inner_check_gate_does_not_depend_on_seed(tmp_path, capsys):
    # the Leibniz gate reads the 3n^2 defining relations, not random
    # element pairs, so only the echoed seed differs between the reports
    path = write(tmp_path, "in.json", inner_data(n=3, lam=0.4 + 0.1j))
    code, out0, _ = run(capsys, ["inner-check", "--input", path])
    assert code == 0
    code, out7, _ = run(
        capsys, ["inner-check", "--input", path, "--seed", "7"]
    )
    assert code == 0
    assert '"seed": 7' in out7
    assert out7.replace('"seed": 7', '"seed": 0') == out0
    report = json.loads(out0)
    assert report["verdict"] == "inner"
    assert report["leibniz_residual"] == 0.0
    assert report["leibniz_relation"] == "e_0 e_0 = e_0"


def test_inner_check_names_the_broken_relation(tmp_path, capsys):
    # at the character of vertex 1 (0-based) of the 2-cycle the arrow Z_1
    # leaves vertex 1 and enters vertex 0, so Z_1 e_0 = Z_1 demands
    # D(Z_1) = D(Z_1) phi(e_0) = 0; the report names that relation
    zero_vals = [[[0.0, 0.0]]] * 2
    doc = {
        "point": {"kind": "diag0", "i": 2},
        "values_e": zero_vals,
        "values_Z": [[[0.0, 0.0]], [[0.25, 0.0]]],
    }
    code, out, _ = run(
        capsys, ["inner-check", "--input", write(tmp_path, "in.json", doc)]
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "indeterminate"
    assert report["leibniz_residual"] == pytest.approx(0.25, rel=1e-15)
    assert report["leibniz_relation"] == "Z_1 e_0 = Z_1"


def test_inner_check_split_at_center(tmp_path, capsys):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    D0 = GenDerivation.from_commutator(Lambda(0.0), X, 2)
    arrows = [v.copy() for v in D0.values_Z]
    arrows[0][0, 1] += 0.3
    D = GenDerivation(Lambda(0.0), D0.values_e, tuple(arrows))
    path = write(tmp_path, "in.json", D.to_json())
    code, out, _ = run(capsys, ["inner-check", "--split", "--input", path])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "not_inner"
    assert report["split"]["kind"] == "center"
    assert report["split"]["d0_consistent"]


def test_inner_check_diag0(tmp_path, capsys):
    zero_vals = [[[0.0, 0.0]]] * 2
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "values_e": zero_vals,
        "values_Z": zero_vals,
    }
    code, out, _ = run(
        capsys, ["inner-check", "--input", write(tmp_path, "a.json", doc)]
    )
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "inner"
    assert report["X"] == [[0.0, 0.0]] and report["residual"] == 0.0
    assert report["normalization"] == "X[1,1] = 0"
    # d/dz at the origin over n = 1: a genuine non-inner derivation; --split
    # applies at lambda points only
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "values_e": [[[0.0, 0.0]]],
        "values_Z": [[[1.0, 0.0]]],
    }
    path = write(tmp_path, "b.json", doc)
    code, out, _ = run(capsys, ["inner-check", "--split", "--input", path])
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "not_inner"
    assert report["residual"] == 1.0 and "kernel_witness" in report
    assert "split" not in report


# ----------------------------------------------------------------------
# reconstruct
# ----------------------------------------------------------------------


def test_reconstruct_from_derivation(tmp_path, capsys):
    doc = GlobalDerivation.from_commutator(gen_Z(2, 1)).to_json()
    path = write(tmp_path, "in.json", doc)
    code, out, _ = run(
        capsys, ["reconstruct", "--input", path, "--grid", "32", "--deg-max", "8"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "inner"
    assert report["verify_residual"] <= 1e-8
    assert report["witness"]["n"] == 2


def test_reconstruct_rejects_non_derivation(tmp_path, capsys):
    doc = GlobalDerivation(1, (zero(1),), (identity(1),)).to_json()
    path = write(tmp_path, "in.json", doc)
    code, out, _ = run(capsys, ["reconstruct", "--input", path, "--grid", "16"])
    assert code == 1
    assert json.loads(out)["verdict"] == "not_locally_inner"


def test_reconstruct_grid_too_small_is_input_error(tmp_path, capsys):
    # inner data of entry degree 9 over n = 2 needs 20 grid points; on 16 it
    # aliases, so the command must refuse it as input instead of reporting
    # a failed verification
    rng = np.random.default_rng(0)
    D = GlobalDerivation.from_commutator(random_element(2, rng, deg=8))
    needed = 2 * (D.value_degree + 1)
    assert needed > 16
    path = write(tmp_path, "in.json", D.to_json())
    code, out, err = run(capsys, ["reconstruct", "--input", path, "--grid", "16"])
    assert code == 2
    assert out == ""
    assert "GridTooSmall" in err and f"{needed} points" in err
    code, out, _ = run(
        capsys, ["reconstruct", "--input", path, "--grid", str(needed)]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "inner"


def test_reconstruct_degree_over_cap_is_degree_overflow(tmp_path, capsys):
    # the default grid follows the data, so data of degree 13 over n = 2
    # with --deg-max 1 is solved on 28 points and refused for its witness
    # degree, not for a grid the caller never chose
    rng = np.random.default_rng(1)
    D = GlobalDerivation.from_commutator(random_element(2, rng, deg=12))
    assert D.value_degree > 4 * 1 + 7
    path = write(tmp_path, "in.json", D.to_json())
    code, out, err = run(
        capsys, ["reconstruct", "--input", path, "--deg-max", "1"]
    )
    assert code == 2
    assert out == ""
    assert "DegreeOverflow" in json.loads(err)["error"]
    assert "GridTooSmall" not in err


def test_reconstruct_verifies_long_residual_on_resolving_grid(
    tmp_path, capsys, monkeypatch
):
    # 0.5 (w^64 - 1) at (1, 1) vanishes at all 512 default verification
    # points at n = 8; a witness off by it must read verify_failed, neither
    # pass nor exit as an input error
    import cyclealg.cli as cli

    rng = np.random.default_rng(74)
    n = 8
    X0 = random_element(n, rng, deg=4)
    D = GlobalDerivation.from_commutator(X0)
    bump = (monomial_elem(n, 1, 1, 64) - monomial_elem(n, 1, 1, 0)) * 0.5
    monkeypatch.setattr(
        cli, "reconstruct_witness", lambda field, deg_max: X0 + bump
    )
    path = write(tmp_path, "in.json", D.to_json())
    code, out, _ = run(capsys, ["reconstruct", "--input", path])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "verify_failed"
    assert report["verify_residual"] > 0.99


def test_reconstruct_from_field_payload(tmp_path, capsys):
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    field = solve_boundary_field(D, m=16)
    path = write(tmp_path, "field.json", field.to_json())
    code, out, _ = run(capsys, ["reconstruct", "--input", path])
    assert code == 0
    assert json.loads(out)["source"] == "field"


def test_reconstruct_verifies_generator_equations(tmp_path, capsys):
    # the verification is the 2n generator equations, so it reports their
    # count and no longer depends on --seed
    rng = np.random.default_rng(3)
    doc = GlobalDerivation.from_commutator(random_element(3, rng, deg=3))
    path = write(tmp_path, "in.json", doc.to_json())
    reports = []
    for seed in ("0", "9"):
        code, out, _ = run(
            capsys, ["reconstruct", "--input", path, "--seed", seed]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verify_equations"] == 6
        del report["config"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_reconstruct_field_rejects_non_finite_residual(tmp_path, capsys, bad):
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    text = json.dumps(solve_boundary_field(D, m=16).to_json())
    doc = json.loads(text)
    doc["max_residual"] = float(bad.replace("Infinity", "inf"))
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert bad in path.read_text()
    code, out, err = run(capsys, ["reconstruct", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "max_residual must be finite" in err


@pytest.mark.parametrize(
    "bad", [True, "1", -1.0, 10**400],
    ids=["bool", "string", "negative", "huge-int"],
)
def test_reconstruct_field_reads_max_residual_strictly(tmp_path, capsys, bad):
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    doc = solve_boundary_field(D, m=16).to_json()
    doc["max_residual"] = bad
    path = write(tmp_path, "field.json", doc)
    code, out, err = run(capsys, ["reconstruct", "--input", path])
    assert code == 2
    assert out == ""
    assert "max_residual" in json.loads(err)["error"]


def test_reconstruct_corrupted_field_names_entry(tmp_path, capsys):
    D = GlobalDerivation.from_commutator(gen_Z(2, 1))
    field = solve_boundary_field(D, m=16)
    doc = field.to_json()
    bumped = np.array(doc["X_at"][3], dtype=float)
    bumped[0] += 0.37
    doc["X_at"][3] = bumped.tolist()
    path = write(tmp_path, "field.json", doc)
    code, _, err = run(capsys, ["reconstruct", "--input", path])
    assert code == 2
    assert "NotInAlgebra" in err and "entry" in err


def _arrow_commutator():
    return GlobalDerivation.from_commutator(gen_Z(2, 1))


def _field_doc():
    return solve_boundary_field(_arrow_commutator(), m=16).to_json()


@pytest.mark.parametrize(
    "command, key, bad",
    [
        ("inner-check", "values_e", 5),
        ("inner-check", "values_Z", [[["a", 0]]] * 2),
        ("inner-check", "point", [0.5]),
        ("inner-check", "point", {"kind": "lambda", "re": True}),
        ("inner-check", "point", {"kind": "lambda", "re": "0.5"}),
        ("reconstruct", "values_e", 7),
        ("reconstruct", "X_at", 3),
    ],
)
def test_malformed_derivation_and_field_json_is_input_error(
    tmp_path, capsys, command, key, bad
):
    if key == "X_at":
        doc = _field_doc()
    elif command == "reconstruct":
        doc = _arrow_commutator().to_json()
    else:
        doc = inner_data()
    doc[key] = bad
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize(
    "command, doc",
    [
        ("approx-identity", {"lambda": [1.0, 0.0], "n": 1, "k_values": [2]}),
        ("suite", {}),
        ("reconstruct", _arrow_commutator().to_json()),
    ],
)
@pytest.mark.parametrize("grid", ["0", "-4"])
def test_grid_below_one_rejected(tmp_path, capsys, command, doc, grid):
    # approx-identity and suite took a zero grid for the default while the
    # report's config still said 0
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, [command, "--grid", grid, "--input", path])
    assert code == 2
    assert out == ""
    assert "grid" in json.loads(err)["error"]


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------


def test_suite_passes_and_is_deterministic(tmp_path, capsys):
    code1, out1, _ = run(capsys, ["suite", "--seed", "5"])
    code2, out2, _ = run(capsys, ["suite", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["summary"]["ok"]
    assert report["summary"]["failed"] == []
    assert len(report["rows"]) == report["summary"]["total"]


def test_suite_csv(capsys):
    code, out, _ = run(capsys, ["suite", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert "name" in header and "passed" in header and "metric" in header


# ----------------------------------------------------------------------
# approx-identity
# ----------------------------------------------------------------------


def test_approx_identity_command(tmp_path, capsys):
    doc = {"lambda": [1.0, 0.0], "n": 2, "k_values": [4, 16, 64]}
    path = write(tmp_path, "in.json", doc)
    code, out, _ = run(capsys, ["approx-identity", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["monotone_and_bounded"]
    worsts = [row["worst_residual"] for row in report["rows"]]
    assert worsts == sorted(worsts, reverse=True)
    assert worsts[-1] == pytest.approx(0.151044, abs=1e-4)


@pytest.mark.parametrize("k_values", [[4, 2.5], [0], [-3], [4, "16"]])
def test_approx_identity_rejects_bad_k(tmp_path, capsys, k_values):
    doc = {"lambda": [1.0, 0.0], "n": 2, "k_values": k_values}
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2
    assert out == ""
    assert "malformed approx-identity input: k must be" in err


def test_approx_identity_rejects_element_outside_the_kernel(
    tmp_path, capsys
):
    # the identity is 1 at lambda = 1; every residual read 1.0 and the
    # ladder passed with exit 0
    doc = {
        "lambda": [1.0, 0.0],
        "n": 2,
        "k_values": [4, 16],
        "kernel_elements": [identity(2).to_json()],
    }
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert "kernel element 0 is not in the kernel" in message
    assert "1.000e+00" in message


def test_approx_identity_names_the_element_outside_the_kernel(
    tmp_path, capsys
):
    z = gen_e(2, 1).to_json()
    z["entries"][0][0] = [[-1.0, 0.0], [1.0, 0.0]]  # w - 1, in the kernel
    doc = {
        "lambda": [1.0, 0.0],
        "n": 2,
        "k_values": [4],
        "kernel_elements": [z, gen_e(2, 2).to_json()],
    }
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2 and out == ""
    assert "kernel element 1 is not in the kernel" in err


def test_approx_identity_rejects_element_of_other_size(tmp_path, capsys):
    element = zero(1).to_json()
    element["entries"][0][0] = [[-1.0, 0.0], [1.0, 0.0]]  # w - 1
    doc = {
        "lambda": [1.0, 0.0],
        "n": 2,
        "k_values": [4],
        "kernel_elements": [element],
    }
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2 and out == ""
    assert "DimensionMismatch" in err


def test_approx_identity_rejects_interior_point(tmp_path, capsys):
    doc = {"lambda": [0.5, 0.0], "n": 2, "k_values": [4]}
    path = write(tmp_path, "in.json", doc)
    code, _, err = run(capsys, ["approx-identity", "--input", path])
    assert code == 2
    assert "boundary" in err


@pytest.mark.parametrize("grid", ["1", "2"])
def test_approx_identity_rejects_a_grid_that_reads_nothing(
    tmp_path, capsys, grid
):
    # every point of these grids has z**2 = 1 = lambda**2, where the kernel
    # elements and h_k - 1 vanish: each residual read 0.0 with exit 0
    doc = {"lambda": [1, 0], "n": 2, "k_values": [1, 4096]}
    path = write(tmp_path, "in.json", doc)
    argv = ["approx-identity", "--input", path, "--grid", grid]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "GridTooSmall" in err and "3 points" in err
    argv[-1] = "3"
    code, out, _ = run(capsys, argv)
    report = json.loads(out)
    assert min(min(row["residuals"]) for row in report["rows"]) > 0


def test_approx_identity_n1_reports_each_kernel_element_once(tmp_path, capsys):
    doc = {"lambda": [0.6, 0.8], "n": 1, "k_values": [4, 64]}
    path = write(tmp_path, "in.json", doc)
    code, out, _ = run(capsys, ["approx-identity", "--input", path])
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert len(row["residuals"]) == 2
        assert row["residuals"][0] != row["residuals"][1]


# ----------------------------------------------------------------------
# semisimple
# ----------------------------------------------------------------------


def test_semisimple_verdicts(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["semisimple", "--input", write(tmp_path, "z.json", zero(2).to_json())],
    )
    assert code == 0 and json.loads(out)["verdict"] == "zero"
    code, out, _ = run(
        capsys,
        [
            "semisimple",
            "--input",
            write(tmp_path, "nz.json", {"element": gen_Z(2, 1).to_json()}),
        ],
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "nonzero" and "witness" in report


def test_semisimple_grid_ignores_deg_max(tmp_path, capsys):
    # the grid n (d + 2) is sized by the element's own degree d; --deg-max
    # is parsed, validated and echoed, and changes nothing else
    for name, elem in (("z", zero(2)), ("nz", monomial_elem(3, 1, 3, 1))):
        path = write(tmp_path, f"{name}.json", elem.to_json())
        reports = [
            json.loads(run(capsys, ["semisimple", *extra, "--input", path])[1])
            for extra in ([], ["--deg-max", "40"])
        ]
        assert reports[1]["config"].pop("deg_max") == 40
        reports[0]["config"].pop("deg_max")
        assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# kernel-witness
# ----------------------------------------------------------------------


def test_kernel_witness_verdicts(tmp_path, capsys):
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "element": monomial_elem(2, 1, 2, 0).to_json(),
        "budget": 2,
    }
    code, out, _ = run(
        capsys, ["kernel-witness", "--input", write(tmp_path, "a.json", doc)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "decomposed" and report["pairs"]
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "element": monomial_elem(1, 1, 1, 1).to_json(),
        "budget": 2,
    }
    code, out, _ = run(
        capsys, ["kernel-witness", "--input", write(tmp_path, "b.json", doc)]
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "failure"


@pytest.mark.parametrize("budget", [-1, 2.7, "2", True, float("inf")])
def test_kernel_witness_rejects_bad_budget(tmp_path, capsys, budget):
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "element": monomial_elem(2, 1, 2, 0).to_json(),
        "budget": budget,
    }
    code, out, err = run(
        capsys, ["kernel-witness", "--input", write(tmp_path, "a.json", doc)]
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_kernel_witness_accepts_integral_float_budget(tmp_path, capsys):
    doc = {
        "point": {"kind": "diag0", "i": 1},
        "element": monomial_elem(2, 1, 2, 0).to_json(),
        "budget": 2.0,
    }
    code, out, _ = run(
        capsys, ["kernel-witness", "--input", write(tmp_path, "a.json", doc)]
    )
    assert code == 0
    assert json.loads(out)["budget"] == 2


def test_kernel_witness_needs_diag0_point(tmp_path, capsys):
    doc = {
        "point": {"kind": "lambda", "re": 0.0, "im": 0.0},
        "element": zero(2).to_json(),
    }
    code, _, err = run(
        capsys, ["kernel-witness", "--input", write(tmp_path, "a.json", doc)]
    )
    assert code == 2 and "diag0" in err


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{bad json")
    code, _, err = run(capsys, ["eval", "--input", str(path)])
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"x"', "null"])
@pytest.mark.parametrize("command", [c for c in _COMMANDS if c != "suite"])
def test_input_that_is_no_object_is_an_input_error(
    tmp_path, capsys, command, text
):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input must be a JSON object", "exit_code": 2
    }


def test_missing_input_flag(capsys):
    code, _, err = run(capsys, ["eval"])
    assert code == 2 and "--input" in err


def test_mismatched_n_flag(tmp_path, capsys):
    doc = {
        "element": gen_e(2, 1).to_json(),
        "point": {"kind": "lambda", "re": 0.0, "im": 0.0},
    }
    code, _, err = run(
        capsys, ["eval", "--n", "5", "--input", write(tmp_path, "a.json", doc)]
    )
    assert code == 2 and "does not match" in err


def test_csv_rejected_for_scalar_reports(tmp_path, capsys):
    doc = {
        "element": gen_e(2, 1).to_json(),
        "point": {"kind": "lambda", "re": 0.0, "im": 0.0},
    }
    path = write(tmp_path, "a.json", doc)
    code, _, err = run(capsys, ["eval", "--format", "csv", "--input", path])
    assert code == 2 and "csv" in err


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["suite", "--output", str(out_path)])
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["summary"]["ok"]


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    # an OSError on writing the report ended in a traceback and exit 1,
    # the code of a negative verdict
    element = gen_Z(2, 1).to_json()
    doc = {"element": element, "point": {"kind": "diag0", "i": 1}}
    path = write(tmp_path, "in.json", doc)
    target = str(tmp_path / "missing" / "out.json")
    code, out, err = run(capsys, ["eval", "--input", path, "--output", target])
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["exit_code"] == 2
    assert error["error"].startswith("cannot write output: ")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("reconstruct", _arrow_commutator().to_json()),
        ("semisimple", zero(2).to_json()),
        ("suite", {}),
    ],
)
def test_negative_deg_max_rejected(tmp_path, capsys, command, doc):
    # reconstruct blamed the grid, semisimple ignored the flag
    path = write(tmp_path, "in.json", doc)
    code, out, err = run(capsys, [command, "--deg-max", "-3", "--input", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "deg-max must be >= 0"


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -1e308, 0.1]),
)
LEAVES = st.one_of(
    FLOATS,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\n\t\x1f", "\u00e9\u221a\U0001f600"]),
    st.lists(FLOATS),
    st.lists(st.lists(FLOATS, min_size=2, max_size=2)),
    st.lists(st.tuples(FLOATS, FLOATS)),
)
JSON_TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(st.text(), kids),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_dumps_matches_json_dumps(obj):
    expected = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    assert _dumps(obj) == expected


@pytest.mark.parametrize(
    "obj",
    [
        float("nan"),
        float("inf"),
        np.float64("-inf"),
        [0.5, float("nan")],
        [[0.5, 1.0], [float("-inf"), 0.0]],
        {"a": [1.0, 2], "b": {"c": float("inf")}},
        ("x", [float("nan"), float("inf")]),
    ],
)
def test_dumps_rejects_non_finite_floats_as_json_dumps_does(obj):
    with pytest.raises(ValueError) as expected:
        json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        _dumps(obj)
    assert str(got.value) == str(expected.value)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _fresh_report(argv):
    src = str(Path(cyclealg.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "cyclealg.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return done.returncode, done.stdout


def test_one_process_reports_match_fresh_processes(tmp_path, capsys):
    # the parser is shared by every call in a process: no option of one
    # request may reach the next one's report
    path = write(tmp_path, "in.json", inner_data(n=2, lam=0.4))
    runs = [
        ["inner-check", "--split", "--input", path],
        ["inner-check", "--input", path],
        ["inner-check", "--tol-inner", "1e-3", "--input", path],
        ["inner-check", "--input", path],
    ]
    in_process = [run(capsys, argv)[:2] for argv in runs]
    assert in_process[0][1] != in_process[1][1]
    assert in_process[2][1] != in_process[3][1]
    assert in_process == [_fresh_report(argv) for argv in runs]


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run(capsys, ["suite", "--tol-inner", "-1"])
    assert code == 2


SHARED_OPTIONS = [
    "--n", "2", "--deg-max", "5", "--grid", "8", "--tol-inner", "1e-6",
    "--seed", "3", "--input", "in.json", "--output", "out.json",
    "--format", "csv",
]


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("before", [False, True])
def test_every_command_takes_the_shared_options(command, before):
    argv = SHARED_OPTIONS + [command] if before else [command] + SHARED_OPTIONS
    args = _build_parser().parse_args(argv)
    assert vars(args) == {
        "command": command, "n": 2, "deg_max": 5, "grid": 8,
        "tol_inner": 1e-6, "seed": 3, "input": "in.json",
        "output": "out.json", "format": "csv", "split": False,
    }


@pytest.mark.parametrize(
    "argv",
    [["mystery"], [], ["--seed", "1"]]
    + [[c, "--split"] for c in _COMMANDS if c != "inner-check"],
)
def test_bad_command_lines_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if "--split" in argv:
        assert "unrecognized arguments: --split" in err


def test_split_is_an_inner_check_option():
    args = _build_parser().parse_args(["--split", "inner-check"])
    assert args.split and args.command == "inner-check"


def test_cli_import_leaves_suite_unloaded():
    # the suite is imported by its own command only, so every other
    # command's interpreter start does not pay for it
    code = "import sys, cyclealg.cli; print('cyclealg.suite' in sys.modules)"
    src = str(Path(cyclealg.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"
