"""Independent checks of CLI reports, computed from raw JSON with numpy.

Nothing here calls into cyclealg or reads a residual the program computed:
elements are rebuilt from their JSON coefficients and evaluated directly,
so a defect in the program's own verification cannot hide a wrong answer.

Conventions follow the CLI's JSON: an element is {"n", "entries"} with
entries[i][j] the ascending [re, im] coefficients of f_ij in w = z**n, and
the realized (i, j) entry is z**((j - i) % n) * f_ij(z**n).
"""

from __future__ import annotations

import numpy as np

# Relative residual a reconstructed or solved witness may leave in the
# commutator equations.  Float round-off on these sizes stays near 1e-13;
# a witness off by 1e-9 in its coefficients reads about 1e-9 and fails.
WITNESS_REL_TOL = 1e-10
# Absolute tolerance for values the program and the oracle both compute
# in float64 from the same coefficients.
VALUE_TOL = 1e-9
# The approximate-identity element has thousands of binomial coefficients
# below the 1e-9 storage trim; their sum bounds how far the reported grid
# norm may sit from the exact one.
NORM_F_TOL = 1e-5


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def element_tensor(doc: dict) -> np.ndarray:
    """(n, n, L) coefficient tensor of an element in the variable w."""
    n = int(doc["n"])
    rows = doc["entries"]
    L = max([len(p) for row in rows for p in row] + [1])
    out = np.zeros((n, n, L), dtype=complex)
    for i in range(n):
        for j in range(n):
            for d, pair in enumerate(rows[i][j]):
                out[i, j, d] = _c(pair)
    return out


def _steps(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


def evaluate(tensor: np.ndarray, lam: complex) -> np.ndarray:
    """Realized matrix of the element at z = lam."""
    n, _, L = tensor.shape
    powers = (lam**n) ** np.arange(L)
    return (tensor @ powers) * lam ** _steps(n)


def evaluate_derivative(tensor: np.ndarray, lam: complex) -> np.ndarray:
    """Entrywise z-derivative of the realized matrix at z = lam."""
    n, _, L = tensor.shape
    s = _steps(n)
    w = lam**n
    d = np.arange(L)
    f = tensor @ (w**d)
    fprime = tensor[:, :, 1:] @ (d[1:] * w ** (d[1:] - 1)) if L > 1 else 0
    ds = s * lam ** np.maximum(s - 1, 0)
    return ds * f + lam**s * n * lam ** (n - 1) * fprime


def diag0_value(tensor: np.ndarray, i: int) -> complex:
    """The character at DiagZero(i): constant term of entry (i, i)."""
    return complex(tensor[i - 1, i - 1, 0])


def generator_images(n: int, lam: complex) -> list[np.ndarray]:
    """phi(e_1..e_n) followed by phi(Z_1..Z_n) at Lambda(lam)."""
    out = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        out.append(E)
    for i in range(n):
        A = np.zeros((n, n), dtype=complex)
        A[i, (i + 1) % n] += lam
        out.append(A)
    return out


def matrix(flat) -> np.ndarray:
    values = np.array([_c(p) for p in flat], dtype=complex)
    k = int(round(len(values) ** 0.5))
    return values.reshape(k, k)


def point(doc: dict):
    """("lambda", value) or ("diag0", i) from a point JSON object."""
    if doc["kind"] == "lambda":
        return "lambda", complex(doc["re"], doc.get("im", 0.0))
    return "diag0", int(doc["i"])


def commutator_residual(
    values: list[np.ndarray], X: np.ndarray, lam: complex
) -> float:
    """max_g ||phi(g) X - X phi(g) - D(g)||_2 / max_g ||D(g)||_2."""
    n = X.shape[0]
    scale = max(float(np.linalg.norm(v, 2)) for v in values)
    err = max(
        float(np.linalg.norm(p @ X - X @ p - v, 2))
        for p, v in zip(generator_images(n, lam), values)
    )
    return err / scale if scale > 0 else err


# ----------------------------------------------------------------------
# per-command checks; each returns None when the report is right, else a
# one-line reason
# ----------------------------------------------------------------------


def check_reconstruct_inner(doc: dict, report: dict, lams) -> str | None:
    """Witness X must satisfy D(g) = g X - X g at the sampled points."""
    W = element_tensor(report["witness"])
    if W.shape[0] != int(doc["n"]):
        return "witness has the wrong size"
    gens = [element_tensor(v) for v in doc["values_e"] + doc["values_Z"]]
    worst = 0.0
    for lam in lams:
        X = evaluate(W, lam)
        values = [evaluate(g, lam) for g in gens]
        worst = max(worst, commutator_residual(values, X, lam))
    if not worst <= WITNESS_REL_TOL:
        return f"witness residual {worst:.3e} above {WITNESS_REL_TOL:g}"
    return None


def check_reconstruct_rejected(doc: dict, report: dict) -> str | None:
    """Fail-fast rejection at the first grid point, lambda = 1.

    The input's D(e_1) carries a diagonal entry, which no commutator
    [e_1, X] has, so the data is not inner at any point.
    """
    lam = complex(*report["lambda"])
    if abs(lam - 1.0) > 1e-12:
        return f"rejected at {lam}, not at the first grid point"
    d_e1 = evaluate(element_tensor(doc["values_e"][0]), lam)
    if abs(d_e1[0, 0]) < 1e-3:
        return "input was not moved off commutator form"
    return None


def check_inner(doc: dict, report: dict) -> str | None:
    kind, where = point(doc["point"])
    if kind == "diag0":
        return None
    values = [matrix(v) for v in doc["values_e"] + doc["values_Z"]]
    resid = commutator_residual(values, matrix(report["X"]), where)
    if not resid <= WITNESS_REL_TOL:
        return f"inner witness residual {resid:.3e}"
    return None


def check_not_inner_derivative(doc: dict, report: dict) -> str | None:
    """The kernel witness lies in the kernel and F does not vanish on it."""
    _, lam = point(doc["point"])
    if "kernel_witness" not in report:
        return "no kernel witness"
    K = element_tensor(report["kernel_witness"])
    scale = 1.0 + float(np.abs(K).sum())
    if np.abs(evaluate(K, lam)).max() > VALUE_TOL * scale:
        return "kernel witness is not in the kernel"
    if np.linalg.norm(evaluate_derivative(K, lam), 2) < 1e-6:
        return "derivation vanishes on the kernel witness"
    return None


def check_not_inner_diag0(doc: dict, report: dict) -> str | None:
    _, i = point(doc["point"])
    if "kernel_witness" not in report:
        return "no kernel witness"
    K = element_tensor(report["kernel_witness"])
    if abs(diag0_value(K, i)) > VALUE_TOL:
        return "kernel witness is not in the kernel"
    return None


def check_split(doc: dict, report: dict) -> str | None:
    split = report.get("split")
    if split is None:
        return "no split in report"
    _, lam = point(doc["point"])
    if lam == 0:
        if split["kind"] != "center" or not split["d0_consistent"]:
            return "center split is not inner on the vertex part"
        for got, want in zip(split["d1_values_Z"], doc["values_Z"]):
            if np.abs(matrix(got) - matrix(want)).max() > VALUE_TOL:
                return "center split changed the arrow values"
        return None
    if split["kind"] != "experiment":
        return "interior split is not reported as an experiment"
    if abs(complex(*split["lambda"]) - lam) > 1e-15:
        return "split reports another point"
    return None


def check_eval(doc: dict, report: dict) -> str | None:
    T = element_tensor(doc["element"])
    kind, where = point(doc["point"])
    if kind == "lambda":
        want = evaluate(T, where)
    else:
        want = np.array([[diag0_value(T, where)]])
    got = matrix(report["matrix"])
    if got.shape != want.shape:
        return "matrix has the wrong shape"
    err = float(np.abs(got - want).max())
    if err > VALUE_TOL * (1.0 + float(np.abs(want).max())):
        return f"matrix off by {err:.3e}"
    return None


def check_semisimple_nonzero(doc: dict, report: dict) -> str | None:
    witness = complex(*report["witness"])
    if abs(abs(witness) - 0.5) > 1e-12:
        return "witness point is off the radius-1/2 circle"
    if np.abs(evaluate(element_tensor(doc), witness)).max() <= 1e-10:
        return "element vanishes at the witness point"
    return None


def check_kernel_witness(doc: dict, report: dict, lams) -> str | None:
    """Sum of pair products equals the element; every factor is in the
    kernel of the character."""
    _, i = point(doc["point"])
    target = element_tensor(doc["element"])
    pairs = [
        (element_tensor(a), element_tensor(b)) for a, b in report["pairs"]
    ]
    for a, b in pairs:
        if abs(diag0_value(a, i)) > VALUE_TOL or abs(diag0_value(b, i)) > VALUE_TOL:
            return "a factor is not in the kernel"
    for lam in lams:
        want = evaluate(target, lam)
        got = sum(evaluate(a, lam) @ evaluate(b, lam) for a, b in pairs)
        err = float(np.abs(got - want).max())
        if err > 1e-8 * (1.0 + float(np.abs(want).max())):
            return f"products miss the element by {err:.3e}"
    return None


def check_approx_identity(doc: dict, report: dict) -> str | None:
    if not report.get("monotone_and_bounded"):
        return "not monotone and bounded"
    n = int(doc["n"])
    lam = complex(*doc["lambda"])
    ks = sorted(int(k) for k in doc["k_values"])
    rows = report["rows"]
    if [r["k"] for r in rows] != ks:
        return "rows do not cover the k ladder"
    grid = int(report["grid"])
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    base = (1.0 + np.conj(lam**n) * z**n) / 2.0
    prev = np.inf
    for row in rows:
        if not row["norm_F"] <= 2.0 + 1e-9:
            return f"norm_F {row['norm_F']} above 2 at k = {row['k']}"
        exact = float(np.abs(1.0 - base ** row["k"]).max())
        if abs(row["norm_F"] - exact) > NORM_F_TOL:
            return f"norm_F {row['norm_F']} but {exact} at k = {row['k']}"
        worst = max(row["residuals"])
        if worst > prev + 1e-12:
            return f"residual grows at k = {row['k']}"
        prev = worst
    if not rows[-1]["worst_residual"] < rows[0]["worst_residual"]:
        return "residuals do not decay along the ladder"
    return None
