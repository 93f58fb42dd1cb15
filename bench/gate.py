"""Correctness checks on the files ``quantcord analyze`` wrote.

Everything here reads the output tree and the input CSV from disk and runs
outside the timed part of the benchmark.
"""

import csv
import glob
import hashlib
import json
import os

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def read_columns(path):
    """Numeric CSV columns by header name."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        values = np.array([[float(c) for c in row] for row in reader])
    return {name: values[:, j] for j, name in enumerate(header)}


def tree_digest(out_dir):
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def replicate_failures(out_dir):
    with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
        return sum(json.load(fh)["replicate_failures"].values())


def step1_fits(out_dir, data):
    """Each step-1 fit as (tau key, response, design, y, beta)."""
    rows = {}
    with open(os.path.join(out_dir, "step1_coefficients.csv"), encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows.setdefault((r["tau"], r["response"]), []).append(r)
    n = len(next(iter(data.values())))
    fits = []
    for (tau, response), terms in rows.items():
        X = np.column_stack([
            np.ones(n) if t["term"] == "intercept" else data[t["term"]] for t in terms])
        beta = np.array([float(t["estimate"]) for t in terms])
        fits.append((tau, response, X, data[response], beta))
    return fits


def quantile_property(fits):
    """Check #(r < 0) <= n*tau <= #(r <= 0) for every step-1 fit.

    The residuals are recomputed from the written coefficients, which
    round-trip exactly at 17 digits.  A residual within the rounding bound
    of ``y - X @ beta`` counts as zero: at an exact vertex the basis rows'
    residuals come out as a few ulps of either sign.  ``strict`` reports
    the same test with a literal zero.
    """
    out = []
    for tau, response, X, y, beta in fits:
        n, q = X.shape
        r = y - X @ beta
        zero = 4 * q * np.finfo(float).eps * (np.abs(y) + np.abs(X) @ np.abs(beta))
        n_tau = n * float(tau)

        def holds(below, at_most):
            return bool(below <= n_tau + 1e-9 and n_tau - 1e-9 <= at_most)

        below, at_most = int(np.sum(r < -zero)), int(np.sum(r <= zero))
        out.append({
            "tau": float(tau),
            "response": response,
            "below": below,
            "at_most": at_most,
            "ok": holds(below, at_most),
            "strict": holds(np.sum(r < 0), np.sum(r <= 0)),
        })
    return out


def phi_errors(out_dir, data, oracle_path):
    """Largest |phi_hat - oracle phi| per tau over every profile grid row.

    With a group-dependent correlation, a row's group is its grid value on
    the group profile and otherwise the held value, which for a binary
    covariate is its majority value in the data.
    """
    with open(oracle_path, encoding="utf-8") as fh:
        oracle = json.load(fh)["oracle"]
    group = oracle.get("group_column")
    if group is not None:
        g = data[group]
        held = "1" if np.count_nonzero(g == 1.0) * 2 > g.size else "0"
    worst = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "phi_profile_*.csv"))):
        with open(path, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if group is None:
                    truth = oracle["phi"][row["tau"]]
                else:
                    key = str(int(float(row["value"]))) if row["covariate"] == group else held
                    truth = oracle["groups"][key]["phi"][row["tau"]]
                err = abs(float(row["phi_hat"]) - truth)
                worst[float(row["tau"])] = max(worst.get(float(row["tau"]), 0.0), err)
    return worst


def lp_gap(fits):
    """Largest relative pinball-objective gap of the fits over the LP optimum.

    The reference is ``scipy.optimize.linprog(method="highs")`` on
    min tau*1'u + (1-tau)*1'v subject to X b + u - v = y, u, v >= 0.
    """
    worst = None
    for tau, _, X, y, beta in fits:
        tau = float(tau)
        n, q = X.shape
        r = y - X @ beta
        objective = float(np.sum(np.where(r > 0, tau * r, (tau - 1.0) * r)))
        eye = sparse.identity(n, format="csr")
        lp = linprog(
            np.concatenate([np.zeros(q), np.full(n, tau), np.full(n, 1.0 - tau)]),
            A_eq=sparse.hstack([sparse.csr_matrix(X), eye, -eye], format="csr"),
            b_eq=y,
            bounds=[(None, None)] * q + [(0.0, None)] * (2 * n),
            method="highs",
        )
        if lp.status != 0:
            raise RuntimeError(f"reference LP failed at tau={tau}: {lp.message}")
        gap = (objective - lp.fun) / lp.fun
        worst = gap if worst is None else max(worst, gap)
    return worst
