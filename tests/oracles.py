"""Reference implementations that the tests check the package against."""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from quantcord.dataset import MISSING_TOKENS
from quantcord.exceptions import InvalidArgumentError, check_tau
from quantcord.multinomial import _loglik_terms


def pinball_loss(u, tau):
    """The check function: ``tau*u`` for u > 0, ``(tau - 1)*u`` otherwise,
    on a scalar or elementwise on an array."""
    u = np.asarray(u, dtype=float)
    out = np.where(u > 0, tau * u, (tau - 1.0) * u)
    return float(out) if out.ndim == 0 else out


def objective(fit, tau, weights=None):
    """A step-1 fit's objective ``sum(weights * check(residuals))``, with
    unit weights when None."""
    w = np.ones(fit.residuals.size) if weights is None else np.asarray(weights, dtype=float)
    return float(np.sum(w * pinball_loss(fit.residuals, tau)))


def oracle_phi_gaussian_mpmath(rho, tau, digits=40):
    """The Gaussian phi oracle's integral over theta in [0, asin(rho)], in
    ``digits``-digit arithmetic by mpmath's tanh-sinh quadrature.  It is
    taken from asin(rho) to 0 and negated; for rho < 0 it is split at
    theta = -pi/2 + u_0 2^k, u_0 = asin(rho) + pi/2, where the integrand
    turns toward 0."""
    import mpmath

    with mpmath.workdps(digits):
        rho, tau = mpmath.mpf(rho), mpmath.mpf(tau)
        z2 = 2 * mpmath.erfinv(2 * tau - 1) ** 2
        points = [mpmath.asin(rho)]
        while points[-1] < 0:
            points.append(min(2 * points[-1] + mpmath.pi / 2, 0))
        if rho >= 0:
            points.append(0)
        value = -mpmath.quad(lambda t: mpmath.exp(-z2 / (1 + mpmath.sin(t))), points)
        return float(value / (2 * mpmath.pi * tau * (1 - tau)))


def oracle_phi_gaussian_median_closed_form(rho):
    """Arcsine closed form at tau = 0.5, for cross-checking the quadrature."""
    return 2.0 * np.arcsin(rho) / np.pi


def limiting_cells(case, tau):
    """Cell probabilities, in code order, of the three limiting dependence
    patterns at fixed tau margins, in closed form: ``"independence"``,
    ``"max"`` (comonotone) and ``"min"`` (as discordant as the margins
    allow), where phi is 0, 1 and ``phi_bounds(tau).phi_min``."""
    check_tau(tau)
    if case == "independence":
        return np.array([(1 - tau) ** 2, tau**2, tau - tau**2, tau - tau**2])
    if case == "max":
        return np.array([1 - tau, tau, 0.0, 0.0])
    if case == "min":
        if tau <= 0.5:
            return np.array([1 - 2 * tau, 0.0, tau, tau])
        return np.array([0.0, 2 * tau - 1, 1 - tau, 1 - tau])
    raise InvalidArgumentError(f"unknown limiting case {case!r}")


def loglik_parts(gamma, X, Y):
    """Multinomial log-likelihood and the n x K probabilities, observations
    in rows, from the package's K x n kernel."""
    ll, probs, _ = _loglik_terms(gamma, X.T, Y.T, np.ones(len(X)))
    return ll, probs.T


def start_basis_row_by_row(X, r):
    """The solver's first basis by a full stable sort of |r| and one rank
    check per row: the first q rows that keep ``X[rows]`` full rank."""
    q = X.shape[1]
    rows = []
    for i in np.argsort(np.abs(r), kind="stable"):
        if np.linalg.matrix_rank(X[rows + [i]]) == len(rows) + 1:
            rows.append(int(i))
            if len(rows) == q:
                break
    return rows


def ratio_test_full_sort(r, rho, above, c, w, free, slope):
    """The solver's ratio test by a full sort of every blocking breakpoint."""
    block = np.flatnonzero(free & np.where(above, c > 0, c < 0))
    if block.size == 0:
        return None
    cb = c[block]
    t = r[block] / cb
    weight = w[block] * np.abs(cb)
    order = np.argsort(t)
    k = int(np.searchsorted(np.cumsum(weight[order]), -slope))
    stop = t[order[min(k, order.size - 1)]]
    tied = np.flatnonzero(t == stop)
    tied = tied[np.argsort(rho[block[tied]] / cb[tied], kind="stable")]
    k = int(np.searchsorted(np.cumsum(weight[tied]), -slope - np.sum(weight[t < stop])))
    return int(block[tied[min(k, tied.size - 1)]])


def ratio_test_tie_walk(r, rho, above, c, w, free, slope, head=32):
    """The solver's ratio test without its exit for a lone row at the
    stopping breakpoint: the rows there are always ordered by rho and walked."""
    block = np.flatnonzero(free & np.where(above, c > 0, c < 0))
    if block.size == 0:
        return None
    cb = c[block]
    t = r[block] / cb
    weight = w[block] * np.abs(cb)
    m = head
    while True:
        top = np.argpartition(t, m - 1)[:m] if m < t.size else np.arange(t.size)
        top = top[np.argsort(t[top])]
        k = int(np.searchsorted(np.cumsum(weight[top]), -slope))
        if k < top.size or top.size == t.size:
            break
        m *= 8
    stop = t[top[min(k, top.size - 1)]]
    tied = np.flatnonzero(t == stop)
    tied = tied[np.argsort(rho[block[tied]] / cb[tied], kind="stable")]
    k = int(np.searchsorted(np.cumsum(weight[tied]), -slope - np.sum(weight[t < stop])))
    return int(block[tied[min(k, tied.size - 1)]])


def _solve_exact(A, b):
    """x with ``A @ x == b`` in rationals, by Gauss-Jordan elimination on a
    square nonsingular ``A`` of Fractions."""
    q = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(q):
        piv = next(i for i in range(col, q) if M[i][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for i in range(q):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [a - f * p for a, p in zip(M[i], M[col])]
    return [M[i][q] / M[i][i] for i in range(q)]


def exact_certificate(X, y, tau, weights, basis, perturbation):
    """The smallest slack of step 1's optimality certificate at ``basis``,
    and the non-basis rows whose residual is exactly 0, in exact rational
    arithmetic on the literal floats, with no tolerance.

    beta solves the basis rows exactly, so each basis residual is exactly
    0.  Every other row takes psi_i = tau above the fit and tau - 1 below
    it.  A row whose residual is exactly 0 is above when
    ``rho_i = delta_i - x_i' X(h)^-1 delta(h) > 0``, with delta the design's
    ``perturbation``, and below otherwise: the solver's tie rule.
    ``v = -X(h)^-T sum w_i psi_i x_i`` is optimal when each v_k lies in
    ``[w_k (tau - 1), w_k tau]``; the slack is the smallest distance of a
    v_k inside those bounds (negative when one lies outside).  Every float
    is a dyadic rational, so the rows are scaled by the largest
    denominator to integers and the n-row sums run in integers.
    """
    slack, ties, _ = _certificate(X, y, tau, weights, basis, perturbation, move=False)
    return slack, ties


def rounded_certificate(X, y, tau, weights, basis, perturbation):
    """:func:`exact_certificate` of the input with each row that step 1
    zeroes by rounding moved onto the fit: the slack, the tied rows, and
    the largest move as a share of its row's rounding bound (0.0 when no
    row moves).

    The solver counts a non-basis row as a tie when its float residual
    lies within ``4 q eps (|y_i| + (|x_i|' |X(h)^-1| 1) (col_max' |beta|))``,
    col_max the largest ``|x|`` of each column over the basis rows, formed
    in floats from the basis as ``fit_quantile_regression`` forms it.
    Such a row whose exact residual is not 0 has its y moved by exactly
    that residual, which leaves beta unchanged, and is sided as a tie.
    So the certificate is for that input, within the bound of the literal
    floats.
    """
    return _certificate(X, y, tau, weights, basis, perturbation, move=True)


def _certificate(X, y, tau, weights, basis, perturbation, move):
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=float)
    fx = [[Fraction(v) for v in row] for row in X.tolist()]
    fy = [Fraction(v) for v in y.tolist()]
    scale = max(f.denominator for f in itertools.chain(fy, *fx))
    xi = [[int(v * scale) for v in row] for row in fx]
    yi = [int(v * scale) for v in fy]
    basis = [int(k) for k in basis]
    beta = _solve_exact([[Fraction(v) for v in xi[k]] for k in basis],
                        [Fraction(yi[k]) for k in basis])
    den = math.lcm(*(b.denominator for b in beta))
    num = [int(b * den) for b in beta]
    # each residual times scale * den, an integer with the residual's sign
    r = [yv * den - sum(a * b for a, b in zip(row, num)) for row, yv in zip(xi, yi)]
    assert all(r[k] == 0 for k in basis)
    in_basis = set(basis)
    share = 0.0
    if move:
        residuals, bound = _float_residuals(X, y, basis)
        for i in np.flatnonzero(np.abs(residuals) <= bound).tolist():
            if r[i] != 0:  # so not a basis row
                share = max(share, float(Fraction(abs(r[i]), scale * den) / Fraction(bound[i])))
                r[i] = 0
    ties = tuple(i for i, ri in enumerate(r) if ri == 0 and i not in in_basis)
    # z = X(h)^-1 delta(h) / scale, so x_i' X(h)^-1 delta(h) = xi_i' z
    delta = [Fraction(v) for v in np.asarray(perturbation, dtype=float).tolist()]
    z = _solve_exact([[Fraction(v) for v in xi[k]] for k in basis], [delta[k] for k in basis])
    up = {i for i in ties if delta[i] - sum(a * b for a, b in zip(xi[i], z)) > 0}
    fw = [Fraction(v) for v in w.tolist()]
    wscale = max(f.denominator for f in fw)
    wi = [int(v * wscale) for v in fw]
    q = X.shape[1]
    above, below = [0] * q, [0] * q
    for i, (ri, row) in enumerate(zip(r, xi)):
        if i in in_basis:
            continue
        acc = above if ri > 0 or i in up else below
        for j in range(q):
            acc[j] += wi[i] * row[j]
    t = Fraction(tau)
    # X(h)^T v = -g, with X(h) and g both carrying the factor 1 / scale
    g = [(a * t + b * (t - 1)) / wscale for a, b in zip(above, below)]
    v = _solve_exact([[Fraction(xi[k][j]) for k in basis] for j in range(q)],
                     [-x for x in g])
    slack = min(min(vk - fw[k] * (t - 1), fw[k] * t - vk) for vk, k in zip(v, basis))
    return slack, ties, share


def _float_residuals(X, y, basis):
    """Step 1's float residuals at ``basis`` and each row's bound at or
    below which one counts as 0, as ``fit_quantile_regression`` forms them."""
    q = X.shape[1]
    eps = np.finfo(float).eps
    abs_x = np.abs(X)
    inv = np.linalg.inv(X[basis])
    noise = 4 * q * eps * (abs_x @ np.abs(inv).sum(axis=1))
    col_max = abs_x[basis].max(axis=0)
    beta = inv @ y[basis]
    return y - X @ beta, 4 * q * eps * np.abs(y) + noise * (col_max @ np.abs(beta))


def read_csv_cell_by_cell(path, columns):
    """``read_csv`` of the used ``columns`` by one ``float()`` per cell in
    row-major order: the columns and dropped row numbers, or the message of
    the first row longer than the header, else of the first bad cell."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [(rownum, row) for rownum, row in enumerate(reader, start=1)
                if any(cell.strip() for cell in row)]
        for rownum, row in rows:
            if len(row) > len(header):
                return (f"{path}: too many cells at data row {rownum}: {len(row)}, "
                        f"where the header has {len(header)}")
        parsed, dropped = {c: [] for c in columns}, []
        for rownum, row in rows:
            values = {}
            for c in columns:
                j = header.index(c)
                cell = row[j].strip() if j < len(row) else ""
                if cell.lower() in MISSING_TOKENS:
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    return f"{path}: cannot parse cell {cell!r} at data row {rownum}, column {c!r}"
                if not math.isfinite(x):
                    return f"{path}: non-finite cell {cell!r} at data row {rownum}, column {c!r}"
                values[c] = x
            if len(values) < len(columns):
                dropped.append(rownum)
            else:
                for c in columns:
                    parsed[c].append(values[c])
    if not parsed[columns[0]]:
        return f"{path}: no usable data rows"
    return parsed, tuple(dropped)
