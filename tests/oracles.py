"""Reference implementations that the tests check the package against."""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from quantcord.dataset import MISSING_TOKENS
from quantcord.exceptions import InvalidArgumentError, check_tau
from quantcord.multinomial import _loglik_terms


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal, by Plackett's
    identity: Phi(h) Phi(k) plus a 1-d integral over the correlation,

        (1 / 2 pi) int_0^rho exp(-(h^2 - 2 r h k + k^2) / (2 (1 - r^2)))
                             / sqrt(1 - r^2) dr.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    if not -1.0 < rho < 1.0:
        raise InvalidArgumentError(f"|rho| must be < 1, got {rho}")

    def integrand(r):
        s = 1.0 - r * r
        return np.exp(-(h * h - 2.0 * r * h * k + k * k) / (2.0 * s)) / np.sqrt(s)

    val, _ = quad(integrand, 0.0, rho, epsabs=1e-14, epsrel=1e-12)
    return float(ndtr(h) * ndtr(k) + val / (2.0 * np.pi))


def oracle_phi_gaussian_quad(rho, tau):
    """The Gaussian phi oracle by scipy's adaptive quadrature: ``bvn_cdf``
    at the matched marginal quantiles, centered and scaled by the fixed
    margins."""
    from scipy.special import ndtri

    z = float(ndtri(tau))
    return (bvn_cdf(z, z, rho) - tau * tau) / (tau * (1.0 - tau))


def oracle_phi_gaussian_mpmath(rho, tau, digits=40):
    """The Gaussian phi oracle's integral for rho < 0 in ``digits``-digit
    arithmetic by mpmath's tanh-sinh quadrature in theta, split at
    theta = -pi/2 + u_0 2^k, u_0 = asin(rho) + pi/2, where the integrand
    turns toward 0."""
    import mpmath

    with mpmath.workdps(digits):
        rho, tau = mpmath.mpf(rho), mpmath.mpf(tau)
        z2 = 2 * mpmath.erfinv(2 * tau - 1) ** 2
        points = [mpmath.asin(rho)]
        while points[-1] < 0:
            points.append(min(2 * points[-1] + mpmath.pi / 2, 0))
        value = -mpmath.quad(lambda t: mpmath.exp(-z2 / (1 + mpmath.sin(t))), points)
        return float(value / (2 * mpmath.pi * tau * (1 - tau)))


def bvn_cdf_monte_carlo(h, k, rho, draws=10_000_000, seed=0, chunk=1_000_000):
    """Plain Monte Carlo estimate of the bivariate normal CDF.

    Independent of the quadrature path; used to cross-check it.
    """
    rng = np.random.default_rng(seed)
    hits = 0
    left = draws
    while left > 0:
        m = min(chunk, left)
        z1 = rng.standard_normal(m)
        z2 = rho * z1 + np.sqrt(1.0 - rho**2) * rng.standard_normal(m)
        hits += int(np.count_nonzero((z1 <= h) & (z2 <= k)))
        left -= m
    return hits / draws


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


def exact_certificate(X, y, tau, weights, basis):
    """The smallest slack of step 1's optimality certificate at ``basis``,
    in exact rational arithmetic on the literal floats, with no tolerance.

    beta solves the basis rows exactly, so each basis residual is exactly
    0.  With psi_i = tau above the fit and tau - 1 below it for every other
    row, ``v = -X(h)^-T sum w_i psi_i x_i`` is optimal when each v_k lies
    in ``[w_k (tau - 1), w_k tau]``; the result is the smallest distance of
    a v_k inside those bounds (negative when one lies outside).  Returns
    None when a non-basis residual is exactly 0, a tie that psi does not
    side.  Every float is a dyadic rational, so the rows are scaled by the
    largest denominator to integers and the n-row sums run in integers.
    """
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
    if any(r[i] == 0 for i in range(len(r)) if i not in in_basis):
        return None
    fw = [Fraction(v) for v in w.tolist()]
    wscale = max(f.denominator for f in fw)
    wi = [int(v * wscale) for v in fw]
    q = X.shape[1]
    above, below = [0] * q, [0] * q
    for i, (ri, row) in enumerate(zip(r, xi)):
        if i in in_basis:
            continue
        acc = above if ri > 0 else below
        for j in range(q):
            acc[j] += wi[i] * row[j]
    t = Fraction(tau)
    # X(h)^T v = -g, with X(h) and g both carrying the factor 1 / scale
    g = [(a * t + b * (t - 1)) / wscale for a, b in zip(above, below)]
    v = _solve_exact([[Fraction(xi[k][j]) for k in basis] for j in range(q)],
                     [-x for x in g])
    return min(min(vk - fw[k] * (t - 1), fw[k] * t - vk) for vk, k in zip(v, basis))


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
