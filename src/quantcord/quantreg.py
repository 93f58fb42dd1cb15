"""Linear quantile regression by pinball-loss minimization.

Exact simplex (basis-exchange) solver for the linear program behind the
check function, ``tau*u`` for u > 0 and ``(tau - 1)*u`` otherwise
(Barrodale & Roberts 1973; Koenker & d'Orey 1987).  A vertex is an exact
fit through q observations, the basis h.  The solver starts at the basis
nearest a starting fit (least squares unless one is given) and stops
when the vertex optimality condition of Koenker (2005, Thm 2.1) holds:
with psi_i = tau or tau - 1 the side of each non-basic row,
``v = -X(h)^-T sum_{i not in h} psi_i x_i`` lies in ``[tau - 1, tau]``.
The design's frequency weights w_i scale row i's loss, so a weighted fit
on distinct rows is the fit on the rows repeated w_i times: psi_i becomes
w_i psi_i and basis row k's bounds become ``[w_k (tau - 1), w_k tau]``.
Otherwise the basis row whose v is furthest out leaves its zero
residual, and an exact line search along that edge (a weighted-quantile
walk over the residual breakpoints) picks the row that enters.  A row
at a zero residual takes its side from a fixed infinitesimal
perturbation of y, never from the rounding of its residual, so tied and
discrete data cannot cycle.
"""

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, check_full_rank, check_start
from .exceptions import InvalidArgumentError, NonConvergenceError, check_tau

DEFAULT_TOL = 1e-10
MAX_PIVOTS = 500
_HEAD = 32  # breakpoints sorted at first by the ratio test
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuantileFit:
    """Result of one quantile regression, at the tau its caller passed
    (a run keeps it as ``TwoStepResult.tau``).

    ``residuals`` always equals ``y - X @ beta`` as computed with the
    returned coefficients, so it, and from it the objective
    ``sum(weights * check(residuals))``, can be recomputed bit for bit.
    ``basis`` holds the q rows the fit passes through exactly, ``ties``
    the other rows whose residual is zero to rounding, and ``margin`` the
    smallest slack of the optimality certificate (see
    ``fit_quantile_regression``); they are empty/NaN for hand-built fits.
    """

    beta: np.ndarray
    residuals: np.ndarray
    iterations: int
    basis: tuple = ()
    ties: tuple = ()
    margin: float = float("nan")


def residual_signs(fit):
    """Binary indicators: 1 where the residual is <= 0, else 0.

    Basis rows and ties are zeros of the fit, so they are 1 even when
    their computed residual rounds to a few ulps above zero.
    """
    signs = (fit.residuals <= 0).astype(np.int64)
    signs[list(fit.basis) + list(fit.ties)] = 1
    return signs


def _independent_rows(X, order, q):
    """The first q rows in ``order`` that keep ``X[rows]`` full rank, or
    fewer when ``order`` runs out."""
    rows = []
    for i in order:
        if np.linalg.matrix_rank(X[rows + [i]]) == len(rows) + 1:
            rows.append(int(i))
            if len(rows) == q:
                break
    return rows


def _start_basis(X, r):
    """First q rows, in stable |r| order, that keep ``X[rows]`` full rank."""
    q = X.shape[1]
    a = np.abs(r)
    # the rows at or below the 4q-th smallest |r|, in full stable order:
    # the first q are rank deficient when they all share one value of a
    # binary covariate, or when two of them are copies of one data row
    m = min(4 * q, a.size)
    head = np.flatnonzero(a <= np.partition(a, m - 1)[m - 1])
    head = head[np.argsort(a[head], kind="stable")]
    # every row subset of a full-rank set passes matrix_rank's tolerance
    # too (singular values interlace), so the row-by-row walk keeps them all
    if np.linalg.matrix_rank(X[head[:q]]) == q:
        return head[:q].tolist()
    rows = _independent_rows(X, head, q)
    if len(rows) < q:
        rows = _independent_rows(X, np.argsort(a, kind="stable"), q)
    return rows


def _ratio_test(r, rho, above, c, w, free, slope):
    """Walk the breakpoints of the edge ``r - t*c``, t >= 0, to its minimum.

    Non-basic row i blocks when it moves toward zero from its side
    (``above``); it crosses at ``t_i = (r_i + eps*rho_i) / c_i``, compared
    first on r and then on the infinitesimal perturbation rho, and raises
    the slope by ``w_i * |c_i|``.  The walk stops at the first breakpoint
    where the slope, starting from ``slope``, turns non-negative: that row
    enters, and the rows passed on the way change sides.  Returns None
    when nothing blocks.
    """
    block = np.flatnonzero(free & np.where(above, c > 0, c < 0))
    if block.size == 0:
        return None
    cb = c[block]
    t = r[block] / cb
    weight = w[block] * np.abs(cb)
    # the walk is short, so only a head of the smallest breakpoints is
    # sorted, grown until its weight turns the slope
    m = _HEAD
    while True:
        head = np.argpartition(t, m - 1)[:m] if m < t.size else np.arange(t.size)
        head = head[np.argsort(t[head])]
        k = int(np.searchsorted(np.cumsum(weight[head]), -slope))
        if k < head.size or head.size == t.size:
            break
        m *= 8
    stop = t[head[min(k, head.size - 1)]]
    # only the order among rows tied at the stopping breakpoint decides
    # which row enters: they are passed in the order of rho
    tied = np.flatnonzero(t == stop)
    if tied.size == 1:  # a lone row at the stop enters whatever the slope
        return int(block[tied[0]])
    tied = tied[np.argsort(rho[block[tied]] / cb[tied], kind="stable")]
    k = int(np.searchsorted(np.cumsum(weight[tied]), -slope - np.sum(weight[t < stop])))
    return int(block[tied[min(k, tied.size - 1)]])


def fit_quantile_regression(X, y, tau, start=None):
    """Minimize ``sum(X.weights * check(y - X @ beta))`` over beta, with the
    check function ``check(u) = tau*u`` for u > 0 and ``(tau - 1)*u`` otherwise.

    Parameters
    ----------
    X : DesignMatrix
        Full-rank design; rank deficiency raises SingularDesignError.
    y : array_like
        Response vector of length ``X.n``.
    tau : float
        Quantile level, strictly inside (0, 1).
    start : array_like, optional
        Finite coefficients to start from, such as the full-sample fit for a
        bootstrap replicate.  The first basis is the first q rows, by
        increasing ``|y - X @ start|``, that keep it full rank; the
        least-squares fit is used when None.  The start changes only the
        path: the certificate is the same.

    The fit is optimal when every entry of
    ``v = -X(h)^-T sum_{i not in h} w_i psi_i x_i`` lies in
    ``[w_k (tau - 1) - DEFAULT_TOL, w_k tau + DEFAULT_TOL]``, with w_k the
    weight of basis row k; the tolerance absorbs the rounding of that sum.
    ``margin`` on the result is the smallest slack of v against those
    bounds without the tolerance, reported as 0 for entries
    within the tolerance of a bound; it is negative only on a failed fit.
    Reaching ``MAX_PIVOTS`` pivots without the certificate, or an edge
    that no row blocks, raises NonConvergenceError carrying the last
    vertex as ``last_fit``; its message gives the pivots taken and, for
    the unblocked edge, its numerical cause.

    Each pivot takes the edge with the steepest descent.  Residuals and
    edge movements within the rounding error of the basis solve count as
    exact zeros, and a row at a zero residual takes its side from a fixed
    infinitesimal perturbation of y, which keeps tied and discrete data
    from cycling.  When the optimum is not unique, the fit goes on along
    zero-cost edges that lower the sum of fitted values, so it returns the
    optimal vertex that stays optimal at tau - epsilon: the lower end of
    the quantile process's jump.
    Exact ties left after that go to the first row or basis position, so
    results are deterministic.
    """
    if not isinstance(X, DesignMatrix):
        raise InvalidArgumentError("X must be a DesignMatrix")
    check_tau(tau)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.n:
        raise InvalidArgumentError(f"y has length {y.shape[0]}, design has {X.n} rows")
    if not np.isfinite(y).all():
        raise InvalidArgumentError("y contains non-finite values")
    check_full_rank(X)

    Xv = X.values
    n, q = Xv.shape
    abs_x, w = X.abs_values, X.weights
    # every weighted sum is ``np.sum(w * a)``, so unit weights give the
    # unweighted fit bit for bit
    y_noise = 4 * q * _EPS * np.abs(y)
    delta = X.perturbation
    if start is None:
        start, *_ = np.linalg.lstsq(Xv, y, rcond=None)
    else:
        start = check_start(start, (q,))
    basis = _start_basis(Xv, y - Xv @ start)
    free = np.ones(n, dtype=bool)
    free[basis] = False
    for pivots in range(MAX_PIVOTS + 1):  # pivots: the pivots taken
        inv = np.linalg.inv(Xv[basis])
        # z = inv @ b is exact for X[h] perturbed by rounding in each
        # column's own scale, so X @ z can be off by noise * (col_max @ |z|);
        # that bound also covers the rounding of the product itself
        noise = 4 * q * _EPS * (abs_x @ np.abs(inv).sum(axis=1))
        col_max = abs_x[basis].max(axis=0)
        beta = inv @ y[basis]
        r = y - Xv @ beta
        r[np.abs(r) <= y_noise + noise * (col_max @ np.abs(beta))] = 0.0
        r[basis] = 0.0
        rho = delta - Xv @ (inv @ delta[basis])
        above = (r > 0) | ((r == 0) & (rho > 0))
        psi = np.where(above, tau, tau - 1.0)
        psi[basis] = 0.0
        v = -(Xv.T @ (w * psi)) @ inv
        # moving basis row k's fit up (the row goes below) changes the
        # objective at rate v_k + w_k (1 - tau), moving it down at rate
        # w_k tau - v_k; the first is formed as (v_k + w_k) - w_k tau, which
        # is the unweighted v_k + 1 - tau bit for bit
        wb = w[basis]
        low, high = wb * (tau - 1.0), wb * tau
        raise_fit = v < low - DEFAULT_TOL
        lower_fit = v > high + DEFAULT_TOL
        converged = not (raise_fit | lower_fit).any()
        if converged:
            # optimal: follow zero-cost edges that lower sum(w * (X @ beta))
            u = X.weighted_sums @ inv
            utol = DEFAULT_TOL * float(np.max(np.abs(u)))
            raise_fit = (v <= low + DEFAULT_TOL) & (u < -utol)
            lower_fit = (v >= high - DEFAULT_TOL) & (u > utol)
            rate = -np.abs(u)
        else:
            rate = np.where(raise_fit, v + wb - high, high - v)
        candidates = np.flatnonzero(raise_fit | lower_fit)
        if candidates.size == 0 or pivots == MAX_PIVOTS:
            break
        k = candidates[np.argmin(rate[candidates])]
        d = inv[:, k] if raise_fit[k] else -inv[:, k]
        c = Xv @ d
        c[np.abs(c) <= noise * (col_max @ np.abs(d))] = 0.0
        enter = _ratio_test(r, rho, above, c, w, free, 0.0 if converged else rate[k])
        if enter is None:
            break
        free[basis[k]], free[enter] = True, False
        basis[k] = enter

    margin = float(np.min(np.minimum(v - low, high - v)))
    fit = QuantileFit(
        beta=beta,
        residuals=y - Xv @ beta,
        iterations=pivots,
        basis=tuple(sorted(basis)),
        ties=tuple(np.flatnonzero(free & (r == 0)).tolist()),
        margin=max(margin, 0.0) if converged else margin,
    )
    if not converged:
        # short of the cap, the loop stopped because no row blocked the edge
        cause = "" if pivots == MAX_PIVOTS else (
            ": no non-basic row blocks the edge, which cannot happen in exact"
            " arithmetic, so rounding zeroed its entries; design columns of very"
            " different scale cause this")
        raise NonConvergenceError(
            f"quantile regression did not converge in {pivots} pivots{cause}",
            last_fit=fit,
        )
    return fit
