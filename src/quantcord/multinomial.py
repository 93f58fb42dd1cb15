"""Multinomial logistic model for the concordance labels.

Labels are the integer cell codes of ``concordance``: 0 = "00", the
reference category, then 1 = "11", 2 = "01" and 3 = "10", each with one
coefficient vector (row k - 1 of ``gamma`` for code k).  In merged mode
code 3 is pooled into code 2, "01+10", before fitting, and the predicted
discordant mass is split equally between "01" and "10" at prediction
time, never during fitting.  Fitting is Newton-Raphson with
step-halving on the full multinomial likelihood.  The log-likelihood is
the difference of two sums, ``sum(Y * eta)`` and the sum of the row
log-partitions, that are much larger than it near a tail quantile, so
the step-halving test allows a slack of a few ulps of those sums, not
of the log-likelihood itself.  Frequency weights scale each observation's
terms in both sums, the score and the information.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .concordance import LABELS, MERGED_DISCORDANT, _checked_codes
from .design import DesignMatrix, check_full_rank, check_weights
from .exceptions import (
    EmptyCategoryError,
    InvalidArgumentError,
    NonConvergenceError,
    SeparationWarning,
)

REFERENCE = "00"
CATEGORIES_FULL = ("11", "01", "10")
CATEGORIES_MERGED = ("11", MERGED_DISCORDANT)

GRADIENT_TOL = 1e-8
MAX_NEWTON_ITER = 100
SEPARATION_COEF = 30.0


@dataclass(frozen=True)
class MultinomialFit:
    """Fitted category log-odds against the "00" reference.

    ``fit_multinomial`` returns only converged fits, so ``converged`` is
    True on every fit it returns; it is False only on the ``last_fit`` of
    its NonConvergenceError.  It stays because the benchmark's tracer
    (``bench/tracer.py``) reads it.
    """

    categories: tuple
    gamma: np.ndarray  # one row of coefficients per non-reference category
    loglik: float
    converged: bool
    iterations: int
    columns: tuple
    merged: bool
    separation: bool = False


def _indicators(z, merged, n):
    """The categories and their K x n indicators ``z == k``, k = 1..K, for
    the cell codes of ``n`` observations, pooled in merged mode (code 3
    joins code 2, "01+10").

    Raises EmptyCategoryError naming every code 0..K with no observations.
    """
    z = _checked_codes(z)
    if z.size != n:
        raise InvalidArgumentError(f"{z.size} labels for {n} design rows")
    categories = CATEGORIES_MERGED if merged else CATEGORIES_FULL
    K = len(categories)
    if merged:
        z = np.minimum(z, 2)
    empty = np.flatnonzero(np.bincount(z, minlength=K + 1) == 0)
    if empty.size:
        raise EmptyCategoryError([(REFERENCE, *categories)[k] for k in empty])
    return categories, (z == np.arange(1, K + 1)[:, None]).astype(float)


# The Newton kernel keeps one row per non-reference category and one column
# per observation (Xt = X', Yt = Y'): the row-wise reductions over K = 2 or 3
# categories then run along the long observation axis, several times faster.
# Yt holds the weighted indicators w_i * [z_i == k], and Xs the columns of Xt
# scaled by sqrt(w_i); unit weights leave both bit for bit unchanged.

def _log_partition(eta):
    """Per observation (column of ``eta``), ``log(1 + sum_k exp(eta_k))``
    and the non-reference probabilities, shifted by the largest exponent."""
    shift = np.maximum(eta.max(axis=0), 0.0)
    e = np.exp(eta - shift)
    total = np.exp(-shift) + e.sum(axis=0)
    return shift + np.log(total), e / total


def _loglik_terms(gamma, Xt, Yt, w):
    """Log-likelihood, probabilities, and the size of the two sums whose
    difference is the log-likelihood (its rounding scales with them)."""
    eta = gamma @ Xt  # K x n
    lse, probs = _log_partition(eta)
    fitted = Yt * eta
    wlse = w * lse
    ll = float(np.sum(fitted) - np.sum(wlse))
    scale = float(np.sum(np.abs(fitted)) + np.sum(wlse))  # lse >= 0
    return ll, probs, scale


def _gradient(Xt, Yt, w, probs):
    return ((Yt - w * probs) @ Xt.T).reshape(-1)  # category-major blocks


def _information(Xs, probs):
    """Fisher information, ``blockdiag(X' W diag(p_k) X) - PX PX'``, where
    row ``k*q + a`` of PX is ``sqrt(w_i) * p_ik * x_ia`` over the
    observations i."""
    K, n = probs.shape
    q = Xs.shape[0]
    PX = (probs[:, None, :] * Xs[None, :, :]).reshape(K * q, n)
    info = -(PX @ PX.T)
    diag = PX @ Xs.T  # block k of rows is X' W diag(p_k) X
    for k in range(K):
        info[k * q:(k + 1) * q, k * q:(k + 1) * q] += diag[k * q:(k + 1) * q]
    return info


def _separation_detected(gamma, X, w):
    # the weighted column SDs, with np.std's arithmetic
    total = np.sum(w)
    mean = np.sum(w[:, None] * X, axis=0) / total
    sd = np.sqrt(np.sum(w[:, None] * (X - mean) ** 2, axis=0) / total)
    scale = np.where(sd > 0, sd, 1.0)  # intercept and constant columns: raw value
    return bool(np.any(np.abs(gamma) * scale[None, :] > SEPARATION_COEF))


def fit_multinomial(X2, z, merged=False, *, start=None, weights=None):
    """Maximum-likelihood fit of the concordance categories on ``X2``.

    Newton starts at ``start`` (finite, one row of coefficients per
    category, as ``MultinomialFit.gamma``), or at zero when it is None;
    the bootstrap starts each replicate at the full-sample fit.  The fit
    converges when the largest score entry is at most ``GRADIENT_TOL``.
    Reaching ``MAX_NEWTON_ITER`` steps without that, or an iterate where
    no step raises the likelihood, raises NonConvergenceError carrying
    the last iterate as ``last_fit``.
    ``weights`` are positive finite frequency weights, one per row (None:
    unit weights), as :func:`quantcord.quantreg.fit_quantile_regression`
    takes them.

    Raises EmptyCategoryError when any modeled category (including the
    reference) has no observations; a category with zero count has no
    finite MLE, and the caller should pool discordant labels (merged
    mode) or coarsen the covariates instead.
    """
    if not isinstance(X2, DesignMatrix):
        raise InvalidArgumentError("X2 must be a DesignMatrix")
    w = check_weights(weights, X2.n)
    check_full_rank(X2)
    categories, Yt = _indicators(z, merged, X2.n)
    Yt = Yt * w

    X = X2.values
    Xt = np.ascontiguousarray(X.T)
    Xs = Xt * np.sqrt(w)
    n, q = X.shape
    K = len(categories)
    if start is None:
        gamma = np.zeros((K, q))
    else:
        gamma = np.array(start, dtype=float)
        if gamma.shape != (K, q):
            raise InvalidArgumentError(
                f"start has shape {gamma.shape}, expected {(K, q)}"
            )
        if not np.isfinite(gamma).all():
            raise InvalidArgumentError("start contains non-finite values")
    ll, probs, scale = _loglik_terms(gamma, Xt, Yt, w)

    g = _gradient(Xt, Yt, w, probs)
    converged = bool(np.max(np.abs(g)) <= GRADIENT_TOL)
    it = 0
    while not converged and it < MAX_NEWTON_ITER:
        info = _information(Xs, probs)
        try:
            step = np.linalg.solve(info, g).reshape(K, q)
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(info) @ g).reshape(K, q)
        # step-halving keeps the likelihood path non-decreasing; the
        # few-ulp slack lets the full Newton step through once the
        # likelihood is flat at float resolution (halved steps would
        # otherwise cycle with the gradient stuck near the tolerance).
        # ll is a small difference of two large sums, so its rounding
        # scales with those sums: a slack in ulps of |ll| rejects the
        # converging step near tail quantiles
        slack = 4.0 * np.finfo(float).eps * max(1.0, scale)
        t = 1.0
        improved = False
        for _ in range(40):
            trial = gamma + t * step
            ll_trial, probs_trial, scale_trial = _loglik_terms(trial, Xt, Yt, w)
            if np.isfinite(ll_trial) and ll_trial >= ll - slack:
                improved = True
                break
            t /= 2.0
        if not improved:
            break  # no ascent left at this iterate
        gamma, ll, probs, scale = trial, ll_trial, probs_trial, scale_trial
        it += 1
        g = _gradient(Xt, Yt, w, probs)
        converged = bool(np.max(np.abs(g)) <= GRADIENT_TOL)

    separation = _separation_detected(gamma, X, w)
    if separation:
        warnings.warn(
            "possible complete separation: standardized coefficient "
            f"magnitude exceeds {SEPARATION_COEF}",
            SeparationWarning,
            stacklevel=2,
        )

    fit = MultinomialFit(
        categories=categories,
        gamma=gamma,
        loglik=ll,
        converged=converged,
        iterations=it,
        columns=X2.columns,
        merged=merged,
        separation=separation,
    )
    if not converged:
        raise NonConvergenceError(
            f"multinomial fit did not converge in {it} Newton steps: largest "
            f"score entry {np.max(np.abs(g)):.3g} exceeds {GRADIENT_TOL:g}",
            last_fit=fit,
        )
    return fit


def predict_cells_rows(fit, X):
    """Cell probabilities for each row of a design array, as an n-by-4 array.

    Column k is the probability of cell code k (``LABELS[k]``).
    """
    X = np.asarray(X.values if isinstance(X, DesignMatrix) else X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != fit.gamma.shape[1]:
        raise InvalidArgumentError(
            f"x has dimension {X.shape[1]}, fit expects {fit.gamma.shape[1]}"
        )
    lse, probs = _log_partition(fit.gamma @ X.T)
    out = np.empty((X.shape[0], 4))
    out[:, 0] = np.exp(-lse)
    if fit.merged:
        out[:, 1] = probs[0]
        out[:, 2] = probs[1] / 2.0  # equal split of the discordant mass
        out[:, 3] = probs[1] / 2.0
    else:
        out[:, 1:] = probs.T
    return out
