"""Multinomial logistic model for the concordance labels.

Labels are the integer cell codes of ``concordance``, pooled into its
fitted codes (``concordance.pool``) before fitting.  Fitted code 0, "00",
is the reference category; each other fitted code k has one coefficient
vector, row k - 1 of ``gamma``.  In merged mode the predicted "01+10"
mass is split back over "01" and "10" (``concordance.split_cells``) at
prediction time, never during fitting.  Fitting is Newton-Raphson with
step-halving on the full multinomial likelihood.  The log-likelihood is
the difference of two sums, ``sum(Y * eta)`` and the sum of the row
log-partitions, that are much larger than it near a tail quantile, so
the step-halving test allows a slack of a few ulps of those sums, not
of the log-likelihood itself.  The design's frequency weights scale each
observation's terms in both sums, the score and the information.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .concordance import LABELS, MERGED_LABELS, pool, split_cells
from .design import DesignMatrix, check_full_rank, check_start
from .exceptions import (
    EmptyCategoryError,
    InvalidArgumentError,
    NonConvergenceError,
    SeparationWarning,
)

GRADIENT_TOL = 1e-8
MAX_NEWTON_ITER = 100
SEPARATION_COEF = 30.0


@dataclass(frozen=True)
class MultinomialFit:
    """Fitted category log-odds against the "00" reference: row k - 1 of
    ``gamma`` is fitted code k of ``concordance``, named
    ``MERGED_LABELS[k]`` for a merged-mode fit and ``LABELS[k]`` otherwise.

    ``fit_multinomial`` returns only converged fits, so ``converged`` is
    True on every fit it returns; it is False only on the ``last_fit`` of
    its NonConvergenceError.  It stays because the benchmark's tracer
    (``bench/tracer.py``) reads it.
    """

    gamma: np.ndarray  # one row of coefficients per non-reference category
    loglik: float
    converged: bool
    iterations: int
    separation: bool = False


def _indicators(z, merged, n):
    """The K x n indicators ``z == k``, k = 1..K, of the fitted codes of
    ``n`` observations' cell codes.

    Raises EmptyCategoryError naming every fitted code 0..K with no
    observations.
    """
    z = pool(z, merged)
    if z.size != n:
        raise InvalidArgumentError(f"{z.size} labels for {n} design rows")
    names = MERGED_LABELS if merged else LABELS
    empty = np.flatnonzero(np.bincount(z, minlength=len(names)) == 0)
    if empty.size:
        raise EmptyCategoryError([names[k] for k in empty])
    return (z == np.arange(1, len(names))[:, None]).astype(float)


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


def _separation_detected(gamma, X2):
    """Whether a coefficient exceeds ``SEPARATION_COEF`` column scales."""
    return bool(np.any(np.abs(gamma) * X2.column_scale[None, :] > SEPARATION_COEF))


def fit_multinomial(X2, z, merged=False, *, start=None):
    """Maximum-likelihood fit of the concordance categories on ``X2``.

    Newton starts at ``start`` (finite, one row of coefficients per
    category, as ``MultinomialFit.gamma``), or at zero when it is None;
    the bootstrap starts each replicate at the full-sample fit.  The fit
    converges when the largest score entry is at most ``GRADIENT_TOL``.
    Reaching ``MAX_NEWTON_ITER`` steps without that, or an iterate where
    no step raises the likelihood, raises NonConvergenceError carrying
    the last iterate as ``last_fit``.

    Raises EmptyCategoryError when any modeled category (including the
    reference) has no observations; a category with zero count has no
    finite MLE, and the caller should pool discordant labels (merged
    mode) or coarsen the covariates instead.
    """
    if not isinstance(X2, DesignMatrix):
        raise InvalidArgumentError("X2 must be a DesignMatrix")
    check_full_rank(X2)
    Yt = _indicators(z, merged, X2.n)
    w, Xt, Xs = X2.weights, X2.transposed, X2.scaled_transposed
    Yt = Yt * w
    q, K = X2.q, Yt.shape[0]
    gamma = np.zeros((K, q)) if start is None else check_start(start, (K, q))
    ll, probs, scale = _loglik_terms(gamma, Xt, Yt, w)
    for it in range(MAX_NEWTON_ITER + 1):  # it: the Newton steps taken
        g = _gradient(Xt, Yt, w, probs)
        converged = bool(np.max(np.abs(g)) <= GRADIENT_TOL)
        if converged or it == MAX_NEWTON_ITER:
            break
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
        for k in range(40):
            trial = gamma + 0.5 ** k * step
            ll_trial, probs_trial, scale_trial = _loglik_terms(trial, Xt, Yt, w)
            if np.isfinite(ll_trial) and ll_trial >= ll - slack:
                break
        else:
            break  # no ascent left at this iterate
        gamma, ll, probs, scale = trial, ll_trial, probs_trial, scale_trial

    separation = _separation_detected(gamma, X2)
    if separation:
        warnings.warn(
            "possible complete separation: standardized coefficient "
            f"magnitude exceeds {SEPARATION_COEF}",
            SeparationWarning,
            stacklevel=2,
        )

    fit = MultinomialFit(
        gamma=gamma,
        loglik=ll,
        converged=converged,
        iterations=it,
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
    """Cell probabilities for each row of the 2-d design array ``X``, as an
    n-by-4 array whose column k is the probability of cell code k."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fit.gamma.shape[1]:
        raise InvalidArgumentError(
            f"X must be an n-by-{fit.gamma.shape[1]} array, got shape {X.shape}")
    lse, probs = _log_partition(fit.gamma @ X.T)
    return split_cells(np.column_stack([np.exp(-lse), probs.T]))
