"""Sign-concordance labels, cell probabilities and the phi coefficient.

A label is an integer cell code k, named ``LABELS[k]``: 0 = "00" (both
residuals above their fitted quantiles), 1 = "11" (both at or below),
2 = "01" and 3 = "10" (first digit: first response).  Merged mode pools
code 3 into code 2, so its fitted codes are named ``MERGED_LABELS``.
Cell probabilities are arrays whose last axis holds the four cells in
code order; predicted cell columns and step-2 coefficient rows (fitted
codes 1..K) follow the same order.
"""

from dataclasses import dataclass

import numpy as np

from .design import check_weights
from .exceptions import InvalidArgumentError, check_tau

LABELS = ("00", "11", "01", "10")
MERGED_LABELS = ("00", "11", "01+10")

# _CODES[w1, w2] is the cell code of first-response sign w1 and second w2
_CODES = np.array([[0, 2], [3, 1]])


def classify(omega1, omega2):
    """Cell code of each pair of residual signs (1: at or below the
    fitted quantile); the module docstring gives the code table."""
    w1 = np.asarray(omega1)
    w2 = np.asarray(omega2)
    if w1.shape != w2.shape or w1.ndim != 1:
        raise InvalidArgumentError(
            f"sign vectors must be 1-d and equal length, got {w1.shape} and {w2.shape}"
        )
    for w in (w1, w2):
        if not ((w == 0) | (w == 1)).all():
            raise InvalidArgumentError("sign vectors must contain only 0 and 1")
    return _CODES[w1.astype(int), w2.astype(int)]


def _checked_codes(z):
    """``z`` as a non-empty 1-d integer array of cell codes in 0..3."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise InvalidArgumentError(f"labels must be 1-d, got shape {z.shape}")
    if z.size == 0:
        raise InvalidArgumentError("empty label vector")
    if z.dtype.kind not in "iu":
        raise InvalidArgumentError(f"labels must be integer cell codes, got dtype {z.dtype}")
    bad = (z < 0) | (z >= len(LABELS))
    if bad.any():
        raise InvalidArgumentError(f"unknown labels present: {sorted(set(z[bad].tolist()))}")
    return z.astype(np.intp, copy=False)


def pool(z, merged):
    """The fitted code of each cell code in ``z``: the code itself, or in
    merged mode code 2 for code 3."""
    z = _checked_codes(z)
    return np.minimum(z, 2) if merged else z


def split_cells(probs):
    """The four cells, in code order, from the probabilities of the fitted
    codes along the last axis of ``probs``: three columns (merged mode)
    give "01" and "10" half of "01+10" each."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1] == len(LABELS):
        return probs
    half = probs[..., 2:] / 2.0
    return np.concatenate([probs[..., :2], half, half], axis=-1)


def empirical_cells(z, weights=None):
    """Relative frequency of each concordance cell code, each label counted
    with its frequency weight (once when ``weights`` is None)."""
    z = _checked_codes(z)
    w = check_weights(weights, z.size)
    return np.bincount(z, weights=w, minlength=len(LABELS)) / np.sum(w)


def phi(cells, tau):
    """Correlation between the two sign indicators, one per row of
    ``cells`` (last axis: the four cells in code order).

    Uses the fixed theoretical margins tau and 1-tau, so the
    denominator is exactly ``tau * (1 - tau)``; empirical margins would
    be off by O(q/n) and break the exact limiting cases.
    """
    cells = np.asarray(cells, dtype=float)
    if cells.ndim == 0 or cells.shape[-1] != len(LABELS):
        raise InvalidArgumentError(
            f"cells must have the four cells on their last axis, got shape {cells.shape}")
    if not np.isfinite(cells).all():
        raise InvalidArgumentError(f"cells must be finite, got {cells}")
    if ((cells < 0) | (cells > 1)).any():
        raise InvalidArgumentError(f"cells must lie in [0, 1], got {cells}")
    total = cells.sum(axis=-1)
    if (np.abs(total - 1.0) > 1e-12).any():
        raise InvalidArgumentError(f"cells must sum to 1, got {total}")
    check_tau(tau)
    p00, p11, p01, p10 = np.moveaxis(cells, -1, 0)
    return (p11 * p00 - p01 * p10) / (tau * (1.0 - tau))


@dataclass(frozen=True)
class PhiBounds:
    """Attainable range of phi for fixed margins at quantile tau;
    independence gives phi = 0 at every tau."""

    phi_min: float
    phi_max: float


def phi_bounds(tau):
    """Theoretical limits of phi: depend on tau only, not on the data."""
    check_tau(tau)
    return PhiBounds(phi_min=-min(tau, 1.0 - tau) / max(tau, 1.0 - tau), phi_max=1.0)

