"""Sign-concordance labels, cell probabilities and the phi coefficient.

A label is an integer cell code k, named ``LABELS[k]``: 0 = "00" (both
residuals above their fitted quantiles), 1 = "11" (both at or below),
2 = "01" and 3 = "10" (first digit: first response).  Merged mode pools
code 3 into code 2, ``MERGED_DISCORDANT``.  CellProbabilities fields,
predicted cell columns and step-2 coefficient rows (codes 1..3) follow
the same order.
"""

from dataclasses import dataclass

import numpy as np

from .design import check_weights
from .exceptions import InvalidArgumentError, check_tau

LABELS = ("00", "11", "01", "10")
MERGED_DISCORDANT = "01+10"

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
        if not np.isin(w, (0, 1)).all():
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


@dataclass(frozen=True)
class CellProbabilities:
    """Joint probabilities of the four sign patterns at quantile tau."""

    p00: float
    p11: float
    p01: float
    p10: float
    tau: float

    def __post_init__(self):
        cells = (self.p00, self.p11, self.p01, self.p10)
        if not np.isfinite(cells).all():
            raise InvalidArgumentError(f"cells must be finite, got {cells}")
        if any(c < 0 or c > 1 for c in cells):
            raise InvalidArgumentError(f"cells must lie in [0, 1], got {cells}")
        if abs(sum(cells) - 1.0) > 1e-12:
            raise InvalidArgumentError(f"cells must sum to 1, got {sum(cells)!r}")
        check_tau(self.tau)

    def as_array(self):
        return np.array([self.p00, self.p11, self.p01, self.p10])


def empirical_cells(z, tau, weights=None):
    """Relative frequency of each concordance cell code, each label counted
    with its frequency weight (once when ``weights`` is None)."""
    z = _checked_codes(z)
    w = check_weights(weights, z.size)
    counts = np.bincount(z, weights=w, minlength=4)
    return CellProbabilities(*(counts / np.sum(w)).tolist(), tau=tau)


def phi(cells):
    """Correlation between the two sign indicators.

    Uses the fixed theoretical margins tau and 1-tau, so the
    denominator is exactly ``tau * (1 - tau)``; empirical margins would
    be off by O(q/n) and break the exact limiting cases.
    """
    return _fixed_margin_phi(cells.p00, cells.p11, cells.p01, cells.p10, cells.tau)


def _fixed_margin_phi(p00, p11, p01, p10, tau):
    """``phi``'s formula on cell probabilities, scalars or arrays."""
    return (p11 * p00 - p01 * p10) / (tau * (1.0 - tau))


@dataclass(frozen=True)
class PhiBounds:
    """Attainable range of phi for fixed margins at quantile tau."""

    phi_min: float
    phi_indep: float
    phi_max: float


def phi_bounds(tau):
    """Theoretical limits of phi: depend on tau only, not on the data."""
    check_tau(tau)
    if tau <= 0.5:
        lo = -tau / (1.0 - tau)
    else:
        lo = -(1.0 - tau) / tau
    return PhiBounds(phi_min=lo, phi_indep=0.0, phi_max=1.0)


def limiting_cells(case, tau):
    """Cell probabilities of the three limiting dependence patterns.

    ``case`` is one of ``"independence"``, ``"max"``, ``"min"``.
    """
    check_tau(tau)
    if case == "independence":
        return CellProbabilities((1 - tau) ** 2, tau**2, tau - tau**2,
                                 tau - tau**2, tau)
    if case == "max":
        return CellProbabilities(1 - tau, tau, 0.0, 0.0, tau)
    if case == "min":
        if tau <= 0.5:
            return CellProbabilities(1 - 2 * tau, 0.0, tau, tau, tau)
        return CellProbabilities(0.0, 2 * tau - 1, 1 - tau, 1 - tau, tau)
    raise InvalidArgumentError(f"unknown limiting case {case!r}")
