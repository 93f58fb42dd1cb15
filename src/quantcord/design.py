"""Validated, weighted design matrices shared by the regression steps."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidArgumentError, SingularDesignError, check_sequence


@dataclass(frozen=True)
class DesignMatrix:
    """An n-by-q numeric design with named columns, whose row i counts as
    ``weights[i]`` copies of itself in every fit (unit weights when None).

    Construction validates shape, finiteness, names and weights, and keeps
    read-only copies of values and weights, so that what depends on them
    alone is computed once per design however many fits read it: the rank
    verdict, ``abs_values``, ``transposed``, step 1's ``perturbation`` and
    the weighted constants.  A sample's designs serve every tau.  Rank is
    checked by the fitting routines (:func:`check_full_rank`), so that the
    error can name the offending columns.
    """

    values: np.ndarray
    columns: tuple
    weights: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "columns", check_sequence("design columns", self.columns))
        values = _read_only(np.array(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InvalidArgumentError("design values must be a 2-d array")
        n, q = values.shape
        if len(self.columns) != q:
            raise InvalidArgumentError(
                f"{len(self.columns)} column names for {q} columns"
            )
        if len(set(self.columns)) != q:
            raise InvalidArgumentError("design column names must be unique")
        if n < q + 1:
            raise InvalidArgumentError(
                f"need at least q+1={q + 1} rows, got {n}"
            )
        if not np.isfinite(values).all():
            raise InvalidArgumentError("design contains non-finite entries")
        object.__setattr__(self, "weights", _read_only(check_weights(self.weights, n)))

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def q(self):
        return self.values.shape[1]

    @cached_property
    def rank_offenders(self):
        """Names of the columns that add no rank beyond the columns to their
        left: each one's diagonal entry in one QR factorization is at most
        ``max(n, q) * eps`` times the largest diagonal entry."""
        X = self.values
        diag = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        cutoff = max(X.shape) * np.finfo(float).eps * diag.max()
        return tuple(name for name, r in zip(self.columns, diag) if r <= cutoff)

    @cached_property
    def abs_values(self):
        return _read_only(np.abs(self.values))

    @cached_property
    def transposed(self):
        """The q-by-n transpose, C-contiguous."""
        return _read_only(np.ascontiguousarray(self.values.T))

    @cached_property
    def perturbation(self):
        """Step 1's fixed tie-breaking perturbation of y, one draw per row."""
        return _read_only(np.random.default_rng(0).random(self.n))

    # weighted constants: unit weights give the unweighted ones bit for bit
    @cached_property
    def weighted_sums(self):
        """The weighted column sums, ``sum_i w_i x_i``."""
        return _read_only(np.sum(self.weights[:, None] * self.values, axis=0))

    @cached_property
    def scaled_transposed(self):
        """``transposed`` with column i scaled by ``sqrt(w_i)``."""
        return _read_only(self.transposed * np.sqrt(self.weights))

    @cached_property
    def column_scale(self):
        """Each column's weighted SD (np.std's arithmetic), or 1 where it is
        0: the intercept and constant columns."""
        w, total = self.weights[:, None], np.sum(self.weights)
        sd = np.sqrt(np.sum(w * (self.values - self.weighted_sums / total) ** 2, axis=0) / total)
        return _read_only(np.where(sd > 0, sd, 1.0))


def _read_only(a):
    a.flags.writeable = False
    return a


def check_full_rank(design):
    """Raise :class:`SingularDesignError` naming the redundant columns
    (``design.rank_offenders``).

    Each fit calls it once; only the first call on a design factors it,
    and every call on a singular design raises a new error.
    """
    if design.rank_offenders:
        raise SingularDesignError(design.rank_offenders)


def check_weights(weights, n):
    """Frequency weights for ``n`` rows as a new float array, unit weights
    when ``weights`` is None.

    Raises InvalidArgumentError unless there are n weights, all finite and
    positive integers or floats; a bool is not a number.
    """
    if weights is None:
        return np.ones(n)
    try:
        w = np.asarray(weights)
    except ValueError:  # a ragged nest of lists
        w = None
    if w is None or w.dtype.kind not in "iuf":
        raise InvalidArgumentError("weights must be numbers")
    if w.shape != (n,):
        raise InvalidArgumentError(f"weights have shape {w.shape}, expected ({n},)")
    w = w.astype(float)
    if not (np.isfinite(w) & (w > 0)).all():
        raise InvalidArgumentError("weights must be finite and positive")
    return w


def check_start(start, shape):
    """A copy of ``start`` as floats; InvalidArgumentError unless they are
    finite numbers of ``shape``."""
    try:
        s = np.array(start, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError("start must be numbers") from None
    if s.shape != shape:
        raise InvalidArgumentError(f"start has shape {s.shape}, expected {shape}")
    if not np.isfinite(s).all():
        raise InvalidArgumentError("start contains non-finite values")
    return s
