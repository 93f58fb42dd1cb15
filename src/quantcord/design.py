"""Validated design matrices shared by the regression steps."""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgumentError, SingularDesignError


@dataclass(frozen=True)
class DesignMatrix:
    """An n-by-q numeric design with named columns.

    When ``intercept`` is True the first column must be identically one.
    Construction validates shape, finiteness and name uniqueness;
    rank is checked separately by the fitting routines so that the
    error can name the offending columns.
    """

    values: np.ndarray
    columns: tuple
    intercept: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
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
        if self.intercept and not np.all(values[:, 0] == 1.0):
            raise InvalidArgumentError(
                "intercept flag set but first column is not identically 1"
            )

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def q(self):
        return self.values.shape[1]


def check_full_rank(design):
    """Raise :class:`SingularDesignError` naming the redundant columns.

    A column is offending when it adds no rank beyond the columns to
    its left: its diagonal entry in one QR factorization is at most
    ``max(n, q) * eps`` times the largest diagonal entry.
    """
    X = design.values
    diag = np.abs(np.diag(np.linalg.qr(X, mode="r")))
    cutoff = max(X.shape) * np.finfo(float).eps * diag.max()
    offenders = [name for name, r in zip(design.columns, diag) if r <= cutoff]
    if offenders:
        raise SingularDesignError(offenders)
