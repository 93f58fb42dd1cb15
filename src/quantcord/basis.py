"""Design-matrix construction: raw, centered, spline and product terms.

A list of term declarations is turned into a numeric design plus its
fitted terms, which hold every data-dependent constant (spline knots,
centering values), so that prediction grids are evaluated with the
training constants and reproduce the training design bit for bit.
With frequency weights the constants are those of the rows repeated by
their weights.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .design import DesignMatrix, check_weights
from .exceptions import InvalidArgumentError, check_number

SPLINE_MIN_DISTINCT = 8


@dataclass(frozen=True)
class TermSpec:
    """One declared model term.

    kind is one of ``identity``, ``center``, ``spline``, ``interaction``.
    ``center`` subtracts the explicit finite constant when given, otherwise
    the training-sample mean, and its fitted term holds it.  ``interaction``
    multiplies ``column`` and ``column2``; no other kind takes either field.
    """

    kind: str
    column: str
    column2: str = None
    center: float = None

    def __post_init__(self):
        kinds = ("identity", "center", "spline", "interaction")
        if self.kind not in kinds:
            raise InvalidArgumentError(f"unknown term kind {self.kind!r}; use one of {kinds}")
        if self.kind == "interaction" and not self.column2:
            raise InvalidArgumentError("interaction terms need two columns")
        if self.kind != "interaction" and self.column2 is not None:
            raise InvalidArgumentError(f"{self.kind} terms take one column")
        if self.center is not None and self.kind != "center":
            raise InvalidArgumentError(f"{self.kind} terms take no value")
        if self.center is not None:
            check_number("center value", self.center)


def identity(column):
    return TermSpec("identity", column)


def center(column, value=None):
    return TermSpec("center", column, center=value)


def spline(column):
    return TermSpec("spline", column)


def interaction(column, column2):
    return TermSpec("interaction", column, column2=column2)


@dataclass(frozen=True)
class FittedTerm:
    spec: TermSpec
    knots: tuple = None

    @property
    def names(self):
        s = self.spec
        if s.kind == "identity":
            return (s.column,)
        if s.kind == "center":
            return (f"{s.column}-{s.center:g}",)
        if s.kind == "interaction":
            return (f"{s.column}:{s.column2}",)
        return tuple(f"s({s.column}).{j}" for j in (1, 2, 3))


def natural_spline_columns(x, knots):
    """Natural cubic spline basis on fixed knots, excluding the constant.

    With K knots this spans the K-dimensional natural spline space
    together with the intercept: the identity column plus K-2 cubic
    columns, each linear beyond the boundary knots.
    """
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    K = len(knots)

    def d(k):
        num = np.maximum(x - knots[k], 0.0) ** 3 \
            - np.maximum(x - knots[K - 1], 0.0) ** 3
        return num / (knots[K - 1] - knots[k])

    d_last = d(K - 2)
    cols = [x] + [d(k) - d_last for k in range(K - 2)]
    return np.column_stack(cols)


def sorted_quantile(s, q, ends):
    """``np.quantile(s, q, axis=0)`` for ``s`` sorted along axis 0, with
    entry j repeated ``ends[j] - ends[j - 1]`` times: ``ends`` is the
    running sum of frequency weights along ``s``, ``np.arange(1, len(s) + 1)``
    for one of each, and the repeats are never built.

    numpy's default linear method, term for term: the virtual index
    ``(n - 1) * q``, its floor and fraction, and numpy's two-sided lerp.
    Sorting once serves several levels, and ``np.quantile`` imports
    ``numpy.ma`` on its first call.
    """
    n = ends[-1]
    v = (n - 1) * q
    i = min(int(v), n - 1)  # the floor, as v >= 0
    # the entries of s at those positions of the repeats
    at = np.searchsorted(ends, (i, min(i + 1, n - 1)), side="right")
    lo, hi = s[at[0]], s[at[1]]
    g = v - i
    diff = hi - lo
    return hi - diff * (1 - g) if g >= 0.5 else lo + diff * g


def tertile_knots(x, weights=None):
    """Boundary knots at min/max, interior at the empirical tertiles
    (linear-interpolation sample quantiles), of ``x`` with entry i repeated
    ``weights[i]`` times (once when ``weights`` is None)."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)  # equal values may come in any order
    s = x[order]
    ends = np.cumsum(check_weights(weights, x.size)[order])
    distinct = 1 + int(np.count_nonzero(s[1:] != s[:-1]))
    if distinct < SPLINE_MIN_DISTINCT:
        raise InvalidArgumentError(
            f"spline term needs at least {SPLINE_MIN_DISTINCT} distinct "
            f"values, got {distinct}"
        )
    knots = (
        float(s[0]),
        float(sorted_quantile(s, 1.0 / 3.0, ends)),
        float(sorted_quantile(s, 2.0 / 3.0, ends)),
        float(s[-1]),
    )
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise InvalidArgumentError(
            f"spline knots are not strictly increasing: {knots}; "
            "the column is too concentrated for tertile knots"
        )
    return knots


def _fit_term(spec, data, w):
    if spec.kind == "center":
        col = data.column(spec.column)
        # the weighted mean, with np.mean's arithmetic when every weight is 1
        value = (float(np.sum(w * col) / np.sum(w)) if spec.center is None
                 else float(spec.center))
        return FittedTerm(replace(spec, center=value))
    if spec.kind != "spline":  # identity and interaction have no constants
        return FittedTerm(spec)
    return FittedTerm(spec, knots=tertile_knots(data.column(spec.column), w))


def _eval_term(term, data):
    s = term.spec
    col = data.column(s.column)
    if s.kind == "identity":
        return col[:, None]
    if s.kind == "center":
        return (col - s.center)[:, None]
    if s.kind == "interaction":
        return (col * data.column(s.column2))[:, None]
    return natural_spline_columns(col, term.knots)


def build_design(data, terms, weights=None):
    """Fit all data-dependent constants on the Dataset ``data`` and
    assemble the design, an intercept column followed by the terms' columns.

    ``weights``, positive finite frequency weights of the rows (None: unit
    weights), give the knots and centres of the rows repeated that often;
    the design has one row per data row, and carries the weights.
    Returns the design matrix and the tuple of its fitted terms.
    """
    if not isinstance(data, Dataset):
        raise InvalidArgumentError("data must be a Dataset")
    w = check_weights(weights, data.n)
    for t in terms:
        for name in (t.column, t.column2):
            if name and not np.isfinite(data.column(name)).all():
                raise InvalidArgumentError(f"{t.kind} column {name!r} is not finite")
    fitted = tuple(_fit_term(t, data, w) for t in terms)
    columns = ("intercept",) + tuple(n for t in fitted for n in t.names)
    return DesignMatrix(recipe_values(fitted, data), columns, w), fitted


def recipe_values(fitted, data):
    """Raw design values on the Dataset ``data`` of the tuple of fitted
    terms from :func:`build_design`, with no row-count floor.

    Used for prediction grids, which may have fewer rows than columns.
    """
    if not isinstance(data, Dataset):
        raise InvalidArgumentError("data must be a Dataset")
    return np.hstack([np.ones((data.n, 1))] + [_eval_term(t, data) for t in fitted])

