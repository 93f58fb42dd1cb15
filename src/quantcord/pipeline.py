"""End-to-end two-step procedure.

Step 1 fits one quantile regression per response; step 2 classifies
the residual-sign pairs and fits the multinomial model; finally the
conditional sign-correlation phi is evaluated on per-covariate
profile grids, never clipped to its theoretical bounds: one
``TwoStepResult`` per tau.  No design depends on tau, so one sample
(``build_designs``) serves every tau's ``run_two_step``.  Both steps
are M-estimators, so designs whose rows carry frequency weights (a
bootstrap resample's distinct rows and their counts) give the fits of
the repeated rows.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .basis import build_design, recipe_values
from .concordance import classify, empirical_cells, phi, phi_bounds
from .dataset import Dataset
from .design import DesignMatrix
from .exceptions import (
    InvalidArgumentError,
    QuantcordError,
    check_sequence,
    check_number,
    check_tau,
    check_taus,
)
from .multinomial import fit_multinomial, predict_cells_rows
from .quantreg import fit_quantile_regression, residual_signs

DEFAULT_GRID_POINTS = 100
# a bootstrap holds each replicate's phi at every tau and grid row twice
# (the replicates' results and the draw arrays), and a tau's bands take
# about six more arrays of one draw per replicate and row: 16 B T m + 48 B m
# bytes for m rows (57 MB measured at B = 200, T = 5, m = 2000).  At the
# default 1000 replicates and five taus, 10^4 points of one continuous
# covariate take about 1.3 GB
MAX_GRID_POINTS = 10**4
DEFAULT_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
CONSTANT_PROFILE = "(constant)"


@dataclass(frozen=True)
class AnalysisSpec:
    """Everything needed to run the two-step procedure on a dataset.

    No step-1 or step-2 term may read a column of ``responses``.
    ``binary`` names 0/1 term columns; a name that no term reads is an
    error here, and :func:`build_grid` checks that each column holds only
    0 and 1.  A binary covariate's profile grid is {0, 1} and its
    held-constant default is the majority value.  ``grid_values`` (a
    non-empty list per covariate) and ``held`` (one value per covariate)
    override the per-covariate defaults; every value in them must be a
    finite number, and not a bool.
    """

    responses: tuple
    taus: tuple = DEFAULT_TAUS
    step1_terms: tuple = ()
    step2_terms: tuple = ()
    merged: bool = False
    grid_points: int = DEFAULT_GRID_POINTS
    grid_values: dict = field(default_factory=dict)
    held: dict = field(default_factory=dict)
    binary: tuple = ()

    def __post_init__(self):
        for name, what in (("responses", "column names"), ("binary", "column names"),
                           ("step1_terms", "terms"), ("step2_terms", "terms")):
            object.__setattr__(self, name, check_sequence(name, getattr(self, name), what))
        if not isinstance(self.merged, bool):  # "no" is truthy
            raise InvalidArgumentError(f"merged must be True or False, got {self.merged!r}")
        check_number("grid_points", self.grid_points, integer=True, minimum=2,
                     maximum=MAX_GRID_POINTS)
        taus = check_sequence("taus", self.taus, "quantile levels")
        check_taus(taus)
        object.__setattr__(self, "taus", tuple(float(t) for t in taus))
        if len(self.responses) != 2 or self.responses[0] == self.responses[1]:
            raise InvalidArgumentError(
                f"responses must be two distinct columns, got {self.responses}"
            )
        for name, vals in self.grid_values.items():
            try:
                one_d = np.ndim(vals) == 1 and np.size(vals) > 0
            except ValueError:  # a ragged nest of lists
                one_d = False
            if not one_d:
                raise InvalidArgumentError(
                    f"grid values for {name!r} must be a non-empty 1-d list, got {vals!r}")
            for value in vals:
                check_number(f"grid value for {name!r}", value)
        for name, value in self.held.items():
            check_number(f"held value for {name!r}", value)
        for what, given in (("grid values", self.grid_values), ("held value", self.held)):
            for name in given:
                if name not in self.profile_columns:
                    raise InvalidArgumentError(
                        f"{what} given for {name!r}, which has no profile; "
                        f"available covariates: {list(self.profile_columns)}"
                    )
        term_columns = _term_columns(self.step1_terms + self.step2_terms)
        for name in self.responses:
            if name in term_columns:
                raise InvalidArgumentError(
                    f"a term reads response {name!r}; terms read covariates only")
        unread = [name for name in self.binary if name not in term_columns]
        if unread:
            raise InvalidArgumentError(
                f"binary names {unread}, which no term reads; "
                f"term columns: {list(term_columns)}")

    @property
    def profile_columns(self):
        """Covariates that get a profile grid, in declaration order."""
        return _term_columns(self.step2_terms)

    @property
    def columns(self):
        """Every column the analysis reads: the responses, then the terms'."""
        return tuple(dict.fromkeys(
            self.responses + _term_columns(self.step1_terms + self.step2_terms)))


def _term_columns(terms):
    """Columns the terms read, in first-use order, without duplicates."""
    return tuple(dict.fromkeys(c for t in terms for c in (t.column, t.column2) if c))


@dataclass(frozen=True)
class EvaluationGrid:
    """Stacked per-covariate profiles: row i sets covariate ``varying[i]``
    to ``columns[varying[i]][i]`` and holds the others at their ``columns``
    values.  The constant model's one row varies ``CONSTANT_PROFILE``."""

    varying: tuple
    columns: dict


def _held_default(data, name, binary):
    col = data.column(name)
    if name in binary:
        ones = np.count_nonzero(col == 1.0)
        return 1.0 if ones * 2 > col.size else 0.0
    # np.median's arithmetic, without the numpy.ma import it makes
    s = np.sort(col)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


def build_grid(data, spec):
    """Default evaluation grid, one profile per covariate: binary ones take
    {0, 1}, others an equally spaced grid over the observed range; held-out
    covariates sit at their majority value (binary) or median.  A ``spec.binary`` column
    that holds a value other than 0 and 1 raises InvalidArgumentError."""
    for name in spec.binary:
        col = data.column(name)
        other = col[(col != 0.0) & (col != 1.0)]
        if other.size:
            raise InvalidArgumentError(f"binary column {name!r} contains {float(other[0])!r}")
    names = spec.profile_columns
    if not names:
        return EvaluationGrid(varying=(CONSTANT_PROFILE,), columns={})
    held = {name: float(spec.held[name]) if name in spec.held
            else _held_default(data, name, spec.binary) for name in names}

    varying = []
    column_blocks = {name: [] for name in names}
    for name in names:
        if name in spec.grid_values:
            vals = np.asarray(spec.grid_values[name], dtype=float)
        elif name in spec.binary:
            vals = np.array([0.0, 1.0])
        else:
            col = data.column(name)
            vals = np.linspace(float(np.min(col)), float(np.max(col)), spec.grid_points)
        varying.extend([name] * len(vals))
        for other in names:
            column_blocks[other].append(
                vals if other == name else np.full(len(vals), held[other])
            )
    return EvaluationGrid(tuple(varying),
                          {n: np.concatenate(b) for n, b in column_blocks.items()})


# bench/tracer.py times this stage by its name, pipeline.evaluate_surface
def evaluate_surface(fit2, sample, tau):
    """Cell probabilities on the grid rows of ``sample``, a
    :class:`SampleDesigns`, their phi, and where phi leaves
    ``phi_bounds(tau)``: ``(cells, phi, out_of_bounds)``."""
    cells = predict_cells_rows(fit2, sample.grid_X2)
    phi_vals = phi(cells, tau)
    bounds = phi_bounds(tau)
    return cells, phi_vals, (phi_vals < bounds.phi_min) | (phi_vals > bounds.phi_max)


@dataclass(frozen=True)
class TwoStepResult:
    """One tau's estimate: both step-1 fits (response order as declared),
    the step-2 fit, and on the sample's grid (row i of ``phi`` is row i of
    ``sample.grid``) the cell probabilities ``cells``, column k that of
    cell code k (see ``concordance``), their ``phi``, never clipped, and
    ``out_of_bounds``, where phi leaves ``phi_bounds(tau)``; then the
    empirical cells, the relative frequencies of the cell codes."""

    tau: float
    step1: tuple
    step2: object
    cells: np.ndarray
    phi: np.ndarray
    out_of_bounds: np.ndarray
    empirical: object


@contextmanager
def _step(name):
    """Prefix ``name`` to the message of a QuantcordError raised inside."""
    try:
        yield
    except QuantcordError as err:
        err.args = (f"{name}: {err.args[0]}",) + err.args[1:] if err.args else (name,)
        raise


@dataclass(frozen=True)
class SampleDesigns:
    """One sample, ready to fit at any tau: the rows ``data``, the
    ``spec``, step 1's design ``X1``, step 2's design ``X2``, the
    evaluation ``grid`` and ``grid_X2``, step 2's design values on the
    grid rows (a constant column when step 2 has no terms).  Both designs
    carry the rows' frequency weights.  No tau changes any of them.
    Built by :func:`build_designs`."""

    data: Dataset
    spec: AnalysisSpec
    X1: DesignMatrix
    X2: DesignMatrix
    grid: EvaluationGrid
    grid_X2: np.ndarray


def build_designs(data, spec, weights=None, grid=None):
    """The sample of the rows of ``data`` with frequency ``weights`` (None:
    unit weights), built once to serve :func:`run_two_step` at every tau.
    ``grid`` defaults to ``build_grid(data, spec)``, of the rows without
    their weights, and built first; the bootstrap gives every replicate
    the full sample's.  An error building a step's design is tagged
    ``step 1`` or ``step 2``."""
    if grid is None:
        grid = build_grid(data, spec)
    with _step("step 1"):
        X1, _ = build_design(data, spec.step1_terms, weights)
    with _step("step 2"):
        X2, fitted2 = build_design(data, spec.step2_terms, weights)
        if spec.step2_terms:
            grid_X2 = recipe_values(fitted2, Dataset(columns=grid.columns))
        else:
            grid_X2 = np.ones((len(grid.varying), 1))
    return SampleDesigns(data, spec, X1, X2, grid, grid_X2)


def run_two_step(sample, tau, start=None):
    """Run the full two-step procedure on ``sample``, a
    :class:`SampleDesigns` from :func:`build_designs`, at one quantile
    level.

    ``start``, a TwoStepResult of the same spec, gives both steps their
    starting coefficients; the bootstrap passes the full-sample result.
    Both steps' fits and the empirical cells are those of the sample's
    rows repeated by their weights, while the step-1 residuals keep one
    entry per row.  An error from the tau's work is tagged ``tau <tau>``;
    a tau where rows x min(tau, 1 - tau) < 1, weights counted as rows, is
    refused before step 1, since no row is expected beyond its quantile.
    """
    if not isinstance(sample, SampleDesigns):
        raise InvalidArgumentError(
            f"run_two_step fits a sample from build_designs, got {type(sample).__name__}")
    check_tau(tau)
    data, spec = sample.data, sample.spec
    with _step(f"tau {float(tau):g}"):
        rows = float(np.sum(sample.X1.weights))
        if rows * min(tau, 1.0 - tau) < 1.0:
            raise InvalidArgumentError(f"{rows:g} rows x min(tau, 1 - tau) is below 1, "
                                       "so no row is expected beyond the quantile")
        fits = []
        for j, name in enumerate(spec.responses):
            beta0 = None if start is None else start.step1[j].beta
            with _step(f"step 1, response {name!r}"):
                fits.append(fit_quantile_regression(
                    sample.X1, data.column(name), tau, start=beta0))
        omega1 = residual_signs(fits[0])
        omega2 = residual_signs(fits[1])
        labels = classify(omega1, omega2)

        with _step("step 2"):
            fit2 = fit_multinomial(sample.X2, labels, merged=spec.merged,
                                   start=None if start is None else start.step2.gamma)

        cells, phi_vals, out_of_bounds = evaluate_surface(fit2, sample, tau)
        return TwoStepResult(
            tau=tau, step1=tuple(fits), step2=fit2,
            cells=cells, phi=phi_vals, out_of_bounds=out_of_bounds,
            empirical=empirical_cells(labels, sample.X1.weights),
        )

