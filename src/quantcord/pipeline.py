"""End-to-end two-step procedure.

Step 1 fits one quantile regression per response; step 2 classifies
the residual-sign pairs and fits the multinomial model; finally the
conditional sign-correlation phi is evaluated on per-covariate
profile grids, never clipped to its theoretical bounds.  Both steps are
M-estimators, so rows with frequency weights (a bootstrap resample's
distinct rows and their counts) give the fits of the repeated rows.
"""

import numbers
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .basis import build_design, recipe_values
from .concordance import PhiBounds, _fixed_margin_phi, classify, empirical_cells, phi_bounds
from .dataset import Dataset
from .design import check_weights
from .exceptions import InvalidArgumentError, QuantcordError, check_tau, check_taus
from .multinomial import fit_multinomial, predict_cells_rows
from .quantreg import fit_quantile_regression, residual_signs

DEFAULT_GRID_POINTS = 100
DEFAULT_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
CONSTANT_PROFILE = "(constant)"


@dataclass(frozen=True)
class AnalysisSpec:
    """Everything needed to run the two-step procedure on a dataset.

    ``binary`` names covariates whose profile grid is {0, 1} and whose
    held-constant default is the majority value.  ``grid_values`` and
    ``held`` override the per-covariate defaults.
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
        for name in ("responses", "binary"):  # a string would split into letters
            value = getattr(self, name)
            if isinstance(value, str):
                raise InvalidArgumentError(
                    f"{name} must be a sequence of column names, got {value!r}")
        if not isinstance(self.merged, bool):  # "no" is truthy
            raise InvalidArgumentError(f"merged must be True or False, got {self.merged!r}")
        points = self.grid_points
        if isinstance(points, bool) or not isinstance(points, numbers.Integral):
            raise InvalidArgumentError(f"grid_points must be an integer, got {points!r}")
        object.__setattr__(self, "responses", tuple(self.responses))
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        object.__setattr__(self, "step1_terms", tuple(self.step1_terms))
        object.__setattr__(self, "step2_terms", tuple(self.step2_terms))
        object.__setattr__(self, "binary", tuple(self.binary))
        if len(self.responses) != 2 or self.responses[0] == self.responses[1]:
            raise InvalidArgumentError(
                f"responses must be two distinct columns, got {self.responses}"
            )
        check_taus(self.taus)
        if self.grid_points < 2:
            raise InvalidArgumentError("grid_points must be at least 2")
        for name, vals in self.grid_values.items():
            if np.ndim(vals) != 1 or np.size(vals) == 0:
                raise InvalidArgumentError(
                    f"grid values for {name!r} must be a non-empty 1-d list, got {vals!r}")
        for what, given in (("grid values", self.grid_values), ("held value", self.held)):
            for name in given:
                if name not in self.profile_columns:
                    raise InvalidArgumentError(
                        f"{what} given for {name!r}, which has no profile; "
                        f"available covariates: {list(self.profile_columns)}"
                    )

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
    """Stacked per-covariate profiles: each row varies one covariate
    (named in ``varying``) and holds the others at ``columns`` values."""

    varying: tuple
    value: np.ndarray
    columns: dict

    @property
    def m(self):
        return len(self.varying)


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
    """Default evaluation grid: binary covariates take {0, 1}, others an
    equally spaced grid over the observed range; held-out covariates sit
    at their majority value (binary) or median."""
    names = spec.profile_columns
    if not names:
        return EvaluationGrid(
            varying=(CONSTANT_PROFILE,), value=np.array([np.nan]), columns={}
        )
    held = {}
    for name in names:
        if name in spec.held:
            held[name] = float(spec.held[name])
        else:
            held[name] = _held_default(data, name, spec.binary)

    varying = []
    value_blocks = []
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
        value_blocks.append(vals)
        for other in names:
            column_blocks[other].append(
                vals if other == name else np.full(len(vals), held[other])
            )
    return EvaluationGrid(
        varying=tuple(varying),
        value=np.concatenate(value_blocks),
        columns={n: np.concatenate(b) for n, b in column_blocks.items()},
    )


@dataclass(frozen=True)
class PhiSurface:
    """Conditional phi at one tau on ``grid``, an EvaluationGrid, with
    ``bounds``, the PhiBounds of that tau.

    ``cells`` column k is the probability of cell code k (see
    ``concordance``), so phi is recomputable from them.  ``se``,
    ``lower`` and ``upper`` are the bootstrap bands, None until
    :func:`quantcord.bootstrap.bootstrap` sets them with
    ``dataclasses.replace``.
    """

    tau: float
    grid: EvaluationGrid
    bounds: PhiBounds
    cells: np.ndarray
    phi: np.ndarray
    out_of_bounds: np.ndarray
    se: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None


def evaluate_surface(fit2, recipe2, grid, tau):
    """Predict cell probabilities on the grid and map them to phi."""
    if grid.columns:
        X, _ = recipe_values(recipe2, Dataset(columns=grid.columns))
    else:
        X = np.ones((grid.m, 1))
    cells = predict_cells_rows(fit2, X)
    phi_vals = _fixed_margin_phi(*cells.T, tau)
    bounds = phi_bounds(tau)
    return PhiSurface(
        tau=tau,
        grid=grid,
        bounds=bounds,
        cells=cells,
        phi=phi_vals,
        out_of_bounds=(phi_vals < bounds.phi_min) | (phi_vals > bounds.phi_max),
    )


@dataclass(frozen=True)
class TwoStepResult:
    """Both step-1 fits (response order as declared), the step-2 fit,
    the evaluated surface and the empirical cells, the relative
    frequencies of the cell codes 0 = "00", 1 = "11", 2 = "01" and
    3 = "10" of ``concordance``."""

    tau: float
    step1: tuple
    step2: object
    surface: PhiSurface
    empirical: object


def _tag_step(err, prefix):
    if err.args:
        err.args = (f"{prefix}: {err.args[0]}",) + err.args[1:]
    else:
        err.args = (prefix,)


def run_two_step(data, spec, tau, grid=None, start=None, weights=None):
    """Run the full two-step procedure at one quantile level.

    ``grid`` defaults to ``build_grid(data, spec)``; the bootstrap
    passes the original-data grid so replicates are evaluated at
    identical covariate profiles.  ``start``, a TwoStepResult for the
    same spec, gives both steps their starting coefficients; the
    bootstrap passes the full-sample result.  ``weights`` are positive
    finite frequency weights of the rows (None: unit weights).  Both
    designs' knots and centres, both steps' fits and the empirical cells
    then are those of the rows repeated by their weights, while the
    step-1 residuals keep one entry per row.  A bootstrap replicate
    passes its distinct rows with their resample counts.  The default
    grid is built from the rows as given, without their weights.
    """
    if not isinstance(data, Dataset):
        raise InvalidArgumentError("data must be a Dataset")
    check_tau(tau)
    weights = check_weights(weights, data.n)

    X1, _ = build_design(data, spec.step1_terms, weights)
    fits = []
    for j, name in enumerate(spec.responses):
        beta0 = None if start is None else start.step1[j].beta
        try:
            fits.append(fit_quantile_regression(
                X1, data.column(name), tau, start=beta0, weights=weights))
        except QuantcordError as err:
            _tag_step(err, f"step 1, response {name!r}")
            raise
    omega1 = residual_signs(fits[0])
    omega2 = residual_signs(fits[1])
    labels = classify(omega1, omega2)

    try:
        X2, recipe2 = build_design(data, spec.step2_terms, weights)
        fit2 = fit_multinomial(X2, labels, merged=spec.merged,
                               start=None if start is None else start.step2.gamma,
                               weights=weights)
    except QuantcordError as err:
        _tag_step(err, "step 2")
        raise

    if grid is None:
        grid = build_grid(data, spec)
    surface = evaluate_surface(fit2, recipe2, grid, tau)
    return TwoStepResult(
        tau=tau,
        step1=tuple(fits),
        step2=fit2,
        surface=surface,
        empirical=empirical_cells(labels, tau, weights),
    )


def phi_profile(surfaces, covariate):
    """Long-format profile table for one covariate across surfaces.

    Columns: tau, value, phi_hat, phi_min, phi_max, out_of_bounds, plus
    lower/upper when every surface carries confidence bands.  Rows are
    ordered by tau, then by grid position.
    """
    surfaces = sorted(surfaces, key=lambda s: s.tau)
    if not surfaces:
        raise InvalidArgumentError("no surfaces given")
    known = {v for s in surfaces for v in s.grid.varying}
    if covariate not in known:
        raise InvalidArgumentError(
            f"covariate {covariate!r} has no profile; available: {sorted(known)}"
        )
    masks = [np.asarray(s.grid.varying) == covariate for s in surfaces]

    def column(attr):
        get = attrgetter(attr)
        return np.concatenate(
            [np.broadcast_to(get(s), m.shape)[m] for s, m in zip(surfaces, masks)]
        )

    sources = {"tau": "tau", "value": "grid.value", "phi_hat": "phi",
             "phi_min": "bounds.phi_min", "phi_max": "bounds.phi_max",
             "out_of_bounds": "out_of_bounds"}
    if all(s.lower is not None and s.upper is not None for s in surfaces):
        sources.update(lower="lower", upper="upper")
    return {k: column(attr) for k, attr in sources.items()}
