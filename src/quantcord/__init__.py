"""quantcord: quantile-level dependence between two responses.

Two-step procedure: fit a linear quantile regression to each response,
classify the residual-sign pairs into concordance categories, model the
categories with a multinomial logit on covariates, and map the predicted
cell probabilities to a conditional phi correlation surface with
bootstrap confidence bands.
"""

__version__ = "0.1.0"

from .basis import (
    TermSpec,
    build_design,
    center,
    identity,
    interaction,
    recipe_values,
    spline,
)
from .bootstrap import BootstrapResult, bootstrap
from .concordance import (
    LABELS,
    MERGED_LABELS,
    PhiBounds,
    classify,
    empirical_cells,
    phi,
    phi_bounds,
)
from .dataset import Dataset, read_csv
from .design import DesignMatrix, check_full_rank
from .exceptions import (
    EmptyCategoryError,
    InferenceUnreliableError,
    IngestionError,
    InvalidArgumentError,
    NonConvergenceError,
    QuantcordError,
    SeparationWarning,
    SingularDesignError,
)
from .multinomial import (
    MultinomialFit,
    fit_multinomial,
    predict_cells_rows,
)
from .pipeline import (
    AnalysisSpec,
    EvaluationGrid,
    PhiSurface,
    SampleDesigns,
    TwoStepResult,
    build_designs,
    build_grid,
    evaluate_surface,
    run_two_step,
)
from .quantreg import QuantileFit, fit_quantile_regression
from .synthetic import (
    CovariateSpec,
    ScenarioSpec,
    generate,
    oracle_phi_gaussian,
)

__all__ = [
    "__version__",
    # basis
    "TermSpec", "build_design", "center", "identity", "interaction",
    "recipe_values", "spline",
    # bootstrap
    "BootstrapResult", "bootstrap",
    # concordance
    "LABELS", "MERGED_LABELS", "PhiBounds", "classify", "empirical_cells",
    "phi", "phi_bounds",
    # dataset
    "Dataset", "read_csv",
    # design
    "DesignMatrix", "check_full_rank",
    # exceptions
    "EmptyCategoryError", "InferenceUnreliableError", "IngestionError",
    "InvalidArgumentError", "NonConvergenceError", "QuantcordError",
    "SeparationWarning", "SingularDesignError",
    # multinomial
    "MultinomialFit", "fit_multinomial", "predict_cells_rows",
    # pipeline
    "AnalysisSpec", "EvaluationGrid", "PhiSurface", "SampleDesigns",
    "TwoStepResult", "build_designs", "build_grid", "evaluate_surface",
    "run_two_step",
    # quantreg
    "QuantileFit", "fit_quantile_regression",
    # synthetic
    "CovariateSpec", "ScenarioSpec", "generate", "oracle_phi_gaussian",
]
