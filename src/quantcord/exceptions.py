"""Exception hierarchy shared across the package."""


class QuantcordError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(QuantcordError, ValueError):
    """An argument is outside its documented domain."""


def check_tau(tau):
    """Raise InvalidArgumentError unless the quantile level ``tau`` is in (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise InvalidArgumentError(f"tau must be in (0, 1), got {tau}")


def check_taus(taus):
    """Raise InvalidArgumentError unless ``taus`` is a non-empty, strictly
    increasing sequence of quantile levels in (0, 1)."""
    if not taus:
        raise InvalidArgumentError("at least one tau is required")
    for t in taus:
        check_tau(t)
    if any(a >= b for a, b in zip(taus, taus[1:])):
        raise InvalidArgumentError(f"taus must be strictly increasing: {taus}")


class SingularDesignError(QuantcordError):
    """The design matrix is rank deficient.

    ``columns`` names the offending columns (those that add no rank
    beyond the columns to their left).
    """

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; offending columns: "
            + ", ".join(self.columns)
        )


class NonConvergenceError(QuantcordError):
    """An iterative solver stopped without certifying its fit.

    The last iterate is attached as ``last_fit`` so callers can inspect or
    salvage it: a QuantileFit whose ``margin`` is negative, or a
    MultinomialFit whose ``converged`` is False.
    """

    def __init__(self, message, last_fit=None):
        self.last_fit = last_fit
        super().__init__(message)


class EmptyCategoryError(QuantcordError):
    """One or more concordance categories has no observations."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "no observations for categories "
            + ", ".join(repr(m) for m in self.missing)
            + "; consider merged discordance mode or coarser covariates"
        )


class IngestionError(QuantcordError):
    """A CSV file could not be turned into a clean numeric dataset."""


class InferenceUnreliableError(QuantcordError):
    """Too many bootstrap replicates failed for the results to be trusted.

    ``partial`` carries whatever was computed from the surviving replicates.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class SeparationWarning(UserWarning):
    """Quasi-complete separation suspected in a multinomial fit."""
