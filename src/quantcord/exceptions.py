"""Exception hierarchy shared across the package."""

import math
import numbers


class QuantcordError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(QuantcordError, ValueError):
    """An argument is outside its documented domain."""


def check_tau(tau):
    """Raise InvalidArgumentError unless the quantile level ``tau`` is a real
    number in (0, 1)."""
    if not (isinstance(tau, numbers.Real) and 0.0 < tau < 1.0):
        raise InvalidArgumentError(f"tau must be in (0, 1), got {tau!r}")


def check_number(name, value, integer=False, minimum=None, maximum=None):
    """Raise InvalidArgumentError naming ``name`` unless ``value`` is a
    finite number, or an integer when ``integer``, not below ``minimum``
    and not above ``maximum`` when they are given; never a bool."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not (
            integer or math.isfinite(value)):
        what = "an integer" if integer else "a finite number"
        raise InvalidArgumentError(f"{name} must be {what}, got {value!r}")
    if minimum is not None and value < minimum:
        floor = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise InvalidArgumentError(f"{name} must be {floor}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidArgumentError(f"{name} must be at most {maximum}, got {value}")


def check_sequence(name, value, what="names"):
    """``value`` as a tuple; raise InvalidArgumentError naming ``name`` when
    it is not iterable, or is a str or bytes, which would split into one
    item per letter."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InvalidArgumentError(f"{name} must be a sequence of {what}, got {value!r}")


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
    """Too many bootstrap replicates failed at one of the spec's taus for
    the results to be trusted; raised for the first such tau in spec order.

    ``partial`` maps ``ok``, ``gamma_draws``, ``beta_draws`` and ``phi_draws`` to
    that tau's draws as a BootstrapResult holds them, NaN where ``ok`` is False.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class SeparationWarning(UserWarning):
    """Quasi-complete separation suspected in a multinomial fit."""
