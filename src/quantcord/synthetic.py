"""Synthetic bivariate data with known dependence, plus oracle values.

The generator draws error pairs from a bivariate normal with unit
margins and a fixed (or group-dependent) correlation, so the true
sign-concordance correlation at any quantile has an independent
ground truth through the bivariate normal CDF.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import FLOAT_FMT, Dataset
from .exceptions import InvalidArgumentError, check_tau

MIN_ROWS = 50


@dataclass(frozen=True)
class CovariateSpec:
    """Generator for one covariate column: uniform(low, high) or binary(p)."""

    name: str
    kind: str = "uniform"
    low: float = 0.0
    high: float = 1.0
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("uniform", "binary"):
            raise InvalidArgumentError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "uniform" and not self.low < self.high:
            raise InvalidArgumentError(f"uniform range empty: [{self.low}, {self.high})")
        if self.kind == "binary" and not 0.0 < self.p < 1.0:
            raise InvalidArgumentError(f"binary probability must be in (0,1), got {self.p}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic dataset.

    ``rho`` is either a single correlation or, together with
    ``group_column`` (a binary covariate), a {0: rho0, 1: rho1} map.
    ``coefficients`` maps each response name to {"intercept": b0,
    covariate: b, ...}; omitted entries are zero.
    """

    n: int
    rho: float = 0.5
    rho_by_group: dict = None
    group_column: str = None
    covariates: tuple = ()
    coefficients: dict = field(default_factory=dict)
    response_names: tuple = ("y1", "y2")
    seed: int = 0

    def __post_init__(self):
        if self.n < MIN_ROWS:
            raise InvalidArgumentError(f"n must be at least {MIN_ROWS}, got {self.n}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {self.seed}")
        rhos = ([self.rho] if self.rho_by_group is None
                else list(self.rho_by_group.values()))
        for r in rhos:
            if not -1.0 < r < 1.0:
                raise InvalidArgumentError(f"|rho| must be < 1, got {r}")
        if (self.rho_by_group is None) != (self.group_column is None):
            raise InvalidArgumentError(
                "rho_by_group and group_column must be given together"
            )
        if self.group_column is not None:
            kinds = {c.name: c.kind for c in self.covariates}
            if kinds.get(self.group_column) != "binary":
                raise InvalidArgumentError(
                    f"group column {self.group_column!r} must be a declared "
                    "binary covariate"
                )
        if len(self.response_names) != 2:
            raise InvalidArgumentError("exactly two response names required")
        columns = list(self.response_names) + [c.name for c in self.covariates]
        repeated = sorted({c for c in columns if columns.count(c) > 1})
        if repeated:
            raise InvalidArgumentError(
                f"responses and covariates must have distinct names, repeated: {repeated}"
            )
        names = {c.name for c in self.covariates}
        for resp, coefs in self.coefficients.items():
            if resp not in self.response_names:
                raise InvalidArgumentError(
                    f"coefficients given for unknown response {resp!r}"
                )
            for cov in coefs:
                if cov != "intercept" and cov not in names:
                    raise InvalidArgumentError(
                        f"coefficient references unknown covariate {cov!r}"
                    )


def generate(scenario):
    """Draw one dataset according to the scenario; deterministic in seed."""
    rng = np.random.default_rng(scenario.seed)
    n = scenario.n
    cols = {}
    for cov in scenario.covariates:
        if cov.kind == "uniform":
            cols[cov.name] = rng.uniform(cov.low, cov.high, size=n)
        else:
            cols[cov.name] = rng.binomial(1, cov.p, size=n).astype(float)

    if scenario.rho_by_group is None:
        rho = np.full(n, float(scenario.rho))
    else:
        g = cols[scenario.group_column].astype(int)
        lut = np.array([float(scenario.rho_by_group[0]),
                        float(scenario.rho_by_group[1])])
        rho = lut[g]

    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    e1 = z1
    e2 = rho * z1 + np.sqrt(1.0 - rho**2) * z2

    out = {}
    for name, err in zip(scenario.response_names, (e1, e2)):
        coefs = scenario.coefficients.get(name, {})
        y = np.full(n, float(coefs.get("intercept", 0.0)))
        for cov, b in coefs.items():
            if cov == "intercept":
                continue
            y = y + float(b) * cols[cov]
        out[name] = y + err
    out.update(cols)
    return Dataset(columns=out)


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal, by Plackett's
    identity: Phi(h) Phi(k) plus a 1-d integral over the correlation,

        (1 / 2 pi) int_0^rho exp(-(h^2 - 2 r h k + k^2) / (2 (1 - r^2)))
                             / sqrt(1 - r^2) dr.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    if not -1.0 < rho < 1.0:
        raise InvalidArgumentError(f"|rho| must be < 1, got {rho}")

    def integrand(r):
        s = 1.0 - r * r
        return np.exp(-(h * h - 2.0 * r * h * k + k * k) / (2.0 * s)) / np.sqrt(s)

    val, _ = quad(integrand, 0.0, rho, epsabs=1e-9, epsrel=1e-12)
    return float(ndtr(h) * ndtr(k) + val / (2.0 * np.pi))


def oracle_phi_gaussian(rho, tau):
    """Ground-truth sign-concordance correlation under bivariate
    normal errors: the joint CDF at the matched marginal quantiles,
    centered and scaled by the fixed margins."""
    check_tau(tau)
    from scipy.special import ndtri

    z = float(ndtri(tau))
    joint = bvn_cdf(z, z, rho)
    return (joint - tau * tau) / (tau * (1.0 - tau))


def oracle(scenario, taus):
    """The scenario's true phi at each tau, keyed by ``FLOAT_FMT % tau``,
    with the correlation it comes from: one ``{"rho", "phi"}`` entry, or
    one per group under ``"groups"`` beside the ``"group_column"``."""

    def truth(rho):
        return {"rho": rho, "phi": {FLOAT_FMT % t: oracle_phi_gaussian(rho, t) for t in taus}}

    if scenario.rho_by_group is None:
        return truth(scenario.rho)
    return {"group_column": scenario.group_column,
            "groups": {str(g): truth(scenario.rho_by_group[g]) for g in (0, 1)}}
