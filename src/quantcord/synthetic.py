"""Synthetic bivariate data with known dependence, plus oracle values.

The generator draws error pairs from a bivariate normal with unit
margins and a fixed (or group-dependent) correlation, so the true
sign-concordance correlation at any quantile has an independent
ground truth: one integral, on one graded Gauss-Legendre rule.
"""

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .dataset import FLOAT_FMT, Dataset
from .exceptions import InvalidArgumentError, check_number, check_sequence, check_tau

MIN_ROWS = 50
# synth holds every column as float64 and its %.17g text twice (the CSV
# buffer and the string it returns) before writing: three columns at
# n = 10^6 peaked 158 MB above the interpreter's 28 MB, about 160 bytes a
# row, so 10^7 rows take about 2 GB, the most one run may ask for
MAX_ROWS = 10**7
GAUSS_LEGENDRE_NODES = 20


def _check_rho(name, rho):
    """Raise InvalidArgumentError naming ``name`` unless rho is a finite number in (-1, 1)."""
    check_number(name, rho)
    if not -1.0 < rho < 1.0:
        raise InvalidArgumentError(f"|{name}| must be < 1, got {rho}")


@dataclass(frozen=True)
class CovariateSpec:
    """Generator for one covariate column: uniform(low, high) or binary(p)."""

    name: str
    kind: str = "uniform"
    low: float = 0.0
    high: float = 1.0
    p: float = 0.5

    def __post_init__(self):
        for name in ("low", "high", "p"):
            check_number(name, getattr(self, name))
        if self.kind not in ("uniform", "binary"):
            raise InvalidArgumentError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "uniform" and not self.low < self.high:
            raise InvalidArgumentError(f"uniform range empty: [{self.low}, {self.high})")
        if self.kind == "binary" and not 0.0 < self.p < 1.0:
            raise InvalidArgumentError(f"binary probability must be in (0,1), got {self.p}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic dataset: two ``responses`` and the ``covariates``.

    The errors' correlation is either ``rho`` (0.5 when neither is given)
    or, together with ``group_column`` (a binary covariate),
    ``rho_by_group``, a {0: rho0, 1: rho1} map; not both.
    ``coefficients`` maps each response name to {"intercept": b0,
    covariate: b, ...} of finite numbers; omitted entries are zero.
    """

    n: int
    rho: float = None
    rho_by_group: dict = None
    group_column: str = None
    covariates: tuple = ()
    coefficients: dict = field(default_factory=dict)
    responses: tuple = ("y1", "y2")
    seed: int = 0

    def __post_init__(self):
        check_number("n", self.n, integer=True, minimum=MIN_ROWS, maximum=MAX_ROWS)
        check_number("seed", self.seed, integer=True, minimum=0)
        if self.rho_by_group is None:
            object.__setattr__(self, "rho", 0.5 if self.rho is None else self.rho)
            rhos = {"rho": self.rho}
        elif self.rho is not None:
            raise InvalidArgumentError("give either rho or rho_by_group, not both")
        elif not isinstance(self.rho_by_group, dict) or set(self.rho_by_group) != {0, 1}:
            raise InvalidArgumentError(
                f"rho_by_group needs values for groups 0 and 1, got {self.rho_by_group!r}")
        else:
            rhos = {f"rho_by_group[{g}]": self.rho_by_group[g] for g in (0, 1)}
        for name, r in rhos.items():
            _check_rho(name, r)
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
        object.__setattr__(self, "responses",
                           check_sequence("responses", self.responses, "two names"))
        if len(self.responses) != 2:
            raise InvalidArgumentError("exactly two response names required")
        columns = list(self.responses) + [c.name for c in self.covariates]
        repeated = sorted({c for c in columns if columns.count(c) > 1})
        if repeated:
            raise InvalidArgumentError(
                f"responses and covariates must have distinct names, repeated: {repeated}"
            )
        names = {c.name for c in self.covariates}
        if not isinstance(self.coefficients, dict):
            raise InvalidArgumentError(
                f"coefficients must be a mapping, got {self.coefficients!r}")
        for resp, coefs in self.coefficients.items():
            if resp not in self.responses:
                raise InvalidArgumentError(
                    f"coefficients given for unknown response {resp!r}"
                )
            if not isinstance(coefs, dict):
                raise InvalidArgumentError(
                    f"coefficients of {resp!r} must be a mapping, got {coefs!r}")
            for cov, b in coefs.items():
                if cov != "intercept" and cov not in names:
                    raise InvalidArgumentError(
                        f"coefficient references unknown covariate {cov!r}"
                    )
                check_number(f"coefficient of {resp!r} on {cov!r}", b)


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
    for name, err in zip(scenario.responses, (e1, e2)):
        coefs = scenario.coefficients.get(name, {})
        y = np.full(n, float(coefs.get("intercept", 0.0)))
        for cov, b in coefs.items():
            if cov == "intercept":
                continue
            y = y + float(b) * cols[cov]
        out[name] = y + err
    out.update(cols)
    return Dataset(columns=out)


def oracle_phi_gaussian(rho, tau):
    """Ground-truth sign-concordance correlation under bivariate normal errors
    with correlation ``rho``: with z = Phi^-1(tau), Plackett's identity and
    r = sin(theta) give phi = int_0^asin(rho) exp(-z^2 / (1 + sin theta)) dtheta
    / (2 pi tau (1 - tau)).  With u = theta + pi/2, so that 1 + sin(theta) =
    2 sin^2(u / 2) without cancellation, the integral runs from pi/2 to
    acos(-rho) on 20-node Gauss-Legendre panels that halve toward acos(-rho)
    while it lies below them: one panel down to rho = -0.71, and more as rho
    nears -1, where the integrand falls to 0 within a few multiples of |z|
    of u = 0.  Within 5e-15 of the exact integral for every rho in (-1, 1)."""
    _check_rho("rho", rho)
    check_tau(tau)
    z = statistics.NormalDist().inv_cdf(tau)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_NODES)
    end = math.acos(-rho)
    a, total = math.pi / 2.0, 0.0
    while a != end:
        b = max(a / 2.0, end)
        half = (b - a) / 2.0
        u = a + half * (nodes + 1.0)
        total += half * np.dot(weights, np.exp(-z * z / (2.0 * np.sin(u / 2.0) ** 2)))
        a = b
    return float(total / (2.0 * math.pi * tau * (1.0 - tau)))


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
