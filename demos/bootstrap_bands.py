"""Paired-bootstrap confidence bands for the phi surface.

Resamples rows of a two-group synthetic dataset (keeping the response
pairs intact), reruns the two-step fit on every replicate, and prints
the resulting standard errors and 95% bands.  The bands should cover
the Gaussian-copula truth and clearly separate the two groups.
"""

import numpy as np

from quantcord import (
    LABELS,
    AnalysisSpec,
    CovariateSpec,
    ScenarioSpec,
    bootstrap,
    build_designs,
    generate,
    identity,
    oracle_phi_gaussian,
)

scenario = ScenarioSpec(
    n=1200,
    rho=None,
    rho_by_group={0: 0.2, 1: 0.8},
    group_column="g",
    covariates=(CovariateSpec("g", "binary", p=0.5),),
    seed=23,
)
data = generate(scenario)

spec = AnalysisSpec(
    responses=("y1", "y2"),
    taus=(0.5,),
    step2_terms=(identity("g"),),
    binary=("g",),
)
sample = build_designs(data, spec)
(result,) = bootstrap(sample, B=200, seed=17)
# the estimate is the full-sample fit; its bands sit on the result
estimate = result.estimate

# every draw array has one row per replicate; a failed one is NaN and
# False in result.ok, and the SEs and bands read the other rows
print(f"replicates: {result.B}, failures: {result.failures}, "
      f"phi draws: {result.phi_draws.shape[0]} x {result.phi_draws.shape[1]}")
print("\ng    phi_hat   se       95% band             oracle   covered")
for i, value in enumerate(sample.grid.columns["g"]):
    truth = oracle_phi_gaussian({0.0: 0.2, 1.0: 0.8}[value], 0.5)
    lo, hi = result.phi_lower[i], result.phi_upper[i]
    covered = "yes" if lo <= truth <= hi else "no"
    print(
        f"{value:.0f}    {estimate.phi[i]:+.4f}   {result.phi_se[i]:.4f}"
        f"   [{lo:+.4f}, {hi:+.4f}]   {truth:+.4f}   {covered}"
    )

print("\nstep-2 coefficients (percentile intervals):")
print("category  term        estimate   95% interval")
# row r of gamma is fitted code r + 1; the design owns the term names
fit = estimate.step2
for r, cat in enumerate(LABELS[1:]):
    for c, term in enumerate(sample.X2.columns):
        print(
            f"{cat:<9} {term:<11} {fit.gamma[r, c]:+.4f}"
            f"    [{result.gamma_lower[r, c]:+.4f}, "
            f"{result.gamma_upper[r, c]:+.4f}]"
        )

# the g intervals for both discordant categories sit well below zero:
# relative to "00", discordant cells thin out sharply in the high-rho
# group, which is exactly how stronger dependence shows up here

