"""Recover group-specific dependence with the two-step procedure.

Simulates two responses whose latent correlation differs by group
(rho = 0.2 when g = 0, rho = 0.8 when g = 1) and whose locations shift
with the group, runs the two-step analysis at three quantile levels,
and compares the fitted phi surface against the Gaussian-copula truth.

The group indicator appears in both steps: step 1 must model the
conditional quantile (dropping g there leaves the location shift in
the residuals and biases every cell), step 2 lets phi vary with g.
"""

import numpy as np

from quantcord import (
    AnalysisSpec,
    CovariateSpec,
    ScenarioSpec,
    build_designs,
    generate,
    identity,
    oracle_phi_gaussian,
    run_two_step,
)

scenario = ScenarioSpec(
    n=6000,
    rho=None,
    rho_by_group={0: 0.2, 1: 0.8},
    group_column="g",
    covariates=(CovariateSpec("g", "binary", p=0.5),),
    coefficients={"y1": {"intercept": 1.0, "g": 0.5}, "y2": {"g": -0.5}},
    seed=11,
)
data = generate(scenario)

spec = AnalysisSpec(
    responses=("y1", "y2"),
    taus=(0.25, 0.5, 0.75),
    step1_terms=(identity("g"),),
    step2_terms=(identity("g"),),
    binary=("g",),
)
# one sample (its designs and grid) serves every tau
sample = build_designs(data, spec)
results = [run_two_step(sample, tau) for tau in spec.taus]
rho = {0.0: 0.2, 1.0: 0.8}

# the grid varies g alone, so every grid row is one of g's profile rows
print("tau    g    phi_hat   oracle    error")
worst = 0.0
for result in results:
    for value, est in zip(sample.grid.columns["g"], result.phi):
        truth = oracle_phi_gaussian(rho[value], result.tau)
        worst = max(worst, abs(est - truth))
        print(
            f"{result.tau:.2f}   {value:.0f}   {est:+.4f}   {truth:+.4f}   "
            f"{abs(est - truth):.4f}"
        )

# for a Gaussian copula phi peaks at the median and falls off
# symmetrically in the tails, visible in both groups above
print(f"\nworst absolute error over the grid: {worst:.4f}")
assert worst < 0.1
