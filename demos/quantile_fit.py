"""Fit univariate linear quantile regressions and check the pinball geometry.

Generates one heteroscedastic sample, fits the 0.1, 0.5 and 0.9
conditional quantiles of y on x, and prints the coefficient table along
with the defining property of a fitted quantile: the share of negative
residuals stays within (q+1)/n of tau.  The last two columns are the
solver's simplex pivots from the least-squares start and the margin of
its optimality certificate: the smallest slack of the vertex's dual
weights against [tau - 1, tau].
"""

import numpy as np

from quantcord import build_design, fit_quantile_regression, identity
from quantcord.dataset import Dataset

rng = np.random.default_rng(42)
n = 400
x = rng.uniform(0.0, 4.0, size=n)
y = 1.0 + 0.5 * x + (0.3 + 0.4 * x) * rng.normal(size=n)
data = Dataset(columns={"y": y, "x": x})

X, _ = build_design(data, (identity("x"),))

print("tau    intercept   slope    obj        frac(res<0)  slack   pivots  margin")
for tau in (0.1, 0.5, 0.9):
    fit = fit_quantile_regression(X, data.column("y"), tau)
    r = fit.residuals
    obj = np.sum(np.where(r > 0, tau * r, (tau - 1.0) * r))  # the pinball objective
    frac = np.count_nonzero(r < 0) / n
    slack = X.q / n
    print(
        f"{tau:.2f}   {fit.beta[0]:+8.4f}  {fit.beta[1]:+7.4f}  "
        f"{obj:8.3f}   {frac:.4f}       {slack:.4f}  "
        f"{fit.iterations:6d}  {fit.margin:.4f}"
    )

# the heteroscedastic noise makes the quantile slopes fan out: the 0.9
# line is steeper than the median line, the 0.1 line flatter
