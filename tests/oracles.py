"""Reference implementations that the tests check the package against."""

import numpy as np

from quantcord.multinomial import _loglik_terms


def bvn_cdf_monte_carlo(h, k, rho, draws=10_000_000, seed=0, chunk=1_000_000):
    """Plain Monte Carlo estimate of the bivariate normal CDF.

    Independent of the quadrature path; used to cross-check it.
    """
    rng = np.random.default_rng(seed)
    hits = 0
    left = draws
    while left > 0:
        m = min(chunk, left)
        z1 = rng.standard_normal(m)
        z2 = rho * z1 + np.sqrt(1.0 - rho**2) * rng.standard_normal(m)
        hits += int(np.count_nonzero((z1 <= h) & (z2 <= k)))
        left -= m
    return hits / draws


def oracle_phi_gaussian_median_closed_form(rho):
    """Arcsine closed form at tau = 0.5, for cross-checking the quadrature."""
    return 2.0 * np.arcsin(rho) / np.pi


def loglik_parts(gamma, X, Y):
    """Multinomial log-likelihood and the n x K probabilities, observations
    in rows, from the package's K x n kernel."""
    ll, probs, _ = _loglik_terms(gamma, X.T, Y.T)
    return ll, probs.T
