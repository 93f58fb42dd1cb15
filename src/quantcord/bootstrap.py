"""Paired nonparametric bootstrap over the whole two-step procedure.

Each replicate resamples rows with replacement (responses and
covariates travel together) and reruns both steps, so step-1
estimation noise propagates into the step-2 coefficients and the phi
surface.  Both steps minimise a sum over rows, so a replicate fits only
its distinct rows, each weighted by the number of times it was drawn:
the same fits as on the resample with its repeats, at about 63% of the
rows (the pairs bootstrap written as a multinomial-weight bootstrap,
Koenker 2005, ch. 3).  Replicates start both steps from the full-sample
coefficients, which only shortens the solvers' paths: each fit still
stops on its own optimality test.  ``bootstrap`` takes the full sample
that ``build_designs`` made and fits every tau of its spec.  Replicate b
fits one resample, drawn from the substream keyed by (seed, b), at every
tau, built once (no design depends on tau) and evaluated on the full
sample's grid: results are reproducible for a fixed seed whatever the
execution order, worker count or other taus of the spec, and row b of
every tau's draws is that resample (NaN where its fit failed).  The
full-sample fits run first, then the replicates, split into one
contiguous block per process: each child process of one pool fits one
block, and the calling process fits the last.

The interval arithmetic needs no scipy, so that importing this module
stays cheap: the normal quantile is the standard library's
``statistics.NormalDist.inv_cdf`` (Wichura's AS241, accurate to about
1e-16), and logit and expit use the formulas of ``scipy.special``, with
numpy and ``math`` supplying the elementary functions.
"""

import contextlib
import math
import statistics
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import sorted_quantile
from .concordance import phi_bounds
from .exceptions import (
    InferenceUnreliableError,
    InvalidArgumentError,
    QuantcordError,
    check_number,
)
from .pipeline import SampleDesigns, build_designs, run_two_step

DEFAULT_B = 1000
DEFAULT_LEVEL = 0.95
MAX_FAILURE_FRACTION = 0.2
WINSOR_EPS = 1e-6


def bootstrap_indices(seed, replicate, n):
    """Resampling indices for one replicate, from its own substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    rng = np.random.default_rng(ss)
    return rng.integers(0, n, size=n)


def _logit(u):
    """log(u / (1 - u)) elementwise; on [0.3, 0.65] the log1p form keeps
    full relative precision where the ratio is near 1."""
    s = 2.0 * (u - 0.5)
    mid = (u >= 0.3) & (u <= 0.65)
    return np.where(mid, np.log1p(s) - np.log1p(-s), np.log(u / (1.0 - u)))


def _expit(t):
    """1 / (1 + exp(-t)) for a float; exp(-t) would overflow for t below
    about -709.78, where the result equals exp(t) to working precision."""
    return 1.0 / (1.0 + math.exp(-t)) if t > -709.0 else math.exp(t)


def _normal_quantile(level):
    """z with P(|Z| <= z) = level, from the lower tail (1 - level) / 2,
    which stays above 0 for every level < 1; ``0.5 + level / 2`` rounds
    to 1 for the largest level below 1."""
    return -statistics.NormalDist().inv_cdf((1.0 - level) / 2.0)


def _phi_bands(draws, estimates, tau, level):
    """Wald bands for phi on the rescaled-logit scale, one per row of
    ``draws``, an m x B C-contiguous matrix of bootstrap draws, around
    the m ``estimates``.

    phi is mapped affinely from (phi_min(tau), phi_max(tau)) onto (0, 1),
    winsorized to [WINSOR_EPS, 1 - WINSOR_EPS] and logit-transformed, the
    draws (infinite ones included) and the estimates alike; each band is
    centered at its estimate's transform with the bootstrap SE of the
    row's transformed draws, then mapped back.  So an estimate outside
    the bounds, which ``TwoStepResult.out_of_bounds`` flags and keeps,
    gets a band within the bounds that excludes it.  Equal draws, or
    draws all at one bound, give the point mass at the estimate.  Returns
    a BootstrapResult's ``phi_lower``, ``phi_upper`` and ``winsorized``,
    the winsorized count of draws per row.
    """
    b = phi_bounds(tau)
    span = b.phi_max - b.phi_min
    u = (draws - b.phi_min) / span
    at_low = u < WINSOR_EPS
    at_high = u > 1.0 - WINSOR_EPS
    t = _logit(np.clip(u, WINSOR_EPS, 1.0 - WINSOR_EPS))
    # every reduction runs along one contiguous row, so each row sums in
    # the order a lone 1-d row would.  Equal draws must give an exactly
    # zero-width band, and np.std of equal values can come back ~1e-16
    # through the mean rounding, so only rows with a spread get an SE
    # (np.std warns even on no rows when B = 1)
    se = np.zeros(len(t))
    live = np.ptp(t, axis=1) > 0.0
    if live.any():
        se[live] = np.std(t[live], axis=1, ddof=1)
    t0 = _logit(np.clip((estimates - b.phi_min) / span, WINSOR_EPS, 1.0 - WINSOR_EPS))
    half = _normal_quantile(level) * se
    # math.exp, one element at a time: numpy's vectorized exp differs
    # from it in the last bit for some arguments
    lo = np.array([_expit(x) for x in (t0 - half).tolist()])
    hi = np.array([_expit(x) for x in (t0 + half).tolist()])
    point = se == 0.0
    lower = np.where(point, estimates, b.phi_min + span * lo)
    upper = np.where(point, estimates, b.phi_min + span * hi)
    return lower, upper, at_low.sum(axis=1) + at_high.sum(axis=1)


def _draw(res):
    """A two-step result's gamma, the beta of each response, and phi."""
    return res.step2.gamma, tuple(f.beta for f in res.step1), res.phi


def _run_replicate(sample, base):
    """One replicate's draw at ``base.tau`` from ``sample``, the SampleDesigns
    of its distinct rows and their counts, or None when it fails."""
    try:
        res = run_two_step(sample, base.tau, start=base)
    except QuantcordError:
        return None
    return _draw(res)


def _replicate(sample, bases, seed, b):
    """Replicate b's result at every base's tau, from one resample of the full
    ``sample``, built once on ``sample.grid``; None at every tau when its designs
    cannot be built.  A resample's warnings are silenced: its failures are counted."""
    data = sample.data
    counts = np.bincount(bootstrap_indices(seed, b, data.n), minlength=data.n)
    rows = np.flatnonzero(counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            resample = build_designs(data.take(rows), sample.spec, counts[rows], sample.grid)
        except QuantcordError:
            return [None] * len(bases)
        return [_run_replicate(resample, base) for base in bases]


_WORKER_CTX = {}


def _init_worker(sample, bases, seed):
    """Keep the full ``sample``, its fits ``bases`` and ``seed`` for the tasks."""
    _WORKER_CTX["args"] = (sample, bases, seed)


def _replicate_task(block):
    """The replicates in range ``block``, from the context the initializer stored."""
    return [_replicate(*_WORKER_CTX["args"], b) for b in block]


def check_arguments(B, seed, level, workers):
    """Raise InvalidArgumentError unless ``B`` >= 2, ``seed`` >= 0 and
    ``workers`` >= 1 are integers (not bools) and ``level`` is a number in
    (0, 1)."""
    for name, value, minimum in (("B", B, 2), ("seed", seed, 0), ("workers", workers, 1)):
        check_number(f"bootstrap {name}", value, integer=True, minimum=minimum)
    check_number("bootstrap level", level)
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"bootstrap level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class BootstrapResult:
    """One spec tau's draws, row b from replicate b (NaN where the success
    mask ``ok`` is False), plus the SEs and intervals of the rows where it
    holds; :func:`bootstrap` returns one per tau of the sample's spec.

    ``estimate`` is the full-sample :func:`~quantcord.pipeline.run_two_step`
    result.  ``gamma_lower``/``gamma_upper`` are percentile intervals;
    ``phi_lower``/``phi_upper``, one per grid row, are Wald intervals on
    the rescaled-logit scale (see :func:`_phi_bands`), and ``phi_se`` the
    bootstrap SEs of the draws of phi.
    """

    level: float
    ok: np.ndarray
    estimate: object
    gamma_draws: np.ndarray
    beta_draws: dict
    phi_draws: np.ndarray
    gamma_se: np.ndarray
    beta_se: dict
    phi_se: np.ndarray
    gamma_lower: np.ndarray
    gamma_upper: np.ndarray
    phi_lower: np.ndarray
    phi_upper: np.ndarray
    winsorized: np.ndarray

    @property
    def B(self):
        return len(self.ok)

    @property
    def failures(self):
        return int(np.count_nonzero(~self.ok))


def bootstrap(sample, B=DEFAULT_B, seed=0, level=DEFAULT_LEVEL, workers=1):
    """Bootstrap the two-step procedure at every quantile level of the
    sample's spec.

    Parameters
    ----------
    sample : SampleDesigns
        The full sample, from :func:`quantcord.pipeline.build_designs` at
        unit weights; it is fitted at each of ``sample.spec.taus``, and its
        grid serves every replicate.
    B : int
        Replicate count, at least 2; each replicate serves every tau, and
        each resample is built once, whatever the number of taus.
    seed : int
        Non-negative seed.  Replicate b resamples from substream
        (seed, b) and fits that one resample at every tau, so a tau's
        draws are those of a one-tau spec at the same seed.
    level : float
        Coverage level for all intervals.
    workers : int
        Process count, the calling process included (at most ``B`` are
        used); any value yields identical results.  All full-sample fits
        run first.  The replicates are then split into one contiguous block
        per process: each of one pool's ``workers - 1`` child processes fits
        one block, and the caller fits the last.

    Returns
    -------
    A tuple of BootstrapResult, one per spec tau in spec order: views of
    one B x T mask ``ok`` and one (B, T, ...) array per quantity.  Each
    ``estimate`` is the full-sample :func:`~quantcord.pipeline.run_two_step`
    result, and the phi bands sit beside the gamma bands.

    Raises
    ------
    InferenceUnreliableError
        When more than 20% of a tau's replicates fail, for the first such
        tau in order; its ``partial`` holds that tau's ``ok`` and draws.
    InvalidArgumentError
        Before any fit, for a ``sample`` that is not a SampleDesigns or
        whose rows carry weights other than 1, a level outside (0, 1), or
        a ``B``, ``seed`` or ``workers`` not an integer in range (a bool is
        not one).
    """
    if not isinstance(sample, SampleDesigns):
        raise InvalidArgumentError(
            f"bootstrap resamples a sample from build_designs, got {type(sample).__name__}")
    # a replicate resamples rows, not the copies that weights stand for
    if np.any(sample.X1.weights != 1.0):
        raise InvalidArgumentError("bootstrap resamples unweighted rows; "
                                   "build the sample without weights")
    check_arguments(B, seed, level, workers)

    bases = [run_two_step(sample, t) for t in sample.spec.taus]
    # one contiguous block per process; the caller fits the last, with no pool when alone
    workers = min(workers, B)
    edges = [B * k // workers for k in range(workers + 1)]
    *blocks, own = (range(lo, hi) for lo, hi in zip(edges, edges[1:]))
    pool = ProcessPoolExecutor(
        max_workers=workers - 1,
        initializer=_init_worker,
        initargs=(sample, bases, seed),
    ) if blocks else contextlib.nullcontext()
    with pool:
        futures = [pool.submit(_replicate_task, block) for block in blocks]
        mine = [_replicate(sample, bases, seed, b) for b in own]
        results = [r for f in futures for r in f.result()] + mine

    # row b of each array is replicate b at every tau, NaN where it failed
    ok = np.array([[r is not None for r in row] for row in results])
    draws = [np.full(ok.shape + np.shape(x), np.nan) for x in _draw(bases[0])]
    for b, i in zip(*np.nonzero(ok)):
        for array, x in zip(draws, results[b][i]):
            array[b, i] = x
    return tuple(_summarize(sample.spec, base, level, ok[:, i], *(a[:, i] for a in draws))
                 for i, base in enumerate(bases))


def _summarize(spec, base, level, ok, gamma, beta, phi):
    """One tau's BootstrapResult from its column ``ok`` of the success mask
    and its views of the replicate-aligned gamma, beta and phi arrays."""
    draws = {"ok": ok, "gamma_draws": gamma, "phi_draws": phi,
             "beta_draws": {name: beta[:, j] for j, name in enumerate(spec.responses)}}
    failures = np.count_nonzero(~ok)
    if failures > MAX_FAILURE_FRACTION * len(ok):
        raise InferenceUnreliableError(
            f"at tau {base.tau:g}, {failures} of {len(ok)} bootstrap replicates failed "
            f"(more than {MAX_FAILURE_FRACTION:.0%})",
            partial=draws,
        )

    # the successful rows, in replicate order
    gammas, phis = gamma[ok], phi[ok]
    alpha = 1.0 - level
    ordered = np.sort(gammas, axis=0)
    phi_lower, phi_upper, winsorized = _phi_bands(
        np.ascontiguousarray(phis.T), base.phi, base.tau, level)
    return BootstrapResult(
        level=level,
        estimate=base,
        gamma_se=np.std(gammas, axis=0, ddof=1),
        beta_se={k: np.std(v[ok], axis=0, ddof=1) for k, v in draws["beta_draws"].items()},
        phi_se=np.std(phis, axis=0, ddof=1),
        gamma_lower=sorted_quantile(ordered, alpha / 2.0),
        gamma_upper=sorted_quantile(ordered, 1.0 - alpha / 2.0),
        phi_lower=phi_lower,
        phi_upper=phi_upper,
        winsorized=winsorized,
        **draws,
    )
