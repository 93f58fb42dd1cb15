"""Tests for the paired bootstrap and the phi interval construction."""

import dataclasses
import importlib
import os
import types
import warnings

import numpy as np
import pytest
from scipy.special import digamma, expit, logit, polygamma
from scipy.stats import norm

from quantcord import (
    LABELS,
    AnalysisSpec,
    Dataset,
    InferenceUnreliableError,
    InvalidArgumentError,
    QuantcordError,
    SingularDesignError,
    bootstrap,
    build_designs,
    classify,
    identity,
    phi_bounds,
    run_two_step,
    spline,
)
from quantcord.bootstrap import (
    WINSOR_EPS,
    _expit,
    _logit,
    _normal_quantile,
    _phi_bands,
    bootstrap_indices,
)
from quantcord.quantreg import residual_signs

SPEC = AnalysisSpec(responses=("y1", "y2"), taus=(0.5,))


def _sample(data, *taus, spec=SPEC):
    """The full sample of ``data`` under ``spec``, at quantile levels
    ``taus`` when any are given."""
    return build_designs(data, dataclasses.replace(spec, taus=taus) if taus else spec)


def _copula_like(n, seed, rho=0.5):
    rng = np.random.default_rng(seed)
    e1 = rng.normal(size=n)
    e2 = rho * e1 + np.sqrt(1.0 - rho * rho) * rng.normal(size=n)
    return Dataset(columns={"y1": e1, "y2": e2})


def _rare_discordance(n=40, seed=81):
    """Concordant except two rows reflected across the median, so most
    resamples lose a discordant category entirely."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    y2 = e + 0.01 * rng.normal(size=n)
    med = np.median(e)
    for i in (3, 17):
        y2[i] = 2.0 * med - e[i]
    return Dataset(columns={"y1": e, "y2": y2})


def _rare_upper_discordance(n=40, seed=1):
    """Weakly dependent below the 0.8 quantile of y1 and far apart above
    it, except one swapped pair: tau 0.5 is well populated, while most
    resamples at tau 0.8 lose a discordant category."""
    rng = np.random.default_rng(seed)
    e1 = rng.normal(size=n)
    e2 = 0.3 * e1 + np.sqrt(1.0 - 0.09) * rng.normal(size=n)
    top = e1 > np.quantile(e1, 0.8)
    y2 = np.where(top, 100.0 + e1, e2)
    i, j = np.flatnonzero(top)[0], np.flatnonzero(~top)[0]
    y2[i], y2[j] = y2[j], y2[i]
    return Dataset(columns={"y1": e1, "y2": y2})


class TestBootstrapIndices:

    def test_deterministic_per_replicate(self):
        np.testing.assert_array_equal(
            bootstrap_indices(42, 3, 50), bootstrap_indices(42, 3, 50)
        )

    def test_replicates_use_distinct_substreams(self):
        a = bootstrap_indices(42, 0, 50)
        b = bootstrap_indices(42, 1, 50)
        assert not np.array_equal(a, b)

    def test_indices_cover_valid_range_only(self):
        for b in range(5):
            idx = bootstrap_indices(7, b, 30)
            assert idx.shape == (30,)
            assert idx.min() >= 0 and idx.max() < 30

    def test_pair_integrity_by_row_hashing(self):
        # every resampled row must be an exact copy of an original row,
        # responses and covariates traveling together
        rng = np.random.default_rng(14)
        data = Dataset(
            columns={
                "y1": rng.normal(size=12),
                "y2": rng.normal(size=12),
                "x": rng.uniform(size=12),
            }
        )
        original = {
            tuple(data.column(c)[i] for c in data.names) for i in range(data.n)
        }
        for b in range(4):
            boot = data.take(bootstrap_indices(99, b, data.n))
            for i in range(boot.n):
                row = tuple(boot.column(c)[i] for c in boot.names)
                assert row in original


class TestBootstrapDeterminism:

    def test_same_seed_reproduces_everything(self):
        data = _copula_like(150, seed=80)
        (r1,) = bootstrap(_sample(data), B=24, seed=7)
        (r2,) = bootstrap(_sample(data), B=24, seed=7)
        np.testing.assert_array_equal(r1.gamma_draws, r2.gamma_draws)
        np.testing.assert_array_equal(r1.phi_draws, r2.phi_draws)
        np.testing.assert_array_equal(r1.phi_lower, r2.phi_lower)
        np.testing.assert_array_equal(r1.phi_upper, r2.phi_upper)
        np.testing.assert_array_equal(r1.gamma_se, r2.gamma_se)
        for name in SPEC.responses:
            np.testing.assert_array_equal(
                r1.beta_draws[name], r2.beta_draws[name]
            )
        assert r1.failures == r2.failures == 0

    def test_different_seed_changes_draws(self):
        data = _copula_like(150, seed=80)
        (r1,) = bootstrap(_sample(data), B=12, seed=7)
        (r2,) = bootstrap(_sample(data), B=12, seed=8)
        assert not np.array_equal(r1.phi_draws, r2.phi_draws)

    def test_workers_do_not_change_results(self):
        data = _copula_like(120, seed=80)
        (serial,) = bootstrap(_sample(data), B=12, seed=3, workers=1)
        (par,) = bootstrap(_sample(data), B=12, seed=3, workers=2)
        np.testing.assert_array_equal(serial.gamma_draws, par.gamma_draws)
        np.testing.assert_array_equal(serial.phi_draws, par.phi_draws)
        np.testing.assert_array_equal(serial.phi_lower, par.phi_lower)
        np.testing.assert_array_equal(serial.phi_upper, par.phi_upper)


_FIELDS = ("B", "level", "failures", "ok", "gamma_draws", "phi_draws",
           "gamma_se", "gamma_lower", "gamma_upper", "phi_se", "phi_lower", "phi_upper",
           "winsorized")


def _no_fit(*args, **kwargs):
    raise AssertionError("fitted before validating")


def _assert_same_fields(a, b):
    """Dataclasses ``a`` and ``b`` equal field by field, bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same_fields(x, y)
        elif isinstance(x, tuple) and x and dataclasses.is_dataclass(x[0]):
            assert len(x) == len(y), f.name
            for u, v in zip(x, y):
                _assert_same_fields(u, v)
        elif isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            for k in x:
                np.testing.assert_array_equal(x[k], y[k], err_msg=f"{f.name}[{k!r}]")
        else:
            # the bytes too: assert_array_equal takes -0.0 for 0.0
            np.testing.assert_array_equal(x, y, err_msg=f.name, strict=True)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name


def _assert_same_result(a, b):
    """Results ``a`` and ``b`` equal exactly, a failed replicate's NaN
    draws included."""
    for name in _FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name,
                                      strict=True)
    for name in SPEC.responses:
        np.testing.assert_array_equal(a.beta_draws[name], b.beta_draws[name], strict=True)
        np.testing.assert_array_equal(a.beta_se[name], b.beta_se[name], strict=True)
    assert a.estimate.tau == b.estimate.tau
    assert np.array_equal(a.estimate.step2.gamma, b.estimate.step2.gamma)
    assert np.array_equal(a.estimate.phi, b.estimate.phi)


class TestManyTaus:

    def test_matches_lone_calls_at_the_same_seed(self):
        # one result per spec tau, in spec order, each that of a one-tau spec
        data = _copula_like(120, seed=80)
        spec = dataclasses.replace(SPEC, taus=(0.25, 0.5, 0.75))
        alone = [bootstrap(_sample(data, tau), B=8, seed=5)[0] for tau in spec.taus]
        for workers in (1, 2):
            every = bootstrap(build_designs(data, spec), B=8, seed=5, workers=workers)
            assert isinstance(every, tuple) and len(every) == len(spec.taus)
            for result, lone, tau in zip(every, alone, spec.taus):
                assert result.estimate.tau == tau
                _assert_same_result(result, lone)

    def test_a_one_tau_spec_returns_a_one_tuple(self):
        out = bootstrap(_sample(_copula_like(80, seed=2)), B=4, seed=3)
        assert isinstance(out, tuple) and len(out) == 1
        assert out[0].estimate.tau == 0.5

    def test_rows_must_be_a_sample(self, monkeypatch):
        module = importlib.import_module("quantcord.bootstrap")
        monkeypatch.setattr(module, "run_two_step", _no_fit)
        with pytest.raises(InvalidArgumentError,
                           match="bootstrap resamples a sample from build_designs, got Dataset"):
            bootstrap(_copula_like(60, seed=1), B=4)

    def test_weighted_sample_rejected(self, monkeypatch):
        # a replicate draws rows, so weights would not stand for repeated rows
        module = importlib.import_module("quantcord.bootstrap")
        monkeypatch.setattr(module, "run_two_step", _no_fit)
        data = _copula_like(60, seed=1)
        weights = np.ones(data.n)
        weights[7] = 2.0
        with pytest.raises(InvalidArgumentError, match="bootstrap resamples unweighted rows"):
            bootstrap(build_designs(data, SPEC, weights), B=4)

    def test_one_resample_serves_every_tau(self, monkeypatch):
        module = importlib.import_module("quantcord.bootstrap")
        run = module._run_replicate
        calls = []

        def recorded(sample, base):
            calls.append((base.tau, sample.X1.weights))
            return run(sample, base)

        monkeypatch.setattr(module, "_run_replicate", recorded)
        data = _copula_like(80, seed=2)
        taus = (0.25, 0.5, 0.75)
        bootstrap(_sample(data, *taus), B=5, seed=4)
        assert [tau for tau, _ in calls] == list(taus) * 5
        for b in range(5):
            counts = np.bincount(bootstrap_indices(4, b, data.n), minlength=data.n)
            for _, weights in calls[3 * b:3 * b + 3]:
                np.testing.assert_array_equal(weights, counts[counts > 0])

    @pytest.mark.parametrize("taus", [0.5, (0.25, 0.5, 0.75)])
    def test_designs_are_built_once_per_sample(self, monkeypatch, taus):
        # both designs of the full sample and of each of the B resamples,
        # whatever the number of taus
        pipeline = importlib.import_module("quantcord.pipeline")
        build, built = pipeline.build_design, []
        monkeypatch.setattr(pipeline, "build_design",
                            lambda *a, **k: built.append(a[0].n) or build(*a, **k))
        data = _copula_like(80, seed=2)
        bootstrap(_sample(data, *np.atleast_1d(taus)), B=5, seed=4)
        assert len(built) == 2 * (5 + 1)
        assert built[:2] == [80, 80]

    @pytest.mark.parametrize("taus", [0.5, (0.25, 0.5, 0.75)])
    def test_the_grid_is_built_once_per_call(self, monkeypatch, taus):
        # the full sample's grid, which every replicate's sample holds
        pipeline = importlib.import_module("quantcord.pipeline")
        module = importlib.import_module("quantcord.bootstrap")
        build, grids = pipeline.build_grid, []
        monkeypatch.setattr(pipeline, "build_grid",
                            lambda *a: grids.append(build(*a)) or grids[-1])
        run, held = module._run_replicate, []
        monkeypatch.setattr(module, "_run_replicate",
                            lambda sample, base: held.append(sample.grid) or run(sample, base))
        out = bootstrap(_sample(_copula_like(80, seed=2), *np.atleast_1d(taus)), B=5, seed=4)
        assert len(grids) == 1
        assert len(held) == 5 * np.size(taus)
        assert all(grid is grids[0] for grid in held)
        for result in out:
            assert result.estimate.phi.shape == (len(grids[0].varying),)

    @pytest.fixture()
    def pools(self, monkeypatch):
        """The ``max_workers`` of every pool that bootstrap() makes, in
        ``sizes``, and the arguments of every task submitted to one, in
        ``tasks``.  A pool with a child for every usable CPU fails the
        test before any child starts."""
        module = importlib.import_module("quantcord.bootstrap")
        made = types.SimpleNamespace(sizes=[], tasks=[])

        class CountingPool(module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.sizes.append(kwargs.get("max_workers"))
                # before any child starts: the caller is one of the usable CPUs
                assert made.sizes[-1] < module._usable_cpus(), made.sizes
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                made.tasks.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(module, "ProcessPoolExecutor", CountingPool)
        return made

    @staticmethod
    def _cpus(monkeypatch, count):
        """Let bootstrap() see ``count`` usable CPUs, whatever the host has."""
        module = importlib.import_module("quantcord.bootstrap")
        monkeypatch.setattr(module, "_usable_cpus", lambda: count)

    def test_one_pool_serves_every_tau(self, pools, monkeypatch):
        # the parent is one of the ``workers`` processes: one child beside it
        module = importlib.import_module("quantcord.bootstrap")
        run = module._run_replicate
        in_parent = []  # a forked child appends to its own copy

        def counted(*args):
            in_parent.append(args[-1])
            return run(*args)

        monkeypatch.setattr(module, "_run_replicate", counted)
        self._cpus(monkeypatch, 2)
        data = _copula_like(80, seed=2)
        taus = (0.25, 0.5, 0.75)
        out = bootstrap(_sample(data, *taus), B=4, seed=1, workers=2)
        assert len(out) == 3
        assert pools.sizes == [1]
        assert len(in_parent) >= 1
        serial = bootstrap(_sample(data, *taus), B=4, seed=1, workers=1)
        for pooled, alone in zip(out, serial):
            _assert_same_result(pooled, alone)

    def test_pool_has_no_more_workers_than_tasks(self, pools, monkeypatch):
        self._cpus(monkeypatch, 4)
        data = _copula_like(60, seed=4)
        (pooled,) = bootstrap(_sample(data), B=2, seed=1, workers=4)
        assert pools.sizes == [1]
        (serial,) = bootstrap(_sample(data), B=2, seed=1, workers=1)
        np.testing.assert_array_equal(pooled.phi_draws, serial.phi_draws)

    def test_each_process_fits_one_contiguous_block(self, pools, monkeypatch):
        # B = 7 over 3 processes splits at the edges 7k // 3: each child
        # gets one block, and the caller fits the last
        module = importlib.import_module("quantcord.bootstrap")
        run = module._run_replicate
        in_parent = []  # a forked child appends to its own copy

        def counted(sample, base):
            in_parent.append(sample.X1.weights)
            return run(sample, base)

        monkeypatch.setattr(module, "_run_replicate", counted)
        self._cpus(monkeypatch, 3)
        data = _copula_like(80, seed=2)
        (pooled,) = bootstrap(_sample(data), B=7, seed=1, workers=3)
        assert pools.sizes == [2]
        assert pools.tasks == [(range(0, 2),), (range(2, 4),)]
        assert len(in_parent) == 3
        for b, weights in zip(range(4, 7), in_parent):
            counts = np.bincount(bootstrap_indices(1, b, data.n), minlength=data.n)
            np.testing.assert_array_equal(weights, counts[counts > 0])
        (serial,) = bootstrap(_sample(data), B=7, seed=1, workers=1)
        _assert_same_result(pooled, serial)

    @pytest.mark.parametrize("cpus,workers,sizes,tasks", [
        (1, 5000, [], []),  # one CPU forks nothing, whatever workers asks
        (2, 64, [1], [(range(0, 4),)]),
    ], ids=["one-cpu", "two-cpus"])
    def test_workers_are_capped_at_the_usable_cpus(self, pools, monkeypatch,
                                                   cpus, workers, sizes, tasks):
        self._cpus(monkeypatch, cpus)
        data = _copula_like(60, seed=4)
        (capped,) = bootstrap(_sample(data), B=8, seed=1, workers=workers)
        assert pools.sizes == sizes
        assert pools.tasks == tasks
        (serial,) = bootstrap(_sample(data), B=8, seed=1, workers=1)
        _assert_same_result(capped, serial)

    def test_usable_cpus_are_the_affinity_set_else_every_cpu(self, monkeypatch):
        module = importlib.import_module("quantcord.bootstrap")
        if hasattr(os, "sched_getaffinity"):
            assert module._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert module._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert module._usable_cpus() == 1

    def test_first_unreliable_tau_raises_its_lone_partial(self):
        data = _rare_upper_discordance()
        assert bootstrap(_sample(data), B=30, seed=10)[0].failures == 0
        with pytest.raises(InferenceUnreliableError) as lone:
            bootstrap(_sample(data, 0.8), B=30, seed=10)
        with pytest.raises(InferenceUnreliableError) as third:
            bootstrap(_sample(data, 0.85), B=30, seed=10)
        assert (np.count_nonzero(~third.value.partial["ok"])
                != np.count_nonzero(~lone.value.partial["ok"]))
        # taus 2 and 3 both fail; the second tau raises
        with pytest.raises(InferenceUnreliableError) as many:
            bootstrap(_sample(data, 0.5, 0.8, 0.85), B=30, seed=10, workers=2)
        assert str(many.value) == str(lone.value)
        assert str(many.value).startswith("at tau 0.8, ")
        expected, got = lone.value.partial, many.value.partial
        assert got.keys() == expected.keys() == {"ok", "gamma_draws", "beta_draws", "phi_draws"}
        np.testing.assert_array_equal(got["ok"], expected["ok"], strict=True)
        for name in ("gamma_draws", "phi_draws"):
            np.testing.assert_array_equal(got[name], expected[name], strict=True)
        for name in SPEC.responses:
            np.testing.assert_array_equal(got["beta_draws"][name],
                                          expected["beta_draws"][name], strict=True)


class TestAlignedDraws:

    def test_a_replicate_failing_at_one_tau_keeps_its_row_at_every_tau(self, monkeypatch):
        module = importlib.import_module("quantcord.bootstrap")
        data = _copula_like(120, seed=80)
        taus, B, seed, b, bad = (0.25, 0.75), 12, 3, 4, 1
        clean = bootstrap(_sample(data, *taus), B=B, seed=seed)
        counts = np.bincount(bootstrap_indices(seed, b, data.n), minlength=data.n)
        run = module._run_replicate

        def fails_once(sample, base):
            # replicate b is known by its weights, in a forked worker too
            if base.tau == taus[bad] and np.array_equal(sample.X1.weights, counts[counts > 0]):
                return None
            return run(sample, base)

        monkeypatch.setattr(module, "_run_replicate", fails_once)
        serial = bootstrap(_sample(data, *taus), B=B, seed=seed, workers=1)
        pooled = bootstrap(_sample(data, *taus), B=B, seed=seed, workers=2)
        sample = build_designs(data, SPEC)
        bases = [run_two_step(sample, t) for t in taus]
        replicate = module._replicate(sample, bases, seed, b)
        assert replicate[bad] is None
        others = np.arange(B) != b
        for i, (got, ref) in enumerate(zip(serial, clean)):
            _assert_same_result(got, pooled[i])
            assert got.ok.tolist() == [i != bad or r != b for r in range(B)]
            rows = [got.gamma_draws[b], *(got.beta_draws[n][b] for n in SPEC.responses),
                    got.phi_draws[b]]
            if i == bad:
                assert all(np.isnan(row).all() for row in rows)
            else:
                gamma, betas, phi = replicate[i]
                for row, want in zip(rows, (gamma, *betas, phi)):
                    np.testing.assert_array_equal(row, want, strict=True)
            for name in ("gamma_draws", "phi_draws"):
                np.testing.assert_array_equal(getattr(got, name)[others],
                                              getattr(ref, name)[others], strict=True)
            for name in SPEC.responses:
                np.testing.assert_array_equal(got.beta_draws[name][others],
                                              ref.beta_draws[name][others], strict=True)
        # both taus view one array per quantity and one mask
        for name in ("ok", "gamma_draws", "phi_draws"):
            first, second = getattr(serial[0], name), getattr(serial[1], name)
            assert first.base is not None and first.base is second.base, name


@pytest.fixture(scope="module")
def result():
    return bootstrap(_sample(_copula_like(150, seed=80)), B=24, seed=7)[0]


class TestBootstrapResultShape:

    def test_draw_counts_equal_b_minus_failures(self, result):
        # every draw array has B rows; the successful ones are finite
        k = result.B - result.failures
        assert result.ok.shape == (result.B,) and np.count_nonzero(result.ok) == k
        for draws in (result.gamma_draws, result.phi_draws, *result.beta_draws.values()):
            assert draws.shape[0] == result.B
            assert np.isfinite(draws.reshape(result.B, -1)).all(axis=1).sum() == k

    def test_estimate_is_full_two_step_result(self, result):
        assert result.estimate.tau == 0.5
        assert len(result.estimate.step1) == 2

    def test_estimate_equals_run_two_step(self, result):
        # the full-sample fit itself: the bands live on the BootstrapResult
        fresh = run_two_step(build_designs(_copula_like(150, seed=80), SPEC), 0.5)
        _assert_same_fields(result.estimate, fresh)

    def test_result_carries_phi_bands(self, result):
        draws = result.phi_draws[result.ok]
        lower, upper, _ = _phi_bands(
            np.ascontiguousarray(draws.T), result.estimate.phi, 0.5, result.level)
        np.testing.assert_array_equal(result.phi_lower, lower)
        np.testing.assert_array_equal(result.phi_upper, upper)
        np.testing.assert_array_equal(result.phi_se, np.std(draws, axis=0, ddof=1))

    def test_interval_contains_estimate(self, result):
        assert np.all(result.phi_lower <= result.estimate.phi)
        assert np.all(result.estimate.phi <= result.phi_upper)

    def test_gamma_percentile_interval_brackets_draws(self, result):
        assert np.all(result.gamma_lower <= result.gamma_upper)
        draws = result.gamma_draws[result.ok]
        assert np.all(result.gamma_lower >= draws.min(axis=0))
        assert np.all(result.gamma_upper <= draws.max(axis=0))


class TestBootstrapFailures:

    def test_excess_failures_raise_with_partial_results(self):
        data = _rare_discordance()
        # the base fit itself sees all four categories
        base = run_two_step(build_designs(data, SPEC), 0.5)
        labels = classify(residual_signs(base.step1[0]), residual_signs(base.step1[1]))
        assert set(np.asarray(LABELS)[labels]) == {"00", "11", "01", "10"}
        with pytest.raises(InferenceUnreliableError, match="bootstrap replicates failed") as err:
            bootstrap(_sample(data), B=30, seed=11)
        partial = err.value.partial
        failed = ~partial["ok"]
        assert np.count_nonzero(failed) > 0.2 * 30
        # every draw array keeps all 30 rows, NaN exactly where a replicate failed
        for draws in (partial["gamma_draws"], partial["phi_draws"],
                      *partial["beta_draws"].values()):
            assert draws.shape[0] == 30
            np.testing.assert_array_equal(np.isnan(draws.reshape(30, -1)).any(axis=1), failed)

    def test_a_resample_without_designs_fails_at_every_tau(self):
        # row 0 holds the eighth distinct value of the spline's column, so a
        # resample without it cannot build its step-1 design
        rng = np.random.default_rng(12)
        n = 80
        g = np.concatenate([[7.0], rng.integers(0, 7, n - 1).astype(float)])
        data = Dataset(columns={"y1": rng.normal(size=n), "y2": rng.normal(size=n), "g": g})
        spec = AnalysisSpec(responses=("y1", "y2"), taus=(0.25, 0.75),
                            step1_terms=(spline("g"),))
        sample = build_designs(data, spec)
        bases = [run_two_step(sample, t) for t in spec.taus]
        module = importlib.import_module("quantcord.bootstrap")
        drawn = []
        for b in range(12):
            has_row_0 = bool(np.any(bootstrap_indices(3, b, n) == 0))
            replicate = module._replicate(sample, bases, 3, b)
            if not has_row_0:
                assert replicate == [None, None]
            drawn.append(has_row_0)
        assert 0 < sum(drawn) < 12

    def test_rank_deficient_resample_fails_as_before(self):
        # one row has g = 0: a resample without it has g = 1 on every row,
        # so its distinct rows are as rank deficient as its repeats, and
        # each replicate fails exactly when the fit on the repeats does
        rng = np.random.default_rng(7)
        n = 40
        g = np.ones(n)
        g[0] = 0.0
        data = Dataset(columns={"y1": rng.normal(size=n), "y2": rng.normal(size=n), "g": g})
        spec = AnalysisSpec(responses=("y1", "y2"), taus=(0.5,), step1_terms=(identity("g"),))
        sample = build_designs(data, spec)
        base = run_two_step(sample, 0.5)
        module = importlib.import_module("quantcord.bootstrap")
        failed, singular = [], 0
        for b in range(30):
            idx = bootstrap_indices(3, b, n)
            counts = np.bincount(idx, minlength=n)
            rows = np.flatnonzero(counts)
            grid = sample.grid
            try:
                run_two_step(build_designs(data.take(idx), spec, grid=grid), 0.5, start=base)
                error = None
            except QuantcordError as err:
                error = type(err)
            if error is SingularDesignError:
                singular += 1
                with pytest.raises(SingularDesignError, match="offending columns: g"):
                    run_two_step(build_designs(data.take(rows), spec, counts[rows], grid), 0.5,
                                 start=base)
            replicate = module._replicate(sample, [base], 3, b)[0]
            assert (replicate is None) == (error is not None), f"replicate {b}"
            failed.append(error is not None)
        assert singular >= 6
        with pytest.raises(InferenceUnreliableError) as err:
            bootstrap(sample, B=30, seed=3)
        np.testing.assert_array_equal(~err.value.partial["ok"], failed)

    def test_unconverged_replicate_counts_as_failure(self, monkeypatch):
        # replicates start step 2 at the full-sample fit; the first one to
        # run gets no Newton step, so its fit stops short of the optimum
        pipeline = importlib.import_module("quantcord.pipeline")
        multinomial = importlib.import_module("quantcord.multinomial")
        fit = pipeline.fit_multinomial
        capped = []

        def first_replicate_capped(*args, start=None, **kwargs):
            with monkeypatch.context() as m:
                if start is not None and not capped:
                    capped.append(True)
                    m.setattr(multinomial, "MAX_NEWTON_ITER", 0)
                return fit(*args, start=start, **kwargs)

        monkeypatch.setattr(pipeline, "fit_multinomial", first_replicate_capped)
        (result,) = bootstrap(_sample(_copula_like(400, 5)), B=10, seed=1)
        assert capped
        assert result.failures == 1
        assert np.flatnonzero(~result.ok).tolist() == [0]
        assert result.phi_draws.shape[0] == 10 and np.isnan(result.phi_draws[0]).all()

    def test_b_floor(self):
        with pytest.raises(InvalidArgumentError, match="B must be at least 2"):
            bootstrap(_sample(_copula_like(60, seed=1)), B=1)

    def test_level_validated(self):
        with pytest.raises(InvalidArgumentError, match="level"):
            bootstrap(_sample(_copula_like(60, seed=1)), B=4, level=1.0)

    def test_workers_validated(self):
        with pytest.raises(InvalidArgumentError, match="workers"):
            bootstrap(_sample(_copula_like(60, seed=1)), B=4, workers=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
            bootstrap(_sample(_copula_like(60, seed=1)), B=4, seed=-1)

    @pytest.mark.parametrize("name,value", [
        ("B", 2.5), ("B", 4.0), ("B", "4"), ("seed", 1.5), ("seed", np.float64(3.0)),
        ("workers", 1.5), ("workers", None),
        ("B", True), ("seed", True), ("seed", False), ("workers", True),
        ("level", "0.9"), ("level", None),
    ])
    def test_non_integral_counts_rejected_before_any_fit(self, name, value, monkeypatch):
        module = importlib.import_module("quantcord.bootstrap")
        monkeypatch.setattr(module, "run_two_step", _no_fit)
        kwargs = {"B": 4, "seed": 1, "workers": 1, name: value}
        what = "a finite number" if name == "level" else "an integer"
        with pytest.raises(InvalidArgumentError, match=f"{name} must be {what}"):
            bootstrap(_sample(_copula_like(60, seed=1), 0.25, 0.5), **kwargs)

    def test_numpy_integer_counts_accepted(self):
        data = _copula_like(60, seed=1)
        (numpy_ints,) = bootstrap(_sample(data), B=np.int64(4), seed=np.uint32(3),
                                  workers=np.int32(1))
        _assert_same_result(numpy_ints, bootstrap(_sample(data), B=4, seed=3)[0])


def _band(draws, estimate, tau, level=0.95):
    """The band of one row of draws, from the array pass."""
    lower, upper, _ = _phi_bands(np.asarray(draws, dtype=float).reshape(1, -1),
                                 np.array([estimate], dtype=float), tau, level)
    return float(lower[0]), float(upper[0])


class TestPhiInterval:
    """The Wald band of one row of draws."""

    def test_all_draws_equal_gives_zero_width(self):
        lo, hi = _band(np.full(50, 0.3), 0.3, 0.5)
        assert lo == hi == 0.3

    def test_symmetric_draws_contain_zero_at_median(self):
        # the affine-logit map is antisymmetric about 0 at tau = 0.5
        rng = np.random.default_rng(21)
        half = rng.uniform(0.05, 0.4, size=200)
        draws = np.concatenate([half, -half])
        lo, hi = _band(draws, 0.0, 0.5)
        assert lo < 0.0 < hi
        np.testing.assert_allclose(lo, -hi, rtol=0, atol=1e-12)

    def test_beta_draws_match_analytic_wald_interval(self):
        # u ~ Beta(a, b): logit(u) has mean digamma(a) - digamma(b) and
        # variance polygamma(1, a) + polygamma(1, b), giving a
        # closed-form Wald interval to compare against
        a, b = 2.0, 3.0
        rng = np.random.default_rng(77)
        u = rng.beta(a, b, size=20000)
        draws = 2.0 * u - 1.0  # tau = 0.5 maps (phi_min, phi_max) = (-1, 1)
        t0 = digamma(a) - digamma(b)
        estimate = -1.0 + 2.0 * expit(t0)
        se = np.sqrt(polygamma(1, a) + polygamma(1, b))
        z = norm.ppf(0.975)
        expected = (-1.0 + 2.0 * expit(t0 - z * se), -1.0 + 2.0 * expit(t0 + z * se))
        lo, hi = _band(draws, estimate, 0.5)
        np.testing.assert_allclose((lo, hi), expected, rtol=0, atol=0.01)

    def test_containment_random_configurations(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            tau = rng.uniform(0.1, 0.9)
            center = rng.uniform(-0.3, 0.8)
            draws = center + rng.normal(0.0, 0.05, size=100)
            lo, hi = _band(draws, center, tau)
            assert lo <= center <= hi

    def test_wider_draws_give_nested_intervals(self):
        # endpoints are monotone in the transformed SE
        rng = np.random.default_rng(23)
        base = rng.normal(0.0, 1.0, size=300)
        narrow = 0.2 + 0.02 * base
        wide = 0.2 + 0.08 * base
        lo_n, hi_n = _band(narrow, 0.2, 0.5)
        lo_w, hi_w = _band(wide, 0.2, 0.5)
        assert lo_w < lo_n < hi_n < hi_w

    def test_out_of_range_draws_winsorized(self):
        # values at or past a bound are pulled eps inside before the
        # transform, so the interval stays finite
        draws = np.array([-1.5, -1.0, 0.0, 0.2, 2.0, 1.0])
        lo, hi = _band(draws, 0.0, 0.5)
        assert np.isfinite(lo) and np.isfinite(hi)
        assert -1.0 <= lo < hi <= 1.0

    def test_infinite_draws_winsorized_like_any_out_of_range_draw(self):
        finite = _band([-1.5, 0.1, 0.3, 2.0], 0.2, 0.5)
        assert _band([-np.inf, 0.1, 0.3, np.inf], 0.2, 0.5) == finite

    def test_boundary_draws_give_point_mass(self):
        lo, hi = _band(np.ones(10), 1.0, 0.5)
        assert lo == hi == 1.0

    def test_level_validated(self):
        # the bands' level is checked where bootstrap() takes it;
        # TestBootstrapFailures covers level 1
        with pytest.raises(InvalidArgumentError, match="level"):
            bootstrap(_sample(_copula_like(60, seed=1)), B=4, level=0.0)

    def test_level_just_below_one_gives_inner_band(self):
        # 0.5 + level / 2 rounds to 1 here, where the upper-tail normal
        # quantile is infinite and the band would be all of (-1, 1)
        level = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(24)
        draws = 0.2 + 0.05 * rng.normal(size=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = _band(draws, 0.2, 0.5, level=level)
        assert -1.0 < lo <= 0.2 <= hi < 1.0


def _ulps(got, want):
    """|got - want| in units of the last place of want."""
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


class TestIntervalArithmetic:
    """The scipy-free logit, expit and normal quantile behind the bands."""

    def test_logit_matches_scipy(self):
        u = np.concatenate([
            [WINSOR_EPS, 1.0 - WINSOR_EPS],
            np.linspace(WINSOR_EPS, 1.0 - WINSOR_EPS, 2001),
            np.nextafter(0.5, [0.0, 1.0]),
            [0.3, 0.65, np.nextafter(0.3, 0.0), np.nextafter(0.65, 1.0)],
        ])
        assert _ulps(_logit(u), logit(u)).max() <= 4.0

    def test_expit_matches_scipy_without_overflow(self):
        t = np.concatenate([np.linspace(-60.0, 60.0, 2401), [-1e3, 1e3]])
        got = np.array([_expit(x) for x in t])
        want = expit(t)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
        assert _expit(-1e300) == 0.0 and _expit(1e300) == 1.0

    def test_normal_quantile_matches_scipy(self):
        # norm.ppf(0.5 + level / 2) evaluates at a rounded argument; allow
        # 4 ulp of z plus what one ulp of that argument moves z by
        levels = np.linspace(0.5, 0.999, 500)
        p = 0.5 + levels / 2.0
        want = norm.ppf(p)
        got = np.array([_normal_quantile(lv) for lv in levels])
        tol = 4.0 * np.spacing(want) + np.spacing(p) / norm.pdf(want)
        assert np.all(np.abs(got - want) <= tol)
        assert _normal_quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-15)


class TestWinsorizedCount:

    def test_counts_surface_draws_outside_open_range(self):
        # replicates of a near-degenerate sample can push phi draws to
        # the boundary; the per-row count is reported on the result
        data = _copula_like(150, seed=80)
        (result,) = bootstrap(_sample(data), B=16, seed=5)
        b = result.winsorized
        assert b.shape == result.estimate.phi.shape
        assert np.all(b >= 0)
        expected = np.sum(
            (result.phi_draws[:, 0] <= -1.0 + 2e-6)
            | (result.phi_draws[:, 0] >= 1.0 - 2e-6)
        )
        assert b[0] == expected


def _reference_band(draws, estimate, tau, level):
    """One row's band by the per-row arithmetic the array pass replaced:
    lower, upper and winsorized count."""
    b = phi_bounds(tau)
    span = b.phi_max - b.phi_min

    def transform(values):
        u = (np.asarray(values, dtype=float) - b.phi_min) / span
        at_low = u < WINSOR_EPS
        at_high = u > 1.0 - WINSOR_EPS
        t = _logit(np.clip(u, WINSOR_EPS, 1.0 - WINSOR_EPS))
        return t, int(at_low.sum() + at_high.sum()), bool(at_low.all() or at_high.all())

    t, count, one_bound = transform(draws)
    if one_bound:
        return float(estimate), float(estimate), count
    spread = float(np.ptp(t)) if t.size > 1 else 0.0
    se = float(np.std(t, ddof=1)) if spread > 0.0 else 0.0
    if se == 0.0:
        return float(estimate), float(estimate), count
    t0 = transform([estimate])[0][0]
    z = _normal_quantile(level)
    lo, hi = _expit(t0 - z * se), _expit(t0 + z * se)
    return float(b.phi_min + span * lo), float(b.phi_min + span * hi), count


class TestBandPass:
    """The array pass over grid rows against the per-row reference."""

    @staticmethod
    def _draws(B, tau, rng):
        """B x m draws, a column per grid row as in ``phi_draws``."""
        lo, hi = phi_bounds(tau).phi_min, phi_bounds(tau).phi_max
        width = hi - lo
        mid = lo + 0.5 * width
        rows = [
            np.full(B, mid + 0.1 * width),  # all equal
            np.full(B, hi),  # at the upper bound
            np.full(B, lo),  # at the lower bound
            np.full(B, hi + 0.5),  # past the upper bound
            np.full(B, lo - 1e-9),  # just past the lower bound
            rng.uniform(lo - 0.2, hi + 0.2, B),  # out-of-range among in-range
            np.where(rng.random(B) < 0.5, hi, mid),  # mixed: some at a bound
            np.where(rng.random(B) < 0.5, lo, hi),  # both bounds
            mid + 1e-12 * rng.standard_normal(B),  # tiny spread
        ]
        for _ in range(24):
            center = rng.uniform(lo, hi)
            rows.append(center + rng.uniform(1e-3, 0.3) * width * rng.standard_normal(B))
        return np.array(rows).T

    @pytest.mark.parametrize("B", [1, 2, 5, 10, 1000])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
    def test_matches_per_row_arithmetic_bit_for_bit(self, B, tau):
        rng = np.random.default_rng(int(1000 * tau) + B)
        draws = self._draws(B, tau, rng)
        b = phi_bounds(tau)
        estimates = rng.uniform(b.phi_min, b.phi_max, draws.shape[1])
        estimates[:3] = (b.phi_max, b.phi_min, b.phi_max + 0.1)
        ref = [_reference_band(draws[:, i], estimates[i], tau, 0.95)
               for i in range(draws.shape[1])]
        lower, upper, winsorized = _phi_bands(
            np.ascontiguousarray(draws.T), estimates, tau, 0.95
        )
        assert np.array_equal(lower, [r[0] for r in ref])
        assert np.array_equal(upper, [r[1] for r in ref])
        assert np.array_equal(winsorized, [r[2] for r in ref])

    def test_bootstrap_is_quiet_on_a_one_bound_row(self, monkeypatch):
        # every replicate puts the row at phi_max: bootstrap returns the
        # point mass without a warning
        module = importlib.import_module("quantcord.bootstrap")
        run = module._run_replicate

        def pinned(*args):
            gamma, betas, phi = run(*args)
            return gamma, betas, np.full_like(phi, 1.0)

        monkeypatch.setattr(module, "_run_replicate", pinned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = bootstrap(_sample(_copula_like(60, seed=1)), B=6, seed=2)
        estimate = result.estimate.phi[0]
        assert result.phi_lower[0] == result.phi_upper[0] == estimate
        assert result.winsorized[0] == 6
