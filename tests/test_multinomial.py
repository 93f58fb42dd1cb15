"""Tests for the multinomial logistic model of the concordance labels."""

import contextlib
import io
import warnings

import numpy as np
import pytest
import yaml
from scipy.special import logsumexp

import quantcord.multinomial as mn
from quantcord import (
    LABELS,
    MERGED_LABELS,
    AnalysisSpec,
    DesignMatrix,
    EmptyCategoryError,
    InvalidArgumentError,
    NonConvergenceError,
    SeparationWarning,
    SingularDesignError,
    build_design,
    build_designs,
    classify,
    fit_multinomial,
    identity,
    predict_cells_rows,
    read_csv,
    run_two_step,
)
from quantcord.bootstrap import bootstrap_indices
from quantcord.cli import main as quantcord_main
from quantcord.multinomial import (
    GRADIENT_TOL,
    SEPARATION_COEF,
    _gradient,
    _indicators,
    _information,
    _loglik_terms,
    _separation_detected,
)
from quantcord.quantreg import residual_signs
from oracles import loglik_parts


def _intercept_design(n, weights=None):
    return DesignMatrix(np.ones((n, 1)), ("intercept",), weights)


def _score(gamma, X2, z, merged=False):
    """The score at ``gamma`` from the kernel ``fit_multinomial`` runs."""
    Yt = _indicators(z, merged, X2.n)
    gamma = np.asarray(gamma, dtype=float).reshape(Yt.shape[0], X2.q)
    Xt = X2.values.T
    w = np.ones(X2.n)
    _, probs, _ = _loglik_terms(gamma, Xt, Yt, w)
    return _gradient(Xt, Yt, w, probs)


def _cells(fit):
    """Cell probabilities of an intercept-only fit, codes 0..3."""
    return predict_cells_rows(fit, np.array([[1.0]]))[0]


def _labels_from_counts(c00, c11, c01, c10):
    return np.repeat(np.arange(4), (c00, c11, c01, c10))


class TestCategoryConstants:

    def test_reference_and_orderings(self):
        # fitted code 0, "00", is the reference; row k - 1 of a fit's gamma
        # is fitted code k
        z = _labels_from_counts(40, 40, 10, 10)
        full = fit_multinomial(_intercept_design(100), z)
        merged = fit_multinomial(_intercept_design(100), z, merged=True)
        assert LABELS[0] == MERGED_LABELS[0] == "00"
        assert full.gamma.shape[0] == len(LABELS) - 1
        assert LABELS[1:] == ("11", "01", "10")
        assert merged.gamma.shape[0] == len(MERGED_LABELS) - 1
        assert MERGED_LABELS[1:] == ("11", "01+10")


class TestInterceptOnlyClosedForm:

    def test_equal_counts_give_zero_intercepts(self):
        z = _labels_from_counts(25, 25, 25, 25)
        fit = fit_multinomial(_intercept_design(100), z)
        np.testing.assert_allclose(fit.gamma, np.zeros((3, 1)), atol=1e-9)

    def test_log_count_ratios(self):
        z = _labels_from_counts(40, 40, 10, 10)
        fit = fit_multinomial(_intercept_design(100), z)
        expected = np.log(np.array([40, 10, 10]) / 40.0)
        np.testing.assert_allclose(fit.gamma[:, 0], expected, atol=1e-8)
        np.testing.assert_allclose(fit.gamma[1, 0], -1.3863, atol=5e-5)

    def test_merged_pools_before_fitting(self):
        z = _labels_from_counts(40, 40, 10, 10)
        fit = fit_multinomial(_intercept_design(100), z, merged=True)
        assert fit.gamma.shape[0] == len(MERGED_LABELS) - 1
        np.testing.assert_allclose(fit.gamma[0, 0], 0.0, atol=1e-8)
        np.testing.assert_allclose(fit.gamma[1, 0], np.log(20.0 / 40.0), atol=1e-8)

    def test_random_counts_property(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            counts = rng.integers(5, 80, size=4)
            z = _labels_from_counts(*counts)
            fit = fit_multinomial(_intercept_design(int(counts.sum())), z)
            expected = np.log(counts[1:] / counts[0])
            np.testing.assert_allclose(fit.gamma[:, 0], expected, atol=1e-8)
            assert fit.converged


class TestGradient:

    def test_zero_at_mle(self):
        rng = np.random.default_rng(11)
        n = 200
        X = DesignMatrix(
            np.column_stack([np.ones(n), rng.standard_normal(n)]),
            ("intercept", "x"),
        )
        z = rng.integers(0, 4, n)
        fit = fit_multinomial(X, z)
        g = _score(fit.gamma, X, z)
        assert np.max(np.abs(g)) <= 1e-8

    def test_warm_start_reaches_cold_start_mle(self):
        # a bootstrap replicate starts Newton at the full-sample fit
        rng = np.random.default_rng(17)
        n = 400
        x = rng.standard_normal(n)
        logits = np.column_stack([np.zeros(n), 0.8 * x, -0.5 * x, 0.3 * x])
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        z = np.array([rng.choice(4, p=p[i]) for i in range(n)])
        values = np.column_stack([np.ones(n), x])
        full = fit_multinomial(DesignMatrix(values, ("intercept", "x")), z)
        for _ in range(5):
            idx = rng.integers(0, n, n)
            Xb = DesignMatrix(values[idx], ("intercept", "x"))
            cold = fit_multinomial(Xb, z[idx])
            warm = fit_multinomial(Xb, z[idx], start=full.gamma)
            assert warm.converged and cold.converged
            assert warm.iterations < cold.iterations
            np.testing.assert_allclose(warm.gamma, cold.gamma, rtol=0, atol=1e-7)

    def test_start_shape_checked(self):
        z = _labels_from_counts(25, 25, 25, 25)
        with pytest.raises(InvalidArgumentError, match="start"):
            fit_multinomial(_intercept_design(100), z, start=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, bad):
        z = _labels_from_counts(25, 25, 25, 25)
        start = np.zeros((3, 1))
        start[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="start contains non-finite"):
            fit_multinomial(_intercept_design(100), z, start=start)

    def test_start_that_is_not_numbers_rejected(self):
        z = _labels_from_counts(25, 25, 25, 25)
        with pytest.raises(InvalidArgumentError, match="start must be numbers"):
            fit_multinomial(_intercept_design(100), z, start=[["a"], ["b"], ["c"]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        n, q2 = 50, 3
        h = 1e-6
        for _ in range(10):
            X = DesignMatrix(
                np.column_stack([np.ones(n), rng.standard_normal((n, q2 - 1))]),
                ("intercept", "x1", "x2"),
            )
            z = rng.integers(0, 4, n)
            gamma = 0.5 * rng.standard_normal((3, q2))
            g = _score(gamma, X, z)
            Y = _indicators(z, False, n).T
            fd = np.zeros(3 * q2)
            for k in range(3 * q2):
                plus = gamma.reshape(-1).copy()
                minus = gamma.reshape(-1).copy()
                plus[k] += h
                minus[k] -= h
                lp, _ = loglik_parts(plus.reshape(3, q2), X.values, Y)
                lm, _ = loglik_parts(minus.reshape(3, q2), X.values, Y)
                fd[k] = (lp - lm) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.max(rel) <= 1e-5

    def test_kernel_matches_reference_formulas(self):
        # log-sum-exp against scipy's, at exponents far past exp's range, and
        # the information matrix against its blockwise definition
        rng = np.random.default_rng(18)
        n, q = 200, 3
        X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
        Y = _indicators(rng.integers(0, 4, n), False, n).T
        for scale in (0.5, 400.0):
            gamma = scale * rng.standard_normal((3, q))
            ll, probs = loglik_parts(gamma, X, Y)
            eta = X @ gamma.T
            lse = logsumexp(np.column_stack([np.zeros(n), eta]), axis=1)
            np.testing.assert_allclose(ll, np.sum(Y * eta) - np.sum(lse), rtol=1e-12)
            np.testing.assert_allclose(probs, np.exp(eta - lse[:, None]), rtol=1e-12,
                                       atol=1e-300)
            reference = np.empty((3 * q, 3 * q))
            for k in range(3):
                for m in range(3):
                    w = probs[:, k] * ((k == m) - probs[:, m])
                    reference[k * q:(k + 1) * q, m * q:(m + 1) * q] = X.T @ (X * w[:, None])
            np.testing.assert_allclose(_information(X.T, probs.T), reference,
                                       rtol=0, atol=1e-12 * n)

    def test_uniform_softmax_hand_value(self):
        # at gamma = 0 the gradient intercept component is c_z - n/4
        counts = (30, 25, 24, 21)
        z = _labels_from_counts(*counts)
        n = sum(counts)
        g = _score(np.zeros((3, 1)), _intercept_design(n), z)
        np.testing.assert_allclose(
            g, np.array([counts[1], counts[2], counts[3]]) - n / 4.0, atol=1e-12
        )


class TestFitBehavior:

    def test_loglik_path_nondecreasing(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = 300
        x = rng.standard_normal(n)
        X = DesignMatrix(
            np.column_stack([np.ones(n), x]), ("intercept", "x")
        )
        # covariate-dependent label probabilities
        logits = np.column_stack([np.zeros(n), 0.8 * x, -0.5 * x, 0.3 * x])
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        z = np.array([rng.choice(4, p=p[i]) for i in range(n)])
        fit = fit_multinomial(X, z)
        # the fit capped at k Newton steps ends at the path's k-th iterate,
        # which its NonConvergenceError carries short of the last step
        path = []
        for k in range(fit.iterations):
            monkeypatch.setattr(mn, "MAX_NEWTON_ITER", k)
            with pytest.raises(NonConvergenceError) as excinfo:
                fit_multinomial(X, z)
            path.append(excinfo.value.last_fit.loglik)
        monkeypatch.setattr(mn, "MAX_NEWTON_ITER", fit.iterations)
        path.append(fit_multinomial(X, z).loglik)
        assert np.all(np.diff(path) >= -1e-10)
        assert path[-1] == fit.loglik

    def test_unconverged_fit_raises_with_last_iterate(self, monkeypatch):
        z = _labels_from_counts(30, 20, 10, 5)
        monkeypatch.setattr(mn, "MAX_NEWTON_ITER", 1)
        with pytest.raises(NonConvergenceError,
                           match="did not converge in 1 Newton steps") as excinfo:
            fit_multinomial(_intercept_design(65), z)
        last = excinfo.value.last_fit
        assert last.converged is False
        assert last.iterations == 1
        assert last.gamma.shape == (3, 1)

    def test_singular_information_falls_back_to_pinv(self, monkeypatch):
        rng = np.random.default_rng(17)
        n = 400
        X = DesignMatrix(np.column_stack([np.ones(n), rng.standard_normal(n)]),
                         ("intercept", "x"))
        z = rng.integers(0, 4, n)
        solved = fit_multinomial(X, z)

        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(mn.np.linalg, "solve", singular)
        fit = fit_multinomial(X, z)
        assert fit.converged
        assert fit.iterations == solved.iterations
        np.testing.assert_allclose(fit.gamma, solved.gamma, rtol=0, atol=1e-12)

    def test_no_ascent_raises_with_the_start(self, monkeypatch):
        # every trial step's log-likelihood is -inf, so the step-halving
        # gives up and the fit stops at its start
        z = _labels_from_counts(30, 20, 10, 5)
        real = mn._loglik_terms
        calls = []

        def first_only(*args):
            ll, probs, scale = real(*args)
            calls.append(ll)
            return (ll if len(calls) == 1 else -np.inf), probs, scale

        monkeypatch.setattr(mn, "_loglik_terms", first_only)
        start = np.full((3, 1), 0.5)
        with pytest.raises(NonConvergenceError,
                           match="did not converge in 0 Newton steps") as excinfo:
            fit_multinomial(_intercept_design(65), z, start=start)
        last = excinfo.value.last_fit
        assert last.converged is False
        assert np.array_equal(last.gamma, start)
        assert len(calls) == 1 + 40

    @pytest.mark.parametrize("data_seed, boot_seed", [(2000, 2001), (6000, 6000)])
    def test_tail_quantile_fits_converge(self, tmp_path, data_seed, boot_seed):
        """At tau = 0.95 the log-likelihood (about -300) is the difference of
        two sums near 4e3, so the step test's rounding slack must scale with
        those sums.  A slack in ulps of |ll| rejected the converging Newton
        step, and the fit ran to its iteration cap: with scipy's log-sum-exp
        on replicate 3 of both draws, with a max-shifted one on replicates
        0, 5 and 9 of the second."""
        scenario = {
            "n": 1000,
            "seed": data_seed,
            "covariates": [{"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0}],
            "coefficients": {
                "y1": {"intercept": 0.5, "x": 1.0},
                "y2": {"intercept": -0.5, "x": 2.0},
            },
            "taus": [0.05, 0.95],
            "rho": 0.6,
        }
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(scenario), encoding="utf-8")
        out = tmp_path / "data.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert quantcord_main(["synth", "--config", str(config), "--out", str(out)]) == 0
        data, _ = read_csv(out)
        spec = AnalysisSpec(responses=("y1", "y2"), taus=(0.95,),
                            step1_terms=(identity("x"),), step2_terms=(identity("x"),),
                            merged=True)
        samples = [data] + [data.take(bootstrap_indices(boot_seed, b, data.n))
                            for b in range(10)]
        for b, sample in enumerate(samples):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = run_two_step(build_designs(sample, spec), 0.95)
            fit = res.step2
            X2, _ = build_design(sample, spec.step2_terms)
            labels = classify(residual_signs(res.step1[0]), residual_signs(res.step1[1]))
            g = _score(fit.gamma, X2, labels, merged=True)
            assert fit.converged, f"sample {b - 1}"
            assert np.max(np.abs(g)) <= GRADIENT_TOL, f"sample {b - 1}"

    def test_empty_category_error(self):
        z = _labels_from_counts(50, 50, 0, 0)
        with pytest.raises(EmptyCategoryError, match="merged discordance mode") as ei:
            fit_multinomial(_intercept_design(100), z)
        assert set(ei.value.missing) == {"01", "10"}

    def test_merged_mode_still_needs_discordance(self):
        z = _labels_from_counts(50, 50, 0, 0)
        with pytest.raises(EmptyCategoryError, match="01\\+10"):
            fit_multinomial(_intercept_design(100), z, merged=True)

    def test_merged_mode_survives_one_sided_discordance(self):
        # "10" empty alone is fatal unmerged but fine after pooling
        z = _labels_from_counts(40, 40, 20, 0)
        with pytest.raises(EmptyCategoryError):
            fit_multinomial(_intercept_design(100), z)
        fit = fit_multinomial(_intercept_design(100), z, merged=True)
        np.testing.assert_allclose(fit.gamma[1, 0], np.log(20.0 / 40.0), atol=1e-8)

    def test_rank_deficient_design(self):
        n = 40
        x = np.linspace(0, 1, n)
        X = DesignMatrix(
            np.column_stack([np.ones(n), x, 3.0 * x]),
            ("intercept", "x", "x3"),
        )
        z = _labels_from_counts(10, 10, 10, 10)
        with pytest.raises(SingularDesignError, match="x3"):
            fit_multinomial(X, z)

    def test_separation_warning(self):
        # "11" owns x > 1.2 exclusively: complete separation, coefficients
        # diverge until the saturated gradient stalls
        rng = np.random.default_rng(16)
        x = np.concatenate(
            [rng.uniform(-3.0, 0.8, 45), rng.uniform(1.2, 3.0, 15)]
        )
        z = np.repeat([0, 2, 3, 1], [25, 10, 10, 15])
        X = DesignMatrix(
            np.column_stack([np.ones(60), x]), ("intercept", "x")
        )
        with pytest.warns(SeparationWarning):
            fit = fit_multinomial(X, z)
        assert fit.separation
        assert np.max(np.abs(fit.gamma)) > 30.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_quasi_separation_in_one_group_is_flagged(self):
        # "11" never occurs where g = 1, so gamma("11", g) has no finite
        # MLE; Newton stops at about -23.5 and the coefficient threshold
        # misses it
        flags = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = 400
            g = rng.integers(0, 2, n).astype(float)
            z = rng.integers(0, 4, n)
            gone = (g == 1) & (z == 1)
            z[gone] = rng.choice([0, 2, 3], size=int(gone.sum()))
            X = DesignMatrix(np.column_stack([np.ones(n), g]), ("intercept", "g"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SeparationWarning)
                flags.append(fit_multinomial(X, z).separation)
        assert all(flags)

    def test_empty_labels(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            fit_multinomial(_intercept_design(2), np.array([], dtype=int))

    def test_unknown_labels(self):
        with pytest.raises(InvalidArgumentError, match="unknown labels"):
            fit_multinomial(_intercept_design(2), np.array([-1, 0]))

    def test_string_labels_rejected(self):
        z = np.array(["00", "11", "01", "10"], dtype=object)
        with pytest.raises(InvalidArgumentError, match="integer cell codes"):
            fit_multinomial(_intercept_design(4), z)

    @pytest.mark.parametrize("X2, n_labels, message", [
        (_intercept_design(6), 5, "5 labels for 6 design rows"),
        (np.ones((8, 1)), 8, "X2 must be a DesignMatrix"),
    ], ids=["label-count", "plain-array"])
    def test_entry_checks(self, X2, n_labels, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            fit_multinomial(X2, np.arange(n_labels) % 4)


class TestFrequencyWeights:
    """Distinct rows weighted by their counts fit as the repeated rows do."""

    @staticmethod
    def _draw(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 600))
        x = np.round(rng.standard_normal(n), int(rng.integers(1, 3)))
        g = (rng.random(n) < 0.5).astype(float)
        values = np.column_stack([np.ones(n), x, g])
        logits = np.column_stack([np.zeros(n), 0.8 * x + g, -0.5 * x, 0.3 * x - g])
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        z = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        counts = np.bincount(rng.integers(0, n, n), minlength=n)
        return values, z, counts, np.flatnonzero(counts), bool(seed % 2)

    @staticmethod
    def _design(values, weights=None):
        return DesignMatrix(values, ("intercept", "x", "g"), weights)

    def test_loglik_matches_expanded_fit(self):
        for seed in range(60):
            values, z, counts, rows, merged = self._draw(seed)
            idx = np.repeat(np.arange(len(z)), counts)
            expanded = fit_multinomial(self._design(values[idx]), z[idx], merged)
            weighted = fit_multinomial(self._design(values[rows], counts[rows]), z[rows],
                                       merged)
            assert weighted.converged and expanded.converged, f"seed {seed}"
            assert weighted.loglik == pytest.approx(expanded.loglik, rel=1e-12), f"seed {seed}"
            assert weighted.separation == expanded.separation, f"seed {seed}"
            np.testing.assert_allclose(weighted.gamma, expanded.gamma, rtol=1e-6, atol=1e-8)

    def test_separation_check_uses_weighted_spread(self):
        # a coefficient just below and just above the threshold for the
        # SD of the repeated column
        for seed in range(20):
            values, _, counts, rows, _ = self._draw(seed)
            for j in (1, 2):
                sd = np.repeat(values, counts, axis=0)[:, j].std()
                for factor in (1.0 - 1e-9, 1.0 + 1e-9):
                    gamma = np.zeros((3, 3))
                    gamma[seed % 3, j] = factor * SEPARATION_COEF / sd
                    flagged = _separation_detected(
                        gamma, self._design(values[rows], counts[rows] * 1.0))
                    assert flagged == (factor > 1.0), (seed, j, factor)

    def test_unit_weights_equal_no_weights(self, monkeypatch):
        for seed in range(10):
            values, z, _, _, merged = self._draw(seed)
            plain = fit_multinomial(self._design(values), z, merged)
            unit = fit_multinomial(self._design(values, np.ones(len(z))), z, merged)
            assert np.array_equal(plain.gamma, unit.gamma)
            assert plain.loglik == unit.loglik
            assert (plain.iterations, plain.separation) == (unit.iterations, unit.separation)
            # the log-likelihood after every Newton step, from the last
            # iterates of capped fits
            with monkeypatch.context() as m:
                for k in range(plain.iterations):
                    m.setattr(mn, "MAX_NEWTON_ITER", k)
                    capped = []
                    for w in (None, np.ones(len(z))):
                        with pytest.raises(NonConvergenceError) as excinfo:
                            fit_multinomial(self._design(values, w), z, merged)
                        capped.append(excinfo.value.last_fit)
                    assert capped[0].loglik == capped[1].loglik, (seed, k)

    @pytest.mark.parametrize("weights", [[0.0] * 8, [-1.0] * 8, [np.nan] * 8, [1.0] * 7])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            _intercept_design(8, weights)


class TestPredict:

    def test_uniform_softmax(self):
        z = _labels_from_counts(25, 25, 25, 25)
        fit = fit_multinomial(_intercept_design(100), z)
        np.testing.assert_allclose(_cells(fit), [0.25] * 4, atol=1e-9)

    def test_saturated_reproduction(self):
        z = _labels_from_counts(40, 40, 10, 10)
        fit = fit_multinomial(_intercept_design(100), z)
        np.testing.assert_allclose(_cells(fit), [0.4, 0.4, 0.1, 0.1], atol=1e-10)

    def test_merged_equal_split(self):
        z = _labels_from_counts(40, 40, 10, 10)
        fit = fit_multinomial(_intercept_design(100), z, merged=True)
        cells = _cells(fit)
        assert cells[2] == cells[3]
        np.testing.assert_allclose(cells, [0.4, 0.4, 0.1, 0.1], atol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        n = 120
        X = DesignMatrix(
            np.column_stack([np.ones(n), rng.standard_normal(n)]),
            ("intercept", "x"),
        )
        z = rng.integers(0, 4, n)
        for merged in (False, True):
            fit = fit_multinomial(X, z, merged=merged)
            grid = DesignMatrix(
                np.column_stack([np.ones(50), np.linspace(-3, 3, 50)]),
                ("intercept", "x"),
            )
            P = predict_cells_rows(fit, grid.values)
            assert P.shape == (50, 4)
            if merged:  # "01+10" splits evenly over "01" and "10"
                np.testing.assert_array_equal(P[:, 2], P[:, 3])
            np.testing.assert_allclose(P.sum(axis=1), np.ones(50), atol=1e-12)
            assert np.all(P >= 0)

    def test_merged_unmerged_discordant_mass_agrees_when_balanced(self):
        # balanced discordance within each covariate pattern
        x = np.repeat([0.0, 1.0], 60)
        X = DesignMatrix(
            np.column_stack([np.ones(120), x]), ("intercept", "x")
        )
        z = np.repeat([0, 1, 2, 3, 0, 1, 2, 3], [20, 10, 15, 15, 10, 20, 15, 15])
        fit_u = fit_multinomial(X, z)
        fit_m = fit_multinomial(X, z, merged=True)
        grid = np.array([[1.0, 0.0], [1.0, 1.0]])
        P_u = predict_cells_rows(fit_u, grid)
        P_m = predict_cells_rows(fit_m, grid)
        np.testing.assert_allclose(
            P_u[:, 2] + P_u[:, 3], P_m[:, 2] + P_m[:, 3], atol=1e-8
        )

    def test_dimension_mismatch(self):
        z = _labels_from_counts(25, 25, 25, 25)
        fit = fit_multinomial(_intercept_design(100), z)
        # a row of the wrong width, and the row as a 1-d vector
        for X in (np.array([[1.0, 2.0]]), np.array([1.0])):
            with pytest.raises(InvalidArgumentError, match="n-by-1 array"):
                predict_cells_rows(fit, X)
