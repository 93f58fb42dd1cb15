"""Tests for the end-to-end two-step procedure and its profile grids."""

import csv
import dataclasses
import io
import re

import numpy as np
import pytest

from quantcord import (
    LABELS,
    MERGED_LABELS,
    AnalysisSpec,
    Dataset,
    EmptyCategoryError,
    InvalidArgumentError,
    NonConvergenceError,
    SeparationWarning,
    SingularDesignError,
    build_designs,
    build_grid,
    classify,
    identity,
    interaction,
    phi,
    phi_bounds,
    run_two_step,
    spline,
)
import quantcord.multinomial as multinomial
import quantcord.pipeline as pipeline
import quantcord.quantreg as quantreg
from quantcord.cli import _render_analysis
from quantcord.config import RunConfig
from quantcord.dataset import FLOAT_FMT
from quantcord.multinomial import MultinomialFit
from quantcord.pipeline import (
    CONSTANT_PROFILE,
    EvaluationGrid,
    _held_default,
    evaluate_surface,
)
from quantcord.quantreg import residual_signs
from oracles import objective


def _labels(result):
    """Each row's cell code, from the step-1 residual signs."""
    return classify(residual_signs(result.step1[0]), residual_signs(result.step1[1]))


def _dependent_data(seed=63, n=600, slope=0.5):
    """Two responses with moderate error dependence plus one covariate."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)
    e1 = rng.normal(size=n)
    e2 = slope * e1 + rng.normal(size=n)
    return Dataset(columns={"y1": 1.0 + e1, "y2": -0.5 + e2, "x": x})


def _spec(**kwargs):
    kwargs.setdefault("responses", ("y1", "y2"))
    kwargs.setdefault("taus", (0.5,))
    return AnalysisSpec(**kwargs)


class TestAnalysisSpecValidation:

    def test_minimal_spec(self):
        spec = _spec(taus=[0.25, 0.5])
        assert spec.taus == (0.25, 0.5)
        assert spec.step1_terms == ()
        assert spec.merged is False

    def test_responses_must_be_two_distinct(self):
        with pytest.raises(InvalidArgumentError, match="two distinct"):
            _spec(responses=("y1",))
        with pytest.raises(InvalidArgumentError, match="two distinct"):
            _spec(responses=("y1", "y1"))

    def test_taus_must_be_nonempty(self):
        with pytest.raises(InvalidArgumentError, match="at least one tau"):
            _spec(taus=())

    def test_taus_in_open_interval(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidArgumentError, match="tau must be in"):
                _spec(taus=(bad,))

    @pytest.mark.parametrize("taus,message", [
        (0.5, "taus must be a sequence of quantile levels, got 0.5"),
        (None, "taus must be a sequence of quantile levels, got None"),
        ((None,), "tau must be in \\(0, 1\\), got None"),
        (("a",), "tau must be in \\(0, 1\\), got 'a'"),
        ((0.2, "0.5"), "tau must be in \\(0, 1\\), got '0.5'"),
        ("0.5", "taus must be a sequence of quantile levels, got '0.5'"),
    ])
    def test_taus_must_be_a_sequence_of_numbers(self, taus, message):
        with pytest.raises(InvalidArgumentError, match=message):
            _spec(taus=taus)

    def test_taus_strictly_increasing(self):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            _spec(taus=(0.5, 0.5))
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            _spec(taus=(0.8, 0.2))

    def test_grid_points_floor(self):
        with pytest.raises(InvalidArgumentError, match="grid_points"):
            _spec(grid_points=1)

    @pytest.mark.parametrize("field, value", [
        ("responses", "y1"), ("binary", "gx"), ("merged", "no"), ("merged", 1),
        ("grid_points", 2.5), ("grid_points", True),
    ])
    def test_values_that_would_change_meaning_rejected(self, field, value):
        # a string splits into one-letter names, and a truthy string or a
        # float grid size would pass on to the run
        expected = {"responses": "a sequence of column names",
                    "binary": "a sequence of column names",
                    "merged": "True or False", "grid_points": "an integer"}[field]
        with pytest.raises(InvalidArgumentError, match=f"{field} must be {expected}"):
            _spec(**{field: value})

    @pytest.mark.parametrize("field, value, what", [
        ("responses", 5, "column names"), ("binary", 5, "column names"),
        ("step1_terms", 5, "terms"), ("step2_terms", 5, "terms"),
        ("step1_terms", "x", "terms"),
    ])
    def test_non_sequences_rejected(self, field, value, what):
        # tuple() of a number raises a bare TypeError; a string splits into letters
        kwargs = {"responses": ("a", "b"), field: value}
        with pytest.raises(InvalidArgumentError,
                           match=f"{field} must be a sequence of {what}, got {value!r}"):
            AnalysisSpec(**kwargs)

    def test_grid_overrides_must_name_profiled_covariates(self):
        terms = (identity("x"),)
        with pytest.raises(InvalidArgumentError,
                           match=r"'nosuch'.*available covariates: \['x'\]"):
            _spec(step2_terms=terms, grid_values={"nosuch": (1.0, 2.0)})
        with pytest.raises(InvalidArgumentError, match="held value given for 'alsonot'"):
            _spec(step2_terms=terms, held={"alsonot": 1.0})
        with pytest.raises(InvalidArgumentError, match="available covariates: \\[\\]"):
            _spec(held={"x": 1.0})

    @pytest.mark.parametrize("binary, unread", [
        (("gg",), "\\['gg'\\]"),  # a typo of g
        (("y1", "g", "z"), "\\['y1', 'z'\\]"),  # a response is read by no term
    ], ids=["typo", "response"])
    def test_binary_must_name_term_columns(self, binary, unread):
        with pytest.raises(InvalidArgumentError,
                           match=f"binary names {unread}, which no term reads; "
                                 "term columns: \\['x', 'g'\\]"):
            _spec(step1_terms=(identity("x"),), step2_terms=(identity("g"),),
                  binary=binary)

    def test_binary_may_name_a_step1_column(self):
        spec = _spec(step1_terms=(identity("g"),), binary=("g",))
        assert spec.binary == ("g",) and spec.profile_columns == ()

    @pytest.mark.parametrize("step1_terms, step2_terms, response", [
        ((identity("y2"),), (), "y2"),
        ((identity("x"),), (spline("y2"),), "y2"),
        ((), (identity("x"), interaction("x", "y1")), "y1"),
    ], ids=["step1-identity", "step2-spline", "interaction"])
    def test_no_term_may_read_a_response(self, step1_terms, step2_terms, response):
        # a response as a covariate gives a phi with no meaning (a step-2
        # term on y1 gives phi_hat = 0 on every grid row) or a late,
        # misleading failure (a step-1 term on y2 empties two cells)
        with pytest.raises(InvalidArgumentError, match=f"a term reads response '{response}'"):
            _spec(step1_terms=step1_terms, step2_terms=step2_terms)

    @pytest.mark.parametrize("values", [[0.0, np.inf], [np.nan], [0.0, "abc"], [True, False]])
    def test_grid_values_must_be_finite_numbers(self, values):
        with pytest.raises(InvalidArgumentError,
                           match="grid value for 'x' must be a finite number"):
            _spec(step2_terms=(identity("x"),), grid_values={"x": values})

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "abc", None, [1.0], True])
    def test_held_value_must_be_a_finite_number(self, value):
        with pytest.raises(InvalidArgumentError,
                           match="held value for 'x' must be a finite number"):
            _spec(step2_terms=(identity("x"),), held={"x": value})

    def test_profile_columns_deduplicated_in_order(self):
        spec = _spec(
            step2_terms=(identity("x"), interaction("x", "g"), identity("w"))
        )
        assert spec.profile_columns == ("x", "g", "w")

    def test_columns_are_responses_then_terms_deduplicated(self):
        spec = _spec(
            step1_terms=(identity("w"), identity("x")),
            step2_terms=(identity("x"), interaction("x", "w")),
        )
        assert spec.columns == ("y1", "y2", "w", "x")


class TestBuildGrid:

    def test_constant_profile_without_step2_terms(self):
        data = _dependent_data()
        grid = build_grid(data, _spec())
        assert grid.varying == (CONSTANT_PROFILE,)
        assert grid.columns == {}

    def test_continuous_default_is_linspace_over_range(self):
        data = _dependent_data()
        grid = build_grid(data, _spec(step2_terms=(identity("x"),)))
        x = data.column("x")
        # row i's value is columns[varying[i]][i]; no field restates it
        assert [f.name for f in dataclasses.fields(grid)] == ["varying", "columns"]
        assert len(grid.varying) == 100
        np.testing.assert_allclose(
            grid.columns["x"], np.linspace(x.min(), x.max(), 100)
        )
        assert all(v == "x" for v in grid.varying)

    def test_grid_points_override(self):
        data = _dependent_data()
        grid = build_grid(data, _spec(step2_terms=(identity("x"),), grid_points=7))
        assert len(grid.varying) == 7

    def test_binary_covariate_grid_is_zero_one(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            columns={
                "y1": rng.normal(size=40),
                "y2": rng.normal(size=40),
                "g": (rng.uniform(size=40) < 0.7).astype(float),
            }
        )
        grid = build_grid(data, _spec(step2_terms=(identity("g"),), binary=("g",)))
        np.testing.assert_array_equal(grid.columns["g"], [0.0, 1.0])

    def test_two_covariates_stack_with_held_defaults(self):
        rng = np.random.default_rng(6)
        n = 60
        g = (rng.uniform(size=n) < 0.7).astype(float)  # majority value 1
        x = rng.uniform(0.0, 4.0, size=n)
        data = Dataset(
            columns={"y1": rng.normal(size=n), "y2": rng.normal(size=n),
                     "x": x, "g": g}
        )
        spec = _spec(step2_terms=(identity("x"), identity("g")),
                     binary=("g",), grid_points=5)
        grid = build_grid(data, spec)
        assert grid.varying == ("x",) * 5 + ("g",) * 2
        # block 1 varies x while g sits at its majority value
        np.testing.assert_allclose(grid.columns["x"][:5],
                                   np.linspace(x.min(), x.max(), 5))
        np.testing.assert_array_equal(grid.columns["g"][:5], np.ones(5))
        # block 2 varies g while x sits at its median
        np.testing.assert_array_equal(grid.columns["g"][5:], [0.0, 1.0])
        np.testing.assert_allclose(grid.columns["x"][5:],
                                   np.full(2, np.median(x)))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 100, 101])
    def test_held_median_matches_numpy(self, n):
        # == lets only the sign of an exact zero differ from np.median
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), np.round(rng.standard_normal(n))):
            data = Dataset(columns={"x": x})
            assert _held_default(data, "x", ()) == np.median(x)

    def test_held_override(self):
        data = _dependent_data()
        rng = np.random.default_rng(7)
        cols = dict(data.columns)
        cols["w"] = rng.normal(size=data.n)
        data = Dataset(columns=cols)
        spec = _spec(step2_terms=(identity("x"), identity("w")),
                     held={"x": 2.5}, grid_points=3)
        grid = build_grid(data, spec)
        w_block = np.array([v == "w" for v in grid.varying])
        np.testing.assert_array_equal(grid.columns["x"][w_block], np.full(3, 2.5))

    def test_grid_values_override(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),),
                     grid_values={"x": [0.0, 0.5, 1.0]})
        grid = build_grid(data, spec)
        np.testing.assert_array_equal(grid.columns["x"], [0.0, 0.5, 1.0])

    def test_grid_values_must_be_1d(self):
        with pytest.raises(InvalidArgumentError, match="1-d"):
            _spec(step2_terms=(identity("x"),), grid_values={"x": [[0.0, 1.0]]})

    def test_ragged_grid_values_name_the_covariate(self):
        with pytest.raises(InvalidArgumentError,
                           match="grid values for 'x' must be a non-empty 1-d list"):
            _spec(step2_terms=(identity("x"),), grid_values={"x": [1.0, [2.0, 3.0]]})

    def test_grid_values_must_not_be_empty(self):
        with pytest.raises(InvalidArgumentError,
                           match="grid values for 'x' must be a non-empty 1-d list"):
            _spec(step2_terms=(identity("x"),), grid_values={"x": ()})


class TestRunTwoStep:

    def test_identical_responses_raise_empty_category(self):
        rng = np.random.default_rng(61)
        y1 = rng.normal(size=200)
        data = Dataset(columns={"y1": y1, "y2": y1.copy()})
        with pytest.raises(EmptyCategoryError, match="^tau 0.5: step 2:") as err:
            run_two_step(build_designs(data, _spec()), 0.5)
        assert tuple(err.value.missing) == ("01", "10")

    def test_antithetic_responses_raise_empty_category(self):
        # even n keeps the two median vertices off each other's rows, so
        # no row is an exact zero residual in both fits at once
        rng = np.random.default_rng(61)
        y1 = rng.normal(size=200)
        data = Dataset(columns={"y1": y1, "y2": -y1})
        with pytest.raises(EmptyCategoryError, match="^tau 0.5: step 2:") as err:
            run_two_step(build_designs(data, _spec()), 0.5)
        assert tuple(err.value.missing) == ("00", "11")

    def test_near_identical_responses_push_phi_toward_one(self):
        rng = np.random.default_rng(62)
        e = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        data = Dataset(columns={"y1": e, "y2": e + 0.15 * noise})
        result = run_two_step(build_designs(data, _spec()), 0.5)
        assert result.phi[0] > 0.85
        assert phi_bounds(result.tau).phi_max == 1.0
        assert not result.out_of_bounds[0]

    def test_near_antithetic_responses_push_phi_toward_minimum(self):
        rng = np.random.default_rng(62)
        e = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        data = Dataset(columns={"y1": e, "y2": -e + 0.15 * noise})
        result = run_two_step(build_designs(data, _spec()), 0.5)
        assert result.phi[0] < -0.85
        assert phi_bounds(result.tau).phi_min == -1.0

    def test_copula_fixture_recovers_oracle_phi(self, copula_data):
        result = run_two_step(build_designs(copula_data, _spec()), 0.5)
        assert abs(result.phi[0] - 1.0 / 3.0) < 0.05

    def test_step1_error_carries_provenance(self):
        data = Dataset(
            columns={
                "y1": np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
                "y2": np.arange(5.0),
            }
        )
        with pytest.raises(InvalidArgumentError, match="step 1, response 'y1'"):
            run_two_step(build_designs(data, _spec()), 0.5)

    def test_unconverged_step2_raises_with_provenance(self, monkeypatch):
        monkeypatch.setattr(multinomial, "MAX_NEWTON_ITER", 0)
        with pytest.raises(NonConvergenceError,
                           match="^tau 0.5: step 2: multinomial fit did not converge") as excinfo:
            run_two_step(build_designs(_dependent_data(), _spec(step2_terms=(identity("x"),))),
                         0.5)
        assert excinfo.value.last_fit.converged is False

    def test_data_must_be_dataset(self):
        with pytest.raises(InvalidArgumentError, match="Dataset"):
            run_two_step(build_designs({"y1": np.zeros(3)}, _spec()), 0.5)

    def test_tau_validated(self):
        data = _dependent_data()
        with pytest.raises(InvalidArgumentError, match="tau must be in"):
            run_two_step(build_designs(data, _spec()), 1.5)

    @pytest.mark.parametrize("tau", ["0.5", None, np.array([0.5]), np.array(0.5)])
    def test_tau_must_be_a_real_number(self, tau):
        with pytest.raises(InvalidArgumentError,
                           match=r"tau must be in \(0, 1\), got " + re.escape(repr(tau))):
            run_two_step(build_designs(_dependent_data(), _spec()), tau)

    def test_order_equivariance_saturated_step2(self):
        # swapping the responses relabels "01" <-> "10"; the saturated
        # intercept-only step-2 model reproduces the relabeled counts, so
        # the phi surface is unchanged
        data = _dependent_data()
        forward = run_two_step(build_designs(data, _spec(responses=("y1", "y2"))), 0.5)
        swapped = run_two_step(build_designs(data, _spec(responses=("y2", "y1"))), 0.5)
        np.testing.assert_allclose(
            forward.phi, swapped.phi, rtol=0, atol=1e-10
        )

    def test_margin_check(self):
        # fraction of labels with omega_j = 1 stays within (q+1)/n of tau
        data = _dependent_data(seed=64, n=500)
        spec = _spec(taus=(0.25, 0.5, 0.75), step1_terms=(identity("x"),))
        slack = 2.0 / data.n  # step-1 design has q+1 = 2 columns
        for tau in spec.taus:
            result = run_two_step(build_designs(data, spec), tau)
            z = np.asarray(LABELS)[_labels(result)]
            frac1 = np.mean([lab[0] == "1" for lab in z])
            frac2 = np.mean([lab[1] == "1" for lab in z])
            assert abs(frac1 - tau) <= slack
            assert abs(frac2 - tau) <= slack

    def test_labels_are_integer_codes(self):
        labels = _labels(run_two_step(build_designs(_dependent_data(), _spec()), 0.5))
        assert np.issubdtype(labels.dtype, np.integer)
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_phi_recomputable_from_stored_cells(self):
        # phi of the m x 4 cells is ``result.phi``, and phi of each row its
        # entry, bit for bit
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),), grid_points=9)
        sample = build_designs(data, spec)
        result = run_two_step(sample, 0.5)
        assert result.phi.shape == (len(sample.grid.varying),)
        np.testing.assert_array_equal(phi(result.cells, result.tau), result.phi)
        for i in range(len(sample.grid.varying)):
            assert phi(result.cells[i], result.tau) == result.phi[i]

    def test_saturated_surface_matches_empirical_cells(self):
        data = _dependent_data()
        result = run_two_step(build_designs(data, _spec()), 0.5)
        np.testing.assert_allclose(result.cells[0], result.empirical,
                                   rtol=0, atol=1e-10)

    def test_out_of_bounds_is_where_phi_leaves_its_bounds(self):
        data = _dependent_data()
        for tau in (0.1, 0.5, 0.8):
            result = run_two_step(build_designs(data, _spec()), tau)
            bounds = phi_bounds(tau)
            np.testing.assert_array_equal(
                result.out_of_bounds,
                (result.phi < bounds.phi_min) | (result.phi > bounds.phi_max), strict=True)

    def test_out_of_bounds_flagged_but_never_clipped(self):
        # model-based cell probabilities need not honor the tau margins,
        # so phi can leave its fixed-margin range; the value is reported
        # as computed with the flag set
        p = np.array([0.28, 0.70, 0.01, 0.01])  # p00, p11, p01, p10
        fit = MultinomialFit(
            gamma=np.log(p[1:] / p[0])[:, None],
            loglik=0.0,
            converged=True,
            iterations=1,
        )
        sample = build_designs(_dependent_data(), _spec())
        cells, phi_vals, out_of_bounds = evaluate_surface(fit, sample, 0.25)
        expected = (p[1] * p[0] - p[2] * p[3]) / (0.25 * 0.75)
        assert expected > 1.0
        np.testing.assert_allclose(phi_vals[0], expected, rtol=0, atol=1e-12)
        assert out_of_bounds[0]

    def test_merged_mode_threads_through(self):
        data = _dependent_data()
        result = run_two_step(build_designs(data, _spec(merged=True)), 0.5)
        assert result.step2.gamma.shape[0] == len(MERGED_LABELS) - 1
        assert MERGED_LABELS[1:] == ("11", "01+10")
        assert result.cells[0, 2] == result.cells[0, 3]

    def test_explicit_grid_is_used_verbatim(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),))
        grid = EvaluationGrid(
            varying=("x", "x"), columns={"x": np.array([0.0, 1.0])},
        )
        sample = build_designs(data, spec, grid=grid)
        result = run_two_step(sample, 0.5)
        assert sample.grid is grid
        assert result.phi.shape == (len(sample.grid.varying),) == (2,)


class TestSampleDesigns:

    def test_shared_designs_give_each_tau_its_own_run(self):
        data = _dependent_data()
        spec = _spec(step1_terms=(spline("x"),), step2_terms=(identity("x"),))
        counts = np.random.default_rng(3).integers(1, 4, size=data.n)
        for weights in (None, counts):
            designs = build_designs(data, spec, weights)
            for tau in (0.25, 0.5, 0.75):
                shared = run_two_step(designs, tau)
                alone = run_two_step(build_designs(data, spec, weights), tau)
                for a, b in zip(shared.step1, alone.step1):
                    np.testing.assert_array_equal(a.beta, b.beta, strict=True)
                    np.testing.assert_array_equal(a.residuals, b.residuals, strict=True)
                np.testing.assert_array_equal(shared.step2.gamma, alone.step2.gamma, strict=True)
                np.testing.assert_array_equal(shared.phi, alone.phi, strict=True)

    def test_one_rank_check_per_fit_one_factoring_per_design(self, monkeypatch):
        checks, factorings = [], []
        for module in (quantreg, multinomial):
            check = module.check_full_rank
            monkeypatch.setattr(module, "check_full_rank",
                                lambda X, check=check: checks.append(X) or check(X))
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: factorings.append(1) or qr(*a, **k))
        data = _dependent_data()
        spec = _spec(step1_terms=(identity("x"),), step2_terms=(identity("x"),))
        designs = build_designs(data, spec)
        for tau in (0.25, 0.5, 0.75):
            run_two_step(designs, tau)
        assert len(checks) == 9  # two step-1 fits and one step-2 fit per tau
        assert {id(X) for X in checks} == {id(designs.X1), id(designs.X2)}
        assert len(factorings) == 2

    def test_a_singular_design_tags_each_error_once(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=50)
        data = Dataset(columns={"y1": rng.normal(size=50), "y2": rng.normal(size=50),
                                "x": x, "x2": 2.0 * x})
        spec = _spec(step1_terms=(identity("x"), identity("x2")))
        designs = build_designs(data, spec)
        for tau in (0.25, 0.5):
            with pytest.raises(SingularDesignError) as err:
                run_two_step(designs, tau)
            assert str(err.value) == (
                f"tau {tau}: step 1, response 'y1': design matrix is rank deficient; "
                "offending columns: x2")

    @pytest.mark.parametrize("rows", [_dependent_data(), None])
    def test_only_a_sample_can_be_fitted(self, rows):
        with pytest.raises(InvalidArgumentError, match="build_designs"):
            run_two_step(rows, 0.5)

    def test_both_designs_carry_the_sample_weights(self):
        data = _dependent_data()
        spec = _spec(step1_terms=(spline("x"),), step2_terms=(identity("x"),))
        counts = np.random.default_rng(5).integers(1, 4, size=data.n)
        sample = build_designs(data, spec, counts)
        for X in (sample.X1, sample.X2):
            np.testing.assert_array_equal(X.weights, counts.astype(float), strict=True)

    def test_each_weighted_constant_is_formed_once_per_sample(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),))
        counts = np.random.default_rng(6).integers(1, 4, size=data.n)
        sample = build_designs(data, spec, counts)
        # the constants the fits read, as each design caches them
        read = {"X1": ("weighted_sums",), "X2": ("scaled_transposed", "column_scale")}
        formed = []
        for tau in (0.25, 0.75):
            run_two_step(sample, tau)
            formed.append([vars(getattr(sample, d))[name] for d in read for name in read[d]])
        assert all(a is b for a, b in zip(*formed))

    def test_the_grid_rows_are_built_once_per_sample(self, monkeypatch):
        calls = []
        values = pipeline.recipe_values
        monkeypatch.setattr(pipeline, "recipe_values",
                            lambda *args: calls.append(1) or values(*args))
        sample = build_designs(_dependent_data(), _spec(step2_terms=(identity("x"),)))
        assert len(calls) == 1
        for tau in (0.25, 0.75):
            run_two_step(sample, tau)
        assert len(calls) == 1

    @pytest.mark.parametrize("columns", [{}, {"z": np.array([0.5])}], ids=["none", "other"])
    def test_a_grid_without_the_step2_columns_fails_to_build(self, columns):
        grid = EvaluationGrid(varying=("x",), columns=columns)
        with pytest.raises(InvalidArgumentError, match="^step 2: "):
            build_designs(_dependent_data(), _spec(step2_terms=(identity("x"),)), grid=grid)

    def test_a_sample_owns_its_spec_and_its_unweighted_grid(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),), grid_points=5)
        counts = np.random.default_rng(4).integers(1, 4, size=data.n)
        sample = build_designs(data, spec, counts)
        assert sample.spec is spec
        np.testing.assert_array_equal(sample.X1.weights, counts)
        grid = build_grid(data, spec)
        assert sample.grid.varying == grid.varying
        np.testing.assert_array_equal(sample.grid.columns["x"], grid.columns["x"], strict=True)
        assert run_two_step(sample, 0.5).phi.shape == (len(sample.grid.varying),)

    def test_a_binary_column_holding_another_value_fails_to_build(self):
        # a 0/2 indicator would get a grid at g = 0 and 1, and a phi at g = 1
        # where g is never 1
        rng = np.random.default_rng(0)
        n = 400
        g = 2 * rng.integers(0, 2, n)
        e = rng.standard_normal((2, n))
        data = Dataset(columns={"y1": e[0] + g, "y2": e[1] - g, "g": g})
        spec = _spec(step1_terms=(identity("g"),), step2_terms=(identity("g"),),
                     binary=("g",))
        with pytest.raises(InvalidArgumentError, match="^binary column 'g' contains 2.0$"):
            build_designs(data, spec)

    def test_a_binary_column_read_by_step1_alone_is_checked(self):
        data = _dependent_data()
        g = np.arange(data.n) % 2.0
        g[7] = 2.0
        spec = _spec(step1_terms=(identity("g"),), step2_terms=(identity("x"),),
                     binary=("g",))
        with pytest.raises(InvalidArgumentError, match="^binary column 'g' contains 2.0$"):
            build_designs(Dataset(columns=dict(data.columns, g=g)), spec)

    @pytest.mark.parametrize("step", [1, 2], ids=["step1", "step2"])
    def test_a_design_error_is_tagged_with_its_step(self, step):
        rng = np.random.default_rng(9)
        data = Dataset(columns={"y1": rng.normal(size=60), "y2": rng.normal(size=60),
                                "g": np.arange(60) % 3.0})
        with pytest.raises(InvalidArgumentError, match=f"^step {step}: spline term needs"):
            build_designs(data, _spec(**{f"step{step}_terms": (spline("g"),)}))


class TestFrequencyWeights:
    """A resample's distinct rows weighted by their counts, as a bootstrap
    replicate fits them, against the resample with its repeats."""

    SPEC = _spec(step1_terms=(identity("x"),), step2_terms=(spline("x"),),
                 grid_points=9)

    def test_replicate_matches_expanded_resample(self):
        data = _dependent_data(seed=5, n=400)
        unique = 0
        for seed in range(40):
            tau = (0.2, 0.5, 0.8)[seed % 3]
            full = build_designs(data, self.SPEC)
            base = run_two_step(full, tau)
            rng = np.random.default_rng(seed)
            counts = np.bincount(rng.integers(0, data.n, data.n), minlength=data.n)
            rows = np.flatnonzero(counts)
            grid = full.grid
            expanded = run_two_step(build_designs(data.take(np.repeat(np.arange(data.n), counts)),
                                                  self.SPEC, grid=grid), tau, start=base)
            weighted = run_two_step(build_designs(data.take(rows), self.SPEC, counts[rows], grid),
                                    tau, start=base)
            for fw, fe in zip(weighted.step1, expanded.step1):
                loss = objective(fw, tau, counts[rows])
                assert loss == pytest.approx(objective(fe, tau), rel=1e-12), f"seed {seed}"
            if min(f.margin for f in weighted.step1) <= 0.0:
                continue  # an optimum that is not unique may take another vertex
            unique += 1
            np.testing.assert_array_equal(weighted.empirical, expanded.empirical,
                                          err_msg=f"seed {seed}")
            assert weighted.step2.loglik == pytest.approx(expanded.step2.loglik, rel=1e-12)
            np.testing.assert_allclose(weighted.phi, expanded.phi,
                                       rtol=0, atol=1e-9)
        assert unique >= 30

    def test_unit_weights_equal_no_weights(self):
        data = _dependent_data(seed=6, n=300)
        for tau in (0.1, 0.5):
            plain = run_two_step(build_designs(data, self.SPEC), tau)
            unit = run_two_step(build_designs(data, self.SPEC, np.ones(data.n)), tau)
            for a, b in zip(plain.step1, unit.step1):
                assert np.array_equal(a.beta, b.beta) and a.basis == b.basis
            assert np.array_equal(plain.step2.gamma, unit.step2.gamma)
            assert np.array_equal(_labels(plain), _labels(unit))
            assert np.array_equal(plain.empirical, unit.empirical)
            assert np.array_equal(plain.phi, unit.phi)

    @pytest.mark.parametrize("weights", [np.zeros(50), np.full(50, np.nan), np.ones(49)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            run_two_step(build_designs(_dependent_data(n=50), self.SPEC, weights), 0.5)


class TestMetamorphicRelations:
    """Transformations of the input that leave phi unchanged by the
    method's construction, so each needs no oracle.  Each tolerance is
    about ten times the largest gap measured on this data; a map that
    keeps every residual-sign label gives step 2 the same input, so its
    phi is equal bit for bit."""

    TAUS = (0.1, 0.5, 0.9)
    STEP2 = {"identity": identity("x"), "spline": spline("x")}

    @staticmethod
    def _data(n=800):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.0, 2.0, size=n)
        e1 = rng.normal(size=n)
        e2 = 0.5 * e1 + rng.normal(size=n)
        return Dataset(columns={"y1": 1.0 + 0.8 * x + e1, "y2": -0.5 - 0.3 * x + e2,
                                "x": x})

    def _spec(self, step2, responses=("y1", "y2")):
        return _spec(responses=responses, taus=self.TAUS, step1_terms=(identity("x"),),
                     step2_terms=(self.STEP2[step2],), grid_points=9)

    def _pairs(self, step2, changed, spec=None, grid=None):
        """(original, changed) results per tau, on the original's grid
        unless another is given."""
        data, base_spec = self._data(), self._spec(step2)
        base_grid = build_grid(data, base_spec)
        for tau in self.TAUS:
            yield (run_two_step(build_designs(data, base_spec, grid=base_grid), tau),
                   run_two_step(build_designs(changed, spec or base_spec, grid=grid or base_grid),
                                tau))

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_swapping_responses_swaps_discordant_cells(self, step2):
        spec = self._spec(step2, responses=("y2", "y1"))
        for base, swapped in self._pairs(step2, self._data(), spec=spec):
            assert swapped.step2.gamma.shape[0] == base.step2.gamma.shape[0] == len(LABELS) - 1
            assert LABELS[1:] == ("11", "01", "10")
            np.testing.assert_allclose(swapped.step2.gamma, base.step2.gamma[[0, 2, 1]],
                                       rtol=0, atol=3e-13)
            np.testing.assert_allclose(swapped.phi, base.phi,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_permuting_rows(self, step2):
        perm = np.random.default_rng(99).permutation(800)
        for base, permuted in self._pairs(step2, self._data().take(perm)):
            np.testing.assert_array_equal(_labels(permuted), _labels(base)[perm])
            np.testing.assert_allclose(permuted.phi, base.phi,
                                       rtol=0, atol=3e-14)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_increasing_affine_map_of_a_response(self, step2):
        columns = dict(self._data().columns)
        columns["y1"] = 3.0 * columns["y1"] - 7.5
        for base, mapped in self._pairs(step2, Dataset(columns=columns)):
            np.testing.assert_array_equal(_labels(mapped), _labels(base))
            np.testing.assert_array_equal(mapped.phi, base.phi)

    @pytest.mark.parametrize("step2,a,b", [
        pytest.param("identity", 2.5, -1.25, id="identity"),
        pytest.param("spline", 2.5, -1.25, id="spline"),
        *(pytest.param("identity", a, 0.0, id=f"identity-a={a:g}")
          for a in (1e-6, 1e-3, 1e3, 1e6)),
        pytest.param("spline", 1e-6, 0.0, id="spline-a=1e-06", marks=pytest.mark.xfail(
            strict=True, raises=SingularDesignError,
            reason="ROADMAP item 23: the rank check calls s(x).3 redundant")),
        pytest.param("spline", 1e-3, 0.0, id="spline-a=0.001"),
        *(pytest.param("spline", a, 0.0, id=f"spline-a={a:g}", marks=pytest.mark.xfail(
            strict=True, raises=NonConvergenceError,
            reason="ROADMAP item 23: step 2's score tolerance is absolute"))
          for a in (1e3, 1e6)),
        *(pytest.param(step2, 1.0, b, id=f"{step2}-b={b:g}", marks=pytest.mark.xfail(
            strict=True, raises=SeparationWarning,
            reason="ROADMAP items 1 and 23: the shift pushes the intercept past "
                   "SEPARATION_COEF"))
          for step2 in ("identity", "spline") for b in (1e3, 1e5)),
    ])
    def test_affine_map_of_the_covariate_on_the_mapped_grid(self, step2, a, b):
        data = self._data()
        grid = build_grid(data, self._spec(step2))
        mapped_grid = EvaluationGrid(varying=grid.varying,
                                     columns={"x": a * grid.columns["x"] + b})
        columns = dict(data.columns)
        columns["x"] = a * columns["x"] + b
        for base, mapped in self._pairs(step2, Dataset(columns=columns), grid=mapped_grid):
            np.testing.assert_array_equal(_labels(mapped), _labels(base))
            # step 2's Newton fits stop at a score below 1e-8, on
            # differently scaled columns
            np.testing.assert_allclose(mapped.phi, base.phi,
                                       rtol=0, atol=3e-10)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 11(b): every basis row and tie counts as "
                              "at or below, so the labels are not reflection-equivariant")
    def test_reflecting_both_responses_and_tau(self, step2):
        # phi(tau; y1, y2) = phi(1 - tau; -y1, -y2)
        data, spec = self._data(), self._spec(step2)
        grid = build_grid(data, spec)
        columns = dict(data.columns)
        columns["y1"], columns["y2"] = -columns["y1"], -columns["y2"]
        base = build_designs(data, spec, grid=grid)
        reflected = build_designs(Dataset(columns=columns), spec, grid=grid)
        for tau in self.TAUS:
            # 1 - 0.9 != 0.1 in floats: fit at the computed level
            np.testing.assert_allclose(run_two_step(reflected, 1.0 - tau).phi,
                                       run_two_step(base, tau).phi, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_integer_weights_equal_repeated_rows(self, step2):
        data, spec = self._data(), self._spec(step2)
        grid = build_grid(data, spec)
        counts = np.random.default_rng(7).integers(1, 4, data.n)
        repeated = data.take(np.repeat(np.arange(data.n), counts))
        for tau in self.TAUS:
            weighted = run_two_step(build_designs(data, spec, counts, grid), tau)
            expanded = run_two_step(build_designs(repeated, spec, grid=grid), tau)
            assert min(f.margin for f in weighted.step1) > 0.0  # a unique optimum
            np.testing.assert_array_equal(np.repeat(_labels(weighted), counts),
                                          _labels(expanded))
            np.testing.assert_array_equal(weighted.empirical, expanded.empirical)
            np.testing.assert_allclose(weighted.phi, expanded.phi,
                                       rtol=0, atol=5e-14)


class TestPhiProfile:
    """The ``phi_profile_x.csv`` text that ``analyze`` writes from the results."""

    def _profile(self, taus):
        data = _dependent_data()
        spec = _spec(taus=taus, step2_terms=(identity("x"),), grid_points=3)
        sample = build_designs(data, spec)
        results = [(run_two_step(sample, tau), None) for tau in spec.taus]
        files = _render_analysis(RunConfig(input="data.csv", spec=spec), sample, (), results)
        rows = list(csv.DictReader(io.StringIO(files["phi_profile_x.csv"])))
        return data, [run for run, _ in results], rows

    def test_three_point_grid_gives_three_rows(self):
        data, (run,), rows = self._profile(taus=(0.5,))
        x = data.column("x")
        assert len(rows) == 3
        np.testing.assert_allclose([float(r["value"]) for r in rows],
                                   np.linspace(x.min(), x.max(), 3))
        bounds = phi_bounds(0.5)
        assert [float(r["phi_min"]) for r in rows] == [bounds.phi_min] * 3
        assert [float(r["phi_max"]) for r in rows] == [bounds.phi_max] * 3
        assert [r["phi_hat"] for r in rows] == [FLOAT_FMT % v for v in run.phi]
        assert [r["out_of_bounds_flag"] for r in rows] == [
            str(int(flag)) for flag in run.out_of_bounds]
        assert all(r["ci_lower"] == r["ci_upper"] == "" for r in rows)

    def test_tau_010_bound_columns(self):
        _, _, rows = self._profile(taus=(0.1,))
        np.testing.assert_allclose([float(r["phi_min"]) for r in rows],
                                   np.full(3, -1.0 / 9.0), rtol=0, atol=1e-12)
        assert [float(r["phi_max"]) for r in rows] == [1.0] * 3

    def test_rows_ordered_by_tau_then_grid(self):
        data, runs, rows = self._profile(taus=(0.1, 0.5))
        x = data.column("x")
        values = np.linspace(x.min(), x.max(), 3)
        assert [float(r["tau"]) for r in rows] == [0.1] * 3 + [0.5] * 3
        np.testing.assert_allclose([float(r["value"]) for r in rows], np.tile(values, 2))
        assert [r["phi_hat"] for r in rows] == [
            FLOAT_FMT % v for run in runs for v in run.phi]
