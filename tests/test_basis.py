"""Tests for term declarations, spline bases, and recipe reuse."""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from quantcord import (
    Dataset,
    InvalidArgumentError,
    SingularDesignError,
    TermSpec,
    build_design,
    center,
    check_full_rank,
    identity,
    interaction,
    recipe_values,
    spline,
)
from quantcord.basis import natural_spline_columns, sorted_quantile, tertile_knots


class TestTermSpec:

    def test_helpers(self):
        assert identity("x").kind == "identity"
        assert center("x", 37.0).center == 37.0
        assert center("x").center is None
        assert spline("x").kind == "spline"
        t = interaction("a", "b")
        assert (t.column, t.column2) == ("a", "b")

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError, match=(
                r"unknown term kind 'quadratic'; "
                r"use one of \('identity', 'center', 'spline', 'interaction'\)")):
            TermSpec("quadratic", "x")

    def test_interaction_needs_second_column(self):
        with pytest.raises(InvalidArgumentError, match="two columns"):
            TermSpec("interaction", "a")

    @pytest.mark.parametrize("kind", ["identity", "center", "spline"])
    @pytest.mark.parametrize("column2", ["z", ""])
    def test_second_column_only_on_interactions(self, kind, column2):
        with pytest.raises(InvalidArgumentError, match=f"{kind} terms take one column"):
            TermSpec(kind, "x", column2=column2)

    @pytest.mark.parametrize("kind,column2", [
        ("identity", None), ("spline", None), ("interaction", "z")])
    def test_value_only_on_center_terms(self, kind, column2):
        with pytest.raises(InvalidArgumentError, match=f"{kind} terms take no value"):
            TermSpec(kind, "x", column2=column2, center=1.0)

    @pytest.mark.parametrize("value", ["abc", "1.5", True, np.nan, np.inf, [1.0], np.array(1.0)])
    def test_center_value_must_be_a_finite_number(self, value):
        with pytest.raises(InvalidArgumentError,
                           match="center value must be a finite number"):
            center("x", value)

    def test_fitted_center_is_held_on_its_spec(self):
        data = Dataset(columns={"x": np.array([1.0, 2.0, 6.0])})
        _, recipe = build_design(data, [center("x")])
        assert recipe[0].spec == center("x", 3.0)


def _one_each(s):
    """The running sum of unit weights along ``s``."""
    return np.arange(1, len(s) + 1)


class TestSortedQuantile:
    """np.quantile's linear method from one sort; equality is ``==``, so
    only the sign of an exact zero may differ (numpy's partition order
    decides which of -0.0 and 0.0 it takes)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 100, 101])
    def test_matches_numpy_on_a_column(self, n):
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1)):
            s = np.sort(x)
            for q in (0.0, 0.025, 1 / 3, 0.5, 2 / 3, 0.975, 1.0):
                assert sorted_quantile(s, q, _one_each(s)) == np.quantile(x, q), (n, q)

    @pytest.mark.parametrize("n", [2, 7, 24, 25])
    def test_matches_numpy_along_axis_0(self, n):
        # B = n draws of two coefficients, as the percentile intervals take them
        rng = np.random.default_rng(n)
        draws = rng.standard_normal((n, 2))
        draws[: n // 2, 1] = np.round(draws[: n // 2, 1])
        s = np.sort(draws, axis=0)
        for q in (0.025, 0.05, 0.5, 0.95, 0.975):
            np.testing.assert_array_equal(sorted_quantile(s, q, _one_each(s)),
                                          np.quantile(draws, q, axis=0))


class TestTertileKnots:

    def test_quantile_definition(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 200)
        knots = tertile_knots(x)
        assert knots[0] == float(np.min(x))
        assert knots[3] == float(np.max(x))
        np.testing.assert_allclose(knots[1], np.quantile(x, 1 / 3))
        np.testing.assert_allclose(knots[2], np.quantile(x, 2 / 3))

    def test_too_few_distinct_values(self):
        x = np.tile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 10)
        with pytest.raises(InvalidArgumentError, match="at least 8 distinct"):
            tertile_knots(x)

    def test_concentrated_column(self):
        # 8 distinct values but mass piled on one point: knots collide
        x = np.concatenate([np.full(100, 5.0), np.arange(8.0)])
        assert np.unique(x).size == 8
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            tertile_knots(x)


class TestFrequencyWeights:
    """Weighted knots and centres are those of the rows repeated by their
    weights; the knots bit for bit."""

    @staticmethod
    def _resample(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        x = rng.uniform(0, 10, n)
        if seed % 2:
            x = np.round(x, 1)  # ties between distinct rows
        counts = np.bincount(rng.integers(0, n, n), minlength=n)
        rows = np.flatnonzero(counts)
        return x, counts, rows

    def test_knots_equal_expanded_column_bit_for_bit(self):
        for seed in range(200):
            x, counts, rows = self._resample(seed)
            assert tertile_knots(x[rows], counts[rows]) == \
                tertile_knots(np.repeat(x, counts)), f"seed {seed}"

    def test_sorted_quantile_of_repeats(self):
        for seed in range(50):
            x, counts, rows = self._resample(seed)
            order = np.argsort(x[rows], kind="stable")
            ends = np.cumsum(counts[rows][order])
            expanded = np.sort(np.repeat(x, counts))
            for q in (0.0, 0.025, 1 / 3, 0.5, 2 / 3, 0.975, 1.0):
                assert sorted_quantile(x[rows][order], q, ends) == \
                    sorted_quantile(expanded, q, _one_each(expanded)), (seed, q)

    def test_design_constants_match_expanded_rows(self):
        terms = [spline("x"), center("x")]
        for seed in range(50):
            x, counts, rows = self._resample(seed)
            distinct = Dataset(columns={"x": x[rows]})
            X, recipe = build_design(distinct, terms, weights=counts[rows])
            _, expanded = build_design(Dataset(columns={"x": np.repeat(x, counts)}), terms)
            assert recipe[0].knots == expanded[0].knots
            assert recipe[1].spec.center == pytest.approx(
                expanded[1].spec.center, rel=1e-14, abs=1e-14)
            np.testing.assert_array_equal(X.values, recipe_values(recipe, distinct))

    def test_unit_weights_equal_no_weights(self):
        rng = np.random.default_rng(5)
        data = Dataset(columns={"x": rng.uniform(0, 10, 300), "z": rng.standard_normal(300)})
        terms = [spline("x"), center("z"), interaction("x", "z")]
        X, recipe = build_design(data, terms)
        Xw, recipe_w = build_design(data, terms, weights=np.ones(300))
        assert recipe == recipe_w
        assert np.array_equal(X.values, Xw.values)
        x = data.column("x")
        assert tertile_knots(x) == tertile_knots(x, np.ones(300))

    @pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            build_design(Dataset(columns={"x": np.arange(3.0)}), [identity("x")],
                         weights=weights)


class TestNaturalSplineColumns:

    @pytest.fixture
    def knots(self):
        rng = np.random.default_rng(2)
        return tertile_knots(rng.uniform(0, 10, 100))

    def test_three_columns_from_four_knots(self, knots):
        cols = natural_spline_columns(np.linspace(0, 10, 50), knots)
        assert cols.shape == (50, 3)

    def test_zero_second_derivative_outside_boundaries(self, knots):
        # h large enough that the float-cancellation noise (~eps/h^2)
        # stays below the 1e-8 budget; truncation error is exactly zero
        # where the basis is linear
        h = 1e-2
        for x0 in (knots[0] - 1.0, knots[0] - 0.05, knots[3] + 0.05, knots[3] + 1.0):
            pts = natural_spline_columns(np.array([x0 - h, x0, x0 + h]), knots)
            second = (pts[0] - 2 * pts[1] + pts[2]) / h**2
            assert np.max(np.abs(second)) <= 1e-8

    def test_curved_inside(self, knots):
        h = 1e-2
        x0 = 0.5 * (knots[1] + knots[2])
        pts = natural_spline_columns(np.array([x0 - h, x0, x0 + h]), knots)
        second = (pts[0] - 2 * pts[1] + pts[2]) / h**2
        assert np.max(np.abs(second)) > 1e-3

    def test_continuous_at_knots(self, knots):
        eps = 1e-9
        for k in knots:
            pair = natural_spline_columns(np.array([k - eps, k + eps]), knots)
            np.testing.assert_allclose(pair[0], pair[1], atol=1e-6)

    def test_spans_natural_cubic_splines(self, knots):
        # independent oracle: a scipy natural spline through the same
        # knots must be an exact linear combination of intercept + our 3
        # columns inside the knot interval (scipy extrapolates cubically
        # outside it, so the comparison stops at the boundaries)
        rng = np.random.default_rng(3)
        values_at_knots = rng.standard_normal(4)
        oracle = CubicSpline(knots, values_at_knots, bc_type="natural")
        x = np.linspace(knots[0], knots[3], 400)
        B = np.column_stack([np.ones(x.size), natural_spline_columns(x, knots)])
        target = oracle(x)
        coef, *_ = np.linalg.lstsq(B, target, rcond=None)
        np.testing.assert_allclose(B @ coef, target, atol=1e-8)

    def test_linear_functions_in_span(self, knots):
        x = np.linspace(-5, 15, 100)
        B = np.column_stack([np.ones(x.size), natural_spline_columns(x, knots)])
        coef, *_ = np.linalg.lstsq(B, 3.0 - 2.0 * x, rcond=None)
        np.testing.assert_allclose(B @ coef, 3.0 - 2.0 * x, atol=1e-9)


class TestBuildDesign:

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(4)
        return Dataset(columns={
            "x1": rng.uniform(0, 10, 60),
            "x2": rng.standard_normal(60),
            "g": rng.integers(0, 2, 60).astype(float),
            "const37": np.full(60, 37.0),
        })

    def test_identity_terms_column_count(self, data):
        X, _ = build_design(data, [identity("x1"), identity("x2")])
        assert X.q == 3
        assert X.columns == ("intercept", "x1", "x2")
        assert np.all(X.values[:, 0] == 1.0)

    def test_declaration_order(self, data):
        X, _ = build_design(data, [identity("x2"), identity("x1")])
        assert X.columns == ("intercept", "x2", "x1")
        np.testing.assert_array_equal(X.values[:, 1], data.column("x2"))

    def test_center_with_explicit_constant(self, data):
        X, _ = build_design(data, [center("x1", 37.0)])
        np.testing.assert_array_equal(X.values[:, 1], data.column("x1") - 37.0)
        assert X.columns == ("intercept", "x1-37")

    def test_center_default_is_training_mean(self, data):
        X, recipe = build_design(data, [center("x1")])
        np.testing.assert_allclose(X.values[:, 1].mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(recipe[0].spec.center, data.column("x1").mean())

    def test_centered_constant_rejected_downstream(self, data):
        # all-zero column builds fine, then fails the rank check by name
        X, _ = build_design(data, [identity("x1"), center("const37", 37.0)])
        np.testing.assert_array_equal(X.values[:, 2], np.zeros(60))
        with pytest.raises(SingularDesignError, match="const37-37"):
            check_full_rank(X)

    def test_spline_term_adds_three_columns(self, data):
        X, recipe = build_design(data, [spline("x1")])
        assert X.q == 4
        assert X.columns == ("intercept", "s(x1).1", "s(x1).2", "s(x1).3")
        knots = recipe[0].knots
        assert len(knots) == 4
        np.testing.assert_allclose(knots[1], np.quantile(data.column("x1"), 1 / 3))

    def test_interaction_is_product(self, data):
        X, _ = build_design(data, [interaction("x2", "g")])
        np.testing.assert_array_equal(X.values[:, 1], data.column("x2") * data.column("g"))
        assert X.columns == ("intercept", "x2:g")

    def test_missing_column(self, data):
        with pytest.raises(InvalidArgumentError, match="'nope' not found"):
            build_design(data, [identity("nope")])

    def test_non_numeric_column(self):
        # a Dataset holds only float columns; the design never sees others
        for values in (["a", "b", "c", "d"], [1.0, {}, 2.0, 3.0]):
            with pytest.raises(InvalidArgumentError, match="column 'x' is not numeric"):
                Dataset(columns={"w": np.arange(4.0), "x": np.array(values, dtype=object)})

    def test_spline_needs_enough_distinct(self):
        data = Dataset(columns={"x": np.tile([0.0, 1.0], 20)})
        with pytest.raises(InvalidArgumentError, match="distinct"):
            build_design(data, [spline("x")])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spline_rejects_non_finite_column(self, bad):
        x = np.linspace(0.0, 1.0, 40)
        x[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match="spline column 'x' is not finite"):
                build_design(Dataset(columns={"x": x}), [spline("x")])

    @pytest.mark.parametrize("term", [
        identity("x"), center("x"), spline("x"), interaction("x", "y1"),
        interaction("y1", "x"),
    ], ids=["identity", "center", "spline", "interaction", "interaction-column2"])
    def test_non_finite_term_column_named(self, term):
        x = np.linspace(0.0, 1.0, 40)
        x[7] = np.nan
        data = Dataset(columns={"x": x, "y1": np.ones(40)})
        with pytest.raises(InvalidArgumentError,
                           match=f"{term.kind} column 'x' is not finite"):
            build_design(data, [identity("y1"), term])


class TestRecipeReuse:

    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(5)
        data = Dataset(columns={
            "x": rng.uniform(0, 10, 80), "g": rng.integers(0, 2, 80).astype(float)})
        X, recipe = build_design(data, [spline("x"), center("x"), interaction("x", "g")])
        return data, X, recipe

    def test_round_trip_bit_for_bit(self, fitted):
        data, X, recipe = fitted
        again = recipe_values(recipe, data)
        np.testing.assert_array_equal(again, X.values)
        assert X.columns == ("intercept", "s(x).1", "s(x).2", "s(x).3", "x-5.17747", "x:g")

    def test_single_training_row_reproduced(self, fitted):
        data, X, recipe = fitted
        row = data.take([3])
        values = recipe_values(recipe, row)
        np.testing.assert_array_equal(values[0], X.values[3])

    def test_knots_not_reestimated_on_grid(self, fitted):
        data, X, recipe = fitted
        grid = Dataset(columns={"x": np.linspace(2, 4, 10), "g": np.zeros(10)})
        values = recipe_values(recipe, grid)
        expected = natural_spline_columns(grid.column("x"), recipe[0].knots)
        np.testing.assert_array_equal(values[:, 1:4], expected)

    def test_extrapolation_is_linear_not_fatal(self, fitted):
        data, X, recipe = fitted
        lo, hi = recipe[0].knots[0], recipe[0].knots[-1]
        grid = Dataset(columns={
            "x": np.array([lo - 1.0, 0.5 * (lo + hi), hi + 2.0]),
            "g": np.zeros(3),
        })
        assert np.isfinite(recipe_values(recipe, grid)).all()
        # beyond the boundary the spline columns continue linearly
        h = 1e-2
        probe = Dataset(columns={
            "x": np.array([hi + 2.0 - h, hi + 2.0, hi + 2.0 + h]), "g": np.zeros(3)})
        vals = recipe_values(recipe, probe)
        second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        assert np.max(np.abs(second)) <= 1e-8

    def test_grid_missing_required_column(self, fitted):
        _, _, recipe = fitted
        with pytest.raises(InvalidArgumentError, match=r"'g' not found; available: \['x'\]"):
            recipe_values(recipe, Dataset(columns={"x": np.linspace(0, 1, 5)}))

    @pytest.mark.parametrize("call", [
        lambda data, recipe: build_design(data, [identity("x")]),
        lambda data, recipe: recipe_values(recipe, data),
    ], ids=["build_design", "recipe_values"])
    def test_rows_must_be_a_dataset(self, fitted, call):
        data, _, recipe = fitted
        with pytest.raises(InvalidArgumentError, match="data must be a Dataset"):
            call(dict(data.columns), recipe)
