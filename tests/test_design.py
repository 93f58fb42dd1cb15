"""Tests for DesignMatrix validation and the rank check."""

import numpy as np
import pytest

from quantcord import (
    DesignMatrix,
    InvalidArgumentError,
    SingularDesignError,
    check_full_rank,
)


class TestDesignMatrixValidation:

    def test_valid_construction(self):
        X = DesignMatrix(np.ones((5, 1)), ("intercept",))
        assert X.n == 5
        assert X.q == 1
        assert X.columns == ("intercept",)

    def test_coerces_to_float(self):
        X = DesignMatrix(np.ones((4, 1), dtype=int), ("intercept",))
        assert X.values.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(InvalidArgumentError, match="2-d"):
            DesignMatrix(np.ones(5), ("intercept",))

    def test_name_count_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="column names"):
            DesignMatrix(np.ones((5, 2)), ("a",))

    def test_duplicate_names(self):
        with pytest.raises(InvalidArgumentError, match="unique"):
            DesignMatrix(np.ones((5, 2)), ("a", "a"))

    def test_too_few_rows(self):
        with pytest.raises(InvalidArgumentError, match="q\\+1"):
            DesignMatrix(np.ones((2, 2)), ("a", "b"))

    def test_nonfinite_entries(self):
        vals = np.ones((5, 1))
        vals[2, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            DesignMatrix(vals, ("a",))

    @pytest.mark.parametrize("columns", ["ab", b"ab"], ids=["str", "bytes"])
    def test_a_string_is_not_a_sequence_of_names(self, columns):
        with pytest.raises(InvalidArgumentError, match="sequence of names, got"):
            DesignMatrix(np.ones((5, 2)), columns)

    def test_non_iterable_columns_rejected(self):
        with pytest.raises(InvalidArgumentError,
                           match="design columns must be a sequence of names, got None"):
            DesignMatrix(np.ones((3, 1)), None)

    def test_frozen(self):
        X = DesignMatrix(np.ones((5, 1)), ("intercept",))
        with pytest.raises(AttributeError):
            X.columns = ("a",)


class TestCheckFullRank:

    def test_full_rank_passes(self):
        rng = np.random.default_rng(1)
        X = DesignMatrix(
            np.column_stack([np.ones(20), rng.standard_normal((20, 2))]),
            ("intercept", "x1", "x2"),
        )
        check_full_rank(X)  # no raise

    def test_duplicate_column_named(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20)
        X = DesignMatrix(
            np.column_stack([np.ones(20), x, -0.5 * x]),
            ("intercept", "x1", "x1_scaled"),
        )
        with pytest.raises(SingularDesignError) as excinfo:
            check_full_rank(X)
        assert excinfo.value.columns == ["x1_scaled"]

    def test_offender_is_later_column(self):
        # the redundant column is the one adding no rank beyond its left
        rng = np.random.default_rng(3)
        a = rng.standard_normal(30)
        b = rng.standard_normal(30)
        X = DesignMatrix(
            np.column_stack([np.ones(30), a, b, a + b]),
            ("intercept", "a", "b", "a_plus_b"),
        )
        with pytest.raises(SingularDesignError, match="a_plus_b"):
            check_full_rank(X)

    def test_multiple_offenders(self):
        x = np.linspace(0, 1, 25)
        X = DesignMatrix(
            np.column_stack([np.ones(25), x, 2 * x, 3 * x]),
            ("intercept", "x", "x2", "x3"),
        )
        with pytest.raises(SingularDesignError) as excinfo:
            check_full_rank(X)
        assert excinfo.value.columns == ["x2", "x3"]

    def test_each_call_raises_a_new_error(self):
        # a caller may edit the error it catches (run_two_step prefixes the
        # step to its message), so no call may re-raise an earlier one
        x = np.linspace(0, 1, 25)
        X = DesignMatrix(np.column_stack([np.ones(25), x, 2 * x]), ("intercept", "x", "x2"))
        errors = []
        for _ in range(3):
            with pytest.raises(SingularDesignError) as excinfo:
                check_full_rank(X)
            errors.append(excinfo.value)
            excinfo.value.args = ("edited",)
        assert len({id(e) for e in errors}) == 3
        assert [e.columns for e in errors] == [["x2"]] * 3
        with pytest.raises(SingularDesignError, match="^design matrix is rank deficient; "
                           "offending columns: x2$"):
            check_full_rank(X)

    def test_factors_each_design_once(self, monkeypatch):
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        rng = np.random.default_rng(4)
        X = DesignMatrix(np.column_stack([np.ones(20), rng.standard_normal(20)]),
                         ("intercept", "x"))
        for _ in range(3):
            check_full_rank(X)
        assert len(calls) == 1
        check_full_rank(DesignMatrix(X.values, X.columns))
        assert len(calls) == 2


class TestCachedValues:

    def test_values_are_a_read_only_copy(self):
        given = np.ones((5, 2))
        X = DesignMatrix(given, ("a", "b"))
        assert not X.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            X.values[0, 0] = 2.0
        given[0, 0] = 2.0  # the caller's array stays writable and apart
        assert given.flags.writeable and X.values[0, 0] == 1.0

    def test_cached_arrays_are_read_only_and_exact(self):
        rng = np.random.default_rng(5)
        values = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        X = DesignMatrix(values, ("intercept", "x1", "x2"))
        np.testing.assert_array_equal(X.abs_values, np.abs(values), strict=True)
        np.testing.assert_array_equal(X.transposed, values.T, strict=True)
        assert X.transposed.flags.c_contiguous
        np.testing.assert_array_equal(
            X.perturbation, np.random.default_rng(0).random(30), strict=True)
        for a in (X.abs_values, X.transposed, X.perturbation):
            assert not a.flags.writeable
        assert X.perturbation is X.perturbation

    def test_weights_are_a_read_only_copy(self):
        given = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
        X = DesignMatrix(np.ones((5, 1)), ("intercept",), given)
        assert not X.weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            X.weights[0] = 2.0
        given[0] = 5.0  # the caller's array stays writable and apart
        assert given.flags.writeable and X.weights[0] == 1.0
        unit = DesignMatrix(np.ones((5, 1)), ("intercept",))
        np.testing.assert_array_equal(unit.weights, np.ones(5), strict=True)

    def test_weighted_constants_are_read_only_and_exact(self):
        rng = np.random.default_rng(6)
        values = np.column_stack([np.ones(40), rng.standard_normal((40, 2)), np.full(40, 3.0)])
        counts = rng.integers(1, 5, 40)
        X = DesignMatrix(values, ("intercept", "x1", "x2", "c"), counts)
        # the formulas each fit formed for itself
        w = counts.astype(float)
        colsum = np.sum(w[:, None] * values, axis=0)
        np.testing.assert_array_equal(X.weighted_sums, colsum, strict=True)
        np.testing.assert_array_equal(X.scaled_transposed, values.T * np.sqrt(w), strict=True)
        total = np.sum(w)
        sd = np.sqrt(np.sum(w[:, None] * (values - colsum / total) ** 2, axis=0) / total)
        np.testing.assert_array_equal(X.column_scale, np.where(sd > 0, sd, 1.0), strict=True)
        assert X.column_scale[0] == X.column_scale[3] == 1.0
        for a in (X.weights, X.weighted_sums, X.scaled_transposed, X.column_scale):
            assert not a.flags.writeable
        # unit weights: the unweighted sums and np.std itself
        unit = DesignMatrix(values, X.columns)
        np.testing.assert_array_equal(unit.weighted_sums, np.sum(values, axis=0), strict=True)
        np.testing.assert_array_equal(unit.column_scale[1:3], np.std(values[:, 1:3], axis=0),
                                      strict=True)
