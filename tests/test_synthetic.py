"""Tests for scenario generation and the Gaussian phi oracle."""

import math

import numpy as np
import pytest

from quantcord import (
    CovariateSpec,
    InvalidArgumentError,
    ScenarioSpec,
    generate,
    oracle_phi_gaussian,
    phi_bounds,
)
from oracles import oracle_phi_gaussian_median_closed_form, oracle_phi_gaussian_mpmath


class TestScenarioValidation:

    def test_minimal_scenario(self):
        s = ScenarioSpec(n=50)
        assert s.rho == 0.5
        assert s.responses == ("y1", "y2")

    def test_n_floor(self):
        with pytest.raises(InvalidArgumentError, match="at least 50"):
            ScenarioSpec(n=49)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rho_open_interval(self, rho):
        with pytest.raises(InvalidArgumentError, match="rho"):
            ScenarioSpec(n=100, rho=rho)

    def test_rho_by_group_needs_group_column(self):
        with pytest.raises(InvalidArgumentError, match="group"):
            ScenarioSpec(n=100, rho=None, rho_by_group={0: 0.2, 1: 0.8})

    def test_group_column_must_be_declared_binary(self):
        with pytest.raises(InvalidArgumentError, match="group"):
            ScenarioSpec(
                n=100,
                rho=None,
                rho_by_group={0: 0.2, 1: 0.8},
                group_column="g",
                covariates=(CovariateSpec("g", "uniform", low=0, high=1),),
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
            ScenarioSpec(n=100, seed=-3)

    def test_two_response_names_required(self):
        with pytest.raises(InvalidArgumentError, match="two response names"):
            ScenarioSpec(n=100, responses=("y",))

    @pytest.mark.parametrize("responses,covariates", [
        (("y1", "y2"), ("x", "y1")),
        (("y1", "y2"), ("x", "x")),
        (("a", "a"), ()),
    ], ids=["covariate-shadows-response", "two-covariates", "two-responses"])
    def test_column_names_must_be_distinct(self, responses, covariates):
        with pytest.raises(InvalidArgumentError, match="distinct names, repeated"):
            ScenarioSpec(n=100, responses=responses,
                         covariates=tuple(CovariateSpec(c) for c in covariates))

    def test_rho_and_rho_by_group_exclusive(self):
        with pytest.raises(InvalidArgumentError, match="either rho or rho_by_group, not both"):
            ScenarioSpec(n=100, rho=0.3, rho_by_group={0: 0.2, 1: 0.8}, group_column="g",
                         covariates=(CovariateSpec("g", "binary"),))

    def test_rho_defaults_only_without_groups(self):
        assert ScenarioSpec(n=100).rho == 0.5
        grouped = ScenarioSpec(n=100, rho_by_group={0: 0.2, 1: 0.8}, group_column="g",
                               covariates=(CovariateSpec("g", "binary"),))
        assert grouped.rho is None

    @pytest.mark.parametrize("groups", [
        {0: 0.2}, {0: 0.2, 1: 0.8, 2: 0.5}, {1: 0.2, 2: 0.8}, [0.2, 0.8]])
    def test_rho_by_group_needs_groups_0_and_1(self, groups):
        with pytest.raises(InvalidArgumentError, match="rho_by_group needs values for groups 0 and 1"):
            ScenarioSpec(n=100, rho_by_group=groups, group_column="g",
                         covariates=(CovariateSpec("g", "binary"),))

    def test_responses_must_not_be_a_string(self):
        for names in ("ab", b"ab"):  # bytes would name the responses 97 and 98
            with pytest.raises(InvalidArgumentError, match="responses must be a sequence"):
                ScenarioSpec(n=100, responses=names)

    def test_responses_must_be_iterable(self):
        with pytest.raises(InvalidArgumentError,
                           match="responses must be a sequence of two names, got 7"):
            ScenarioSpec(n=60, responses=7)

    @pytest.mark.parametrize("field,value,what", [
        ("n", "100", "an integer"), ("n", 100.0, "an integer"), ("n", True, "an integer"),
        ("seed", "3", "an integer"), ("seed", None, "an integer"),
        ("rho", "0.5", "a finite number"), ("rho", [0.5], "a finite number")])
    def test_scenario_numbers_are_checked_by_name(self, field, value, what):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be {what}, got"):
            ScenarioSpec(**dict({"n": 100}, **{field: value}))

    def test_group_rho_must_be_a_number(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"rho_by_group\[1\] must be a finite number"):
            ScenarioSpec(n=100, rho_by_group={0: 0.2, 1: "0.8"}, group_column="g",
                         covariates=(CovariateSpec("g", "binary"),))

    def test_group_rho_range_names_the_group(self):
        with pytest.raises(InvalidArgumentError, match=r"^\|rho_by_group\[1\]\| must be < 1"):
            ScenarioSpec(n=100, rho_by_group={0: 0.2, 1: 1.0}, group_column="g",
                         covariates=(CovariateSpec("g", "binary"),))

    @pytest.mark.parametrize("term,value", [
        ("x", float("nan")), ("x", np.inf), ("x", -np.inf), ("x", "0.5"), ("x", None),
        ("x", True), ("intercept", float("nan"))],
        ids=["nan", "inf", "-inf", "string", "none", "bool", "intercept-nan"])
    def test_coefficients_are_checked_by_response_and_term(self, term, value):
        with pytest.raises(InvalidArgumentError,
                           match=f"^coefficient of 'y2' on '{term}' must be a finite number"):
            ScenarioSpec(n=100, covariates=(CovariateSpec("x"),),
                         coefficients={"y1": {"x": 1.0},
                                       "y2": {"intercept": 0.0, "x": 0.5, term: value}})

    @pytest.mark.parametrize("coefficients,match", [
        ([("y1", {"x": 1.0})], "^coefficients must be a mapping"),
        ("y1", "^coefficients must be a mapping"),
        ({"y1": 1.0}, "^coefficients of 'y1' must be a mapping"),
        ({"y1": [("x", 1.0)]}, "^coefficients of 'y1' must be a mapping"),
    ], ids=["list", "string", "number", "list-of-pairs"])
    def test_coefficients_must_be_mappings(self, coefficients, match):
        with pytest.raises(InvalidArgumentError, match=match):
            ScenarioSpec(n=100, covariates=(CovariateSpec("x"),), coefficients=coefficients)

    @pytest.mark.parametrize("field,value", [
        ("low", "0"), ("high", None), ("high", np.inf), ("p", "0.5"), ("p", True)])
    def test_covariate_numbers_are_checked_by_name(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be a finite number"):
            CovariateSpec("x", "binary" if field == "p" else "uniform", **{field: value})

    def test_covariate_kind_validation(self):
        with pytest.raises(InvalidArgumentError, match="unknown covariate kind"):
            CovariateSpec("x", "gamma")
        with pytest.raises(InvalidArgumentError, match="range empty"):
            CovariateSpec("x", "uniform", low=2.0, high=2.0)
        with pytest.raises(InvalidArgumentError, match="probability"):
            CovariateSpec("g", "binary", p=1.5)


class TestGenerate:

    def test_deterministic_in_seed(self):
        s = ScenarioSpec(n=200, rho=0.3, seed=99)
        a, b = generate(s), generate(s)
        for name in a.names:
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_seed_changes_draws(self):
        a = generate(ScenarioSpec(n=100, rho=0.3, seed=1))
        b = generate(ScenarioSpec(n=100, rho=0.3, seed=2))
        assert not np.array_equal(a.column("y1"), b.column("y1"))

    def test_responses_come_first(self):
        s = ScenarioSpec(
            n=60,
            covariates=(CovariateSpec("x1", "uniform", low=0, high=1),),
        )
        assert generate(s).names == ("y1", "y2", "x1")

    def test_rho_zero_errors_uncorrelated(self):
        n = 4000
        d = generate(ScenarioSpec(n=n, rho=0.0, seed=5))
        r = np.corrcoef(d.column("y1"), d.column("y2"))[0, 1]
        assert abs(r) <= 3.0 / np.sqrt(n)

    def test_rho_high_errors_correlated(self):
        n = 10000
        d = generate(ScenarioSpec(n=n, rho=0.9, seed=6))
        r = np.corrcoef(d.column("y1"), d.column("y2"))[0, 1]
        assert abs(r - 0.9) <= 0.02

    def test_unit_margins(self):
        d = generate(ScenarioSpec(n=20000, rho=0.4, seed=7))
        for name in ("y1", "y2"):
            col = d.column(name)
            assert abs(np.mean(col)) <= 3.0 / np.sqrt(20000)
            assert abs(np.std(col) - 1.0) <= 0.03

    def test_coefficients_shift_raw_errors_exactly(self):
        cov = (
            CovariateSpec("x1", "uniform", low=0.0, high=2.0),
            CovariateSpec("g", "binary", p=0.4),
        )
        base = ScenarioSpec(n=100, rho=0.5, covariates=cov, seed=11)
        shifted = ScenarioSpec(
            n=100,
            rho=0.5,
            covariates=cov,
            coefficients={"y1": {"intercept": 1.0, "x1": 0.5}, "y2": {"g": -2.0}},
            seed=11,
        )
        a, b = generate(base), generate(shifted)
        np.testing.assert_array_equal(a.column("x1"), b.column("x1"))
        np.testing.assert_allclose(
            b.column("y1"), a.column("y1") + 1.0 + 0.5 * a.column("x1"), atol=1e-12
        )
        np.testing.assert_allclose(
            b.column("y2"), a.column("y2") - 2.0 * a.column("g"), atol=1e-12
        )

    def test_binary_covariate_frequency(self):
        s = ScenarioSpec(
            n=5000, covariates=(CovariateSpec("g", "binary", p=0.3),), seed=12
        )
        g = generate(s).column("g")
        assert set(np.unique(g)) <= {0.0, 1.0}
        assert abs(g.mean() - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / 5000)

    def test_rho_by_group(self):
        s = ScenarioSpec(
            n=20000,
            rho=None,
            rho_by_group={0: 0.1, 1: 0.8},
            group_column="g",
            covariates=(CovariateSpec("g", "binary", p=0.5),),
            seed=13,
        )
        d = generate(s)
        g = d.column("g")
        for value, target in ((0.0, 0.1), (1.0, 0.8)):
            mask = g == value
            r = np.corrcoef(d.column("y1")[mask], d.column("y2")[mask])[0, 1]
            assert abs(r - target) <= 0.03

    def test_unknown_coefficient_column(self):
        with pytest.raises(InvalidArgumentError, match="nope"):
            ScenarioSpec(n=60, coefficients={"y1": {"nope": 1.0}})

    def test_coefficients_for_unknown_response(self):
        with pytest.raises(InvalidArgumentError, match="unknown response"):
            ScenarioSpec(n=60, coefficients={"y9": {"intercept": 1.0}})


class TestOraclePhi:

    def test_zero_rho_gives_zero(self):
        # +0.0 exactly, so that no sidecar prints -0.0
        for tau in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            value = oracle_phi_gaussian(0.0, tau)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_median_closed_form_agreement(self):
        for rho in (-0.9, -0.3, 0.0, 0.5, 0.8):
            closed = oracle_phi_gaussian_median_closed_form(rho)
            np.testing.assert_allclose(
                oracle_phi_gaussian(rho, 0.5), closed, atol=1e-6
            )

    def test_half_rho_median_is_one_third(self):
        np.testing.assert_allclose(
            oracle_phi_gaussian_median_closed_form(0.5), 1.0 / 3.0, atol=1e-15
        )
        np.testing.assert_allclose(
            oracle_phi_gaussian(0.5, 0.5), 1.0 / 3.0, atol=1e-6
        )

    def test_closed_form_endpoints(self):
        np.testing.assert_allclose(oracle_phi_gaussian_median_closed_form(0.0), 0.0)
        np.testing.assert_allclose(
            oracle_phi_gaussian_median_closed_form(1.0), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            oracle_phi_gaussian_median_closed_form(-1.0), -1.0, atol=1e-12
        )

    def test_strictly_increasing_in_rho(self):
        rhos = (-0.8, -0.4, 0.0, 0.4, 0.8)
        for tau in (0.2, 0.5, 0.8):
            values = [oracle_phi_gaussian(r, tau) for r in rhos]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_tau_symmetry(self):
        for tau in (0.1, 0.25, 0.4):
            for rho in (0.3, 0.7):
                np.testing.assert_allclose(
                    oracle_phi_gaussian(rho, tau),
                    oracle_phi_gaussian(rho, 1.0 - tau),
                    atol=1e-6,
                )

    def test_bound_respect(self):
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            bounds = phi_bounds(tau)
            for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
                val = oracle_phi_gaussian(rho, tau)
                assert bounds.phi_min - 1e-9 <= val <= bounds.phi_max + 1e-9

    def test_rho_near_one_approaches_max(self):
        assert oracle_phi_gaussian(0.999, 0.5) > 0.95

    def test_matches_scipy_quadrature(self):
        # the Gauss-Legendre panels against a 20-digit integral over the whole
        # rho range, near rho = -1 too, where 1 + sin(theta) nears 0
        pytest.importorskip("mpmath")
        taus = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
        rhos = [*np.linspace(-0.95, 0.95, 39), -0.999, -0.995, -0.99, 0.99, 0.999]
        worst = max(abs(oracle_phi_gaussian(rho, tau) - oracle_phi_gaussian_mpmath(rho, tau, 20))
                    for rho in map(float, rhos) for tau in taus)
        assert worst <= 5e-15

    def test_matches_a_40_digit_integral_near_rho_minus_one(self):
        pytest.importorskip("mpmath")
        taus = (0.01, 0.05, 0.1, 0.25, 0.4, 0.49, 0.5, 0.51, 0.6, 0.75, 0.9, 0.95, 0.99)
        rhos = (-0.9999, -0.99991, -0.99999, -0.999999, -1 + 1e-10, float(np.nextafter(-1, 0)))
        worst = max(abs(oracle_phi_gaussian(rho, t) - oracle_phi_gaussian_mpmath(rho, t))
                    for rho in rhos for t in taus)
        assert worst <= 1e-15

    def test_median_equals_arcsine_to_rounding(self):
        for rho in [0.5, *np.linspace(-0.99, 0.99, 199)]:
            assert abs(oracle_phi_gaussian(float(rho), 0.5)
                       - oracle_phi_gaussian_median_closed_form(rho)) <= 4.4e-16

    @pytest.mark.parametrize("rho,match", [
        ("0.5", "^rho must be a finite number"), (None, "^rho must be a finite number"),
        (float("nan"), "^rho must be a finite number"), (True, "^rho must be a finite number"),
        (1.0, r"^\|rho\| must be < 1"), (-1.5, r"^\|rho\| must be < 1")])
    def test_rho_is_checked_by_name(self, rho, match):
        with pytest.raises(InvalidArgumentError, match=match):
            oracle_phi_gaussian(rho, 0.5)

    @pytest.mark.parametrize("tau", [0.0, 1.0, "0.5"])
    def test_tau_is_checked(self, tau):
        with pytest.raises(InvalidArgumentError, match="tau must be in"):
            oracle_phi_gaussian(0.5, tau)
