"""Tests for the end-to-end two-step procedure and its profile grids."""

import dataclasses

import numpy as np
import pytest

from quantcord import (
    LABELS,
    AnalysisSpec,
    CellProbabilities,
    Dataset,
    EmptyCategoryError,
    InvalidArgumentError,
    NonConvergenceError,
    build_grid,
    classify,
    identity,
    interaction,
    phi,
    phi_bounds,
    phi_profile,
    residual_signs,
    run_two_step,
    spline,
)
import quantcord.multinomial as multinomial
from quantcord.multinomial import MultinomialFit
from quantcord.pipeline import (
    CONSTANT_PROFILE,
    EvaluationGrid,
    _held_default,
    evaluate_surface,
)


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

    def test_grid_overrides_must_name_profiled_covariates(self):
        terms = (identity("x"),)
        with pytest.raises(InvalidArgumentError,
                           match=r"'nosuch'.*available covariates: \['x'\]"):
            _spec(step2_terms=terms, grid_values={"nosuch": (1.0, 2.0)})
        with pytest.raises(InvalidArgumentError, match="held value given for 'alsonot'"):
            _spec(step2_terms=terms, held={"alsonot": 1.0})
        with pytest.raises(InvalidArgumentError, match="available covariates: \\[\\]"):
            _spec(held={"x": 1.0})

    def test_profile_columns_deduplicated_in_order(self):
        spec = _spec(
            step2_terms=(identity("x"), interaction("x", "g"), identity("w"))
        )
        assert spec.profile_columns == ("x", "g", "w")

    def test_columns_are_responses_then_terms_deduplicated(self):
        spec = _spec(
            step1_terms=(identity("w"), identity("y1")),
            step2_terms=(identity("x"), interaction("x", "w")),
        )
        assert spec.columns == ("y1", "y2", "w", "x")


class TestBuildGrid:

    def test_constant_profile_without_step2_terms(self):
        data = _dependent_data()
        grid = build_grid(data, _spec())
        assert grid.varying == (CONSTANT_PROFILE,)
        assert grid.value.shape == (1,)
        assert np.isnan(grid.value[0])
        assert grid.columns == {}

    def test_continuous_default_is_linspace_over_range(self):
        data = _dependent_data()
        grid = build_grid(data, _spec(step2_terms=(identity("x"),)))
        x = data.column("x")
        assert grid.m == 100
        np.testing.assert_allclose(
            grid.columns["x"], np.linspace(x.min(), x.max(), 100)
        )
        assert all(v == "x" for v in grid.varying)

    def test_grid_points_override(self):
        data = _dependent_data()
        grid = build_grid(data, _spec(step2_terms=(identity("x"),), grid_points=7))
        assert grid.m == 7

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

    def test_grid_values_must_not_be_empty(self):
        with pytest.raises(InvalidArgumentError,
                           match="grid values for 'x' must be a non-empty 1-d list"):
            _spec(step2_terms=(identity("x"),), grid_values={"x": ()})


class TestRunTwoStep:

    def test_identical_responses_raise_empty_category(self):
        rng = np.random.default_rng(61)
        y1 = rng.normal(size=200)
        data = Dataset(columns={"y1": y1, "y2": y1.copy()})
        with pytest.raises(EmptyCategoryError, match="^step 2:") as err:
            run_two_step(data, _spec(), 0.5)
        assert tuple(err.value.missing) == ("01", "10")

    def test_antithetic_responses_raise_empty_category(self):
        # even n keeps the two median vertices off each other's rows, so
        # no row is an exact zero residual in both fits at once
        rng = np.random.default_rng(61)
        y1 = rng.normal(size=200)
        data = Dataset(columns={"y1": y1, "y2": -y1})
        with pytest.raises(EmptyCategoryError, match="^step 2:") as err:
            run_two_step(data, _spec(), 0.5)
        assert tuple(err.value.missing) == ("00", "11")

    def test_near_identical_responses_push_phi_toward_one(self):
        rng = np.random.default_rng(62)
        e = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        data = Dataset(columns={"y1": e, "y2": e + 0.15 * noise})
        result = run_two_step(data, _spec(), 0.5)
        assert result.surface.phi[0] > 0.85
        assert result.surface.bounds.phi_max == 1.0
        assert not result.surface.out_of_bounds[0]

    def test_near_antithetic_responses_push_phi_toward_minimum(self):
        rng = np.random.default_rng(62)
        e = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        data = Dataset(columns={"y1": e, "y2": -e + 0.15 * noise})
        result = run_two_step(data, _spec(), 0.5)
        assert result.surface.phi[0] < -0.85
        assert result.surface.bounds.phi_min == -1.0

    def test_copula_fixture_recovers_oracle_phi(self, copula_data):
        result = run_two_step(copula_data, _spec(), 0.5)
        assert abs(result.surface.phi[0] - 1.0 / 3.0) < 0.05

    def test_step1_error_carries_provenance(self):
        data = Dataset(
            columns={
                "y1": np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
                "y2": np.arange(5.0),
            }
        )
        with pytest.raises(InvalidArgumentError, match="step 1, response 'y1'"):
            run_two_step(data, _spec(), 0.5)

    def test_unconverged_step2_raises_with_provenance(self, monkeypatch):
        monkeypatch.setattr(multinomial, "MAX_NEWTON_ITER", 0)
        with pytest.raises(NonConvergenceError,
                           match="^step 2: multinomial fit did not converge") as excinfo:
            run_two_step(_dependent_data(), _spec(step2_terms=(identity("x"),)), 0.5)
        assert excinfo.value.last_fit.converged is False

    def test_data_must_be_dataset(self):
        with pytest.raises(InvalidArgumentError, match="Dataset"):
            run_two_step({"y1": np.zeros(3)}, _spec(), 0.5)

    def test_tau_validated(self):
        data = _dependent_data()
        with pytest.raises(InvalidArgumentError, match="tau must be in"):
            run_two_step(data, _spec(), 1.5)

    def test_order_equivariance_saturated_step2(self):
        # swapping the responses relabels "01" <-> "10"; the saturated
        # intercept-only step-2 model reproduces the relabeled counts, so
        # the phi surface is unchanged
        data = _dependent_data()
        forward = run_two_step(data, _spec(responses=("y1", "y2")), 0.5)
        swapped = run_two_step(data, _spec(responses=("y2", "y1")), 0.5)
        np.testing.assert_allclose(
            forward.surface.phi, swapped.surface.phi, rtol=0, atol=1e-10
        )

    def test_margin_check(self):
        # fraction of labels with omega_j = 1 stays within (q+1)/n of tau
        data = _dependent_data(seed=64, n=500)
        spec = _spec(taus=(0.25, 0.5, 0.75), step1_terms=(identity("x"),))
        slack = 2.0 / data.n  # step-1 design has q+1 = 2 columns
        for tau in spec.taus:
            result = run_two_step(data, spec, tau)
            z = np.asarray(LABELS)[_labels(result)]
            frac1 = np.mean([lab[0] == "1" for lab in z])
            frac2 = np.mean([lab[1] == "1" for lab in z])
            assert abs(frac1 - tau) <= slack
            assert abs(frac2 - tau) <= slack

    def test_labels_are_integer_codes(self):
        labels = _labels(run_two_step(_dependent_data(), _spec(), 0.5))
        assert np.issubdtype(labels.dtype, np.integer)
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_phi_recomputable_from_stored_cells(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),), grid_points=9)
        result = run_two_step(data, spec, 0.5)
        surface = result.surface
        for i in range(surface.grid.m):
            cells = CellProbabilities(
                p00=surface.cells[i, 0],
                p11=surface.cells[i, 1],
                p01=surface.cells[i, 2],
                p10=surface.cells[i, 3],
                tau=surface.tau,
            )
            assert abs(phi(cells) - surface.phi[i]) <= 1e-12

    def test_saturated_surface_matches_empirical_cells(self):
        data = _dependent_data()
        result = run_two_step(data, _spec(), 0.5)
        emp = result.empirical
        np.testing.assert_allclose(
            result.surface.cells[0],
            [emp.p00, emp.p11, emp.p01, emp.p10],
            rtol=0,
            atol=1e-10,
        )

    def test_bounds_annotated_on_surface(self):
        data = _dependent_data()
        for tau in (0.1, 0.5, 0.8):
            surface = run_two_step(data, _spec(), tau).surface
            assert surface.bounds == phi_bounds(tau)

    def test_out_of_bounds_flagged_but_never_clipped(self):
        # model-based cell probabilities need not honor the tau margins,
        # so phi can leave its fixed-margin range; the value is reported
        # as computed with the flag set
        p = np.array([0.28, 0.70, 0.01, 0.01])  # p00, p11, p01, p10
        fit = MultinomialFit(
            categories=("11", "01", "10"),
            gamma=np.log(p[1:] / p[0])[:, None],
            loglik=0.0,
            converged=True,
            iterations=1,
            columns=("intercept",),
            merged=False,
        )
        grid = EvaluationGrid(
            varying=(CONSTANT_PROFILE,), value=np.array([np.nan]), columns={}
        )
        surface = evaluate_surface(fit, None, grid, 0.25)
        expected = (p[1] * p[0] - p[2] * p[3]) / (0.25 * 0.75)
        assert expected > 1.0
        np.testing.assert_allclose(surface.phi[0], expected, rtol=0, atol=1e-12)
        assert surface.out_of_bounds[0]

    def test_merged_mode_threads_through(self):
        data = _dependent_data()
        result = run_two_step(data, _spec(merged=True), 0.5)
        assert result.step2.merged
        assert result.surface.cells[0, 2] == result.surface.cells[0, 3]

    def test_explicit_grid_is_used_verbatim(self):
        data = _dependent_data()
        spec = _spec(step2_terms=(identity("x"),))
        grid = EvaluationGrid(
            varying=("x", "x"), value=np.array([0.0, 1.0]),
            columns={"x": np.array([0.0, 1.0])},
        )
        result = run_two_step(data, spec, 0.5, grid=grid)
        assert result.surface.grid is grid
        assert result.surface.phi.shape == (2,)


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
            base = run_two_step(data, self.SPEC, tau)
            rng = np.random.default_rng(seed)
            counts = np.bincount(rng.integers(0, data.n, data.n), minlength=data.n)
            rows = np.flatnonzero(counts)
            kwargs = dict(grid=base.surface.grid, start=base)
            expanded = run_two_step(data.take(np.repeat(np.arange(data.n), counts)),
                                    self.SPEC, tau, **kwargs)
            weighted = run_two_step(data.take(rows), self.SPEC, tau,
                                    weights=counts[rows], **kwargs)
            for fw, fe in zip(weighted.step1, expanded.step1):
                assert fw.objective == pytest.approx(fe.objective, rel=1e-12), f"seed {seed}"
            if min(f.margin for f in weighted.step1) <= 0.0:
                continue  # an optimum that is not unique may take another vertex
            unique += 1
            assert weighted.empirical == expanded.empirical, f"seed {seed}"
            assert weighted.step2.loglik == pytest.approx(expanded.step2.loglik, rel=1e-12)
            np.testing.assert_allclose(weighted.surface.phi, expanded.surface.phi,
                                       rtol=0, atol=1e-9)
        assert unique >= 30

    def test_unit_weights_equal_no_weights(self):
        data = _dependent_data(seed=6, n=300)
        for tau in (0.1, 0.5):
            plain = run_two_step(data, self.SPEC, tau)
            unit = run_two_step(data, self.SPEC, tau, weights=np.ones(data.n))
            for a, b in zip(plain.step1, unit.step1):
                assert np.array_equal(a.beta, b.beta) and a.basis == b.basis
            assert np.array_equal(plain.step2.gamma, unit.step2.gamma)
            assert np.array_equal(_labels(plain), _labels(unit))
            assert plain.empirical == unit.empirical
            assert np.array_equal(plain.surface.phi, unit.surface.phi)

    @pytest.mark.parametrize("weights", [np.zeros(50), np.full(50, np.nan), np.ones(49)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            run_two_step(_dependent_data(n=50), self.SPEC, 0.5, weights=weights)


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
            yield (run_two_step(data, base_spec, tau, grid=base_grid),
                   run_two_step(changed, spec or base_spec, tau, grid=grid or base_grid))

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_swapping_responses_swaps_discordant_cells(self, step2):
        spec = self._spec(step2, responses=("y2", "y1"))
        for base, swapped in self._pairs(step2, self._data(), spec=spec):
            assert swapped.step2.categories == base.step2.categories == ("11", "01", "10")
            np.testing.assert_allclose(swapped.step2.gamma, base.step2.gamma[[0, 2, 1]],
                                       rtol=0, atol=3e-13)
            np.testing.assert_allclose(swapped.surface.phi, base.surface.phi,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_permuting_rows(self, step2):
        perm = np.random.default_rng(99).permutation(800)
        for base, permuted in self._pairs(step2, self._data().take(perm)):
            np.testing.assert_array_equal(_labels(permuted), _labels(base)[perm])
            np.testing.assert_allclose(permuted.surface.phi, base.surface.phi,
                                       rtol=0, atol=3e-14)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_increasing_affine_map_of_a_response(self, step2):
        columns = dict(self._data().columns)
        columns["y1"] = 3.0 * columns["y1"] - 7.5
        for base, mapped in self._pairs(step2, Dataset(columns=columns)):
            np.testing.assert_array_equal(_labels(mapped), _labels(base))
            np.testing.assert_array_equal(mapped.surface.phi, base.surface.phi)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_affine_map_of_the_covariate_on_the_mapped_grid(self, step2):
        a, b = 2.5, -1.25
        data = self._data()
        grid = build_grid(data, self._spec(step2))
        mapped_grid = EvaluationGrid(varying=grid.varying, value=a * grid.value + b,
                                     columns={"x": a * grid.columns["x"] + b})
        columns = dict(data.columns)
        columns["x"] = a * columns["x"] + b
        for base, mapped in self._pairs(step2, Dataset(columns=columns), grid=mapped_grid):
            np.testing.assert_array_equal(_labels(mapped), _labels(base))
            # step 2's Newton fits stop at a score below 1e-8, on
            # differently scaled columns
            np.testing.assert_allclose(mapped.surface.phi, base.surface.phi,
                                       rtol=0, atol=3e-10)

    @pytest.mark.parametrize("step2", sorted(STEP2))
    def test_integer_weights_equal_repeated_rows(self, step2):
        data, spec = self._data(), self._spec(step2)
        grid = build_grid(data, spec)
        counts = np.random.default_rng(7).integers(1, 4, data.n)
        repeated = data.take(np.repeat(np.arange(data.n), counts))
        for tau in self.TAUS:
            weighted = run_two_step(data, spec, tau, grid=grid, weights=counts)
            expanded = run_two_step(repeated, spec, tau, grid=grid)
            assert min(f.margin for f in weighted.step1) > 0.0  # a unique optimum
            np.testing.assert_array_equal(np.repeat(_labels(weighted), counts),
                                          _labels(expanded))
            assert weighted.empirical == expanded.empirical
            np.testing.assert_allclose(weighted.surface.phi, expanded.surface.phi,
                                       rtol=0, atol=5e-14)


class TestPhiProfile:

    def _surfaces(self, taus=(0.1, 0.5)):
        data = _dependent_data()
        spec = _spec(taus=taus, step2_terms=(identity("x"),), grid_points=3)
        return data, [run_two_step(data, spec, t).surface for t in taus]

    def test_three_point_grid_gives_three_rows(self):
        data, surfaces = self._surfaces(taus=(0.5,))
        table = phi_profile(surfaces, "x")
        x = data.column("x")
        assert table["tau"].shape == (3,)
        np.testing.assert_allclose(table["value"], np.linspace(x.min(), x.max(), 3))
        bounds = phi_bounds(0.5)
        np.testing.assert_array_equal(table["phi_min"], np.full(3, bounds.phi_min))
        np.testing.assert_array_equal(table["phi_max"], np.full(3, bounds.phi_max))
        np.testing.assert_array_equal(table["phi_hat"], surfaces[0].phi)
        np.testing.assert_array_equal(table["out_of_bounds"], surfaces[0].out_of_bounds)

    def test_tau_010_bound_columns(self):
        _, surfaces = self._surfaces(taus=(0.1,))
        table = phi_profile(surfaces, "x")
        np.testing.assert_allclose(table["phi_min"], np.full(3, -1.0 / 9.0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(table["phi_max"], np.ones(3))

    def test_band_columns_absent_without_bootstrap(self):
        _, surfaces = self._surfaces()
        table = phi_profile(surfaces, "x")
        assert set(table) == {"tau", "value", "phi_hat", "phi_min", "phi_max",
                              "out_of_bounds"}

    def test_band_columns_present_when_all_surfaces_have_bands(self):
        _, surfaces = self._surfaces()
        banded = [
            dataclasses.replace(s, se=np.full(s.phi.shape, 0.1),
                                lower=s.phi - 0.2, upper=s.phi + 0.2)
            for s in surfaces
        ]
        table = phi_profile(banded, "x")
        assert {"lower", "upper"} <= set(table)
        np.testing.assert_allclose(table["upper"] - table["phi_hat"], 0.2)

    def test_rows_ordered_by_tau_then_grid(self):
        _, surfaces = self._surfaces()
        table = phi_profile(list(reversed(surfaces)), "x")
        np.testing.assert_array_equal(table["tau"], [0.1] * 3 + [0.5] * 3)

    def test_unknown_covariate(self):
        _, surfaces = self._surfaces()
        with pytest.raises(InvalidArgumentError, match="available"):
            phi_profile(surfaces, "z")

    def test_empty_surface_list(self):
        with pytest.raises(InvalidArgumentError, match="no surfaces"):
            phi_profile([], "x")
