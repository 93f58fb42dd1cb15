"""Tests for concordance labels, cell probabilities, phi, and its bounds."""

import numpy as np
import pytest

from quantcord import (
    LABELS,
    CellProbabilities,
    InvalidArgumentError,
    classify,
    empirical_cells,
    limiting_cells,
    phi,
    phi_bounds,
)

TAU_GRID = np.arange(0.05, 0.951, 0.05)


class TestClassify:

    def test_case_list(self):
        z = classify(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]))
        np.testing.assert_array_equal(np.asarray(LABELS)[z], ["00", "11", "01", "10"])

    def test_identical_vectors_have_no_discordance(self):
        rng = np.random.default_rng(0)
        w = rng.integers(0, 2, size=500)
        z = classify(w, w)
        assert not np.isin(z, (2, 3)).any()

    def test_label_ordering_constant(self):
        assert LABELS == ("00", "11", "01", "10")

    def test_swap_maps_discordant_labels(self):
        # exchanging the responses swaps "01" <-> "10" (codes 2 <-> 3) and
        # fixes the rest
        rng = np.random.default_rng(1)
        w1 = rng.integers(0, 2, size=300)
        w2 = rng.integers(0, 2, size=300)
        z = classify(w1, w2)
        z_swapped = classify(w2, w1)
        relabel = np.array([0, 1, 3, 2])
        np.testing.assert_array_equal(z_swapped, relabel[z])

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="length"):
            classify(np.array([0, 1]), np.array([0]))

    def test_nonbinary_entries(self):
        with pytest.raises(InvalidArgumentError, match="only 0 and 1"):
            classify(np.array([0, 2]), np.array([0, 1]))


class TestEmpiricalCells:

    def test_uniform_counts(self):
        z = np.arange(4)
        cells = empirical_cells(z, 0.5)
        np.testing.assert_allclose(
            [cells.p00, cells.p11, cells.p01, cells.p10], [0.25] * 4
        )

    def test_weights_count_repeats(self):
        rng = np.random.default_rng(3)
        for n in (5, 60, 999):
            z = rng.integers(0, 4, n)
            counts = rng.integers(1, 6, n)
            weighted = empirical_cells(z, 0.3, weights=counts)
            assert weighted == empirical_cells(np.repeat(z, counts), 0.3)
            assert empirical_cells(z, 0.3, weights=np.ones(n)) == empirical_cells(z, 0.3)

    @pytest.mark.parametrize("weights", [[1.0, -2.0], [np.inf, 1.0], [1.0]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            empirical_cells(np.array([0, 1]), 0.5, weights=weights)

    def test_counting(self):
        z = np.array([0] * 80 + [1] * 20)
        cells = empirical_cells(z, 0.2)
        assert (cells.p00, cells.p11, cells.p01, cells.p10) == (0.8, 0.2, 0.0, 0.0)
        assert cells.tau == 0.2

    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            z = rng.integers(0, 4, n)
            cells = empirical_cells(z, 0.3)
            total = cells.p00 + cells.p11 + cells.p01 + cells.p10
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_independent_signs_near_independence_row(self):
        # margins tau each, independent -> cells ((1-t)^2, t^2, t-t^2, t-t^2)
        rng = np.random.default_rng(3)
        n = 10000
        for tau in (0.25, 0.5, 0.8):
            w1 = (rng.uniform(size=n) < tau).astype(int)
            w2 = (rng.uniform(size=n) < tau).astype(int)
            cells = empirical_cells(classify(w1, w2), tau)
            expected = np.array(
                [(1 - tau) ** 2, tau**2, tau - tau**2, tau - tau**2]
            )
            got = np.array([cells.p00, cells.p11, cells.p01, cells.p10])
            se = np.sqrt(expected * (1 - expected) / n)
            assert np.all(np.abs(got - expected) <= 3 * se + 1e-12)

    def test_empty_vector(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            empirical_cells(np.array([], dtype=int), 0.5)

    def test_unknown_label(self):
        with pytest.raises(InvalidArgumentError, match="unknown labels"):
            empirical_cells(np.array([0, 7]), 0.5)

    @pytest.mark.parametrize("dtype", [object, str])
    def test_string_labels_rejected(self, dtype):
        with pytest.raises(InvalidArgumentError, match="integer cell codes"):
            empirical_cells(np.array(["00", "11"], dtype=dtype), 0.5)


class TestCellProbabilitiesValidation:

    @pytest.mark.parametrize("cells", [
        (np.nan, 0.5, 0.25, 0.25), (0.5, np.nan, 0.25, 0.25),
        (0.25, 0.25, np.inf, 0.5), (0.5, 0.5, 0.0, -np.inf),
    ])
    def test_non_finite_cell_rejected(self, cells):
        with pytest.raises(InvalidArgumentError, match="cells must be finite"):
            CellProbabilities(*cells, tau=0.5)

    def test_negative_cell_rejected(self):
        with pytest.raises(InvalidArgumentError, match="lie in"):
            CellProbabilities(p00=-0.1, p11=0.6, p01=0.25, p10=0.25, tau=0.5)

    def test_sum_away_from_one_rejected(self):
        with pytest.raises(InvalidArgumentError, match="sum to 1"):
            CellProbabilities(p00=0.5, p11=0.5, p01=0.5, p10=0.5, tau=0.5)

    def test_tau_bounds(self):
        with pytest.raises(InvalidArgumentError, match="tau"):
            CellProbabilities(p00=0.25, p11=0.25, p01=0.25, p10=0.25, tau=1.0)


class TestPhi:

    def test_independence_row_gives_zero(self):
        for tau in TAU_GRID:
            cells = limiting_cells("independence", tau)
            np.testing.assert_allclose(phi(cells), 0.0, atol=1e-12)

    def test_max_row_gives_one(self):
        for tau in TAU_GRID:
            cells = limiting_cells("max", tau)
            np.testing.assert_allclose(phi(cells), 1.0, atol=1e-12)

    def test_min_row_gives_phi_min(self):
        for tau in TAU_GRID:
            cells = limiting_cells("min", tau)
            np.testing.assert_allclose(phi(cells), phi_bounds(tau).phi_min, atol=1e-12)

    def test_min_row_hand_value_at_quarter(self):
        # p00 = 1-2t = 0.5, p01 = p10 = 0.25, p11 = 0 -> -t/(1-t) = -1/3
        cells = CellProbabilities(p00=0.5, p11=0.0, p01=0.25, p10=0.25, tau=0.25)
        np.testing.assert_allclose(phi(cells), -1.0 / 3.0, atol=1e-15)

    def test_fixed_margin_denominator(self):
        # equal cells at tau != 0.5: numerator zero regardless of margins
        cells = CellProbabilities(p00=0.25, p11=0.25, p01=0.25, p10=0.25, tau=0.2)
        np.testing.assert_allclose(phi(cells), 0.0, atol=1e-15)
        # asymmetric example evaluated by hand against tau(1-tau)
        cells = CellProbabilities(p00=0.7, p11=0.1, p01=0.1, p10=0.1, tau=0.2)
        np.testing.assert_allclose(phi(cells), (0.07 - 0.01) / 0.16)

    def test_swap_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            raw = rng.dirichlet(np.ones(4))
            tau = float(rng.uniform(0.05, 0.95))
            a = CellProbabilities(raw[0], raw[1], raw[2], raw[3], tau)
            b = CellProbabilities(raw[0], raw[1], raw[3], raw[2], tau)
            np.testing.assert_allclose(phi(a), phi(b), rtol=1e-15)


class TestPhiBounds:

    def test_median(self):
        b = phi_bounds(0.5)
        assert (b.phi_min, b.phi_max) == (-1.0, 1.0)

    def test_tau_tenth(self):
        b = phi_bounds(0.1)
        np.testing.assert_allclose(b.phi_min, -1.0 / 9.0)
        assert b.phi_max == 1.0

    def test_symmetric_tails(self):
        b_low, b_high = phi_bounds(0.1), phi_bounds(0.9)
        np.testing.assert_allclose(b_low.phi_min, b_high.phi_min, atol=1e-15)

    def test_formula_both_branches(self):
        for tau in TAU_GRID:
            expected = -tau / (1 - tau) if tau <= 0.5 else -(1 - tau) / tau
            np.testing.assert_allclose(phi_bounds(tau).phi_min, expected, atol=1e-15)

    def test_continuous_at_median(self):
        eps = 1e-9
        np.testing.assert_allclose(phi_bounds(0.5 - eps).phi_min, -1.0, atol=1e-8)
        np.testing.assert_allclose(phi_bounds(0.5 + eps).phi_min, -1.0, atol=1e-8)

    def test_phi_min_in_unit_interval(self):
        for tau in TAU_GRID:
            assert -1.0 <= phi_bounds(tau).phi_min <= 0.0

    @pytest.mark.parametrize("tau", [0.0, 1.0, 2.0])
    def test_invalid_tau(self, tau):
        with pytest.raises(InvalidArgumentError, match="tau"):
            phi_bounds(tau)


class TestLimitingCells:

    def test_rows_are_valid_distributions(self):
        for case in ("independence", "max", "min"):
            for tau in TAU_GRID:
                cells = limiting_cells(case, tau)
                total = cells.p00 + cells.p11 + cells.p01 + cells.p10
                np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_max_row_structure(self):
        cells = limiting_cells("max", 0.3)
        np.testing.assert_allclose(
            [cells.p00, cells.p11, cells.p01, cells.p10], [0.7, 0.3, 0.0, 0.0]
        )

    def test_min_row_structure_below_median(self):
        cells = limiting_cells("min", 0.25)
        np.testing.assert_allclose(
            [cells.p00, cells.p11, cells.p01, cells.p10], [0.5, 0.0, 0.25, 0.25]
        )

    def test_min_row_structure_above_median(self):
        # mirrored: p11 = 2tau-1, discordant cells 1-tau each
        cells = limiting_cells("min", 0.75)
        np.testing.assert_allclose(
            [cells.p00, cells.p11, cells.p01, cells.p10], [0.0, 0.5, 0.25, 0.25]
        )

    def test_unknown_case(self):
        with pytest.raises(InvalidArgumentError, match="unknown limiting case"):
            limiting_cells("middle", 0.5)
