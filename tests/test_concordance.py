"""Tests for concordance labels, merged pooling, cell probabilities, phi,
and its bounds."""

import numpy as np
import pytest

from quantcord import (
    LABELS,
    MERGED_LABELS,
    InvalidArgumentError,
    classify,
    empirical_cells,
    phi,
    phi_bounds,
)
from quantcord.concordance import pool, split_cells
from oracles import limiting_cells

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
        assert MERGED_LABELS == ("00", "11", "01+10")

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
        np.testing.assert_allclose(empirical_cells(z), [0.25] * 4)

    def test_weights_count_repeats(self):
        rng = np.random.default_rng(3)
        for n in (5, 60, 999):
            z = rng.integers(0, 4, n)
            counts = rng.integers(1, 6, n)
            weighted = empirical_cells(z, weights=counts)
            np.testing.assert_array_equal(weighted, empirical_cells(np.repeat(z, counts)))
            np.testing.assert_array_equal(empirical_cells(z, weights=np.ones(n)),
                                          empirical_cells(z))

    @pytest.mark.parametrize("weights", [[1.0, -2.0], [np.inf, 1.0], [1.0], ["1", "1"],
                                         [True, True]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            empirical_cells(np.array([0, 1]), weights=weights)

    def test_counting(self):
        z = np.array([0] * 80 + [1] * 20)
        assert empirical_cells(z).tolist() == [0.8, 0.2, 0.0, 0.0]

    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            z = rng.integers(0, 4, n)
            np.testing.assert_allclose(empirical_cells(z).sum(), 1.0, atol=1e-12)

    def test_independent_signs_near_independence_row(self):
        # margins tau each, independent -> cells ((1-t)^2, t^2, t-t^2, t-t^2)
        rng = np.random.default_rng(3)
        n = 10000
        for tau in (0.25, 0.5, 0.8):
            w1 = (rng.uniform(size=n) < tau).astype(int)
            w2 = (rng.uniform(size=n) < tau).astype(int)
            got = empirical_cells(classify(w1, w2))
            expected = np.array(
                [(1 - tau) ** 2, tau**2, tau - tau**2, tau - tau**2]
            )
            se = np.sqrt(expected * (1 - expected) / n)
            assert np.all(np.abs(got - expected) <= 3 * se + 1e-12)

    def test_empty_vector(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            empirical_cells(np.array([], dtype=int))

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^labels must be 1-d, got shape \(2, 2\)$"):
            empirical_cells(np.zeros((2, 2), int))

    def test_unknown_label(self):
        for read_codes in (empirical_cells, lambda z: pool(z, merged=True)):
            with pytest.raises(InvalidArgumentError, match="unknown labels"):
                read_codes(np.array([0, 7]))

    @pytest.mark.parametrize("dtype", [object, str])
    def test_string_labels_rejected(self, dtype):
        with pytest.raises(InvalidArgumentError, match="integer cell codes"):
            empirical_cells(np.array(["00", "11"], dtype=dtype))


class TestPooling:

    def test_pool_maps_code_3_to_code_2_in_merged_mode_only(self):
        z = np.array([0, 1, 2, 3, 3])
        np.testing.assert_array_equal(pool(z, merged=False), z)
        np.testing.assert_array_equal(pool(z, merged=True), [0, 1, 2, 2, 2])

    def test_split_of_pooled_frequencies_averages_discordant_cells(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 500):
            z = rng.integers(0, 4, n)
            pooled = np.bincount(pool(z, merged=True), minlength=3) / n
            cells = empirical_cells(z)
            expected = np.r_[cells[:2], [(cells[2] + cells[3]) / 2] * 2]
            np.testing.assert_allclose(split_cells(pooled), expected, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(split_cells(cells), cells)


class TestCellProbabilitiesValidation:
    """``phi``'s rules on cell probabilities, for one row and for each row
    of an m x 4 array."""

    @staticmethod
    def _rejects(cells, tau, match):
        rows = np.array([[0.25] * 4, cells])
        for given in (cells, rows):
            with pytest.raises(InvalidArgumentError, match=match):
                phi(given, tau)

    @pytest.mark.parametrize("cells", [
        (np.nan, 0.5, 0.25, 0.25), (0.5, np.nan, 0.25, 0.25),
        (0.25, 0.25, np.inf, 0.5), (0.5, 0.5, 0.0, -np.inf),
    ])
    def test_non_finite_cell_rejected(self, cells):
        self._rejects(cells, 0.5, "cells must be finite")

    def test_negative_cell_rejected(self):
        self._rejects((-0.1, 0.6, 0.25, 0.25), 0.5, "lie in")

    def test_sum_away_from_one_rejected(self):
        self._rejects((0.5, 0.5, 0.5, 0.5), 0.5, "sum to 1")

    def test_tau_bounds(self):
        self._rejects((0.25, 0.25, 0.25, 0.25), 1.0, "tau")

    @pytest.mark.parametrize("cells", [(0.5, 0.5), np.full((2, 3), 1 / 3), 0.25])
    def test_cells_without_four_columns_rejected(self, cells):
        with pytest.raises(InvalidArgumentError, match="four cells"):
            phi(cells, 0.5)


class TestPhi:

    def test_independence_row_gives_zero(self):
        for tau in TAU_GRID:
            cells = limiting_cells("independence", tau)
            np.testing.assert_allclose(phi(cells, tau), 0.0, atol=1e-12)

    def test_max_row_gives_one(self):
        for tau in TAU_GRID:
            cells = limiting_cells("max", tau)
            np.testing.assert_allclose(phi(cells, tau), 1.0, atol=1e-12)

    def test_min_row_gives_phi_min(self):
        for tau in TAU_GRID:
            cells = limiting_cells("min", tau)
            np.testing.assert_allclose(phi(cells, tau), phi_bounds(tau).phi_min, atol=1e-12)

    def test_min_row_hand_value_at_quarter(self):
        # p00 = 1-2t = 0.5, p01 = p10 = 0.25, p11 = 0 -> -t/(1-t) = -1/3
        np.testing.assert_allclose(phi([0.5, 0.0, 0.25, 0.25], 0.25), -1.0 / 3.0,
                                   atol=1e-15)

    def test_fixed_margin_denominator(self):
        # equal cells at tau != 0.5: numerator zero regardless of margins
        np.testing.assert_allclose(phi([0.25] * 4, 0.2), 0.0, atol=1e-15)
        # asymmetric example evaluated by hand against tau(1-tau)
        np.testing.assert_allclose(phi([0.7, 0.1, 0.1, 0.1], 0.2), (0.07 - 0.01) / 0.16)

    def test_swap_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            raw = rng.dirichlet(np.ones(4))
            tau = float(rng.uniform(0.05, 0.95))
            np.testing.assert_allclose(phi(raw, tau), phi(raw[[0, 1, 3, 2]], tau), rtol=1e-15)


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
                np.testing.assert_allclose(limiting_cells(case, tau).sum(), 1.0, atol=1e-12)

    def test_max_row_structure(self):
        np.testing.assert_allclose(limiting_cells("max", 0.3), [0.7, 0.3, 0.0, 0.0])

    def test_min_row_structure_below_median(self):
        np.testing.assert_allclose(limiting_cells("min", 0.25), [0.5, 0.0, 0.25, 0.25])

    def test_min_row_structure_above_median(self):
        # mirrored: p11 = 2tau-1, discordant cells 1-tau each
        np.testing.assert_allclose(limiting_cells("min", 0.75), [0.0, 0.5, 0.25, 0.25])

    def test_unknown_case(self):
        with pytest.raises(InvalidArgumentError, match="unknown limiting case"):
            limiting_cells("middle", 0.5)
