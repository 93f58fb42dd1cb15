"""Tests for the pinball loss and the quantile regression solver."""

import contextlib
import io
import itertools

import numpy as np
import pytest
import yaml
from scipy import sparse
from scipy.optimize import linprog

import quantcord.quantreg as qr
from quantcord import (
    DesignMatrix,
    InvalidArgumentError,
    NonConvergenceError,
    SingularDesignError,
    build_design,
    fit_quantile_regression,
    identity,
    read_csv,
)
from quantcord.cli import main as quantcord_main
from quantcord.quantreg import pinball_loss, residual_signs
from oracles import (
    exact_certificate,
    ratio_test_full_sort,
    ratio_test_tie_walk,
    start_basis_row_by_row,
)

# ──────────────────────────────────────────────────────────────────────
# Helpers
# ──────────────────────────────────────────────────────────────────────

def _design(values, columns=None, weights=None):
    values = np.asarray(values, dtype=float)
    if columns is None:
        columns = ["intercept"] + [f"x{j}" for j in range(1, values.shape[1])]
    return DesignMatrix(values, tuple(columns), weights)


def _intercept_only(n, weights=None):
    return _design(np.ones((n, 1)), ["intercept"], weights)


def _random_problem(rng, n, q):
    """Intercept plus q-1 random covariates, heavy-tailed noise."""
    X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
    beta = rng.uniform(-2.0, 2.0, size=q)
    y = X @ beta + rng.standard_t(df=3, size=n)
    return _design(X), y


def _basic_solution_objective(X, y, tau):
    """Exhaustive search over exact fits through every q-subset of rows."""
    n, q = X.shape
    best = np.inf
    for rows in itertools.combinations(range(n), q):
        A = X[list(rows)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        b = np.linalg.solve(A, y[list(rows)])
        best = min(best, float(np.sum(pinball_loss(y - X @ b, tau))))
    return best


def _lp_objective(X, y, tau):
    """Pinball optimum from HiGHS: min tau*1'u + (1-tau)*1'v, X b + u - v = y."""
    n, q = X.shape
    eye = sparse.identity(n, format="csr")
    lp = linprog(
        np.concatenate([np.zeros(q), np.full(n, tau), np.full(n, 1.0 - tau)]),
        A_eq=sparse.hstack([sparse.csr_matrix(X), eye, -eye], format="csr"),
        b_eq=y,
        bounds=[(None, None)] * q + [(0.0, None)] * (2 * n),
        method="highs",
    )
    assert lp.status == 0, lp.message
    return lp.fun


# ──────────────────────────────────────────────────────────────────────
# pinball_loss
# ──────────────────────────────────────────────────────────────────────

class TestPinballLoss:

    def test_zero_residual(self):
        assert pinball_loss(0.0, 0.3) == 0.0

    def test_median_is_half_absolute(self):
        assert pinball_loss(2.0, 0.5) == 1.0
        assert pinball_loss(-2.0, 0.5) == 1.0

    def test_hand_evaluated_negative_branch(self):
        # (0.1 - 1) * (-1) = 0.9
        np.testing.assert_allclose(pinball_loss(-1.0, 0.1), 0.9)

    def test_vectorized(self):
        u = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(pinball_loss(u, 0.5), [0.5, 0.0, 1.0])

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = float(rng.uniform(-50, 50))
            tau = float(rng.uniform(0.01, 0.99))
            val = pinball_loss(u, tau)
            assert val >= 0.0
            assert (val == 0.0) == (u == 0.0)

    def test_piecewise_slopes(self):
        # slope tau above zero, tau-1 below
        tau = 0.3
        np.testing.assert_allclose(pinball_loss(4.0, tau), tau * 4.0)
        np.testing.assert_allclose(pinball_loss(-4.0, tau), (1 - tau) * 4.0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_tau_outside_open_interval(self, tau):
        with pytest.raises(InvalidArgumentError, match="tau must be in"):
            pinball_loss(1.0, tau)

    def test_nonfinite_residual(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            pinball_loss(np.inf, 0.5)


# ──────────────────────────────────────────────────────────────────────
# fit_quantile_regression: analytically known cases
# ──────────────────────────────────────────────────────────────────────

class TestFitKnownCases:

    def test_median_of_three(self):
        X = _intercept_only(3)
        fit = fit_quantile_regression(X, np.array([1.0, 2.0, 3.0]), 0.5)
        np.testing.assert_allclose(fit.beta, [2.0], atol=1e-10)
        assert fit.margin >= 0.0

    def test_tenth_order_statistic_region(self):
        # minimizer may be anywhere on the flat region; compare objectives
        y = np.arange(1.0, 100.0)
        X = _intercept_only(99)
        fit = fit_quantile_regression(X, y, 0.1)
        grid_best = min(
            float(np.sum(pinball_loss(y - c, 0.1))) for c in np.arange(1.0, 100.0, 0.25)
        )
        np.testing.assert_allclose(fit.objective, grid_best, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_exact_linear_fit_has_zero_loss(self, tau):
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, size=40)
        y = 1.0 + 2.0 * x
        X = _design(np.column_stack([np.ones(40), x]))
        fit = fit_quantile_regression(X, y, tau)
        np.testing.assert_allclose(fit.beta, [1.0, 2.0], atol=1e-8)
        assert fit.objective <= 1e-10

    def test_constant_response_is_legal(self):
        X = _intercept_only(20)
        fit = fit_quantile_regression(X, np.full(20, 3.5), 0.25)
        np.testing.assert_allclose(fit.beta, [3.5], atol=1e-12)
        np.testing.assert_allclose(fit.objective, 0.0, atol=1e-12)

    def test_residuals_recomputable(self):
        rng = np.random.default_rng(2)
        X, y = _random_problem(rng, 80, 3)
        fit = fit_quantile_regression(X, y, 0.4)
        np.testing.assert_array_equal(fit.residuals, y - X.values @ fit.beta)

    def test_objective_equals_pinball_sum(self):
        rng = np.random.default_rng(3)
        X, y = _random_problem(rng, 60, 2)
        fit = fit_quantile_regression(X, y, 0.7)
        np.testing.assert_allclose(
            fit.objective, float(np.sum(pinball_loss(fit.residuals, 0.7))), rtol=1e-12
        )


# ──────────────────────────────────────────────────────────────────────
# Properties: quantile counts, subgradient optimality, equivariance
# ──────────────────────────────────────────────────────────────────────

class TestQuantileProperty:

    def test_sign_count_bounds(self):
        """#{r<0} <= n*tau and #{r>0} <= n*(1-tau), counting float-noise
        basis residuals (|r| below 1e-9 of the response scale) as zeros."""
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(30, 200))
            q = int(rng.integers(1, 5))
            X, y = _random_problem(rng, n, q)
            tau = float(rng.uniform(0.1, 0.9))
            fit = fit_quantile_regression(X, y, tau)
            zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(y))))
            neg = int(np.sum(fit.residuals < -zero_tol))
            pos = int(np.sum(fit.residuals > zero_tol))
            assert neg <= n * tau + 1e-9, f"trial {trial}: {neg} > n*tau"
            assert pos <= n * (1 - tau) + 1e-9, f"trial {trial}: {pos} > n*(1-tau)"

    def test_fraction_below_within_q_plus_one_over_n(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(50, 300))
            q = int(rng.integers(1, 6))
            X, y = _random_problem(rng, n, q)
            tau = float(rng.uniform(0.1, 0.9))
            fit = fit_quantile_regression(X, y, tau)
            frac_below = float(np.mean(fit.residuals < 0))
            assert abs(frac_below - tau) <= (q + 1) / n + 1e-12


class TestSubgradientOptimality:

    def test_coordinate_perturbations_never_improve(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(40, 150))
            q = int(rng.integers(1, 5))
            X, y = _random_problem(rng, n, q)
            tau = float(rng.uniform(0.1, 0.9))
            fit = fit_quantile_regression(X, y, tau)
            scale = max(1.0, float(np.max(np.abs(fit.beta))))
            delta = 1e-4 * scale
            slack = 1e-8 * max(1.0, fit.objective)
            for j in range(q):
                for sign in (+1.0, -1.0):
                    b = fit.beta.copy()
                    b[j] += sign * delta
                    perturbed = float(np.sum(pinball_loss(y - X.values @ b, tau)))
                    assert perturbed >= fit.objective - slack


class TestEquivariance:

    def test_shift_in_y_shifts_fitted_values(self):
        rng = np.random.default_rng(45)
        for _ in range(8):
            n = int(rng.integers(40, 120))
            X, y = _random_problem(rng, n, 3)
            tau = float(rng.uniform(0.15, 0.85))
            c = float(rng.uniform(-10, 10))
            fit0 = fit_quantile_regression(X, y, tau)
            fit1 = fit_quantile_regression(X, y + c, tau)
            fitted0 = X.values @ fit0.beta
            fitted1 = X.values @ fit1.beta
            scale = max(1.0, float(np.max(np.abs(y))))
            np.testing.assert_allclose(fitted1, fitted0 + c, atol=1e-7 * scale)


class TestOracleEquivalence:

    def test_matches_exhaustive_basic_solutions(self):
        """On tiny problems every optimum sits on a basic solution."""
        rng = np.random.default_rng(46)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            q = int(rng.integers(1, 3))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
            y = rng.standard_normal(n) * rng.uniform(0.5, 5.0)
            tau = float(rng.uniform(0.1, 0.9))
            D = _design(X)
            fit = fit_quantile_regression(D, y, tau)
            oracle = _basic_solution_objective(X, y, tau)
            assert fit.objective <= oracle + 1e-8
            assert fit.objective >= oracle - 1e-8


class TestLinearProgramOracle:

    def test_matches_highs_on_random_and_tied_problems(self):
        """300 problems; a third with rounded responses, a third with rounded
        responses and one rounded covariate, so ties and degenerate vertices
        are common."""
        rng = np.random.default_rng(47)
        for trial in range(300):
            n = int(rng.integers(30, 401))
            q = int(rng.integers(2, 6))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
            y = X @ rng.uniform(-2.0, 2.0, size=q) + rng.standard_t(df=2, size=n)
            tau = float(rng.uniform(0.05, 0.95))
            if trial % 3 >= 1:
                y = np.round(y)
            if trial % 3 == 2:
                X[:, 1] = np.round(X[:, 1])
            fit = fit_quantile_regression(_design(X), y, tau)
            reference = _lp_objective(X, y, tau)
            gap = (fit.objective - reference) / reference
            assert gap <= 1e-9, f"trial {trial}: gap {gap:.3e}"
            assert fit.margin >= 0.0, f"trial {trial}: margin {fit.margin}"
            if trial % 3 == 0:
                # continuous data: the vertex is exactly optimal, with no tie
                slack = exact_certificate(X, y, tau, None, fit.basis)
                assert slack is not None and slack >= 0, f"trial {trial}: slack {slack}"

    @pytest.mark.parametrize("offset, spread", [(1.7e9, 3e7), (1e9, 1e6), (5e4, 1e4)])
    def test_matches_highs_with_large_offset_covariate(self, offset, spread):
        """An uncentred covariate far from zero (epoch seconds, income):
        rounding bounds must scale with each row's own terms, not with the
        offset, or real edge movements and residuals are taken for zero."""
        rng = np.random.default_rng(53)
        for trial in range(20):
            n = int(rng.integers(30, 401))
            q = int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
            z = rng.standard_normal(n)
            X[:, 1] = offset + spread * z
            y = 1.0 + 2.0 * z + rng.standard_t(df=2, size=n)
            if trial % 2:
                y = np.round(y)
            tau = float(rng.uniform(0.05, 0.95))
            fit = fit_quantile_regression(_design(X), y, tau)
            reference = _lp_objective(X, y, tau)
            gap = (fit.objective - reference) / reference
            assert gap <= 1e-9, f"trial {trial}: gap {gap:.3e}"
            assert fit.margin >= 0.0, f"trial {trial}: margin {fit.margin}"

    def test_matches_highs_on_resampled_rows(self):
        """Bootstrap-style draws with a binary covariate repeat basis rows.
        A repeat of a basis row has an exactly zero edge movement that the
        inverse's rounding turns into a few ulps; taking it for a real
        breakpoint would enter it and make the basis singular (seeds 247
        and 356 did so under a cut-off that ignored the inverse's error).
        Each draw is also fitted from the full-sample coefficients, as a
        bootstrap replicate is, and on its distinct rows weighted by their
        counts, as a bootstrap replicate now is."""
        tau = 0.5
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(30, 200))
            x = rng.uniform(0.0, 1.0, n)
            g = (rng.random(n) < 0.5).astype(float)
            y = 0.5 + x + 0.5 * g + rng.standard_normal(n)
            idx = rng.integers(0, n, n)
            full = np.column_stack([np.ones(n), x, g])
            X = full[idx]
            fit = fit_quantile_regression(_design(X), y[idx], tau)
            reference = _lp_objective(X, y[idx], tau)
            gap = (fit.objective - reference) / reference
            assert fit.margin >= 0.0, f"seed {seed}: margin {fit.margin}"
            assert gap <= 1e-9, f"seed {seed}: gap {gap:.3e}"

            start = fit_quantile_regression(_design(full), y, tau).beta
            warm = fit_quantile_regression(_design(X), y[idx], tau, start=start)
            gap = (warm.objective - reference) / reference
            assert gap <= 1e-9, f"seed {seed}, warm: gap {gap:.3e}"
            assert warm.margin >= 0.0, f"seed {seed}, warm: margin {warm.margin}"

            counts = np.bincount(idx, minlength=n)
            rows = np.flatnonzero(counts)
            weighted = fit_quantile_regression(_design(full[rows], weights=counts[rows]),
                                               y[rows], tau, start=start)
            gap = (weighted.objective - reference) / reference
            assert gap <= 1e-9, f"seed {seed}, weighted: gap {gap:.3e}"
            assert weighted.margin >= 0.0, f"seed {seed}, weighted: margin {weighted.margin}"
            slack = exact_certificate(full[rows], y[rows], tau, counts[rows], weighted.basis)
            assert slack is not None and slack >= 0, f"seed {seed}, weighted: slack {slack}"

    def test_weighted_fit_matches_highs_on_expanded_rows(self):
        """A resample's distinct rows weighted by their counts have the
        resample's optimum, with continuous, rounded and discrete y and tail
        taus, fitted cold and from the full-sample coefficients."""
        for seed in range(300):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(30, 200))
            tau = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
            x = rng.uniform(0.0, 1.0, n)
            g = (rng.random(n) < 0.5).astype(float)
            y = 0.5 + x + 0.5 * g + rng.standard_t(df=3, size=n)
            kind = seed % 3
            if kind == 1:
                y = np.round(y, 1)
            elif kind == 2:
                y = np.floor(np.clip(y, -1.0, 3.0))  # five values
            full = np.column_stack([np.ones(n), np.round(x, 2), g])
            idx = rng.integers(0, n, n)
            reference = _lp_objective(full[idx], y[idx], tau)
            counts = np.bincount(idx, minlength=n)
            rows = np.flatnonzero(counts)
            start = fit_quantile_regression(_design(full), y, tau).beta
            for beta0 in (None, start):
                fit = fit_quantile_regression(_design(full[rows], weights=counts[rows]),
                                              y[rows], tau, start=beta0)
                gap = (fit.objective - reference) / max(reference, 1.0)
                label = f"seed {seed}, {'warm' if beta0 is not None else 'cold'}"
                assert fit.margin >= 0.0, label
                assert abs(gap) <= 1e-9, f"{label}: gap {gap:.3e}"
                expanded = np.sum(pinball_loss(y[idx] - full[idx] @ fit.beta, tau))
                assert fit.objective == pytest.approx(expanded, rel=1e-12, abs=1e-12), label

    def test_unit_weights_equal_no_weights(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X, y = _random_problem(rng, int(rng.integers(20, 300)), 3)
            y = np.round(y, int(rng.integers(0, 3)))
            tau = float(rng.choice([0.1, 0.5, 0.75]))
            plain = fit_quantile_regression(X, y, tau)
            unit = fit_quantile_regression(_design(X.values, X.columns, np.ones(X.n)),
                                           y, tau)
            for field in ("beta", "residuals", "objective", "iterations", "basis",
                          "ties", "margin"):
                assert np.array_equal(getattr(plain, field), getattr(unit, field)), field

    def test_grouped_tail_draw_is_exact(self, tmp_path):
        """A grouped n = 5000 draw at tau = 0.9 on which an earlier solver
        stopped one sign short of the quantile property (4499 residuals
        <= 0 against n*tau = 4500) while reporting convergence."""
        scenario = {
            "n": 5000,
            "seed": 29000,
            "covariates": [
                {"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0},
                {"name": "g", "kind": "binary", "p": 0.5},
            ],
            "coefficients": {
                "y1": {"intercept": 0.5, "x": 1.0, "g": 0.5},
                "y2": {"intercept": -0.5, "x": 2.0, "g": -0.5},
            },
            "taus": [0.1, 0.5, 0.9],
            "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
        }
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(scenario), encoding="utf-8")
        out = tmp_path / "data.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert quantcord_main(["synth", "--config", str(config), "--out", str(out)]) == 0
        data, _ = read_csv(out, binary=("g",))
        X, _ = build_design(data, (identity("x"), identity("g")))
        y = data.column("y1")
        tau = 0.9

        fit = fit_quantile_regression(X, y, tau)
        basis = np.zeros(X.n, dtype=bool)
        basis[list(fit.basis)] = True
        below = int(np.sum((fit.residuals < 0) & ~basis))
        at_or_below = int(np.sum((fit.residuals <= 0) | basis))
        assert below <= X.n * tau <= at_or_below
        reference = _lp_objective(X.values, y, tau)
        assert abs(fit.objective - reference) <= 1e-9 * reference


# ──────────────────────────────────────────────────────────────────────
# Error contracts
# ──────────────────────────────────────────────────────────────────────

class TestSelectionMatchesFullSort:
    """The ratio test sorts only a head of the breakpoints, and the first
    basis only the rows at or below the q-th (then 4q-th) smallest |r|;
    both must pick the rows the full sorts pick."""

    @staticmethod
    def _edge(rng, n, weighted=False):
        """A random edge: residuals and movements on a coarse grid (ties,
        zeros) or not, repeated entries as in a resample (or, ``weighted``,
        its distinct entries with their counts as weights), and a slope that
        often needs more breakpoints than the first head holds."""
        coarse = rng.random() < 0.5
        r = rng.standard_normal(n)
        c = rng.standard_normal(n)
        rho = rng.random(n)
        if coarse:
            r, c = np.round(r * 4) / 4, np.round(c * 4) / 4
        idx = rng.integers(0, n, n)
        if weighted:
            w = np.bincount(idx, minlength=n).astype(float)
            r, c, rho, w = (a[w > 0] for a in (r, c, rho, w))
        else:
            r, c, rho, w = r[idx], c[idx], rho[idx], np.ones(n)
        above = (r > 0) | ((r == 0) & (rho > 0))
        free = rng.random(r.size) < 0.98
        blocking = free & np.where(above, c > 0, c < 0)
        slope = -rng.uniform(0.0, 1.1) * (w * np.abs(c))[blocking].sum()
        return r, rho, above, c, w, free, slope

    def _long_walks(self, weighted):
        """Check 400 random edges against the full sort; returns how many
        walked past the head grown twice."""
        long_walks = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([3, 40, 400, 3000]))
            args = self._edge(rng, n, weighted)
            assert qr._ratio_test(*args) == ratio_test_full_sort(*args), f"seed {seed}"
            r, rho, above, c, w, free, slope = args
            block = free & np.where(above, c > 0, c < 0)
            t = r[block] / c[block]
            walk = np.searchsorted(np.cumsum((w * np.abs(c))[block][np.argsort(t)]), -slope)
            long_walks += walk >= 8 * qr._HEAD
        return long_walks

    def test_ratio_test_on_random_edges(self):
        assert self._long_walks(weighted=False) >= 50

    def test_ratio_test_on_weighted_edges(self):
        assert self._long_walks(weighted=True) >= 50

    def test_lone_row_exit_picks_the_tie_walks_row(self):
        # a lone row at the stopping breakpoint is returned without the tie
        # walk; both it and the walk over several tied rows occur here
        lone = several = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            args = self._edge(rng, int(rng.choice([3, 40, 400, 3000])), bool(seed % 2))
            got = qr._ratio_test(*args)
            assert got == ratio_test_tie_walk(*args, head=qr._HEAD), f"seed {seed}"
            if got is not None:
                r, rho, above, c, w, free, slope = args
                block = free & np.where(above, c > 0, c < 0)
                at_stop = np.count_nonzero(r[block] / c[block] == r[got] / c[got])
                lone += at_stop == 1
                several += at_stop > 1
        assert lone >= 50 and several >= 50

    def test_start_basis_on_ties_and_repeated_rows(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 300))
            q = int(rng.integers(1, 5))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
            if q > 1 and rng.random() < 0.5:
                X[:, 1] = (X[:, 1] > 0).astype(float)  # few distinct rows
            idx = rng.integers(0, n, n)
            r = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))[idx]
            X = X[idx]
            assert qr._start_basis(X, r) == start_basis_row_by_row(X, r), f"seed {seed}"

    def test_start_basis_past_the_head(self):
        # the 4q smallest |r| all sit on one design row, so the walk needs
        # rows beyond them
        rng = np.random.default_rng(3)
        n, q = 60, 3
        X = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
        X[:20] = X[0]
        r = np.concatenate([rng.uniform(0.0, 0.1, 20), rng.uniform(1.0, 2.0, n - 20)])
        rows = qr._start_basis(X, r)
        assert rows == start_basis_row_by_row(X, r)
        assert rows[0] < 20 and min(rows[1:]) >= 20

    def test_solver_steps_match_full_sort(self, monkeypatch):
        # every ratio test and first basis of warm and cold fits on tied,
        # resampled data, and of warm fits on its distinct rows weighted by
        # their counts, checked against the full sorts as the solver runs
        new_ratio_test, new_start_basis = qr._ratio_test, qr._start_basis
        calls = {"ratio": 0, "start": 0}

        def ratio_test(*args):
            calls["ratio"] += 1
            expected = ratio_test_full_sort(*args)
            assert new_ratio_test(*args) == expected
            return expected

        def start_basis(X, r):
            calls["start"] += 1
            expected = start_basis_row_by_row(X, r)
            assert new_start_basis(X, r) == expected
            return expected

        monkeypatch.setattr(qr, "_ratio_test", ratio_test)
        monkeypatch.setattr(qr, "_start_basis", start_basis)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([50, 500, 2000]))
            x = np.round(rng.uniform(0.0, 1.0, n), 2)
            g = (rng.random(n) < 0.5).astype(float)
            y = np.round(0.5 + x + 0.5 * g + rng.standard_t(df=3, size=n), 1)
            full = np.column_stack([np.ones(n), x, g])
            tau = float(rng.choice([0.05, 0.5, 0.9]))
            start = fit_quantile_regression(_design(full), y, tau).beta
            idx = rng.integers(0, n, n)
            fit_quantile_regression(_design(full[idx]), y[idx], tau)
            fit_quantile_regression(_design(full[idx]), y[idx], tau, start=start)
            counts = np.bincount(idx, minlength=n)
            rows = np.flatnonzero(counts)
            fit_quantile_regression(_design(full[rows], weights=counts[rows]), y[rows], tau,
                                    start=start)
        assert calls["start"] == 160 and calls["ratio"] > 160


class TestFitErrors:

    def test_rank_deficiency_names_offender(self):
        n = 30
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n)
        X = _design(
            np.column_stack([np.ones(n), x, 2.0 * x]),
            ["intercept", "x1", "x1_doubled"],
        )
        with pytest.raises(SingularDesignError, match="x1_doubled") as excinfo:
            fit_quantile_regression(X, rng.standard_normal(n), 0.5)
        assert excinfo.value.columns == ["x1_doubled"]

    def test_zero_variance_covariate_rejected(self):
        n = 25
        X = _design(np.column_stack([np.ones(n), np.full(n, 4.0)]), ["intercept", "c"])
        with pytest.raises(SingularDesignError, match="c"):
            fit_quantile_regression(X, np.arange(n, dtype=float), 0.5)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -1.0])
    def test_invalid_tau(self, tau):
        X = _intercept_only(5)
        with pytest.raises(InvalidArgumentError, match="tau"):
            fit_quantile_regression(X, np.arange(5.0), tau)

    def test_length_mismatch(self):
        X = _intercept_only(5)
        with pytest.raises(InvalidArgumentError, match="length"):
            fit_quantile_regression(X, np.arange(4.0), 0.5)

    def test_nonfinite_response(self):
        X = _intercept_only(5)
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            fit_quantile_regression(X, y, 0.5)

    @pytest.mark.parametrize("weights", [
        [1.0, 2.0, 0.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0, 1.0],
        [1.0, np.nan, 1.0, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0], np.ones((5, 1)), ["a"] * 5, ["1"] * 5, [True] * 5,
    ], ids=["zero", "negative", "nan", "inf", "short", "2-d", "text", "numeric-text", "bool"])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="weights"):
            _intercept_only(5, weights)

    def test_start_shape_checked(self):
        X = _intercept_only(5)
        with pytest.raises(InvalidArgumentError, match="start"):
            fit_quantile_regression(X, np.arange(5.0), 0.5, start=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, bad):
        X, y = _random_problem(np.random.default_rng(8), 40, 2)
        with pytest.raises(InvalidArgumentError, match="start contains non-finite"):
            fit_quantile_regression(X, y, 0.5, start=[0.0, bad])

    @pytest.mark.parametrize("bad", [["a", "b"], [[0.0], [0.0, 1.0]], {"beta": 0.0}])
    def test_start_that_is_not_numbers_rejected(self, bad):
        X, y = _random_problem(np.random.default_rng(8), 40, 2)
        with pytest.raises(InvalidArgumentError, match="start must be numbers"):
            fit_quantile_regression(X, y, 0.5, start=bad)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        rng = np.random.default_rng(6)
        X, y = _random_problem(rng, 60, 3)
        monkeypatch.setattr(qr, "MAX_PIVOTS", 1)
        with pytest.raises(NonConvergenceError, match="did not converge in 1 pivots") as excinfo:
            fit_quantile_regression(X, y, 0.5)
        last = excinfo.value.last_fit
        assert last is not None
        assert last.margin < 0
        assert last.beta.shape == (3,)

    def test_nonconvergence_gives_the_pivots_taken(self, monkeypatch):
        # no row blocks the edge, so the fit stops short of MAX_PIVOTS
        X, y = _random_problem(np.random.default_rng(6), 200, 2)
        monkeypatch.setattr(qr, "_ratio_test", lambda *args: None)
        with pytest.raises(NonConvergenceError, match="did not converge in 0 pivots") as excinfo:
            fit_quantile_regression(X, y, 0.2, start=[5.0, -3.0])
        assert excinfo.value.last_fit.iterations == 0


# ──────────────────────────────────────────────────────────────────────
# residual_signs
# ──────────────────────────────────────────────────────────────────────

class TestResidualSigns:

    def _fit_with_residuals(self, residuals):
        residuals = np.asarray(residuals, dtype=float)
        n = residuals.size
        return qr.QuantileFit(
            beta=np.array([0.0]),
            residuals=residuals,
            objective=float(np.sum(pinball_loss(residuals, 0.5))),
            iterations=1,
            columns=("intercept",),
        )

    def test_indicator_with_tie_at_zero(self):
        fit = self._fit_with_residuals([-1.2, 0.0, 3.4])
        np.testing.assert_array_equal(residual_signs(fit), [1, 1, 0])

    def test_all_positive_gives_zeros(self):
        fit = self._fit_with_residuals([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(residual_signs(fit), [0, 0, 0])

    def test_exact_fit_gives_all_ones(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 30)
        X = _design(np.column_stack([np.ones(30), x]))
        fit = fit_quantile_regression(X, 1.0 + 2.0 * x, 0.5)
        np.testing.assert_array_equal(residual_signs(fit), np.ones(30, dtype=int))

    def test_basis_rows_are_at_or_below_despite_rounding(self):
        # basis row 1 and tie row 3 compute to positive ulps; both lie on the fit
        fit = qr.QuantileFit(
            beta=np.array([0.0]),
            residuals=np.array([-1.0, 5e-324, 2.0, 1e-300]),
            objective=1.5,
            iterations=1,
            columns=("intercept",),
            basis=(1,),
            ties=(3,),
        )
        np.testing.assert_array_equal(residual_signs(fit), [1, 1, 0, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_solver_labels_basis_rows_at_or_below(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([0.3, -1.1, 2.7]) + rng.standard_t(df=3, size=n)
        fit = fit_quantile_regression(_design(X), y, 0.3)
        rows = list(fit.basis)
        assert len(rows) == 3
        np.testing.assert_array_equal(fit.residuals, y - X @ fit.beta)
        signs = residual_signs(fit)
        np.testing.assert_array_equal(signs[rows], 1)
        off_fit = np.ones(n, dtype=bool)
        off_fit[rows + list(fit.ties)] = False
        np.testing.assert_array_equal(signs[off_fit], (fit.residuals[off_fit] <= 0).astype(int))

    def test_duplicated_rows_share_labels(self):
        # a row repeated in the sample (as in a bootstrap draw) lies on the
        # fit exactly when its twin does, whatever the rounding
        rng = np.random.default_rng(9)
        X, y = _random_problem(rng, 50, 3)
        Xd = _design(np.vstack([X.values, X.values]))
        fit = fit_quantile_regression(Xd, np.concatenate([y, y]), 0.35)
        assert set(fit.basis) & set(fit.ties) == set()
        signs = residual_signs(fit)
        np.testing.assert_array_equal(signs[:50], signs[50:])
