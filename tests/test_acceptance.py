"""Acceptance gate: ten numbered criteria, one printed line each.

Each test prints ``acceptance NN | <name> ... PASS/FAIL`` and also
registers the line for the terminal summary (pytest captures plain
stdout, so the summary section is what shows in a default run), then
asserts.  Criteria with a stated runtime budget measure it.
"""

import itertools
import time

import numpy as np
import pytest
import yaml

from quantcord import (
    AnalysisSpec,
    Dataset,
    bootstrap,
    build_design,
    build_designs,
    fit_multinomial,
    fit_quantile_regression,
    identity,
    phi,
    phi_bounds,
    recipe_values,
    run_two_step,
    spline,
)
from quantcord.basis import natural_spline_columns, tertile_knots
from quantcord.cli import main as cli_main
from quantcord.design import DesignMatrix
from quantcord.multinomial import _indicators
from quantcord.synthetic import (
    CovariateSpec,
    ScenarioSpec,
    generate,
    oracle_phi_gaussian,
)
from oracles import exact_certificate, limiting_cells, loglik_parts, objective, pinball_loss

SPEC = AnalysisSpec(responses=("y1", "y2"), taus=(0.5,))

_PYTEST_CONFIG = None


@pytest.fixture(autouse=True)
def _register_config(request):
    global _PYTEST_CONFIG
    _PYTEST_CONFIG = request.config
    yield


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:2d} | {name:<44} {status}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    if _PYTEST_CONFIG is not None:
        lines = getattr(_PYTEST_CONFIG, "acceptance_lines", None)
        if lines is None:
            lines = []
            _PYTEST_CONFIG.acceptance_lines = lines
        lines.append(line)


def _random_problem(rng):
    n = int(rng.integers(50, 501))
    q = int(rng.integers(1, 6))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, q))])
    beta = rng.normal(size=q + 1)
    y = X @ beta + rng.standard_t(df=3, size=n)
    cols = ("intercept",) + tuple(f"x{j}" for j in range(1, q + 1))
    return DesignMatrix(X, cols), y


def _exhaustive_objective(X, y, tau):
    """Minimum pinball objective over all basic (vertex) solutions."""
    n, p = X.shape
    best = np.inf
    for rows in itertools.combinations(range(n), p):
        sub = X[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        beta = np.linalg.solve(sub, y[list(rows)])
        obj = float(np.sum(pinball_loss(y - X @ beta, tau)))
        best = min(best, obj)
    return best


class TestAcceptance:

    def test_criterion_01_quantile_property(self):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        taus = np.arange(0.1, 0.91, 0.1)
        worst = 0.0
        for _ in range(50):
            X, y = _random_problem(rng)
            tau = float(rng.choice(taus))
            fit = fit_quantile_regression(X, y, tau)
            frac = np.count_nonzero(fit.residuals < 0) / X.n
            slack = X.q / X.n  # q+1 columns including the intercept
            worst = max(worst, abs(frac - tau) - slack)
        elapsed = time.perf_counter() - start
        ok = worst <= 0.0 and elapsed < 30.0
        _report(1, "quantile property (50 random fits)", ok,
                f"worst excess {worst:.2e}, {elapsed:.1f}s")
        assert ok

    def test_criterion_02_solver_vs_exhaustive_oracle(self):
        start = time.perf_counter()
        rng = np.random.default_rng(12)
        worst, certified = 0.0, 0
        for _ in range(100):
            n = int(rng.integers(4, 13))
            q = int(rng.integers(1, 3))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, q))])
            y = rng.normal(size=n)
            tau = float(rng.uniform(0.1, 0.9))
            cols = ("intercept",) + tuple(f"x{j}" for j in range(1, q + 1))
            D = DesignMatrix(X, cols)
            fit = fit_quantile_regression(D, y, tau)
            worst = max(worst, abs(objective(fit, tau) - _exhaustive_objective(X, y, tau)))
            slack, ties = exact_certificate(X, y, tau, None, fit.basis, D.perturbation)
            certified += slack >= 0 and ties == fit.ties
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and certified == 100 and elapsed < 10.0
        _report(2, "solver matches exhaustive vertex oracle", ok,
                f"worst gap {worst:.2e}, {certified}/100 exactly certified, {elapsed:.1f}s")
        assert ok

    def test_criterion_03_bounds_reproduction(self):
        worst = 0.0
        for tau in np.arange(0.05, 0.951, 0.05):
            tau = round(float(tau), 2)
            expected_min = -tau / (1 - tau) if tau <= 0.5 else -(1 - tau) / tau
            worst = max(
                worst,
                abs(phi(limiting_cells("independence", tau), tau) - 0.0),
                abs(phi(limiting_cells("max", tau), tau) - 1.0),
                abs(phi(limiting_cells("min", tau), tau) - expected_min),
                abs(phi_bounds(tau).phi_min - expected_min),
            )
        ok = worst <= 1e-12
        _report(3, "limiting tables reproduce phi bounds", ok,
                f"worst error {worst:.2e}")
        assert ok

    def test_criterion_04_multinomial_correctness(self):
        rng = np.random.default_rng(13)
        worst_mle = 0.0
        worst_grad = 0.0
        for _ in range(20):
            counts = rng.integers(5, 60, size=4)
            z = np.repeat(np.arange(4), counts)
            X = DesignMatrix(np.ones((len(z), 1)), ("intercept",))
            fit = fit_multinomial(X, z)
            expected = np.log(counts[1:] / counts[0])
            worst_mle = max(worst_mle, float(np.max(np.abs(fit.gamma[:, 0] - expected))))

            # analytic score vs central differences at a random point
            Xg = np.column_stack([np.ones(80), rng.normal(size=80)])
            zg = rng.choice(4, size=80)
            Y = _indicators(zg, False, 80).T
            gamma = rng.normal(scale=0.5, size=(3, 2))
            _, probs = loglik_parts(gamma, Xg, Y)
            analytic = (Xg.T @ (Y - probs)).T.reshape(-1)
            h = 1e-6
            fd = np.empty_like(analytic)
            flat = gamma.reshape(-1)
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    loglik_parts(up.reshape(3, 2), Xg, Y)[0]
                    - loglik_parts(dn.reshape(3, 2), Xg, Y)[0]
                ) / (2 * h)
            rel = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
            worst_grad = max(worst_grad, float(rel))
        ok = worst_mle <= 1e-8 and worst_grad <= 1e-5
        _report(4, "multinomial MLE and analytic gradient", ok,
                f"mle {worst_mle:.2e}, grad rel {worst_grad:.2e}")
        assert ok

    def test_criterion_05_end_to_end_gaussian_oracle(self):
        start = time.perf_counter()
        worst = 0.0
        for i, rho in enumerate((0.0, 0.5, 0.9)):
            data = generate(ScenarioSpec(n=5000, rho=rho, seed=301 + i))
            for tau in (0.1, 0.5, 0.9):
                phi_hat = run_two_step(build_designs(data, SPEC), tau).phi[0]
                worst = max(worst, abs(phi_hat - oracle_phi_gaussian(rho, tau)))
        closed = abs(oracle_phi_gaussian(0.5, 0.5) - 1.0 / 3.0)
        elapsed = time.perf_counter() - start
        ok = worst <= 0.05 and closed <= 1e-6 and elapsed < 120.0
        _report(5, "nine-cell copula oracle recovery", ok,
                f"worst {worst:.3f}, closed-form {closed:.1e}, {elapsed:.1f}s")
        assert ok

    def test_criterion_06_two_group_dependence_recovery(self):
        scen = ScenarioSpec(
            n=8000,
            rho=None,
            rho_by_group={0: 0.2, 1: 0.8},
            group_column="g",
            covariates=(CovariateSpec("g", "binary", p=0.5),),
            seed=106,
        )
        data = generate(scen)
        gspec = AnalysisSpec(
            responses=("y1", "y2"), taus=(0.5,),
            step2_terms=(identity("g"),), binary=("g",),
        )
        sample = build_designs(data, gspec)
        result = run_two_step(sample, 0.5)
        worst = 0.0
        for val, rho in ((0.0, 0.2), (1.0, 0.8)):
            i = int(np.where(sample.grid.columns["g"] == val)[0][0])
            worst = max(worst, abs(result.phi[i] - oracle_phi_gaussian(rho, 0.5)))
        ok = worst <= 0.07
        _report(6, "two-group phi recovery (rho 0.2 / 0.8)", ok,
                f"worst {worst:.3f}")
        assert ok

    def test_criterion_07_exchangeable_merged_mode(self):
        base = generate(ScenarioSpec(n=5000, rho=0.5, seed=107))
        y1, y2 = base.column("y1"), base.column("y2")
        swap = np.random.default_rng(207).uniform(size=5000) < 0.5
        data = Dataset(
            columns={"y1": np.where(swap, y2, y1), "y2": np.where(swap, y1, y2)}
        )
        merged_spec = AnalysisSpec(responses=("y1", "y2"), taus=(0.5,), merged=True)
        unmerged = run_two_step(build_designs(data, SPEC), 0.5)
        merged = run_two_step(build_designs(data, merged_spec), 0.5)
        diff = abs(unmerged.phi[0] - merged.phi[0])
        split_exact = bool(
            np.all(merged.cells[:, 2] == merged.cells[:, 3])
        )
        ok = diff <= 0.02 and split_exact
        _report(7, "exchangeable fixture, merged vs full", ok,
                f"diff {diff:.1e}, equal split {split_exact}")
        assert ok

    def test_criterion_08_bootstrap_sanity(self):
        start = time.perf_counter()
        data = generate(ScenarioSpec(n=1000, rho=0.5, seed=108))
        (boot,) = bootstrap(build_designs(data, SPEC), B=1000, seed=42)
        (again,) = bootstrap(build_designs(data, SPEC), B=1000, seed=42)
        reproducible = bool(
            np.array_equal(boot.ok, again.ok)
            and np.array_equal(boot.phi_draws, again.phi_draws, equal_nan=True)
            and np.array_equal(boot.gamma_draws, again.gamma_draws, equal_nan=True)
        )
        phis = []
        for d in range(200):
            fresh = generate(ScenarioSpec(n=1000, rho=0.5, seed=5000 + d))
            phis.append(run_two_step(build_designs(fresh, SPEC), 0.5).phi[0])
        se = float(boot.phi_se[0])
        sd = float(np.std(phis, ddof=1))
        ratio = se / sd
        elapsed = time.perf_counter() - start
        ok = 1.0 / 1.5 <= ratio <= 1.5 and reproducible and elapsed < 300.0
        _report(8, "bootstrap SE vs Monte Carlo SD", ok,
                f"ratio {ratio:.3f}, reproducible {reproducible}, {elapsed:.0f}s")
        assert ok

    def test_criterion_09_spline_properties(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0.0, 10.0, size=100)
        knots = tertile_knots(x)
        h = 1e-2  # second differences at 1e-3 drown in cancellation noise
        worst = 0.0
        for point in (knots[0] - 1.0, knots[0] - h, knots[3] + h, knots[3] + 1.0):
            probe = np.array([point - h, point, point + h])
            vals = natural_spline_columns(probe, knots)
            second = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
            worst = max(worst, float(np.max(np.abs(second))))

        data = Dataset(
            columns={
                "y1": rng.normal(size=100), "y2": rng.normal(size=100), "x": x,
            }
        )
        X, recipe = build_design(data, (spline("x"),))
        replay = recipe_values(recipe, data)
        exact = bool(np.array_equal(X.values, replay))
        ok = worst <= 1e-8 and exact
        _report(9, "natural spline linearity and recipe replay", ok,
                f"2nd deriv {worst:.1e}, exact replay {exact}")
        assert ok

    def test_criterion_10_cli_determinism(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenario = {
            "n": 400, "seed": 20, "rho": 0.5,
            "covariates": [{"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0}],
            "taus": [0.5],
        }
        with open("scenario.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(scenario, fh)
        run = {
            "input": "data.csv", "responses": ["y1", "y2"], "taus": [0.5],
            "step2_terms": [{"column": "x"}], "grid": {"points": 5},
            "bootstrap": {"enabled": True, "replicates": 12, "seed": 9},
        }
        with open("run.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(run, fh)

        rc = [cli_main(["synth", "--config", "scenario.yaml", "--out", "data.csv"])]
        first_csv = (tmp_path / "data.csv").read_bytes()
        rc.append(cli_main(["synth", "--config", "scenario.yaml", "--out", "data.csv"]))
        same_csv = first_csv == (tmp_path / "data.csv").read_bytes()

        rc.append(cli_main(["analyze", "--config", "run.yaml", "--out", "run1"]))
        rc.append(cli_main(["analyze", "--config", "run.yaml", "--out", "run2"]))
        trees = [
            {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
            for d in ("run1", "run2")
        ]
        ok = all(code == 0 for code in rc) and same_csv and trees[0] == trees[1]
        _report(10, "CLI synth + analyze byte determinism", ok,
                f"exit codes {rc}, csv identical {same_csv}")
        assert ok
