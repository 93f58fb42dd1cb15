"""End-to-end tests for the quantcord command-line interface."""

import csv
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import quantcord
from quantcord import bootstrap, build_designs, read_csv
from quantcord.bootstrap import _phi_bands, bootstrap_indices
from quantcord.cli import main
from quantcord.config import load_run_config
from quantcord.dataset import FLOAT_FMT, csv_text
from quantcord.pipeline import MAX_GRID_POINTS
from quantcord.synthetic import MAX_ROWS, oracle_phi_gaussian

SMALL_SCENARIO = {
    "n": 300,
    "seed": 5,
    "rho": 0.6,
    "covariates": [{"name": "x", "kind": "uniform", "low": -1.0, "high": 1.0}],
    "coefficients": {"y1": {"intercept": 1.0, "x": 0.5}, "y2": {"x": -0.25}},
    "taus": [0.5],
}


def _write_yaml(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def _synth(tmp_path, name="small.csv", scenario=SMALL_SCENARIO):
    cfg = _write_yaml(tmp_path / "scenario.yaml", scenario)
    out = str(tmp_path / name)
    assert main(["synth", "--config", cfg, "--out", out]) == 0
    return out


def _unreachable(*args, **kwargs):
    pytest.fail("a size ceiling must refuse the config before this call")


def _table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSynth:

    def test_writes_header_and_n_rows(self, tmp_path):
        out = _synth(tmp_path)
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "y1,y2,x"
        assert len(lines) == 301

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        a = _synth(tmp_path, "a.csv")
        b = _synth(tmp_path, "b.csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert (
            Path(a + ".oracle.json").read_bytes()
            == Path(b + ".oracle.json").read_bytes()
        )

    def test_sidecar_carries_oracle_phi(self, tmp_path):
        out = _synth(tmp_path)
        sidecar = json.loads(Path(out + ".oracle.json").read_text(encoding="utf-8"))
        assert sidecar["n"] == 300
        assert sidecar["responses"] == ["y1", "y2"]
        np.testing.assert_allclose(
            sidecar["oracle"]["phi"]["0.5"],
            oracle_phi_gaussian(0.6, 0.5),
            rtol=0,
            atol=1e-12,
        )

    def test_grouped_scenario_reports_oracle_per_group(self, tmp_path):
        scenario = {
            "n": 200,
            "seed": 1,
            "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
            "covariates": [{"name": "g", "kind": "binary", "p": 0.5}],
            "taus": [0.5],
        }
        out = _synth(tmp_path, scenario=scenario)
        oracle = json.loads(Path(out + ".oracle.json").read_text(encoding="utf-8"))["oracle"]
        assert oracle["group_column"] == "g"
        np.testing.assert_allclose(
            oracle["groups"]["0"]["phi"]["0.5"], oracle_phi_gaussian(0.2, 0.5),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            oracle["groups"]["1"]["phi"]["0.5"], oracle_phi_gaussian(0.8, 0.5),
            rtol=0, atol=1e-12,
        )

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "bad.yaml", {"n": 10})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "neg.yaml", dict(SMALL_SCENARIO, seed=-3))
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.csv.oracle.json").exists()

    @pytest.mark.parametrize("key,value", [("seed", "abc"), ("seed", 2.7), ("n", "abc")])
    def test_non_integer_scenario_number_exits_2(self, tmp_path, capsys, key, value):
        cfg = _write_yaml(tmp_path / "bad.yaml", dict(SMALL_SCENARIO, **{key: value}))
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {key} must be an integer" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.csv.oracle.json").exists()


    @pytest.mark.parametrize("key,value,message", [
        ("covariates", 5, "covariates must be a list"),
        ("rho_by_group", 5, "rho_by_group must be a mapping"),
        ("responses", 5, "responses must be a list"),
        ("coefficients", {"y1": 5}, "coefficients.y1 must be a mapping"),
        ("covariates", 0, "covariates must be a list, got 0"),
        ("coefficients", {"y1": 0}, "coefficients.y1 must be a mapping, got 0"),
        ("taus", {"start": 0.1, "stop": 0.9, "step": 0.2},
         "taus must be a list, got {'start': 0.1, 'step': 0.2, 'stop': 0.9}"),
        ("rho_by_group", {"column": "g", "values": {0: 0.2, 1: 0.8}},
         "rho_by_group.values must be a list, got {0: 0.2, 1: 0.8}"),
    ], ids=["covariates", "rho_by_group", "responses", "coefficients.y1",
            "covariates-0", "coefficients.y1-0", "taus-mapping",
            "rho_by_group.values-mapping"])
    def test_wrong_yaml_type_exits_2(self, tmp_path, capsys, key, value, message):
        scenario = {k: v for k, v in SMALL_SCENARIO.items() if k != "rho"}
        cfg = _write_yaml(tmp_path / "bad.yaml", dict(scenario, **{key: value}))
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("taus", [0.5, float("inf")], "taus"),
        ("covariates", [{"name": "x", "kind": "uniform", "low": -1.0, "high": float("inf")}],
         "covariate.high"),
        ("coefficients", {"y1": {"x": float("nan")}}, "coefficients.y1.x"),
    ], ids=["taus", "covariate-high", "coefficient"])
    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys, key, value, message):
        cfg = _write_yaml(tmp_path / "bad.yaml", dict(SMALL_SCENARIO, **{key: value}))
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_n_exits_2_before_any_row_is_drawn(self, tmp_path, monkeypatch, capsys):
        # numpy.random would fail on 10^30 rows, and try to allocate 10^10
        monkeypatch.setattr(quantcord.cli, "generate", _unreachable)
        cfg = _write_yaml(tmp_path / "big.yaml", dict(SMALL_SCENARIO, n=10**30))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: n must be at most {MAX_ROWS}, got {10**30}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["big.yaml"]

    def test_unwritable_sidecar_removes_the_csv(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "scenario.yaml", SMALL_SCENARIO)
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.oracle.json").mkdir()
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_response_shadowed_by_covariate_exits_2(self, tmp_path, capsys):
        scenario = dict(SMALL_SCENARIO, covariates=[{"name": "x"}, {"name": "y1"}])
        cfg = _write_yaml(tmp_path / "bad.yaml", scenario)
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        assert "error: responses and covariates must have distinct names, repeated: ['y1']" \
            in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCommittedFixture:

    OUTPUTS = [
        "metadata.json",
        "phi_profile_constant.csv",
        "step1_coefficients.csv",
        "step2_coefficients.csv",
        "summary.txt",
    ]

    def _run(self, fixtures_dir, monkeypatch, out_dir, config="analyze_config.yaml"):
        monkeypatch.chdir(fixtures_dir)
        return main(["analyze", "--config", config, "--out", str(out_dir)])

    def test_outputs_and_oracle_recovery(self, fixtures_dir, monkeypatch,
                                          tmp_path, capsys):
        out = tmp_path / "out"
        assert self._run(fixtures_dir, monkeypatch, out) == 0
        assert "wrote 5 files" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == self.OUTPUTS
        rows = _table(out / "phi_profile_constant.csv")
        assert len(rows) == 1
        assert abs(float(rows[0]["phi_hat"]) - 1.0 / 3.0) < 0.05
        assert rows[0]["ci_lower"] == "" and rows[0]["ci_upper"] == ""

    def test_bootstrap_fills_every_band(self, fixtures_dir, monkeypatch, tmp_path):
        # the fixture's config with a 20-replicate bootstrap for its own section
        config = yaml.safe_load((fixtures_dir / "analyze_config.yaml").read_text(
            encoding="utf-8"))
        config["bootstrap"] = {"enabled": True, "replicates": 20, "seed": 1}
        path = _write_yaml(tmp_path / "bootstrap.yaml", config)
        out = tmp_path / "out"
        assert self._run(fixtures_dir, monkeypatch, out, config=path) == 0
        assert sorted(p.name for p in out.iterdir()) == self.OUTPUTS
        rows = _table(out / "phi_profile_constant.csv")
        assert rows and all(r["ci_lower"] != "" and r["ci_upper"] != "" for r in rows)

    def test_rerun_is_byte_identical(self, fixtures_dir, monkeypatch, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self._run(fixtures_dir, monkeypatch, out1) == 0
        assert self._run(fixtures_dir, monkeypatch, out2) == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_metadata_contents(self, fixtures_dir, monkeypatch, tmp_path):
        out = tmp_path / "out"
        assert self._run(fixtures_dir, monkeypatch, out) == 0
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert meta["command"] == "analyze"
        assert meta["n_rows"] == 5000
        assert meta["taus"] == [0.5]
        assert meta["dropped_rows"] == []
        assert meta["bootstrap"]["enabled"] is False
        assert meta["bootstrap"]["replicates"] == 0
        assert meta["replicate_failures"] == {"0.5": 0}
        assert meta["outputs"] == [
            "phi_profile_constant.csv",
            "step1_coefficients.csv",
            "step2_coefficients.csv",
            "metadata.json",
            "summary.txt",
        ]
        assert "timestamp" not in json.dumps(meta).lower()


class TestImportClosure:

    # analyze computes with numpy alone: no scipy module is ever loaded
    SCRIPT = """
import json
import sys
import quantcord.cli as cli
cli.load_run_config(sys.argv[1])
assert cli.main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

    @staticmethod
    def _run(script, *args):
        """The last stdout line of ``script`` run in a fresh interpreter, as JSON."""
        src = os.path.dirname(os.path.dirname(quantcord.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_analyze_loads_no_scipy_submodule(self, fixtures_dir, tmp_path):
        config = _write_yaml(tmp_path / "run.yaml", {
            "input": str(fixtures_dir / "copula_n5000.csv"),
            "responses": ["y1", "y2"],
            "taus": [0.5],
            "bootstrap": {"enabled": True, "replicates": 20, "workers": 1},
        })
        assert self._run(self.SCRIPT, config, tmp_path / "out") == []

    def test_synth_loads_no_scipy_submodule(self, fixtures_dir, tmp_path):
        # the oracle integrates on a fixed rule with numpy alone
        script = """
import json
import sys
import quantcord.cli as cli
assert cli.main(["synth", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        out = tmp_path / "data.csv"
        assert self._run(script, fixtures_dir / "scenario_n5000.yaml", out) == []
        assert Path(str(out) + ".oracle.json").exists()
        # the committed fixture is this scenario's synth output
        assert out.read_bytes() == (fixtures_dir / "copula_n5000.csv").read_bytes()

    def test_analyze_does_not_import_numpy_ma(self, tmp_path):
        # tertile knots, the held median and the percentile intervals would
        # each import numpy.ma through np.unique, np.median or np.quantile
        config = _write_yaml(tmp_path / "run.yaml", {
            "input": _synth(tmp_path),
            "responses": ["y1", "y2"],
            "taus": [0.5],
            "step1_terms": [{"column": "x"}],
            "step2_terms": [{"column": "x", "transform": "spline"}],
            "grid": {"points": 5},
            "bootstrap": {"enabled": True, "replicates": 10, "workers": 1},
        })
        script = """
import json
import sys
import quantcord.cli as cli
assert cli.main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""
        assert self._run(script, config, tmp_path / "out") is False

    def test_package_import_loads_no_config_layer(self):
        # the YAML loaders belong to the command line; the Python API reads
        # no YAML, and quantcord.config and quantcord.cli keep them
        script = """
import json
import sys
import quantcord
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "yaml"
                        or m in ("quantcord.config", "quantcord.cli"))))
"""
        assert self._run(script) == []


def _no_fit(*args, **kwargs):
    raise AssertionError("fitted a config that names a response as a term")


class TestAnalyzeProfiles:

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _synth(tmp_path)
        return tmp_path

    def _config(self, workdir, **overrides):
        payload = {
            "input": "small.csv",
            "responses": ["y1", "y2"],
            "taus": [0.5],
            "step2_terms": [{"column": "x"}],
            "grid": {"points": 5},
        }
        payload.update(overrides)
        return _write_yaml(workdir / "run.yaml", payload)

    def test_profile_schema_and_bounds_per_tau(self, workdir):
        cfg = self._config(workdir, taus=[0.1, 0.5, 0.9])
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        rows = _table(workdir / "out" / "phi_profile_x.csv")
        assert list(rows[0]) == [
            "tau", "covariate", "value", "phi_hat", "ci_lower", "ci_upper",
            "phi_min", "phi_max", "out_of_bounds_flag",
        ]
        assert len(rows) == 15  # 5 grid points per tau
        by_tau = {}
        for r in rows:
            by_tau.setdefault(round(float(r["tau"]), 3), r)
        np.testing.assert_allclose(float(by_tau[0.1]["phi_min"]), -1.0 / 9.0)
        np.testing.assert_allclose(float(by_tau[0.5]["phi_min"]), -1.0)
        np.testing.assert_allclose(float(by_tau[0.9]["phi_min"]), -1.0 / 9.0)
        assert all(float(by_tau[t]["phi_max"]) == 1.0 for t in (0.1, 0.5, 0.9))
        assert all(r["ci_lower"] == "" and r["ci_upper"] == "" for r in rows)

    def test_step_tables_without_bootstrap(self, workdir):
        cfg = self._config(workdir)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        step1 = _table(workdir / "out" / "step1_coefficients.csv")
        assert list(step1[0]) == ["tau", "response", "term", "estimate", "se"]
        assert [r["response"] for r in step1] == ["y1", "y2"]
        assert all(r["se"] == "" for r in step1)
        step2 = _table(workdir / "out" / "step2_coefficients.csv")
        assert list(step2[0]) == [
            "tau", "category", "term", "estimate", "se", "ci_lower", "ci_upper",
        ]
        assert [r["category"] for r in step2] == ["11", "11", "01", "01", "10", "10"]
        assert all(r["term"] in ("intercept", "x") for r in step2)

    def test_merged_config_pools_discordant_categories(self, workdir):
        cfg = self._config(workdir, merged=True)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        step2 = _table(workdir / "out" / "step2_coefficients.csv")
        assert sorted({r["category"] for r in step2}) == ["01+10", "11"]

    def test_bootstrap_config_fills_ci_columns(self, workdir):
        cfg = self._config(workdir, bootstrap={"enabled": True, "replicates": 16, "seed": 3})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        rows = _table(workdir / "out" / "phi_profile_x.csv")
        assert all(r["ci_lower"] != "" and r["ci_upper"] != "" for r in rows)
        assert all(
            float(r["ci_lower"]) <= float(r["phi_hat"]) <= float(r["ci_upper"])
            for r in rows
        )
        step1 = _table(workdir / "out" / "step1_coefficients.csv")
        assert all(r["se"] != "" for r in step1)
        step2 = _table(workdir / "out" / "step2_coefficients.csv")
        assert all(r["ci_lower"] != "" for r in step2)
        meta = json.loads((workdir / "out" / "metadata.json").read_text(encoding="utf-8"))
        assert meta["bootstrap"]["seed"] == 3
        assert meta["bootstrap"]["replicates"] == 16

    def test_flagged_estimate_lies_outside_its_band(self, workdir):
        # the estimate is clipped inside the bounds, as each draw is, before
        # the band is centred on it: a flagged phi_hat stays as fitted, and
        # its band lies within the bounds without it
        scenario = {
            "n": 1000, "seed": 3, "rho": 0.5,
            "covariates": [{"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0}],
            "coefficients": {"y1": {"intercept": 0.5, "x": 1.0},
                             "y2": {"intercept": -0.5, "x": 2.0}},
        }
        cfg = self._config(
            workdir, input=_synth(workdir, "band.csv", scenario), taus=[0.05, 0.95],
            step1_terms=[{"column": "x"}], step2_terms=[{"column": "x", "transform": "spline"}],
            grid=None, bootstrap={"enabled": True, "replicates": 50, "seed": 1})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        rows = [{k: float(v) for k, v in r.items() if k != "covariate"}
                for r in _table(workdir / "out" / "phi_profile_x.csv")]
        flagged = [r for r in rows if r["out_of_bounds_flag"]]
        assert flagged and len(flagged) < len(rows)
        for r in rows:
            lo, est, hi = r["ci_lower"], r["phi_hat"], r["ci_upper"]
            if r["out_of_bounds_flag"]:
                assert not r["phi_min"] <= est <= r["phi_max"]
                assert r["phi_min"] <= lo < hi <= r["phi_max"]
                assert not lo <= est <= hi
            else:
                assert lo <= est <= hi

    def test_bootstrap_rerun_is_byte_identical(self, workdir):
        cfg = self._config(workdir, bootstrap={"enabled": True, "replicates": 12, "seed": 9})
        assert main(["analyze", "--config", cfg, "--out", "b1"]) == 0
        assert main(["analyze", "--config", cfg, "--out", "b2"]) == 0
        assert _tree_bytes(workdir / "b1") == _tree_bytes(workdir / "b2")

    def test_negative_seed_exits_2(self, workdir, capsys):
        cfg = self._config(workdir, bootstrap={"enabled": True, "replicates": 4, "seed": -1})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error: bootstrap seed must be non-negative" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_disabled_bootstrap_writes_no_bands(self, workdir):
        cfg = self._config(workdir, bootstrap={"enabled": False, "replicates": 8, "seed": 5})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        out = workdir / "out"
        assert all(r["se"] == "" for r in _table(out / "step1_coefficients.csv"))
        for name in ("step2_coefficients.csv", "phi_profile_x.csv"):
            assert all(r["ci_lower"] == "" and r["ci_upper"] == "" for r in _table(out / name))
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert meta["bootstrap"]["enabled"] is False
        assert meta["bootstrap"]["replicates"] == 0
        assert meta["bootstrap"]["seed"] is None

    @pytest.mark.parametrize("flag", [["--taus", "0.5"], ["--bootstrap", "4"],
                                      ["--seed", "1"], ["--merged"]],
                             ids=lambda flag: flag[0])
    def test_config_keys_are_not_flags(self, workdir, capsys, flag):
        # the config and the input fix every output byte
        cfg = self._config(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", cfg, *flag, "--out", "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"taus": [0.5, float("inf")]}, "taus"),
        ({"grid": {"values": {"x": [0.2, float("nan")]}}}, "grid.values.x"),
        ({"step2_terms": [{"column": "x", "transform": "center", "value": float("inf")}]},
         "term.value"),
    ], ids=["taus", "grid-values", "center-value"])
    def test_non_finite_config_number_exits_2(self, workdir, capsys, overrides, key):
        cfg = self._config(workdir, **overrides)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_colliding_profile_files_exit_2(self, workdir, capsys):
        # "x.1" and "x1" both reduce to phi_profile_x1.csv
        data, _ = quantcord.read_csv(workdir / "small.csv")
        x = data.column("x")
        cols = dict(data.columns, **{"x.1": x, "x1": x * x})
        rows = ([FLOAT_FMT % v for v in row] for row in zip(*cols.values()))
        (workdir / "two.csv").write_text(csv_text(list(cols), rows), encoding="utf-8")
        cfg = self._config(workdir, input="two.csv",
                           step2_terms=[{"column": "x.1"}, {"column": "x1"}])
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert "error: covariates 'x.1' and 'x1' would both write phi_profile_x1.csv" in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("workers", "abc"), ("workers", 2.5), ("replicates", "abc"), ("seed", 2.7),
    ])
    def test_non_integer_bootstrap_number_exits_2(self, workdir, capsys, key, value):
        cfg = self._config(workdir, bootstrap={"enabled": True, key: value})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert f"error: bootstrap.{key} must be an integer" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"grid": 5}, "grid must be a mapping"),
        ({"bootstrap": 5}, "bootstrap must be a mapping"),
        ({"responses": 5}, "responses must be a list"),
        ({"binary": 5}, "binary must be a list"),
        ({"grid": {"values": {"x": 5}}}, "grid.values.x must be a list"),
        ({"merged": "no"}, "merged must be true or false"),
        ({"bootstrap": {"enabled": "false"}}, "bootstrap.enabled must be true or false"),
        ({"grid": {"values": {"nosuch": [1, 2]}}},
         "grid values given for 'nosuch', which has no profile; available covariates: ['x']"),
        ({"grid": {"held": {"alsonot": 1}}}, "held value given for 'alsonot'"),
        ({"grid": 0}, "grid must be a mapping, got 0"),
        ({"bootstrap": False}, "bootstrap must be a mapping, got False"),
        ({"binary": 0}, "binary must be a list, got 0"),
        ({"step1_terms": 0}, "step1_terms must be a list, got 0"),
    ], ids=["grid", "bootstrap", "responses", "binary", "grid.values.x", "merged",
            "bootstrap.enabled", "grid.values.nosuch", "grid.held.alsonot",
            "grid-0", "bootstrap-false", "binary-0", "step1_terms-0"])
    def test_bad_config_value_exits_2(self, workdir, capsys, overrides, message):
        cfg = self._config(workdir, **overrides)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_two_taus_in_one_pool_match_serial_bytes(self, workdir, pin_cpus):
        # 64 workers are capped at 3 CPUs: a 3-process split that 2 never gives
        pin_cpus(3)
        trees = {}
        for workers in (1, 2, 64):
            cfg = self._config(workdir, taus=[0.25, 0.75], bootstrap={
                "enabled": True, "replicates": 8, "seed": 4, "workers": workers})
            assert main(["analyze", "--config", cfg, "--out", f"w{workers}"]) == 0
            trees[workers] = _tree_bytes(workdir / f"w{workers}")
        assert trees[1] == trees[2] == trees[64]
        meta = json.loads(trees[2]["metadata.json"])
        assert meta["bootstrap"]["seed"] == 4

    def test_a_failed_replicate_leaves_only_its_tau(self, workdir, monkeypatch, pin_cpus):
        module = importlib.import_module("quantcord.bootstrap")
        pin_cpus(2)
        run = module._run_replicate
        B, seed, b = 8, 4, 2

        def fails_once(sample, base):
            # replicate b at tau 0.75, known by its weights in a forked worker too
            weights = sample.X1.weights
            n = int(weights.sum())
            counts = np.bincount(bootstrap_indices(seed, b, n), minlength=n)
            if base.tau == 0.75 and np.array_equal(weights, counts[counts > 0]):
                return None
            return run(sample, base)

        monkeypatch.setattr(module, "_run_replicate", fails_once)
        trees = {}
        for workers in (1, 2):
            cfg = self._config(workdir, taus=[0.25, 0.75], bootstrap={
                "enabled": True, "replicates": B, "seed": seed, "workers": workers})
            assert main(["analyze", "--config", cfg, "--out", f"w{workers}"]) == 0
            trees[workers] = _tree_bytes(workdir / f"w{workers}")
        assert trees[1] == trees[2]
        assert json.loads(trees[1]["metadata.json"])["replicate_failures"] == {
            "0.25": 0, "0.75": 1}
        summary = trees[1]["summary.txt"].decode("utf-8").splitlines()
        assert [line.split(", ")[1] for line in summary if "bootstrap:" in line] == [
            "failures=0", "failures=1"]

        # the SE and band columns read the successful rows only
        spec = load_run_config(cfg).spec
        data, _ = read_csv("small.csv", columns=spec.columns)
        tables = {name: _table(workdir / "w1" / name) for name in (
            "phi_profile_x.csv", "step1_coefficients.csv", "step2_coefficients.csv")}
        for boot in bootstrap(build_designs(data, spec), B=B, seed=seed):
            tau, ok = boot.estimate.tau, boot.ok
            assert ok.tolist() == [tau != 0.75 or r != b for r in range(B)]

            def column(name, field, **match):
                return [float(r[field]) for r in tables[name] if float(r["tau"]) == tau
                        and all(r[k] == v for k, v in match.items())]

            phis = boot.phi_draws[ok]
            lower, upper, _ = _phi_bands(np.ascontiguousarray(phis.T),
                                         boot.estimate.phi, tau, boot.level)
            assert column("phi_profile_x.csv", "ci_lower") == lower.tolist()
            assert column("phi_profile_x.csv", "ci_upper") == upper.tolist()
            for name in spec.responses:
                se = np.std(boot.beta_draws[name][ok], axis=0, ddof=1)
                assert column("step1_coefficients.csv", "se", response=name) == se.tolist()
            se = np.std(boot.gamma_draws[ok], axis=0, ddof=1)
            assert column("step2_coefficients.csv", "se") == se.ravel().tolist()

    @pytest.mark.parametrize("overrides,message", [
        ({"step2_terms": [{"column": "x", "transform": "center", "value": "abc"}]},
         "term.value must be a number, got 'abc'"),
    ], ids=["term.value-string"])
    def test_bad_name_or_term_value_exits_2(self, workdir, capsys, overrides, message):
        cfg = self._config(workdir, **overrides)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("overrides, response", [
        ({"step2_terms": [{"column": "y1"}]}, "y1"),
        ({"step1_terms": [{"column": "y2"}]}, "y2"),
        ({"taus": [0.25], "step2_terms": [{"column": "x"},
                                          {"column": "y2", "transform": "spline"}]}, "y2"),
    ], ids=["step2", "step1", "step2-spline"])
    def test_a_term_reading_a_response_exits_2_before_any_fit(
            self, workdir, capsys, monkeypatch, overrides, response):
        # a step-2 term on y1 gave phi_hat = 0 on every grid row; the others
        # failed late, with messages that named no response
        pipeline = importlib.import_module("quantcord.pipeline")
        monkeypatch.setattr(pipeline, "fit_quantile_regression", _no_fit)
        cfg = self._config(workdir, **overrides)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a term reads response '{response}'"), err
        assert sorted(p.name for p in workdir.iterdir()) == [
            "run.yaml", "scenario.yaml", "small.csv", "small.csv.oracle.json"]

    def test_output_dir_in_config_exits_2(self, workdir, capsys):
        # --out alone says where the files go
        cfg = self._config(workdir, output_dir="elsewhere")
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error: unknown keys in config: ['output_dir']" in capsys.readouterr().err
        assert not (workdir / "out").exists()
        assert not (workdir / "elsewhere").exists()

    def test_analyze_without_out_exits_2(self, workdir, capsys):
        cfg = self._config(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", cfg])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == [
            "run.yaml", "scenario.yaml", "small.csv", "small.csv.oracle.json"]

    def test_summary_is_human_readable(self, workdir):
        cfg = self._config(workdir)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        text = (workdir / "out" / "summary.txt").read_text(encoding="utf-8")
        assert "tau = 0.5" in text
        assert "phi along x" in text
        assert "rows used: 300 (dropped: 0)" in text


class TestAnalyzeFailures:

    def test_compute_failure_leaves_no_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(4)
        with open("ident.csv", "w", encoding="utf-8") as fh:
            fh.write("y1,y2\n")
            for v in rng.normal(size=60):
                fh.write(f"{v},{v}\n")
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": "ident.csv", "responses": ["y1", "y2"],
                           "taus": [0.5]})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error: tau 0.5: step 2:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_failure_at_one_tau_names_that_tau(self, tmp_path, monkeypatch, capsys):
        # at rho = -0.8 the responses are rarely in their lower 5% tails
        # together, so tau 0.05 has no row in cell "11"; the later taus fit
        monkeypatch.chdir(tmp_path)
        _synth(tmp_path, scenario={"n": 400, "seed": 0, "rho": -0.8})
        cfg = _write_yaml(tmp_path / "run.yaml", {
            "input": "small.csv", "responses": ["y1", "y2"],
            "taus": [0.05, 0.25, 0.5, 0.75]})
        capsys.readouterr()
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert capsys.readouterr().err == (
            "error: tau 0.05: step 2: no observations for categories '11'; "
            "consider merged discordance mode or coarser covariates\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_bootstrap_replicates_exit_2(self, tmp_path, monkeypatch, capsys, pin_cpus,
                                                workers):
        # two responses concordant but for one swapped pair of rows beside
        # the median: every replicate's step 2 finds an empty cell
        monkeypatch.chdir(tmp_path)
        pin_cpus(2)
        y1 = np.random.default_rng(11).normal(size=40)
        y2 = y1.copy()
        swap = np.argsort(y1)[[18, 21]]
        y2[swap] = y2[swap[::-1]]
        (tmp_path / "near.csv").write_text(
            csv_text(["y1", "y2"], zip(y1.tolist(), y2.tolist())), encoding="utf-8")
        cfg = _write_yaml(tmp_path / "run.yaml", {
            "input": "near.csv", "responses": ["y1", "y2"], "taus": [0.5],
            "bootstrap": {"enabled": True, "replicates": 10, "seed": 11,
                          "workers": workers}})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert ("error: at tau 0.5, 10 of 10 bootstrap replicates failed (more than 20%)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_csv_exits_2(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": str(tmp_path / "none.csv"),
                           "responses": ["y1", "y2"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_long_tau_range_exits_2_at_once(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": str(tmp_path / "none.csv"), "responses": ["y1", "y2"],
                           "taus": {"start": 0.1, "stop": 0.9, "step": 1.0e-11}})
        start = time.perf_counter()
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "error: taus must be a list, got {'start': 0.1, 'step': 1e-11, 'stop': 0.9}" in err
        assert "none.csv" not in err

    def test_empty_grid_values_exit_2_before_reading_input(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": str(tmp_path / "none.csv"), "responses": ["y1", "y2"],
                           "step2_terms": [{"column": "x"}], "grid": {"values": {"x": []}}})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: grid values for 'x' must be a non-empty 1-d list" in err
        assert "none.csv" not in err

    def test_oversized_grid_points_exit_2_before_reading_input(
            self, tmp_path, monkeypatch, capsys):
        # np.linspace, after read_csv, would fail on 10^30 points
        monkeypatch.setattr(quantcord.cli, "read_csv", _unreachable)
        monkeypatch.setattr(np, "linspace", _unreachable)
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": str(tmp_path / "none.csv"), "responses": ["y1", "y2"],
                           "step2_terms": [{"column": "x"}], "grid": {"points": 10**30}})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: grid_points must be at most {MAX_GRID_POINTS}, got {10**30}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def _small_run(self, tmp_path, monkeypatch, **overrides):
        monkeypatch.chdir(tmp_path)
        _synth(tmp_path)
        return _write_yaml(tmp_path / "run.yaml", dict(
            {"input": "small.csv", "responses": ["y1", "y2"], "taus": [0.5]},
            **overrides))

    def test_directory_as_input_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "data").mkdir()
        cfg = self._small_run(tmp_path, monkeypatch, input="data")
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_below_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = self._small_run(tmp_path, monkeypatch)
        before = (tmp_path / "small.csv").read_bytes()
        assert main(["analyze", "--config", cfg, "--out", "small.csv/out"]) == 2
        assert "error:" in capsys.readouterr().err
        assert (tmp_path / "small.csv").read_bytes() == before

    def test_unwritable_output_removes_written_files(self, tmp_path, monkeypatch, capsys):
        # the first file is written into the new directory, the second fails
        cfg = self._small_run(tmp_path, monkeypatch)
        written = []

        def open_once(path, *args, **kwargs):
            if written:
                raise OSError(f"cannot write {path}")
            written.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(quantcord.cli, "open", open_once, raising=False)
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error: cannot write out" in capsys.readouterr().err
        assert len(written) == 1
        assert list((tmp_path / "out").iterdir()) == []

    def test_non_empty_output_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        # a second run into one directory would leave the first run's
        # phi_profile_x.csv beside its own phi_profile_z.csv
        monkeypatch.chdir(tmp_path)
        _synth(tmp_path, scenario=dict(SMALL_SCENARIO, covariates=[
            {"name": "x", "kind": "uniform", "low": -1.0, "high": 1.0},
            {"name": "z", "kind": "uniform", "low": -1.0, "high": 1.0}]))

        def run(column):
            cfg = _write_yaml(tmp_path / "run.yaml", {
                "input": "small.csv", "responses": ["y1", "y2"], "taus": [0.5],
                "step2_terms": [{"column": column}]})
            return main(["analyze", "--config", cfg, "--out", "out"])

        assert run("x") == 0
        first = _tree_bytes(tmp_path / "out")
        assert "phi_profile_x.csv" in first
        capsys.readouterr()
        assert run("z") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: output directory out is not empty\n"
        assert captured.out == ""
        assert _tree_bytes(tmp_path / "out") == first

    def test_output_path_that_is_a_file_exits_2_before_the_config_is_read(
            self, tmp_path, monkeypatch, capsys):
        # the config does not exist, so any work before the check would fail
        # with another error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
        assert main(["analyze", "--config", "none.yaml", "--out", "afile"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: output path afile is not a directory\n"
        assert captured.out == ""
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"

    def test_empty_output_directory_is_written(self, tmp_path, monkeypatch):
        cfg = self._small_run(tmp_path, monkeypatch)
        (tmp_path / "out").mkdir()
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        assert "summary.txt" in _tree_bytes(tmp_path / "out")

    def test_non_utf8_csv_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.csv").write_bytes(
            "y1,y2,note\n1.0,2.0,caf\u00e9\n".encode("latin-1"))
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": "latin1.csv", "responses": ["y1", "y2"]})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "error: latin1.csv: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "synth"])
    def test_non_utf8_config_exits_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.yaml").write_bytes(
            "input: caf\u00e9.csv\nresponses: [y1, y2]\nn: 10\n".encode("latin-1"))
        assert main([command, "--config", "latin1.yaml", "--out", "out"]) == 2
        assert "error: latin1.yaml: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("input: [unclosed\n", encoding="utf-8")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid YAML: ")
        assert not (tmp_path / "out").exists()

    def test_binary_violation_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with open("bad.csv", "w", encoding="utf-8") as fh:
            fh.write("y1,y2,g\n1.0,2.0,0\n2.0,1.0,2\n3.0,0.5,1\n")
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": "bad.csv", "responses": ["y1", "y2"],
                           "binary": ["g"], "step2_terms": [{"column": "g"}]})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert "binary column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_binary_name_no_term_reads_exits_2(self, tmp_path, monkeypatch, capsys):
        # a typo of g would leave g a continuous covariate, unchecked
        monkeypatch.chdir(tmp_path)
        with open("groups.csv", "w", encoding="utf-8") as fh:
            fh.write("y1,y2,g\n1.0,2.0,0\n2.0,1.0,1\n3.0,0.5,1\n")
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": "groups.csv", "responses": ["y1", "y2"],
                           "binary": ["gg"], "step2_terms": [{"column": "g"}]})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 2
        assert ("error: binary names ['gg'], which no term reads; term columns: ['g']"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_dropped_rows_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with open("gap.csv", "w", encoding="utf-8") as fh:
            fh.write(
                "y1,y2\n1.0,2.0\n,3.0\n2.0,1.0\n4.0,0.5\n"
                "3.0,2.5\n0.5,0.1\n1.5,2.0\n2.5,0.2\n"
            )
        cfg = _write_yaml(tmp_path / "run.yaml",
                          {"input": "gap.csv", "responses": ["y1", "y2"],
                           "taus": [0.5]})
        assert main(["analyze", "--config", cfg, "--out", "out"]) == 0
        assert "dropped 1 rows" in capsys.readouterr().err
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
        assert meta["dropped_rows"] == [2]
        assert meta["n_rows"] == 7
