"""Tests for YAML config parsing and validation."""

import re
from pathlib import Path

import pytest
import yaml

from quantcord import (
    AnalysisSpec,
    CovariateSpec,
    InvalidArgumentError,
    ScenarioSpec,
    center,
    identity,
    interaction,
    spline,
)
from quantcord.config import (
    DEFAULT_TAUS,
    BootstrapConfig,
    RunConfig,
    load_run_config,
    load_scenario,
    parse_term,
    run_config_from_dict,
    scenario_from_dict,
)

MINIMAL_RUN = {"input": "data.csv", "responses": ["y1", "y2"]}
README = Path(__file__).resolve().parents[1] / "README.md"


def _run_dict(**extra):
    d = dict(MINIMAL_RUN)
    d.update(extra)
    return d


class TestBootstrapConfig:

    def test_defaults(self):
        cfg = BootstrapConfig()
        assert not cfg.enabled
        assert cfg.replicates == 1000
        assert cfg.level == 0.95

    def test_replicates_floor_only_when_enabled(self):
        BootstrapConfig(enabled=False, replicates=0)
        with pytest.raises(InvalidArgumentError, match="at least 2"):
            BootstrapConfig(enabled=True, replicates=1)

    @pytest.mark.parametrize("field, value", [
        ("replicates", 2.5), ("replicates", True), ("seed", 1.5), ("workers", "2"),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            BootstrapConfig(enabled=True, **{field: value})

    def test_level_bounds(self):
        for level in (1.0, "0.9", None):
            with pytest.raises(InvalidArgumentError, match="level"):
                BootstrapConfig(level=level)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
            BootstrapConfig(seed=-1)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_workers_below_one_rejected(self, enabled):
        with pytest.raises(InvalidArgumentError,
                           match="bootstrap workers must be at least 1, got 0"):
            run_config_from_dict(_run_dict(bootstrap={"enabled": enabled, "workers": 0}))


class TestParseTerm:

    def test_identity_is_default_transform(self):
        assert parse_term({"column": "x"}) == identity("x")
        assert parse_term({"column": "x", "transform": "identity"}) == identity("x")

    def test_center_with_and_without_value(self):
        assert parse_term({"column": "x", "transform": "center"}) == center("x")
        assert parse_term(
            {"column": "x", "transform": "center", "value": 2.0}
        ) == center("x", 2.0)

    def test_spline(self):
        assert parse_term({"column": "x", "transform": "spline"}) == spline("x")

    def test_interaction(self):
        assert parse_term({"interaction": ["x", "g"]}) == interaction("x", "g")

    def test_term_must_be_mapping(self):
        with pytest.raises(InvalidArgumentError, match="term must be a mapping"):
            parse_term("x")

    def test_unknown_term_keys(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys"):
            parse_term({"column": "x", "knots": 4})

    def test_interaction_arity(self):
        with pytest.raises(InvalidArgumentError, match="exactly two"):
            parse_term({"interaction": ["x"]})

    def test_identity_takes_no_value(self):
        with pytest.raises(InvalidArgumentError, match="identity terms take no value"):
            parse_term({"column": "x", "value": 1.0})

    def test_spline_takes_no_value(self):
        with pytest.raises(InvalidArgumentError, match="spline terms take no value"):
            parse_term({"column": "x", "transform": "spline", "value": 1.0})

    def test_unknown_transform(self):
        with pytest.raises(InvalidArgumentError, match="unknown term kind 'poly'; use one of"):
            parse_term({"column": "x", "transform": "poly"})

    def test_interaction_transform_needs_the_pair_form(self):
        with pytest.raises(InvalidArgumentError, match="interaction terms need two columns"):
            parse_term({"column": "x", "transform": "interaction"})

    def test_column_required(self):
        with pytest.raises(InvalidArgumentError, match="missing required key 'column'"):
            parse_term({"transform": "spline"})

    def test_dict_round_trip_for_every_kind(self):
        # each kind's dict form parses back to the term it declares
        for d, term in (
            ({"column": "x"}, identity("x")),
            ({"column": "x", "transform": "center"}, center("x")),
            ({"column": "x", "transform": "center", "value": -1.5}, center("x", -1.5)),
            ({"column": "x", "transform": "spline"}, spline("x")),
            ({"interaction": ["x", "g"]}, interaction("x", "g")),
        ):
            assert parse_term(d) == term


class TestTauParsing:

    def test_list_form(self):
        cfg = run_config_from_dict(_run_dict(taus=[0.1, 0.5, 0.9]))
        assert cfg.spec.taus == (0.1, 0.5, 0.9)

    def test_scalar_rejected(self):
        with pytest.raises(InvalidArgumentError, match="taus must be a list"):
            run_config_from_dict(_run_dict(taus=0.5))

    def test_mapping_rejected(self):
        taus = {"start": 0.1, "stop": 0.9, "step": 0.2}
        with pytest.raises(InvalidArgumentError, match="^taus must be a list, got {'start'"):
            run_config_from_dict(_run_dict(taus=taus))
        with pytest.raises(InvalidArgumentError, match="^taus must be a list, got {'start'"):
            scenario_from_dict({"n": 100, "taus": taus})

    def test_default_grid(self):
        cfg = run_config_from_dict(_run_dict())
        assert cfg.spec.taus == DEFAULT_TAUS


class TestRunConfig:

    def test_minimal_uses_defaults(self):
        cfg = run_config_from_dict(_run_dict())
        assert cfg.input == "data.csv"
        assert cfg.spec.responses == ("y1", "y2")
        assert not cfg.bootstrap.enabled

    def test_full_config(self):
        cfg = run_config_from_dict(
            _run_dict(
                merged=True,
                binary=["g"],
                step1_terms=[{"column": "x"}],
                step2_terms=[{"column": "x", "transform": "spline"},
                             {"interaction": ["x", "g"]}],
                grid={"points": 25, "values": {"x": [0, 1]}, "held": {"g": 1}},
                bootstrap={"enabled": True, "replicates": 100, "seed": 5},
            )
        )
        assert cfg.spec.merged
        assert cfg.spec.step2_terms == (spline("x"), interaction("x", "g"))
        assert cfg.spec.grid_points == 25
        assert cfg.spec.grid_values == {"x": (0.0, 1.0)}
        assert cfg.spec.held == {"g": 1.0}
        assert cfg.bootstrap == BootstrapConfig(enabled=True, replicates=100, seed=5)

    def test_unknown_top_level_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys in config"):
            run_config_from_dict(_run_dict(responzes=["y1"]))

    def test_unknown_grid_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys in grid"):
            run_config_from_dict(_run_dict(grid={"n_points": 10}))

    def test_unknown_bootstrap_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys in bootstrap"):
            run_config_from_dict(_run_dict(bootstrap={"B": 100}))

    def test_unknown_keys_of_mixed_types_are_named(self):
        d = _run_dict(zz=2)
        d[1] = "x"
        with pytest.raises(InvalidArgumentError, match=r"unknown keys in config: \[1, 'zz'\]"):
            run_config_from_dict(d)

    def test_input_required(self):
        with pytest.raises(InvalidArgumentError, match="missing required key 'input'"):
            run_config_from_dict({"responses": ["y1", "y2"]})

    def test_dict_round_trip(self):
        # every key spelled out, defaults and empty tables included
        cfg = run_config_from_dict({
            "input": "data.csv",
            "responses": ["y1", "y2"],
            "taus": [0.25, 0.75],
            "merged": False,
            "binary": [],
            "step1_terms": [],
            "step2_terms": [{"column": "x", "transform": "center", "value": 1.0}],
            "grid": {"points": 10, "values": {}, "held": {}},
            "bootstrap": {"enabled": True, "replicates": 50, "seed": 0,
                          "level": 0.95, "workers": 1},
        })
        assert cfg == RunConfig(
            input="data.csv",
            spec=AnalysisSpec(responses=("y1", "y2"), taus=(0.25, 0.75),
                              step2_terms=(center("x", 1.0),), grid_points=10),
            bootstrap=BootstrapConfig(enabled=True, replicates=50),
        )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "input: data.csv\n"
            "responses: [y1, y2]\n"
            "taus: [0.5]\n"
            "step1_terms:\n"
            "  - {column: x}\n",
            encoding="utf-8",
        )
        assert load_run_config(path) == RunConfig(
            input="data.csv",
            spec=AnalysisSpec(responses=("y1", "y2"), taus=(0.5,),
                              step1_terms=(identity("x"),)),
        )

    def test_load_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n", encoding="utf-8")
        with pytest.raises(InvalidArgumentError, match="config must be a mapping"):
            load_run_config(path)

    def test_malformed_yaml_raises_the_package_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("input: [unclosed\n", encoding="utf-8")
        for load in (load_run_config, load_scenario):
            with pytest.raises(InvalidArgumentError, match="^invalid YAML: "):
                load(path)


class TestScenarioConfig:

    def test_minimal(self):
        scenario, taus = scenario_from_dict({"n": 100})
        assert scenario.n == 100
        assert scenario.rho == 0.5
        assert scenario.seed == 0
        assert scenario.responses == ("y1", "y2")
        assert taus == DEFAULT_TAUS

    def test_rho_and_rho_by_group_exclusive(self):
        with pytest.raises(InvalidArgumentError, match="not both"):
            scenario_from_dict(
                {
                    "n": 100,
                    "rho": 0.5,
                    "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
                    "covariates": [{"name": "g", "kind": "binary"}],
                }
            )

    def test_rho_by_group_parses(self):
        scenario, _ = scenario_from_dict(
            {
                "n": 100,
                "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
                "covariates": [{"name": "g", "kind": "binary", "p": 0.4}],
            }
        )
        assert scenario.rho_by_group == {0: 0.2, 1: 0.8}
        assert scenario.group_column == "g"

    def test_rho_by_group_values_must_be_a_list(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"^rho_by_group.values must be a list, got \{0: 0.1, 1: 0.9\}"):
            scenario_from_dict({
                "n": 100,
                "rho_by_group": {"column": "g", "values": {0: 0.1, 1: 0.9}},
                "covariates": [{"name": "g", "kind": "binary"}],
            })

    def test_rho_by_group_needs_two_values(self):
        with pytest.raises(InvalidArgumentError, match="groups 0 and 1"):
            scenario_from_dict(
                {
                    "n": 100,
                    "rho_by_group": {"column": "g", "values": [0.2]},
                    "covariates": [{"name": "g", "kind": "binary"}],
                }
            )

    def test_unknown_scenario_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys in scenario"):
            scenario_from_dict({"n": 100, "rng": 3})

    def test_unknown_covariate_key(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys in covariate"):
            scenario_from_dict(
                {"n": 100, "covariates": [{"name": "x", "scale": 2.0}]}
            )

    def test_taus_validated(self):
        with pytest.raises(InvalidArgumentError, match="tau must be in"):
            scenario_from_dict({"n": 100, "taus": [0.5, 1.5]})

    @pytest.mark.parametrize("taus, message", [
        ([], "at least one tau is required"),
        ([0.9, 0.1, 0.1], "taus must be strictly increasing"),
        ([0.1, 0.1], "taus must be strictly increasing"),
        ([0.9, 0.1], "taus must be strictly increasing"),
    ], ids=["empty", "unsorted-repeat", "repeat", "decreasing"])
    def test_taus_follow_the_run_config_rule(self, taus, message):
        """One rule for both configs: a repeated tau wrote a sidecar whose
        "taus" listed more values than its oracle had keys, and an empty
        list wrote an empty oracle."""
        with pytest.raises(InvalidArgumentError, match=message):
            scenario_from_dict({"n": 100, "taus": taus})
        with pytest.raises(InvalidArgumentError, match=message):
            run_config_from_dict(_run_dict(taus=taus))

    def test_dict_round_trip_simple_rho(self):
        # every key spelled out, defaults included
        scenario, taus = scenario_from_dict(
            {
                "n": 200,
                "seed": 9,
                "rho": -0.3,
                "covariates": [{"name": "x", "kind": "uniform", "low": -1, "high": 1,
                                "p": 0.5}],
                "coefficients": {"y1": {"intercept": 1.0, "x": 0.5}},
                "responses": ["y1", "y2"],
                "taus": [0.5],
            }
        )
        assert scenario == ScenarioSpec(
            n=200, seed=9, rho=-0.3,
            covariates=(CovariateSpec("x", low=-1.0, high=1.0),),
            coefficients={"y1": {"intercept": 1.0, "x": 0.5}},
        )
        assert taus == (0.5,)

    def test_dict_round_trip_grouped_rho(self):
        scenario, taus = scenario_from_dict(
            {
                "n": 200,
                "seed": 0,
                "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
                "covariates": [{"name": "g", "kind": "binary", "low": 0.0,
                                "high": 1.0, "p": 0.5}],
                "coefficients": {},
                "responses": ["y1", "y2"],
                "taus": list(DEFAULT_TAUS),
            }
        )
        assert scenario == ScenarioSpec(
            n=200, rho_by_group={0: 0.2, 1: 0.8}, group_column="g",
            covariates=(CovariateSpec("g", kind="binary"),),
        )
        assert taus == DEFAULT_TAUS

    def test_committed_fixture_loads(self, fixtures_dir):
        scenario, taus = load_scenario(fixtures_dir / "scenario_n5000.yaml")
        assert scenario.n == 5000
        assert scenario.rho == 0.5
        assert taus == (0.5,)

    def test_load_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("42\n", encoding="utf-8")
        with pytest.raises(InvalidArgumentError, match="config must be a mapping"):
            load_scenario(path)


class TestNumberParsing:

    @pytest.mark.parametrize("key,value", [
        ("seed", 2.7), ("workers", 2.5), ("replicates", 99.5),
        ("seed", "3"), ("workers", "abc"), ("replicates", True),
    ])
    def test_bootstrap_integer_keys_reject_non_integers(self, key, value):
        with pytest.raises(InvalidArgumentError,
                           match=f"bootstrap.{key} must be an integer"):
            run_config_from_dict(_run_dict(bootstrap={key: value}))

    @pytest.mark.parametrize("key,value", [
        ("seed", 2.7), ("seed", "abc"), ("seed", False), ("n", 100.5), ("n", "abc"),
    ])
    def test_scenario_integer_keys_reject_non_integers(self, key, value):
        d = {"n": 100}
        d[key] = value
        with pytest.raises(InvalidArgumentError, match=f"{key} must be an integer"):
            scenario_from_dict(d)

    def test_integral_floats_are_integers(self):
        cfg = run_config_from_dict(
            _run_dict(bootstrap={"seed": 4.0, "workers": 2.0}, grid={"points": 7.0}))
        assert (cfg.bootstrap.seed, cfg.bootstrap.workers) == (4, 2)
        assert cfg.spec.grid_points == 7
        assert isinstance(cfg.bootstrap.seed, int)
        scenario, _ = scenario_from_dict({"n": 100.0, "seed": 3.0})
        assert (scenario.n, scenario.seed) == (100, 3)

    def test_grid_points_must_be_an_integer(self):
        with pytest.raises(InvalidArgumentError, match="grid.points must be an integer"):
            run_config_from_dict(_run_dict(grid={"points": 12.5}))

    @pytest.mark.parametrize("extra,key", [
        ({"bootstrap": {"level": "abc"}}, "bootstrap.level"),
        ({"bootstrap": {"level": True}}, "bootstrap.level"),
        ({"taus": [0.5, "high"]}, "taus"),
        ({"taus": [0.5, True]}, "taus"),
        ({"grid": {"held": {"g": "one"}}}, "grid.held.g"),
        ({"grid": {"values": {"x": [0, None]}}}, "grid.values.x"),
    ])
    def test_run_float_keys_reject_non_numbers(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a number"):
            run_config_from_dict(_run_dict(**extra))

    @pytest.mark.parametrize("extra,key", [
        ({"rho": "abc"}, "rho"),
        ({"rho": True}, "rho"),
        ({"rho_by_group": {"column": "g", "values": [0.2, "x"]}}, "rho_by_group.values"),
        ({"covariates": [{"name": "x", "low": "lo"}]}, "covariate.low"),
        ({"coefficients": {"y1": {"x": "big"}}}, "coefficients.y1.x"),
    ])
    def test_scenario_float_keys_reject_non_numbers(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a number"):
            scenario_from_dict(dict({"n": 100}, **extra))

    @pytest.mark.parametrize("extra,key", [
        ({"bootstrap": {"level": float("nan")}}, "bootstrap.level"),
        ({"taus": [0.5, float("inf")]}, "taus"),
        ({"grid": {"values": {"x": [0.2, "nan"]}}}, "grid.values.x"),
        ({"grid": {"held": {"x": "-inf"}}}, "grid.held.x"),
        ({"step2_terms": [{"column": "x", "transform": "center",
                           "value": float("inf")}]}, "term.value"),
    ])
    def test_run_float_keys_reject_non_finite(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a finite number"):
            run_config_from_dict(_run_dict(**extra))

    @pytest.mark.parametrize("extra,key", [
        ({"rho": float("nan")}, "rho"),
        ({"rho": 10**400}, "rho"),
        ({"covariates": [{"name": "x", "high": float("inf")}]}, "covariate.high"),
        ({"coefficients": {"y1": {"x": float("nan")}}}, "coefficients.y1.x"),
        ({"taus": [0.5, "inf"]}, "taus"),
    ])
    def test_scenario_float_keys_reject_non_finite(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a finite number"):
            scenario_from_dict(dict({"n": 100}, **extra))

    def test_exponent_strings_read_as_floats(self):
        # YAML 1.1 loads 1e-3 (no decimal point) as a string
        d = yaml.safe_load("n: 100\nrho: 1e-3\n")
        assert d["rho"] == "1e-3"
        scenario, _ = scenario_from_dict(d)
        assert scenario.rho == 1e-3

    def test_exponent_string_coefficients_read_as_floats(self):
        d = yaml.safe_load("n: 100\ncovariates: [{name: x}]\ncoefficients: {y1: {x: 1e-3}}\n")
        assert d["coefficients"]["y1"]["x"] == "1e-3"
        scenario, _ = scenario_from_dict(d)
        assert scenario.coefficients == {"y1": {"x": 1e-3}}


class TestNullsAndNames:

    @pytest.mark.parametrize("extra", [
        {"merged": None}, {"taus": None}, {"binary": None},
        {"step1_terms": None}, {"grid": None}, {"grid": {"points": None}},
        {"grid": {"values": {"x": None}, "held": {"x": None}}}, {"bootstrap": None},
        {"bootstrap": {"level": None, "seed": None, "enabled": None}},
    ])
    def test_null_run_keys_take_their_defaults(self, extra):
        base = _run_dict(step2_terms=[{"column": "x"}])
        assert run_config_from_dict(dict(base, **extra)) == run_config_from_dict(base)

    @pytest.mark.parametrize("extra", [
        {"seed": None}, {"rho": None}, {"taus": None}, {"responses": None},
        {"covariates": None}, {"coefficients": None}, {"coefficients": {"y1": None}},
    ])
    def test_null_scenario_keys_take_their_defaults(self, extra):
        assert scenario_from_dict(dict({"n": 100}, **extra)) == scenario_from_dict({"n": 100})

    def test_null_covariate_and_term_keys_take_their_defaults(self):
        scenario, _ = scenario_from_dict(
            {"n": 100, "covariates": [{"name": "x", "kind": None, "low": None, "p": None}]})
        assert scenario.covariates == (CovariateSpec("x"),)
        assert parse_term({"column": "x", "transform": None, "value": None}) == identity("x")
        assert parse_term({"column": "x", "transform": "center", "value": None}) == center("x")

    def test_null_required_key_is_missing(self):
        with pytest.raises(InvalidArgumentError, match="missing required key 'column' in term"):
            parse_term({"column": None})
        with pytest.raises(InvalidArgumentError, match="missing required key 'input'"):
            run_config_from_dict(_run_dict(input=None))

    @pytest.mark.parametrize("value", ["abc", True, [1.0]])
    def test_term_value_must_be_a_number(self, value):
        with pytest.raises(InvalidArgumentError, match="term.value must be a number"):
            parse_term({"column": "x", "transform": "center", "value": value})

    @pytest.mark.parametrize("extra,key", [
        ({"input": True}, "input"),
        ({"input": [1]}, "input"),
        ({"input": {"a": 1}}, "input"),
        ({"responses": ["y1", ["y2"]]}, "responses"),
        ({"binary": [False]}, "binary"),
        ({"step1_terms": [{"column": True}]}, "term.column"),
        ({"step1_terms": [{"interaction": ["x", {"g": 1}]}]}, "term.interaction"),
    ])
    def test_run_names_must_be_strings(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a string"):
            run_config_from_dict(_run_dict(**extra))

    @pytest.mark.parametrize("extra,key", [
        ({"covariates": [{"name": ["x"]}]}, "covariate.name"),
        ({"covariates": [{"name": "x", "kind": {"binary": 1}}]}, "covariate.kind"),
        ({"responses": ["y1", False]}, "responses"),
        ({"rho_by_group": {"column": True, "values": [0.2, 0.8]}}, "rho_by_group.column"),
    ])
    def test_scenario_names_must_be_strings(self, extra, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a string"):
            scenario_from_dict(dict({"n": 100}, **extra))

    def test_numbers_are_read_as_names(self):
        cfg = run_config_from_dict(_run_dict(input=2020, responses=[1, 2]))
        assert (cfg.input, cfg.spec.responses) == ("2020", ("1", "2"))


def _readme_block(name):
    """The README's fenced YAML block whose first line is ``# <name>``."""
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if b.startswith(f"# {name}\n")]
    return block


class TestReadmeConfigs:
    """The configs the README documents load through the parsers."""

    def test_scenario_block(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(_readme_block("scenario.yaml"), encoding="utf-8")
        scenario, taus = load_scenario(path)
        assert (scenario.n, scenario.seed, scenario.rho) == (500, 29, 0.5)
        assert [c.name for c in scenario.covariates] == ["x", "g"]
        assert scenario.coefficients == {"y1": {"intercept": 1.0, "x": 0.5},
                                         "y2": {"x": -0.25}}
        assert taus == (0.25, 0.5, 0.75)

    def test_run_block(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(_readme_block("run.yaml"), encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.input == "copula.csv"
        assert cfg.spec.step2_terms == (spline("x"), identity("g"), interaction("x", "g"))
        assert cfg.spec.grid_values == {"x": (-1.0, 0.0, 1.0)}
        assert cfg.bootstrap == BootstrapConfig(enabled=True)
