"""Config files: YAML in, validated dataclasses out, and back again.

The grammar is plain key/value with nested sections; model terms are
declared (column, transform, interaction pair), there is no formula
language.  ``from_dict``/``to_dict`` round-trip identically, which the
tests pin down.
"""

from dataclasses import dataclass

import yaml

from .basis import TermSpec, center, identity, interaction, spline
from .exceptions import InvalidArgumentError
from .pipeline import DEFAULT_GRID_POINTS, AnalysisSpec
from .synthetic import CovariateSpec, ScenarioSpec

DEFAULT_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class BootstrapConfig:
    enabled: bool = False
    replicates: int = 1000
    seed: int = 0
    level: float = 0.95
    workers: int = 1

    def __post_init__(self):
        if self.enabled and self.replicates < 2:
            raise InvalidArgumentError(
                f"bootstrap replicates must be at least 2, got {self.replicates}"
            )
        if not 0.0 < self.level < 1.0:
            raise InvalidArgumentError(f"level must be in (0, 1), got {self.level}")
        if self.seed < 0:
            raise InvalidArgumentError(f"bootstrap seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    """One analysis run: where the data lives, what to fit, what to write."""

    input: str
    spec: AnalysisSpec
    bootstrap: BootstrapConfig = BootstrapConfig()
    output_dir: str = "quantcord_out"


def _require_keys(section, d, allowed, required=()):
    unknown = sorted(set(_mapping(section, d)) - set(allowed))
    if unknown:
        raise InvalidArgumentError(
            f"unknown keys in {section}: {unknown}; allowed: {sorted(allowed)}"
        )
    for k in required:
        if k not in d:
            raise InvalidArgumentError(f"missing required key {k!r} in {section}")


def _optional(d, key, default):
    """``d[key]``, or ``default`` when the key is missing or null; any other
    value, falsy or not, goes on to the type check."""
    value = d.get(key)
    return default if value is None else value


def _int(key, value):
    """An integer config value: integral numbers only, never a string or bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"{key} must be an integer, got {value!r}")


def _bool(key, value):
    """A boolean config value: true or false only, never a string or number."""
    if isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"{key} must be true or false, got {value!r}")


def _list(key, value):
    """A list config value: a sequence, never a scalar, string or mapping."""
    if isinstance(value, (list, tuple)):
        return value
    raise InvalidArgumentError(f"{key} must be a list, got {value!r}")


def _mapping(key, value):
    """A mapping config value, such as a section or a table keyed by column."""
    if isinstance(value, dict):
        return value
    raise InvalidArgumentError(f"{key} must be a mapping, got {value!r}")


def _float(key, value):
    """A float config value: any number but a bool, or a string ``float``
    reads (YAML 1.1 loads ``1e-3`` as a string)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InvalidArgumentError(f"{key} must be a number, got {value!r}")


def parse_term(d):
    """One term declaration: {column[, transform[, value]]} or {interaction: [a, b]}."""
    if not isinstance(d, dict):
        raise InvalidArgumentError(f"term must be a mapping, got {d!r}")
    if "interaction" in d:
        _require_keys("term", d, ("interaction",))
        pair = d["interaction"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidArgumentError(
                f"interaction needs exactly two column names, got {pair!r}"
            )
        return interaction(str(pair[0]), str(pair[1]))
    _require_keys("term", d, ("column", "transform", "value"), required=("column",))
    col = str(d["column"])
    transform = d.get("transform", "identity")
    if transform == "identity":
        if "value" in d:
            raise InvalidArgumentError("identity terms take no value")
        return identity(col)
    if transform == "center":
        return center(col, d.get("value"))
    if transform == "spline":
        if "value" in d:
            raise InvalidArgumentError("spline terms take no value")
        return spline(col)
    raise InvalidArgumentError(
        f"unknown transform {transform!r}; use identity, center or spline"
    )


def term_to_dict(term):
    if term.kind == "interaction":
        return {"interaction": [term.column, term.column2]}
    out = {"column": term.column}
    if term.kind != "identity":
        out["transform"] = term.kind
    if term.kind == "center" and term.center is not None:
        out["value"] = term.center
    return out


def _parse_taus(value):
    if isinstance(value, dict):
        _require_keys("taus", value, ("start", "stop", "step"),
                      required=("start", "stop", "step"))
        start, stop, step = (
            _float(f"taus.{k}", value[k]) for k in ("start", "stop", "step"))
        if step <= 0:
            raise InvalidArgumentError(f"tau step must be positive, got {step}")
        taus = []
        k = 0
        while True:
            t = start + k * step
            if t > stop + 1e-12:
                break
            taus.append(round(t, 12))
            k += 1
        return tuple(taus)
    if isinstance(value, (list, tuple)):
        return tuple(_float("taus", t) for t in value)
    raise InvalidArgumentError("taus must be a list or a {start, stop, step} range")


_RUN_KEYS = (
    "input", "output_dir", "responses", "taus", "merged", "binary",
    "step1_terms", "step2_terms", "grid", "bootstrap",
)


def run_config_from_dict(d):
    _require_keys("config", d, _RUN_KEYS, required=("input", "responses"))
    grid = _optional(d, "grid", {})
    _require_keys("grid", grid, ("points", "values", "held"))
    spec = AnalysisSpec(
        responses=tuple(str(r) for r in _list("responses", d["responses"])),
        taus=_parse_taus(d.get("taus", list(DEFAULT_TAUS))),
        step1_terms=tuple(
            parse_term(t) for t in _list("step1_terms", _optional(d, "step1_terms", []))),
        step2_terms=tuple(
            parse_term(t) for t in _list("step2_terms", _optional(d, "step2_terms", []))),
        merged=_bool("merged", d.get("merged", False)),
        grid_points=_int("grid.points", grid.get("points", DEFAULT_GRID_POINTS)),
        grid_values={
            str(k): tuple(_float(f"grid.values.{k}", x) for x in _list(f"grid.values.{k}", v))
            for k, v in _mapping("grid.values", _optional(grid, "values", {})).items()},
        held={str(k): _float(f"grid.held.{k}", v)
              for k, v in _mapping("grid.held", _optional(grid, "held", {})).items()},
        binary=tuple(str(b) for b in _list("binary", _optional(d, "binary", []))),
    )
    boot = _optional(d, "bootstrap", {})
    _require_keys("bootstrap", boot,
                  ("enabled", "replicates", "seed", "level", "workers"))
    bootstrap = BootstrapConfig(
        enabled=_bool("bootstrap.enabled", boot.get("enabled", False)),
        replicates=_int("bootstrap.replicates", boot.get("replicates", 1000)),
        seed=_int("bootstrap.seed", boot.get("seed", 0)),
        level=_float("bootstrap.level", boot.get("level", 0.95)),
        workers=_int("bootstrap.workers", boot.get("workers", 1)),
    )
    return RunConfig(
        input=str(d["input"]),
        spec=spec,
        bootstrap=bootstrap,
        output_dir=str(d.get("output_dir", "quantcord_out")),
    )


def run_config_to_dict(cfg):
    spec = cfg.spec
    out = {
        "input": cfg.input,
        "output_dir": cfg.output_dir,
        "responses": list(spec.responses),
        "taus": list(spec.taus),
        "merged": spec.merged,
        "binary": list(spec.binary),
        "step1_terms": [term_to_dict(t) for t in spec.step1_terms],
        "step2_terms": [term_to_dict(t) for t in spec.step2_terms],
        "grid": {
            "points": spec.grid_points,
            "values": {k: list(v) for k, v in spec.grid_values.items()},
            "held": dict(spec.held),
        },
        "bootstrap": {
            "enabled": cfg.bootstrap.enabled,
            "replicates": cfg.bootstrap.replicates,
            "seed": cfg.bootstrap.seed,
            "level": cfg.bootstrap.level,
            "workers": cfg.bootstrap.workers,
        },
    }
    return out


_SCENARIO_KEYS = (
    "n", "seed", "rho", "rho_by_group", "covariates", "coefficients",
    "responses", "taus",
)


def scenario_from_dict(d):
    """Parse a synth config; returns the scenario and the sidecar taus."""
    _require_keys("scenario", d, _SCENARIO_KEYS, required=("n",))
    covariates = []
    for c in _list("covariates", _optional(d, "covariates", [])):
        _require_keys("covariate", c, ("name", "kind", "low", "high", "p"),
                      required=("name",))
        covariates.append(CovariateSpec(
            name=str(c["name"]),
            kind=str(c.get("kind", "uniform")),
            low=_float("covariate.low", c.get("low", 0.0)),
            high=_float("covariate.high", c.get("high", 1.0)),
            p=_float("covariate.p", c.get("p", 0.5)),
        ))
    rho_by_group = None
    group_column = None
    rho = 0.5
    if "rho_by_group" in d:
        if "rho" in d:
            raise InvalidArgumentError("give either rho or rho_by_group, not both")
        rbg = d["rho_by_group"]
        _require_keys("rho_by_group", rbg, ("column", "values"),
                      required=("column", "values"))
        vals = rbg["values"]
        if isinstance(vals, dict):
            vals = [vals.get(k) for k in (0, 1)]
        if len(_list("rho_by_group.values", vals)) != 2:
            raise InvalidArgumentError("rho_by_group needs values for groups 0 and 1")
        rho_by_group = {g: _float("rho_by_group.values", vals[g]) for g in (0, 1)}
        group_column = str(rbg["column"])
    elif "rho" in d:
        rho = _float("rho", d["rho"])
    table = _mapping("coefficients", _optional(d, "coefficients", {}))
    coefficients = {}
    for resp in table:
        coefs = _mapping(f"coefficients.{resp}", _optional(table, resp, {}))
        coefficients[str(resp)] = {
            str(k): _float(f"coefficients.{resp}.{k}", v) for k, v in coefs.items()}
    scenario = ScenarioSpec(
        n=_int("n", d["n"]),
        rho=rho,
        rho_by_group=rho_by_group,
        group_column=group_column,
        covariates=tuple(covariates),
        coefficients=coefficients,
        response_names=tuple(
            str(r) for r in _list("responses", d.get("responses", ("y1", "y2")))),
        seed=_int("seed", d.get("seed", 0)),
    )
    taus = _parse_taus(d.get("taus", list(DEFAULT_TAUS)))
    for t in taus:
        if not 0.0 < t < 1.0:
            raise InvalidArgumentError(f"tau must be in (0, 1), got {t}")
    return scenario, taus


def scenario_to_dict(scenario, taus=DEFAULT_TAUS):
    out = {
        "n": scenario.n,
        "seed": scenario.seed,
        "covariates": [
            {"name": c.name, "kind": c.kind, "low": c.low, "high": c.high, "p": c.p}
            for c in scenario.covariates
        ],
        "coefficients": {k: dict(v) for k, v in scenario.coefficients.items()},
        "responses": list(scenario.response_names),
        "taus": list(taus),
    }
    if scenario.rho_by_group is not None:
        out["rho_by_group"] = {
            "column": scenario.group_column,
            "values": [scenario.rho_by_group[0], scenario.rho_by_group[1]],
        }
    else:
        out["rho"] = scenario.rho
    return out


def _load_mapping(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = yaml.safe_load(fh)
    except UnicodeDecodeError as err:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({err.reason})") from None
    if not isinstance(d, dict):
        raise InvalidArgumentError(f"{path}: config must be a mapping")
    return d


def load_run_config(path):
    return run_config_from_dict(_load_mapping(path))


def load_scenario(path):
    return scenario_from_dict(_load_mapping(path))


def dump_run_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(run_config_to_dict(cfg), fh, sort_keys=False)
