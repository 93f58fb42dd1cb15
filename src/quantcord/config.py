"""Config files: YAML in, validated dataclasses out.

The grammar is plain key/value with nested sections; model terms are
declared (column, transform, interaction pair), there is no formula
language.  Each section is one table from key to parser, which lists the
allowed keys and types each value; :func:`_read` walks a table.  A key
left out or set to null, at any level, is not passed on, so its default
is the one on the dataclass it feeds.  Names and paths are strings (a
number is read as its text).  The tables are the only place that lists
a key; configs are read, never written.
"""

import math
from dataclasses import dataclass

import yaml

from .basis import TermSpec, interaction
from .bootstrap import DEFAULT_B, DEFAULT_LEVEL, check_arguments
from .exceptions import InvalidArgumentError, check_number, check_taus
from .pipeline import DEFAULT_TAUS, AnalysisSpec
from .synthetic import CovariateSpec, ScenarioSpec


@dataclass(frozen=True)
class BootstrapConfig:
    enabled: bool = False
    replicates: int = DEFAULT_B
    seed: int = 0
    level: float = DEFAULT_LEVEL
    workers: int = 1

    def __post_init__(self):
        # a disabled bootstrap runs no replicates, so their count is not checked
        check_arguments(self.replicates if self.enabled else DEFAULT_B,
                        self.seed, self.level, self.workers)


@dataclass(frozen=True)
class RunConfig:
    """One analysis run: where the data lives and what to fit; where the
    outputs go is the command line's ``--out`` alone."""

    input: str
    spec: AnalysisSpec
    bootstrap: BootstrapConfig = BootstrapConfig()


def _read(section, d, table, required=(), prefix=None):
    """The keys of mapping ``d`` that are set, each parsed by its ``table``
    entry, a ``parse(key_path, value)``.  Keys left out or null are not in
    the result, so the dataclass they feed supplies the default."""
    unknown = sorted(set(_mapping(section, d)) - set(table), key=str)
    if unknown:
        raise InvalidArgumentError(
            f"unknown keys in {section}: {unknown}; allowed: {sorted(table)}"
        )
    given = {k: v for k, v in d.items() if v is not None}
    for k in required:
        if k not in given:
            raise InvalidArgumentError(f"missing required key {k!r} in {section}")
    prefix = f"{section}." if prefix is None else prefix
    return {k: table[k](prefix + k, v) for k, v in given.items()}


def _section(name, table, required=(), make=dict):
    """Parser for a nested section: ``make`` called with its set keys."""
    return lambda key, value: make(**_read(name, value, table, required))


def _int(key, value):
    """An integer config value: integral numbers only (5.0 reads as 5),
    never a string or bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    check_number(key, value, integer=True)
    return value


def _bool(key, value):
    """A boolean config value: true or false only, never a string or number."""
    if isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"{key} must be true or false, got {value!r}")


def _str(key, value):
    """A name or path: a string, or a number read as its text (YAML loads a
    column named ``2020`` as an int); never a bool, list or mapping."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    raise InvalidArgumentError(f"{key} must be a string, got {value!r}")


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
    """A finite float config value: any number but a bool, or a string
    ``float`` reads (YAML 1.1 loads ``1e-3`` as a string).  No key has a
    meaningful NaN or infinity."""
    if isinstance(value, bool):
        raise InvalidArgumentError(f"{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{key} must be a number, got {value!r}") from None
    check_number(key, x)
    return x


def _list_of(parse):
    """Parser for a list whose items ``parse`` reads; a null item is an error."""
    return lambda key, value: tuple(parse(key, x) for x in _list(key, value))


def _table(parse):
    """Parser for a mapping keyed by column name, such as ``grid.held``;
    an entry set to null is left out."""
    return lambda key, value: {
        _str(key, k): parse(f"{key}.{k}", v)
        for k, v in _mapping(key, value).items() if v is not None}


_INTERACTION = {"interaction": _list_of(_str)}
_TERM = {"column": _str, "transform": _str, "value": _float}


def parse_term(d):
    """One term declaration: {column[, transform[, value]]} or {interaction: [a, b]}."""
    if isinstance(d, dict) and "interaction" in d:
        pair = _read("term", d, _INTERACTION, required=("interaction",))["interaction"]
        if len(pair) != 2:
            raise InvalidArgumentError(
                f"interaction needs exactly two column names, got {list(pair)!r}"
            )
        return interaction(*pair)
    t = _read("term", d, _TERM, required=("column",))
    return TermSpec(t.get("transform", "identity"), t["column"], center=t.get("value"))


_TERMS = _list_of(lambda key, t: parse_term(t))
_GRID = {"points": _int, "values": _table(_list_of(_float)), "held": _table(_float)}
_GRID_FIELDS = {"points": "grid_points", "values": "grid_values", "held": "held"}
_BOOTSTRAP = {"enabled": _bool, "replicates": _int, "seed": _int, "level": _float,
              "workers": _int}
_RUN = {
    "input": _str,
    "responses": _list_of(_str),
    "taus": _list_of(_float),
    "merged": _bool,
    "binary": _list_of(_str),
    "step1_terms": _TERMS,
    "step2_terms": _TERMS,
    "grid": _section("grid", _GRID),
    "bootstrap": _section("bootstrap", _BOOTSTRAP, make=BootstrapConfig),
}


def run_config_from_dict(d):
    given = _read("config", d, _RUN, required=("input", "responses"), prefix="")
    run = {k: given.pop(k) for k in ("input", "bootstrap") if k in given}
    grid = {_GRID_FIELDS[k]: v for k, v in given.pop("grid", {}).items()}
    return RunConfig(spec=AnalysisSpec(**given, **grid), **run)


def _group_values(key, value):
    """rho by group: a two-item list, for groups 0 and 1."""
    if len(_list(key, value)) != 2:
        raise InvalidArgumentError("rho_by_group needs values for groups 0 and 1")
    return {g: _float(key, value[g]) for g in (0, 1)}


_COVARIATE = {"name": _str, "kind": _str, "low": _float, "high": _float, "p": _float}
_RHO_BY_GROUP = {"column": _str, "values": _group_values}
_SCENARIO = {
    "n": _int,
    "seed": _int,
    "rho": _float,
    "rho_by_group": _section("rho_by_group", _RHO_BY_GROUP, required=tuple(_RHO_BY_GROUP)),
    "covariates": _list_of(
        _section("covariate", _COVARIATE, required=("name",), make=CovariateSpec)),
    "coefficients": _table(_table(_float)),
    "responses": _list_of(_str),
    "taus": _list_of(_float),
}


def scenario_from_dict(d):
    """Parse a synth config; returns the scenario and the sidecar taus."""
    given = _read("scenario", d, _SCENARIO, required=("n",), prefix="")
    taus = given.pop("taus", DEFAULT_TAUS)
    check_taus(taus)
    if "rho_by_group" in given:
        rbg = given.pop("rho_by_group")
        given.update(rho_by_group=rbg["values"], group_column=rbg["column"])
    return ScenarioSpec(**given), taus


def _load_mapping(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = yaml.safe_load(fh)
    except UnicodeDecodeError as err:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({err.reason})") from None
    except yaml.YAMLError as err:
        raise InvalidArgumentError(f"invalid YAML: {err}") from None
    if not isinstance(d, dict):
        raise InvalidArgumentError(f"{path}: config must be a mapping")
    return d


def load_run_config(path):
    """The RunConfig of the run config at ``path``; a file that is malformed
    YAML, not UTF-8 text or not a mapping raises InvalidArgumentError."""
    return run_config_from_dict(_load_mapping(path))


def load_scenario(path):
    """The scenario and the sidecar taus of the synth config at ``path``; a file
    that is malformed YAML, not UTF-8 text or not a mapping raises InvalidArgumentError."""
    return scenario_from_dict(_load_mapping(path))

