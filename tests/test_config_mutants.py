"""Seeded mutants of valid run and scenario configs, each run through
``cli.main``: a config gives a result or a one-line error.

``mutants(seed, count)`` draws mutants from a ``random.Random(seed)``, so
a seed fixes every mutant.  Each changes one or two values of ``RUN`` (the
run config of ``analyze``) or ``SCENARIO`` (the scenario config of
``synth``): a wrong type, null, a missing or unknown key, an empty list, a
repeated name, a number written as a string, or an extreme number.  The
invariant: exit 0, or exit 2 with exactly one stderr line, which starts
with ``error: ``, and nothing written.  A warning fails a mutant, as
pytest's ``filterwarnings = ["error"]`` makes any warning fail tier 1; from
a shell it would be one more stderr line.  Tier 1 runs the first ``SLICE``
mutants at seed 0; other seeds and counts run the same test body.
"""

import copy
import random

import pytest
import yaml

from quantcord import SeparationWarning
from quantcord.cli import main
from quantcord.synthetic import MAX_ROWS

# the shape of tests/fixtures/analyze_config.yaml, with every section set
RUN = {
    "input": "data.csv",
    "responses": ["y1", "y2"],
    "taus": [0.25, 0.75],
    "merged": False,
    "binary": ["g"],
    "step1_terms": [{"column": "x"}],
    "step2_terms": [{"column": "x", "transform": "spline"}, {"interaction": ["x", "g"]}],
    "grid": {"points": 5, "values": {"g": [0, 1]}, "held": {"x": 0.0, "g": 1}},
    "bootstrap": {"enabled": True, "replicates": 4, "seed": 3, "level": 0.9, "workers": 1},
}
SCENARIO = {
    "n": 300,
    "seed": 5,
    "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
    "covariates": [{"name": "x", "kind": "uniform", "low": -1.0, "high": 1.0},
                   {"name": "g", "kind": "binary", "p": 0.5}],
    "coefficients": {"y1": {"intercept": 1.0, "x": 0.5}, "y2": {"g": -0.25}},
    "responses": ["y1", "y2"],
    "taus": [0.25, 0.5],
}
EXTREMES = (10**30, -10**30, -1, 0, -0.5, 1e-300)
OTHER_TYPES = (True, "text", [1], {"key": 1}, 2.5)
SLICE = 200


def _paths(node, path=()):
    """Every (path, value) below ``node``, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kinds(path, value):
    """The mutations that apply to ``value`` at ``path``; the root, a
    mapping, only gains a key."""
    if not path:
        return ["unknown"]
    kinds = ["type", "null", "missing"]
    if isinstance(value, dict):
        kinds += ["unknown", "empty"]
    elif isinstance(value, list):
        kinds += ["empty"] + (["repeat"] if value else [])
    elif _number(value):
        kinds += ["string", "extreme"]
    return kinds


def _mutate(config, rng):
    """Mutate one value of ``config`` in place; returns its description."""
    path, value = rng.choice(list(_paths(config)))
    kind = rng.choice(_kinds(path, value))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if kind == "unknown":
        value["extra"] = 1
    elif kind == "missing":
        del parent[path[-1]]
    elif kind == "repeat":
        value.append(copy.deepcopy(value[0]))
    else:
        parent[path[-1]] = {
            "type": lambda: copy.deepcopy(
                rng.choice([t for t in OTHER_TYPES if type(t) is not type(value)])),
            "null": lambda: None,
            "empty": lambda: [],
            "string": lambda: str(value),
            "extreme": lambda: rng.choice(EXTREMES),
        }[kind]()
    return f"{'.'.join(map(str, path)) or '(root)'}:{kind}"


def _small(command, config):
    """Whether ``config`` would stay a small run if it were valid.  A run
    that passes its checks does its full work, so a mutant may not ask for
    more than 20 replicates (a null or missing count means the default
    1000), more than 2 processes (each forks a pool child), or a scenario
    of more than 10^4 rows (a valid n up to ``MAX_ROWS`` is drawn and
    written); such mutants are drawn again."""
    if command == "synth":
        n = config.get("n")
        return not (_number(n) and 10**4 < n <= MAX_ROWS)
    boot = config.get("bootstrap")
    if not isinstance(boot, dict):
        return True
    replicates, workers = boot.get("replicates"), boot.get("workers")
    if boot.get("enabled") is True and (replicates is None or _number(replicates)
                                        and replicates > 20):
        return False
    return not (_number(workers) and workers > 2)


def mutants(seed, count):
    """``count`` mutants from ``seed``: (command, config, description) each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        command, base = rng.choice((("analyze", RUN), ("synth", SCENARIO)))
        config = copy.deepcopy(base)
        what = [_mutate(config, rng) for _ in range(rng.choice((1, 2)))]
        if _small(command, config):
            out.append((command, config, ",".join(what)))
    return out


@pytest.fixture(scope="module")
def csv_bytes(tmp_path_factory):
    """The CSV of ``SCENARIO``, 300 rows, which every analyze mutant reads."""
    root = tmp_path_factory.mktemp("mutant-data")
    (root / "s.yaml").write_text(yaml.safe_dump(SCENARIO), encoding="utf-8")
    assert main(["synth", "--config", str(root / "s.yaml"), "--out", str(root / "d.csv")]) == 0
    return (root / "d.csv").read_bytes()


# slice mutants that break the invariant, pinned until ROADMAP item 28 mends them
BROKEN = {
    93: "ROADMAP item 28: tau 1e-300 is valid, and its full-sample step-2 fit warns "
        "of separation before its replicates fail, so exit 2 prints more than one line",
}


@pytest.mark.parametrize("command, config, what", [
    pytest.param(*mutant, id=f"{i:03d}-{mutant[0]}-{mutant[2]}", marks=[
        pytest.mark.xfail(strict=True, raises=SeparationWarning, reason=BROKEN[i])
    ] if i in BROKEN else [])
    for i, mutant in enumerate(mutants(0, SLICE))])
def test_a_mutant_gives_a_result_or_one_error_line(
        command, config, what, csv_bytes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a mutated input or output path is relative
    if command == "analyze":
        (tmp_path / "data.csv").write_bytes(csv_bytes)
        out = "out"
    else:
        out = "x.csv"
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = main([command, "--config", "config.yaml", "--out", out])
    err = capsys.readouterr().err
    if rc != 0:
        assert rc == 2, what
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, \
            (what, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == before, what
