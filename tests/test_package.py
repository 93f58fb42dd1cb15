"""The package's public name list and its module boundaries."""

import ast
import re
import sys
from pathlib import Path

import quantcord

SRC = Path(quantcord.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
RUNTIME_PACKAGES = {"numpy", "yaml", "quantcord"}


def _absolute_imports(path):
    """The modules that each absolute import statement in ``path`` names,
    a lazy one inside a function too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


class TestPublicNames:

    def test_all_has_no_duplicates(self):
        assert len(quantcord.__all__) == len(set(quantcord.__all__))

    def test_every_name_resolves(self):
        assert [n for n in quantcord.__all__ if not hasattr(quantcord, n)] == []
        namespace = {}
        exec("from quantcord import *", namespace)
        assert set(quantcord.__all__) <= set(namespace)


class TestModuleBoundaries:

    def test_no_module_imports_a_private_name_of_another(self):
        # a private name belongs to its module; another module that needs it
        # needs a public owner instead
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").startswith("quantcord")):
                    found += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                              if a.name.startswith("_") and not a.name.endswith("__")]
        assert found == []

    def test_every_import_is_stdlib_numpy_yaml_or_the_package(self):
        # TestImportClosure sees only the paths a test runs
        found = [f"{path.name}: {m}" for path in sorted(SRC.glob("*.py"))
                 for m in _absolute_imports(path)
                 if m.split(".")[0] not in sys.stdlib_module_names | RUNTIME_PACKAGES]
        assert found == []

    def test_only_the_config_layer_imports_yaml(self):
        # config reads the YAML files and turns PyYAML's errors into the
        # package's InvalidArgumentError, so no other module needs PyYAML
        found = [path.name for path in sorted(SRC.glob("*.py"))
                 if any(m.split(".")[0] == "yaml" for m in _absolute_imports(path))]
        assert found == ["config.py"]

    def test_runtime_dependencies_are_numpy_and_pyyaml(self):
        # read without tomllib, which Python 3.10 lacks
        text = PYPROJECT.read_text(encoding="utf-8")
        project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
        listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
        names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0)
                 for d in re.findall(r'"([^"]+)"', listed)}
        assert names == {"numpy", "PyYAML"}
