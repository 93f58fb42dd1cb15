"""The package's public name list and its module boundaries."""

import ast
from pathlib import Path

import quantcord

SRC = Path(quantcord.__file__).resolve().parent


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
