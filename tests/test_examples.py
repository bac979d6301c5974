"""The shipped examples must at least import: no tier-1 test runs them
(some take minutes), so a deleted or renamed export would otherwise
break an entry point README.md lists while the suite stays green."""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1]
                   / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_every_repro_import_of_the_example_resolves(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
