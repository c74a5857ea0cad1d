"""Every name a demo imports from otazone exists; no demo is run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def otazone_imports(path):
    """(module, name) per name the script imports from otazone; name None for a plain import."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "otazone" or node.module.startswith("otazone.")):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "otazone")


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(otazone_imports(path))
    assert imports, f"{path.name} imports nothing from otazone"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module}.{name} is gone"
