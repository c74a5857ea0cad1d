"""Every library module uses what it imports and reads no other module's private names.

``src/otazone/__init__.py`` only re-exports, so it is left out. No module
is imported or run; each is parsed with ``ast``.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "otazone").glob("*.py")
                 if p.name != "__init__.py")
# (importing module, imported module, private name): why the import is allowed
PRIVATE_ALLOWED = {
    ("tolerance", "testzone", "_kernel_blocks"):
        "tolerance._contrib gathers the row-lattice kernel; it moves behind testzone when "
        "the benchmark's tracer targets can move with it",
}


def imports(tree):
    """(bound name, module, imported name) per name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or "", alias.name


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(bound for bound, _, _ in imports(tree) if bound not in used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_name_from_another_module(path):
    private = {(path.stem, module.split(".")[-1], name) for _, module, name in imports(parse(path))
               if name is not None and name.startswith("_") and name != "__version__"}
    assert private <= set(PRIVATE_ALLOWED), f"{path.name}: {sorted(private - set(PRIVATE_ALLOWED))}"


def test_every_allowed_private_import_is_still_made():
    made = {(p.stem, module.split(".")[-1], name) for p in MODULES
            for _, module, name in imports(parse(p))}
    assert set(PRIVATE_ALLOWED) <= made
