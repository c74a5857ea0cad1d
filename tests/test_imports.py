"""Every library module uses what it imports and reads no other module's private names,
every private name a module defines is read in that module, and every public name a
module defines is used by the library or a demo.

``src/otazone/__init__.py`` only re-exports, so it is left out. No module
is imported or run; each is parsed with ``ast``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "otazone").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
    tree = parse(path)
    private = [f"{module}.{name}" for _, module, name in imports(tree)
               if name is not None and name.startswith("_") and name != "__version__"]
    # a library module bound by name (``from . import field``) is read through attributes
    stems = {p.stem for p in MODULES}
    bound = {b for b, module, name in imports(tree) if (name or module.split(".")[-1]) in stems}
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")]
    assert not private, f"{path.name} reads private names {sorted(private)}"


def top_level_names(tree):
    """Names a module binds at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_name_is_read_in_its_module(path):
    tree = parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    dead = sorted(name for name in top_level_names(tree)
                  if name.startswith("_") and not name.startswith("__") and name not in read)
    assert not dead, f"{path.name} defines {dead} and never reads them"


def test_every_public_name_is_used():
    used = set()
    for path in MODULES + DEMOS:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(DEMOS) >= 4
    unused = sorted(f"{p.stem}.{name}" for p in MODULES for name in top_level_names(parse(p))
                    if not name.startswith("_") and name not in used)
    assert not unused, f"defined but used by no library module or demo: {unused}"
