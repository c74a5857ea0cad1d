"""Every name a demo imports from otazone exists, and every call it makes to one binds
to that name's signature; no demo is run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def otazone_imports(tree):
    """(bound name, module, name) per name the script imports from otazone; name None for a
    plain import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module.split(".")[0] == "otazone"):
            yield from ((a.asname or a.name, node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.asname or "otazone", a.name, None) for a in node.names
                        if a.name.split(".")[0] == "otazone")


def otazone_calls(tree):
    """(call node, callee) per call the script makes to a name or module it imports from otazone.

    A call that unpacks ``*args`` or ``**kwargs`` has no arity without running the
    script, so it is left out.
    """
    bound = {}
    for as_name, module, name in otazone_imports(tree):
        mod = importlib.import_module(module)
        # a plain ``import otazone.x`` binds the package, ``import otazone.x as y`` the module
        bound[as_name] = getattr(mod, name) if name else importlib.import_module(
            "otazone" if as_name == "otazone" else module)

    def resolve(func):
        if isinstance(func, ast.Name):
            return bound.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = resolve(func.value)
            return getattr(owner, func.attr) if inspect.ismodule(owner) else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not any(isinstance(a, ast.Starred) for a in node.args) \
                and all(kw.arg is not None for kw in node.keywords):
            callee = resolve(node.func)
            if callable(callee):
                yield node, callee


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(otazone_imports(parse(path)))
    assert imports, f"{path.name} imports nothing from otazone"
    for _, module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module}.{name} is gone"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_calls_bind(path):
    # placeholder arguments: only the count of positional ones and the keyword names matter
    calls = list(otazone_calls(parse(path)))
    assert calls, f"{path.name} calls nothing from otazone"
    for node, callee in calls:
        try:
            inspect.signature(callee).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno}: {ast.unparse(node)}: {exc}")
