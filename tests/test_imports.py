"""Every module of the package uses the names it imports and binds the names
it exports, and the package exports exactly the public names it binds."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import hematodyn

MODULES = sorted(
    path for path in Path(hematodyn.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unbound_exports(source: str):
    # names in the module's __all__ that no top-level statement binds
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {target.id for target in targets if isinstance(target, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


PACKAGE_MODULES = [path.stem for path in MODULES if path.stem not in {"__main__", "cli"}]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_exports_every_module_export(name):
    module = importlib.import_module(f"hematodyn.{name}")
    assert [n for n in module.__all__ if getattr(hematodyn, n, None) is not getattr(module, n)] == []


def test_package_all_matches_its_public_names():
    exported = hematodyn.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(hematodyn, name)] == []
    public = {
        name for name, value in vars(hematodyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(exported)) == []
