"""Every module of the package uses the names it imports and binds the names
it exports, the package exports exactly the public names it binds, and
every private module-level name is read somewhere in the package."""

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


PACKAGE_FILES = sorted(Path(hematodyn.__file__).parent.glob("*.py"))


def private_module_names(tree):
    # _-prefixed (not dunder) names bound by the module's top-level statements
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(sources):
    # module:name for each private module-level name that no module reads
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for tree in trees.values() for name in names_read(tree)}
    return [f"{module}:{name}" for module, tree in trees.items()
            for name in sorted(private_module_names(tree)) if name not in read]


def test_every_private_module_name_is_read():
    # a private name that nothing in the package reads is dead code
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE_FILES}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("reader, unread", [
    ("", ["a.py:_C2", "a.py:_helper"]),
    ("def f():\n    return _C2 + _helper()\n", []),
    ("import a\nx = a._C2 + a._helper()\n", []),
    ("from a import _C2, _helper\n", []),
    ("_C2 = 1.0\n", ["a.py:_C2", "a.py:_helper", "b.py:_C2"]),
], ids=["nothing-reads", "name-load", "attribute", "from-import", "store-only"])
def test_unread_private_names_found(reader, unread):
    # a constant and a function bound in one module and read, or not, in
    # another; dunders and public names are never reported
    module = "__version__ = '1'\nPUBLIC = 2\n_C2 = 0.2\ndef _helper():\n    pass\n"
    assert unread_private_names({"a.py": module, "b.py": reader}) == unread
