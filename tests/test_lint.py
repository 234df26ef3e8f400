"""Dead-code checks over src/stillwatch, standing in for a linter.

Two rules, read off each module's syntax tree:
- every imported name is used in its module or listed in its `__all__`;
- every module-level function, class and assigned name is named somewhere
  in src/stillwatch besides its own definition, or is in its module's
  `__all__`.

A third caps the package's public names and holds each to a class or a
function.
"""

import ast
import inspect
from pathlib import Path

import pytest

import stillwatch

# The most names `stillwatch.__all__` may hold, `__version__` included.
MAX_PUBLIC_NAMES = 31

SRC = Path(__file__).resolve().parent.parent / "src" / "stillwatch"
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}


def exported(tree: ast.Module) -> set[str]:
    """The names in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def used(tree: ast.AST) -> set[str]:
    """Every name the tree reads, as a variable or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def defined(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used_or_exported(module):
    tree = MODULES[module]
    assert imported(tree) - used(tree) - exported(tree) == set()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_level_name_is_named_elsewhere_or_exported(module):
    tree = MODULES[module]
    # Names read anywhere in the package, and names other modules import.
    named = set().union(*map(used, MODULES.values()))
    for other, other_tree in MODULES.items():
        if other != module:
            named |= {
                alias.name for node in ast.walk(other_tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
    assert defined(tree) - named - exported(tree) == set()


def test_public_names_are_capped_and_resolve():
    names = stillwatch.__all__
    assert len(names) == len(set(names)) <= MAX_PUBLIC_NAMES
    assert "__version__" in names
    assert all(hasattr(stillwatch, name) for name in names)
    # Each is a class or a function: a bare value would be a second spelling of
    # something the package already names, as a Literal's strings.
    objects = {name: getattr(stillwatch, name) for name in names if name != "__version__"}
    assert [name for name, obj in objects.items()
            if not (inspect.isclass(obj) or inspect.isfunction(obj))] == []
