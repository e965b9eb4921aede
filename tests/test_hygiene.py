"""Source hygiene of ``src/distcode``, by AST: every imported name is used
in its module, and every private module-level name is used somewhere in the
package, so none is dead code."""

import ast
import pathlib

import pytest

import distcode

SRC = pathlib.Path(distcode.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used(node, attributes=True) -> set[str]:
    """Names that ``node`` reads, and with ``attributes`` each attribute
    name (``module._name`` reads ``_name``)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _defined(stmt) -> set[str]:
    """Names that the module-level statement ``stmt`` binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _imports(tree) -> list[str]:
    """The names that a module's own import statements bind."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(name):
    used = _used(TREES[name], attributes=False)
    assert [n for n in _imports(TREES[name]) if n not in used] == []


def test_every_private_module_name_is_referenced():
    # A name's own definition does not count, so a recursive helper with no
    # other caller is still reported.
    private, used = {}, set()
    for name, tree in TREES.items():
        for stmt in tree.body:
            own = _defined(stmt)
            private.update(
                (n, name) for n in own if n.startswith("_") and not n.startswith("__")
            )
            used |= _used(stmt) - own
    assert sorted(f"{module}:{n}" for n, module in private.items() if n not in used) == []
