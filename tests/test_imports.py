"""Import hygiene of the package: no orphan imports, no dead private names.

Both checks read the source of every module of ``src/mlsa`` with ``ast`` and
import nothing.  An imported name counts as read where its module loads it
(``ast.Name``).  A private module-level name counts as read where its own
module loads it, where another module reads an attribute of that name
(``module._name``), or where another module imports it, which the first check
then holds to reading it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlsa"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree) -> set:
    """The names a module loads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _attributes(tree) -> set:
    """The attribute names a module reads, of any object."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _imports(tree):
    """``(bound name, imported name)`` of each top-level import but
    ``from __future__``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree):
    """The names bound at module level by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_read_or_exported(module):
    tree = MODULES[module]
    unused = {bound for bound, _ in _imports(tree)} - _loaded(tree) - _exported(tree)
    assert not unused, f"mlsa/{module}.py imports names it never reads: {sorted(unused)}"


def test_every_private_module_level_name_is_read():
    # read elsewhere: as ``module._name`` or by an import, whose reading the
    # test above checks
    reached = {module: _attributes(tree) | {name for _, name in _imports(tree)}
               for module, tree in MODULES.items()}
    dead = []
    for module, tree in MODULES.items():
        read = _loaded(tree).union(*(reached[m] for m in MODULES if m != module))
        dead += [f"{module}.{name}" for name in _defined(tree)
                 if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not dead, f"private names that no module of mlsa reads: {dead}"
