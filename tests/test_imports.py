"""Static checks on the package source: no module imports a name it leaves
unread."""

import ast
from pathlib import Path

import gpylab

SRC = Path(gpylab.__file__).parent


def _unread_imports(tree: ast.Module) -> set:
    """Names the module binds by import but neither loads nor lists in
    __all__; `from __future__` imports bind nothing to read."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_every_import_in_the_package_is_read():
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        names = _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unread[path.name] = sorted(names)
    assert unread == {}


def test_an_unread_import_is_found():
    tree = ast.parse("from .tuples import TupleH\nimport math\nimport numpy as np\nnp.ones(1)\n")
    assert _unread_imports(tree) == {"TupleH", "math"}
    tree = ast.parse("from .errors import GpyError\n__all__ = ['GpyError']\n")
    assert _unread_imports(tree) == set()
