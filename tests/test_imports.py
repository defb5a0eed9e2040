"""Static checks on the package source: no module imports a name it leaves
unread, every module-level constant is read somewhere in the package, and
no function but those listed keeps module state between calls.  Then the
lazy package namespace: `import gpylab` loads only `errors`, and every
public name resolves on first use to the object its module defines."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# Module-level constants that no module of the package reads, with the reason
# each is kept.
UNREAD_CONSTANTS = {
    # Selects nothing since the divisor walk; only perfbench/workloads.py
    # reads it, until the benchmark's next change drops it.
    "weights.MAX_MASK_PRIMES",
    # The CLI coverage contract: tests/test_cli.py checks that every
    # operation it names has a working subcommand.
    "cli.OPERATION_MAP",
}


def _unread_constants(modules: dict) -> set:
    """`module.NAME` for each UPPER_CASE name bound at the top level of a
    module that no module loads, neither by name nor as an attribute."""
    bound, read = set(), set()
    for name, tree in modules.items():
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            bound |= {
                (name, t.id)
                for t in targets
                if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {f"{module}.{const}" for module, const in bound if const not in read}


def test_every_constant_in_the_package_is_read():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert _unread_constants(modules) == UNREAD_CONSTANTS


def test_an_unread_constant_is_found():
    a = ast.parse(
        "LIMIT = 3\n_STEP: int = 2\nKINDS = ('x',)\nlower = 1\n"
        "def f():\n    return _STEP\n"
    )
    b = ast.parse("from . import a\nprint(a.KINDS)\n")
    assert _unread_constants({"a": a, "b": b}) == {"a.LIMIT"}


# Functions that keep module state between calls, with the reason each is kept.
MODULE_STATE = {
    # One table of base primes serves every sieve call and grows to the
    # largest isqrt(hi) asked for.  With a base sieve per call, the 16 high
    # windows and two 10^7 tables of a progressions pass took 49-52 ms
    # against 39-41 ms.
    "primes._odd_base",
}


def _decorator_name(node: ast.expr) -> str | None:
    """The last name of a decorator: lru_cache for @functools.lru_cache(8)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _module_state(modules: dict) -> set:
    """`module.function` for each function that binds a module global by a
    `global` statement or is memoized by a `cache` or `lru_cache` decorator."""
    state = set()
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                any(isinstance(n, ast.Global) for n in ast.walk(node))
                or {"cache", "lru_cache"} & {_decorator_name(d) for d in node.decorator_list}
            ):
                state.add(f"{name}.{node.name}")
    return state


def test_no_module_keeps_state_between_calls():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert _module_state(modules) == MODULE_STATE


def test_module_state_is_found():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache\n_T = None\n"
        "@lru_cache(maxsize=8)\ndef f(n):\n    return n\n"
        "@functools.cache\ndef g(n):\n    return n\n"
        "def h():\n    global _T\n    _T = 1\n"
        "@staticmethod\ndef k(n):\n    return n\n"
    )
    assert _module_state({"a": tree}) == {"a.f", "a.g", "a.h"}


def _module_level(tree: ast.Module):
    """Every node the module runs at import: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(nodes) -> set:
    """The modules the import statements among nodes name: numpy for
    `import numpy as np`, gpylab.primes for `from . import primes` and for
    `from .primes import residues`."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "gpylab" if node.level else ""
            if node.module:
                out.add(".".join(filter(None, (base, node.module))))
            else:
                out |= {f"{base}.{a.name}" for a in node.names}
    return out


def _numpy_importers(modules: dict) -> set:
    """`module.function` for each function whose body imports numpy."""
    return {
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "numpy" in {m.split(".")[0] for m in _imported_modules(ast.walk(node))}
    }


# Modules whose import loads neither numpy nor the sieve: the scalar tuple
# and combi calls of the CLI load only these.
NUMPY_FREE = {"integers", "tuples", "combinat"}


def test_scalar_modules_load_numpy_only_inside_the_functions_that_build_arrays():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    for name in NUMPY_FREE:
        loaded = _imported_modules(_module_level(modules[name]))
        assert not {m for m in loaded if m.split(".")[0] == "numpy" or m == "gpylab.primes"}, name
    assert _numpy_importers(modules) == {"tuples.regular_classes", "combinat.divisor_mean_check"}


def test_module_level_and_function_imports_are_told_apart():
    tree = ast.parse(
        "from __future__ import annotations\nimport math\nfrom . import errors\n"
        "from .integers import factorize\nif True:\n    import numpy.linalg\n"
        "class C:\n    import os\n    def m(self):\n        from . import primes\n"
        "def f():\n    import numpy as np\n    return np\n"
        "def g():\n    from numpy import ones\n    return ones\n"
    )
    assert _imported_modules(_module_level(tree)) == {
        "__future__", "math", "gpylab.errors", "gpylab.integers", "numpy.linalg", "os"
    }
    assert _numpy_importers({"a": tree}) == {"a.f", "a.g"}


SUBMODULES = {"primes", "singular", "tuples", "weights"}


def test_import_gpylab_loads_errors_only_and_submodules_on_first_use():
    probe = (
        "import sys, gpylab\n"
        "print(*sorted(m for m in sys.modules if m.startswith('gpylab.')))\n"
        "print(gpylab.weights is sys.modules['gpylab.weights'], gpylab.TupleH.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["gpylab.errors", "True gpylab.tuples"]


def test_every_public_name_resolves_to_the_object_its_module_defines():
    for name in gpylab.__all__:
        obj = getattr(gpylab, name)
        assert obj.__module__.startswith("gpylab."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    for name in SUBMODULES:
        assert getattr(gpylab, name) is sys.modules[f"gpylab.{name}"]
    star = {}
    exec("from gpylab import *", star)
    assert all(star[name] is getattr(gpylab, name) for name in gpylab.__all__)
    assert set(gpylab.__all__) | SUBMODULES <= set(dir(gpylab))
    with pytest.raises(AttributeError, match="no_such_name"):
        gpylab.no_such_name
