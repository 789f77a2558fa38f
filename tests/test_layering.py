"""Module boundaries: only ``tensor.py`` reaches the engine's private names."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import casep
from casep import tensor

SRC = Path(casep.__file__).parent

# ``chunking.overlap_add`` is still its own graph node, built with the
# engine's internals; perfbench's tracer test expects ``chunking._from_op``.
ALLOWED = {"chunking.py": {"_accum", "_frames", "_from_op", "_overlap_sum"}}


def private_tensor_names(tree: ast.Module) -> set[str]:
    """Underscore names taken from ``.tensor``: imported from it, or read as
    attributes of a ``from . import tensor`` binding."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == "tensor" and alias.name.startswith("_"):
                    names.add(alias.name)
                elif node.module is None and alias.name == "tensor":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_private_tensor_names_stay_in_tensor():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tensor.py":
            extra = (private_tensor_names(ast.parse(path.read_text()))
                     - ALLOWED.get(path.name, set()))
            if extra:
                found[path.name] = sorted(extra)
    assert found == {}


def test_package_import_loads_no_submodule():
    # callers import the submodule they use; the package itself is empty
    code = ("import sys, casep\n"
            "print(sorted(m for m in sys.modules if m.startswith('casep.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout == "[]\n"


def test_scanner_sees_both_import_forms():
    tree = ast.parse("from .tensor import Tensor, _accum\n"
                     "from . import tensor as T\n"
                     "y = T._frames(x) + T.add(x, x)\n")
    assert private_tensor_names(tree) == {"_accum", "_frames"}


def imported_packages(tree: ast.Module) -> set[str]:
    """Top-level names of the packages ``tree`` imports, at any depth (inside
    functions too); a relative import names the package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("casep" if node.level else node.module.split(".")[0])
    return found


def test_the_only_runtime_dependency_is_numpy():
    allowed = sys.stdlib_module_names | {"numpy", "casep"}
    found = {path.name: sorted(imported_packages(ast.parse(path.read_text())) - allowed)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: extra for name, extra in found.items() if extra} == {}


def test_dependency_scanner_sees_every_import_form():
    tree = ast.parse("import numpy.linalg as la, os\n"
                     "from . import tensor\n"
                     "from .nn import Module\n"
                     "def f():\n"
                     "    from scipy import signal\n")
    assert imported_packages(tree) == {"numpy", "os", "casep", "scipy"}


def test_from_op_takes_three_positional_arguments():
    # perfbench's tracer and the node-count tests wrap ``_from_op`` with
    # ``def f(data, parents, backward)``; another parameter would break them
    params = inspect.signature(tensor._from_op).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("data", "parents", "backward")]
