"""Facts about the package's source as a whole: it runs on the standard
library alone and leaves interpreter state as it found it."""

import ast
import pathlib
import sys

import loopforge

MODULES = sorted(pathlib.Path(loopforge.__file__).parent.glob("*.py"))


def imported_names(tree):
    """The top-level package of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_module_found():
    assert {m.stem for m in MODULES} >= {"__init__", "loopsearch", "aon", "waterwalk"}


def test_runtime_imports_are_stdlib_or_the_package():
    for module in MODULES:
        tree = ast.parse(module.read_text(), str(module))
        outside = {name for name in imported_names(tree)
                   if name != "loopforge" and name not in sys.stdlib_module_names}
        assert not outside, f"{module.name} imports {sorted(outside)}"


def test_no_module_sets_the_recursion_limit():
    for module in MODULES:
        tree = ast.parse(module.read_text(), str(module))
        named = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit"
                 or isinstance(node, ast.Name) and node.id == "setrecursionlimit"
                 or isinstance(node, ast.alias) and node.name.endswith("setrecursionlimit")]
        assert not named, f"{module.name} names sys.setrecursionlimit"
