"""Facts about the package's source as a whole: it runs on the standard
library alone, leaves interpreter state as it found it, imports no name it
never uses, and the README's library example runs."""

import ast
import pathlib
import re
import sys

import loopforge

MODULES = sorted(pathlib.Path(loopforge.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# names a module imports only for others to read from it: perfbench's
# tracer rebinds these searches wherever a module holds them
RE_EXPORTS = {("aon", "search_loops"), ("reduction", "search_paths")}


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


def bound_imports(tree):
    """The name each import at any depth of ``tree`` binds, with its line;
    ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    for module in MODULES:
        if module.name == "__init__.py":  # its imports are the package's names
            continue
        tree = ast.parse(module.read_text(), str(module))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [(name, line) for name, line in bound_imports(tree)
                  if name not in used and (module.stem, name) not in RE_EXPORTS]
        assert not unused, f"{module.name} imports names it never uses: {unused}"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    exec(compile(block, f"{README}:Library", "exec"), {})
