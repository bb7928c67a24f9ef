"""The runtime stays stdlib-only: every import in the package is
package-relative or names a standard-library module."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cobarext"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [(path.name, name) for path in sources
               for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
