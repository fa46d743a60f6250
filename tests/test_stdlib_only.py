"""The package imports the standard library and itself only."""

import ast
import sys
from pathlib import Path

import arccodes

PACKAGE = Path(arccodes.__file__).parent


def _imported_top_levels(path: Path):
    """(line, top-level module) for each absolute import in one source file;
    relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_standard_library_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = [f"{path.name}:{line} imports {name}"
               for path in sources for line, name in _imported_top_levels(path)
               if name != "arccodes" and name not in sys.stdlib_module_names]
    assert not outside, outside


def test_import_scan_sees_third_party_names(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path\nfrom numpy import array\nfrom . import field\n"
                   "def f():\n    import hypothesis.strategies\n")
    assert list(_imported_top_levels(src)) == [(1, "os"), (2, "numpy"), (5, "hypothesis")]
