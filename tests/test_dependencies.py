"""numpy is the package's only runtime dependency: every module under
src/ffdist imports only the standard library, numpy or ffdist itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ffdist").glob("*.py"))
ALLOWED = {"ffdist", "numpy"}


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_are_stdlib_numpy_or_relative():
    assert len(SOURCES) > 10
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _top_level_imports(path)
        if name.split(".")[0] not in ALLOWED | sys.stdlib_module_names
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"
