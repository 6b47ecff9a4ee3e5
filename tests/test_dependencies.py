"""numpy is the package's only runtime dependency: every import in
``src/coopsim`` must name the standard library, numpy or the package itself
(scipy, hypothesis and pytest-benchmark are for tests and benchmarks)."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "coopsim").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coopsim"}


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay in the package
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    assert SOURCES
    foreign = {
        f"{path.name}: {root}" for path in SOURCES for root in _imported_roots(path) if root not in ALLOWED
    }
    assert not foreign, sorted(foreign)
