"""numpy is the package's only runtime dependency: every import in
``src/coopsim`` must name the standard library, numpy or the package itself
(scipy, hypothesis and pytest-benchmark are for tests and benchmarks)."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import coopsim

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


# What ``import coopsim`` offers; adding or removing an export edits this list.
# Submodules are left out: which of them are attributes depends on what
# has been imported so far.
PUBLIC_SURFACE = [
    "ArrivalConfig", "ConfigError", "CountOverflowError", "DegeneracyError", "DriftEstimate",
    "FIRST_HOP", "IDLE", "LinearProgram", "Metrics", "NetworkConfig", "NetworkShape",
    "QueueState", "RegionWitness", "SECOND_HOP", "SolverError", "StabilityVerdict",
    "build_scale_lp", "build_slack_lp", "drift_check", "load_config",
    "queue_count_encoding_based", "queue_count_state_based", "run", "scale_witness",
    "slack_witness", "solve_lp", "stability_verdict", "validate_config", "witness_max_violation",
]


def test_public_surface():
    exported = sorted(
        name for name, value in vars(coopsim).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == PUBLIC_SURFACE
