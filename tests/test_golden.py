"""Golden outputs: ``simulate`` (metrics.csv, summary.json, --queues),
``sweep`` stdout and ``drift-check`` stdout at fixed seeds, compared byte
for byte.

These files pin the deterministic output contract across refactors of the
block loop.  An intended change to any of them must be named column by
column in CHANGES.md.  To recapture after such a change, run this file as a
script from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from coopsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SIM_FILES = ("metrics.csv", "summary.json", "queues.csv")

# name -> (config, simulate arguments), loads as multiples of rho* along
# (1, 1) (desk rho* = 1.213, toy rho* = 0.5).  Every horizon spans more
# than one of the simulator's chunks and ends in a partial one.
SIMULATE_CASES = {
    "desk_09rho": ("desk", ["--lambda", "1.0917,1.0917", "--horizon", "600", "--seed", "3"]),
    "desk_15rho": ("desk", ["--lambda", "1.8,1.8", "--horizon", "600", "--seed", "4"]),
    "desk_idle_batch": (
        "desk",
        ["--lambda", "0.6,0.45", "--horizon", "600", "--seed", "5",
         "--allow-idle", "--arrival", "bernoulli-batch"],
    ),
    "desk_constant": ("desk", ["--lambda", "0.85,0.7", "--horizon", "500", "--seed", "6",
                               "--arrival", "constant"]),
    "goodbad_09rho": ("toy_goodbad", ["--lambda", "0.45", "--horizon", "1000", "--seed", "7"]),
    "single_idle_batch": (
        "toy_single",
        ["--lambda", "0.3", "--horizon", "600", "--seed", "8",
         "--allow-idle", "--arrival", "bernoulli-batch"],
    ),
}
# name -> (config, drift-check arguments): desk at 0.8 rho* with Qs = 5e4,
# desk beyond rho* with every relay queue filled (positive drift), and
# toy_single on its growth ray.
DRIFT_CASES = {
    "drift_desk_interior": ("desk", ["--lambda", "0.97", "--qs", "50000", "--samples", "4000", "--seed", "11"]),
    "drift_desk_exterior": (
        "desk",
        ["--lambda", "1.82", "--qs", "50000", "--relay-fill", "2000", "--samples", "4000", "--seed", "12",
         "--arrival", "bernoulli-batch"],
    ),
    "drift_single": ("toy_single", ["--lambda", "0.75", "--qs", "10000", "--relay-fill", "4000",
                                    "--samples", "3000", "--seed", "13"]),
}
SWEEP_SPEC = {"direction": [1.0, 1.0], "load_factors": [0.5, 1.5], "horizon": 1500, "seeds": [1, 2]}


def _simulate(name: str, out: Path) -> None:
    config, args = SIMULATE_CASES[name]
    argv = ["simulate", str(ROOT / "configs" / f"{config}.json"), *args,
            "--out", str(out), "--queues", "queues.csv"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _sweep(spec_dir: Path) -> bytes:
    spec = spec_dir / "sweep_spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["sweep", str(ROOT / "configs" / "desk.json"), str(spec), "--jobs", "1"]) == 0
    return buf.getvalue().encode()


def _drift(name: str) -> bytes:
    config, args = DRIFT_CASES[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["drift-check", str(ROOT / "configs" / f"{config}.json"), *args]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_matches_golden(name, tmp_path):
    _simulate(name, tmp_path)
    for fname in SIM_FILES:
        got = (tmp_path / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"


def test_sweep_matches_golden(tmp_path):
    assert _sweep(tmp_path) == (GOLDEN / "sweep_desk.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(DRIFT_CASES))
def test_drift_check_matches_golden(name):
    assert _drift(name) == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for case in SIMULATE_CASES:
        _simulate(case, GOLDEN / case)
    (GOLDEN / "sweep_desk.txt").write_bytes(_sweep(GOLDEN))
    (GOLDEN / "sweep_spec.json").unlink()
    for case in DRIFT_CASES:
        (GOLDEN / f"{case}.txt").write_bytes(_drift(case))
    print(f"captured {len(SIMULATE_CASES)} simulate cases, one sweep and {len(DRIFT_CASES)} drift checks "
          f"under {GOLDEN}", file=sys.stderr)
