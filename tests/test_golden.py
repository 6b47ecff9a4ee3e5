"""Golden outputs: ``simulate`` (metrics.csv, summary.json, --queues),
``sweep`` stdout at fixed seeds, ``drift-check`` stdout, and ``region``
stdout on desk, compared byte for byte; each ``drift-check`` value is also
held within 1e-12 relative to ``oracles.expected_drift``.

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

import coopsim as cs
from coopsim.cli import main
from oracles import expected_drift

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
    "drift_desk_interior": ("desk", ["--lambda", "0.97", "--qs", "50000"]),
    "drift_desk_exterior": (
        "desk",
        ["--lambda", "1.82", "--qs", "50000", "--relay-fill", "2000", "--arrival", "bernoulli-batch"],
    ),
    "drift_single": ("toy_single", ["--lambda", "0.75", "--qs", "10000", "--relay-fill", "4000"]),
}
# desk region directions: (1, 1), test_region.py's PINNED_DIRECTION, two
# skewed ones and one that scales rho* down to 1.5e-10; the witness JSON is
# taken along the first.
REGION_DIRECTIONS = ("1,1", "0.6263039869788208,0.7430217329347985", "0.2,1", "1,0.3", "1e10,1")
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


def _region() -> bytes:
    desk = str(ROOT / "configs" / "desk.json")
    runs = [["region", desk, "--direction", d] for d in REGION_DIRECTIONS]
    runs.append(["region", desk, "--direction", REGION_DIRECTIONS[0], "--witness"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for argv in runs:
            assert main(argv) == 0
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


@pytest.mark.parametrize("name", sorted(DRIFT_CASES))
def test_drift_golden_is_the_expected_drift(name):
    config_name, args = DRIFT_CASES[name]
    flags = dict(zip(args[::2], args[1::2]))
    config = cs.load_config(ROOT / "configs" / f"{config_name}.json")
    k = config.shape.num_destinations
    probe = cs.QueueState.zeros(config)
    probe.source[:] = float(flags["--qs"])
    probe.relay[:] = float(flags.get("--relay-fill", 0.0))
    arrivals = cs.ArrivalConfig((float(flags["--lambda"]),) * k, flags.get("--arrival", "uniform-integer"))
    name_dv, value = (GOLDEN / f"{name}.txt").read_text().split(",")
    exact = expected_drift(config, arrivals, probe)
    assert name_dv == "mean_dv" and abs(float(value) - exact) <= 1e-12 * abs(exact)


def test_region_matches_golden():
    assert _region() == (GOLDEN / "region_desk.txt").read_bytes()


if __name__ == "__main__":
    for case in SIMULATE_CASES:
        _simulate(case, GOLDEN / case)
    (GOLDEN / "sweep_desk.txt").write_bytes(_sweep(GOLDEN))
    (GOLDEN / "sweep_spec.json").unlink()
    for case in DRIFT_CASES:
        (GOLDEN / f"{case}.txt").write_bytes(_drift(case))
    (GOLDEN / "region_desk.txt").write_bytes(_region())
    print(f"captured {len(SIMULATE_CASES)} simulate cases, one sweep, {len(DRIFT_CASES)} drift checks "
          "and the desk region queries "
          f"under {GOLDEN}", file=sys.stderr)
