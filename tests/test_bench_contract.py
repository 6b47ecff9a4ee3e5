"""What the benchmark under bench/ reads of the package.

The benchmark calls more of coopsim than its public functions: it builds
``queueing.QueueState.zeros`` probes, digests ``Metrics.final_state.source``
and ``.relay``, hands ``LinearProgram.matrix``, ``.senses``, ``.rhs`` and
``.objective_shift`` to HiGHS, and its tracer patches module attributes by
name.  Each workload here is set up as ``bench/run.py`` sets it up (desk,
rho* along (1,1)), runs the first operation of seed 0 and passes the
benchmark's own checks, so a package change that would make the benchmark
fail fails this test first.
"""

import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import coopsim as cs
import coopsim.cli  # noqa: F401  the benchmark reaches the CLI as cs.cli

pytest.importorskip("scipy")  # the benchmark checks every LP against HiGHS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["desk-simulate", "desk-region", "desk-drift"]

# Attributes the tracer wraps that the package no longer has; the traced run
# reports them as "not wrapped".  Any other missing attribute is a break.
STALE_WRAPS = [
    "coopsim.sim.decide",
    "coopsim.sim.lyapunov",
    "coopsim.sim.apply_first_hop",
    "coopsim.sim.apply_second_hop",
    "coopsim.sim.apply_idle",
    "coopsim.sim.sample_fading",
    "coopsim.sim.generate_arrivals",
]


@pytest.fixture(scope="module")
def bench():
    """bench/run.py imported from a checkout root, its environment edits undone."""
    cwd = os.getcwd()
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        os.chdir(ROOT)  # run.py takes the checkout root from the working directory
        with mock.patch.dict(os.environ):
            import run
    finally:
        os.chdir(cwd)
    yield run
    sys.path.remove(str(ROOT / "bench"))


def test_every_workload_is_covered(bench):
    assert sorted(bench.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_sets_up_runs_and_passes_its_checks(bench, name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("COOPSIM_OUTPUT_DIR", raising=False)
    tally = bench.Tally()
    wl, rho = bench.setup_body(cs, bench.WORKLOADS[name], 0, tmp_path)
    lp = cs.region.build_scale_lp(wl.cfg, bench.ONES)
    assert bench.lp_problems(cs, wl.cfg, rho, lp, tally, direction=np.asarray(bench.ONES)) == []
    assert wl.setup_problems() == []
    p = next(wl.params(np.random.default_rng(0)))
    assert wl.check(p, wl.run(p), tally) == []


def test_tracer_finds_every_wrapped_attribute(bench):
    tracer = bench.Tracer()
    try:
        bench.instrument(tracer, cs)
    finally:
        tracer.unwrap()
    assert tracer.missing == STALE_WRAPS
