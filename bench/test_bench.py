"""Tests of the benchmark's own arithmetic: the tail rule, span self times,
the failed-operation tally, the fastest-run reduction and the HiGHS
reference adapter.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer, merge, self_times  # noqa: E402
from stats import Tally, tail  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, beyond = tail(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert tail([5.0] * 11) == (5.0, 100.0 / 11, 10)
    value, pct, beyond = tail([float(x) for x in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    assert tail([]) is None


def test_self_time_subtracts_direct_children_only():
    # 0: root [0, 100]; 1: child [10, 40]; 2: grandchild [15, 25]; 3: child [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30.0, 20.0, 10.0, 40.0]


def test_tracer_records_nesting_traces_and_self_time():
    import types

    mod = types.SimpleNamespace(__name__="fake")
    mod.leaf = lambda x: x + 1
    mod.task = lambda x: mod.leaf(x) * 2
    tr = Tracer()
    tr.wrap(mod, "leaf", "leaf")
    tr.wrap(mod, "task", "task", new_trace=True)
    tr.wrap(mod, "absent", "absent")
    with tr.span("op"):
        assert mod.task(1) == 4
        assert mod.task(2) == 6
    tr.unwrap()
    assert tr.missing == ["fake.absent"]
    assert mod.task(3) == 8 and tr.columns()["start"].size == 5  # unwrapped: no new spans
    col = tr.columns()
    names = [tr.names[i] for i in col["name_id"]]
    assert names == ["op", "task", "leaf", "task", "leaf"]
    assert col["parent"].tolist() == [-1, 0, 1, 0, 3]
    assert col["trace"].tolist() == [0, 1, 1, 2, 2]  # each task starts its own trace
    agg = tr.aggregate()
    assert agg["task"]["calls"] == 2 and agg["leaf"]["calls"] == 2
    assert agg["op"]["self_ns"] == pytest.approx(agg["op"]["total_ns"] - agg["task"]["total_ns"])
    assert agg["task"]["self_ns"] == pytest.approx(agg["task"]["total_ns"] - agg["leaf"]["total_ns"])
    both = merge([agg, agg])
    assert both["leaf"]["calls"] == 4 and both["op"]["total_ns"] == 2 * agg["op"]["total_ns"]


def test_tally_counts_each_operation_once():
    tally = Tally()
    assert tally.failed_frac == 0.0
    assert tally.record("a", [])
    assert not tally.record("b", ["wrong optimum", "constraint broken"])
    assert tally.record("c", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.problems == ["b: wrong optimum; constraint broken"]


def test_best_takes_each_least_time_and_keeps_every_run():
    from workloads import Op, best, passes

    runs = [Op(3.0, 10, 2.0, "x", {}), Op(2.5, 10, 2.2, "x", {}), Op(4.0, 10, 1.9, "x", None)]
    op = best(runs)
    assert (op.seconds, op.work, op.work_seconds, op.identity) == (2.5, 10, 1.9, "x")
    assert op.output is None and op.runs == [3.0, 2.5, 4.0]
    assert passes([op]) == "3"
    assert passes([op, best(runs[:1])]) == "1-3"


@pytest.mark.parametrize("name", ["toy_single", "toy_goodbad"])
def test_highs_adapter_matches_toy_closed_form(name):
    pytest.importorskip("scipy")
    import coopsim as cs
    from highs import highs_value

    cfg = cs.load_config(HERE.parent / "configs" / f"{name}.json")
    assert highs_value(cs.build_scale_lp(cfg, [1.0])) == pytest.approx(0.5, abs=1e-7)


def test_highs_adapter_applies_objective_shift():
    pytest.importorskip("scipy")
    import coopsim as cs
    from highs import highs_value

    cfg = cs.load_config(HERE.parent / "configs" / "toy_single.json")
    lp = cs.build_slack_lp(cfg, [0.4])
    assert lp.objective_shift > 0
    assert highs_value(lp) == pytest.approx(1.0 / 15.0, abs=1e-7)
