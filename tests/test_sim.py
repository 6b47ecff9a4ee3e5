import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import coopsim as cs
from coopsim.sim import METRICS_COLUMNS, _draws, summary_dict, write_metrics_csv
from conftest import make_doc


def test_arrival_validation():
    with pytest.raises(ValueError):
        cs.ArrivalConfig(rates=(-0.1,))
    with pytest.raises(ValueError):
        cs.ArrivalConfig(rates=(0.5,), distribution="poisson")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cs.ArrivalConfig(rates=(0.5, bad))


def _arrivals(config, rates, horizon, seed, **kwargs):
    """The (K, horizon) arrivals a run of ``config`` draws for ``rates``."""
    return _draws(config, cs.ArrivalConfig(rates=rates, **kwargs), horizon, seed)[1]


def test_uniform_integer_bounds_and_mean(toy_single):
    draws = _arrivals(toy_single, (0.5,), 100_000, 1)[0]
    assert draws.min() >= 0 and draws.max() <= 10
    assert np.all(draws == np.round(draws))
    assert abs(draws.mean() - 5.0) <= 0.05


def test_uniform_integer_exact_mean_fractional(toy_single):
    # mean must be rate*T even when it is not an integer
    draws = _arrivals(toy_single, (0.675,), 400_000, 2)[0]
    assert draws.max() <= 2 * 6 + 1
    assert abs(draws.mean() - 6.75) <= 0.05


def test_zero_rate_always_zero(toy_single):
    assert _arrivals(toy_single, (0.0,), 1000, 3).sum() == 0.0


def test_constant_distribution(toy_single):
    assert _arrivals(toy_single, (0.5,), 3, 4, distribution="constant").tolist() == [[5.0] * 3]


def test_bernoulli_batch(toy_single):
    draws = _arrivals(toy_single, (0.5,), 200_000, 5, distribution="bernoulli-batch")[0]
    assert set(np.unique(draws)) == {0.0, 10.0}
    assert abs(draws.mean() - 5.0) <= 0.1


def test_draws_order_destinations():
    two = cs.validate_config(make_doc(k=2, rates=((1.0, 1.0),)))
    assert _arrivals(two, (0.0, 0.5), 2, 0, distribution="constant").tolist() == [[0.0, 0.0], [5.0, 5.0]]
    # one substream per destination: destination 1 does not see destination 0's rate
    a = _arrivals(two, (0.2, 0.7), 500, 6)
    b = _arrivals(two, (0.9, 0.7), 500, 6)
    assert np.array_equal(a[1], b[1]) and not np.array_equal(a[0], b[0])


def test_draws_reject_rate_count_mismatch(toy_single):
    with pytest.raises(ValueError, match="1 entries"):
        _arrivals(toy_single, (0.5, 0.5), 10, 0)
    with pytest.raises(ValueError, match="1 entries"):
        cs.drift_check(toy_single, cs.ArrivalConfig(rates=(0.5, 0.5)), cs.QueueState.zeros(toy_single), 10)


# -- run --------------------------------------------------------------------


def test_toy_trace_alternates(toy_single):
    m = cs.run(toy_single, cs.ArrivalConfig(rates=(0.0,)), horizon=4, seed=1)
    assert m.variants.tolist() == [0, 1, 0, 1]
    assert m.relay_backlog.tolist() == [10.0, 0.0, 10.0, 0.0]
    summary = summary_dict(m, cs.stability_verdict(m))
    assert summary["fraction_first_hop"] == 0.5 and summary["fraction_second_hop"] == 0.5


def test_idle_fixed_point(toy_single):
    m = cs.run(toy_single, cs.ArrivalConfig(rates=(0.0,)), horizon=50, seed=1, allow_idle=True)
    assert np.all(m.variants == 2)
    assert m.source_backlog.sum() == 0.0 and m.relay_backlog.sum() == 0.0
    assert summary_dict(m, cs.stability_verdict(m))["fraction_idle"] == 1.0


def test_run_determinism(toy_goodbad):
    arr = cs.ArrivalConfig(rates=(0.3,))
    a = cs.run(toy_goodbad, arr, horizon=2000, seed=9)
    b = cs.run(toy_goodbad, arr, horizon=2000, seed=9)
    for field in ("source_backlog", "relay_backlog", "lyapunov", "variants", "weight_first"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = cs.run(toy_goodbad, arr, horizon=2000, seed=10)
    assert not np.array_equal(a.variants, c.variants)


def test_exactly_one_action_per_block(desk):
    m = cs.run(desk, cs.ArrivalConfig(rates=(0.4, 0.4)), horizon=3000, seed=2)
    assert set(np.unique(m.variants)) <= {0, 1}  # idle off never idles
    summary = summary_dict(m, cs.stability_verdict(m))
    assert summary["fraction_first_hop"] + summary["fraction_second_hop"] + summary["fraction_idle"] == pytest.approx(1.0)


def test_second_hop_decisions_respect_support(toy_goodbad, desk):
    for cfg, rates in ((toy_goodbad, (0.3,)), (desk, (0.5, 0.5))):
        m = cs.run(cfg, cs.ArrivalConfig(rates=rates), horizon=4000, seed=3)
        states = cfg.sorted_states
        for t in np.nonzero(m.variants == 1)[0]:
            f2 = states[m.fading_state_idx[t]][1]
            g1 = m.g1_space[m.decision_g1[t]]
            assert (int(m.decision_m[t]), g1, f2) in cfg.support


def test_series_lengths_and_delivered_cap(desk):
    h = 2500
    m = cs.run(desk, cs.ArrivalConfig(rates=(0.5, 0.5)), horizon=h, seed=4)
    for field in ("source_backlog", "relay_backlog", "relay_backlog_bits", "lyapunov", "variants"):
        assert len(getattr(m, field)) == h
    assert np.all(m.delivered_bits <= m.offered_bits + 1e-9)
    assert np.all(m.delivered_bits >= 0)


def test_final_state_matches_series(toy_goodbad, desk):
    for cfg, rates in ((toy_goodbad, (0.3,)), (desk, (0.5, 0.5))):
        m = cs.run(cfg, cs.ArrivalConfig(rates=rates), horizon=500, seed=6)
        assert m.final_state.source.sum() == m.source_backlog[-1]
        assert m.relay_backlog[-1] == m.final_state.relay.sum()
        assert m.relay_backlog_bits[-1] == (m.final_state.relay * cfg.rate_sums[:, None]).sum()


def test_snapshot_sink(toy_single):
    buf = io.StringIO()
    cs.run(toy_single, cs.ArrivalConfig(rates=(0.2,)), horizon=5, seed=1, snapshot_sink=buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "block,Qs_1,Q_m0_a"
    assert len(lines) == 6
    assert lines[1].startswith("0,")


class _DiscardingSink:
    """A snapshot sink that formats every row and keeps none."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


def test_snapshot_sink_memory_stays_flat(desk):
    # at 1.5 rho* along (1, 1) the queues grow, so nearly every block brings
    # values no earlier block held
    rate = 1.5 * cs.boundary_scale(desk, [1.0, 1.0])
    arrivals = cs.ArrivalConfig(rates=(rate, rate))

    def traced_peak(horizon):
        tracemalloc.start()
        try:
            metrics = cs.run(desk, arrivals, horizon, 1, snapshot_sink=_DiscardingSink())
            return tracemalloc.get_traced_memory()[1], metrics
        finally:
            tracemalloc.stop()

    small, _ = traced_peak(4 * cs.sim.CHUNK)
    large, metrics = traced_peak(32 * cs.sim.CHUNK)
    per_block = sum(
        value.nbytes for value in vars(metrics).values() if isinstance(value, np.ndarray) and len(value) == metrics.horizon
    ) / metrics.horizon
    # the series, the draws and one chunk's rows; a memo of every text the
    # run formatted adds over 3 times the series' bytes per block on top
    assert large - small <= 2 * per_block * 28 * cs.sim.CHUNK


# -- verdicts ---------------------------------------------------------------


def _synthetic(series, T=10):
    series = np.asarray(series, dtype=float)
    return cs.Metrics(horizon=len(series), block_length=T, source_backlog=series, relay_backlog_bits=np.zeros_like(series))


def test_verdict_flat_noisy_series_stable():
    rng = np.random.default_rng(8)
    m = _synthetic(1000.0 + rng.normal(0, 5, size=2000))
    v = cs.stability_verdict(m)
    assert v.verdict == "stable"
    assert abs(v.growth_rate) < v.theta_stable


def test_verdict_linear_growth_unstable():
    t = np.arange(2000, dtype=float)
    v = cs.stability_verdict(_synthetic(5.0 * t), theta_stable=0.1, theta_unstable=1.0)
    assert v.verdict == "unstable"
    assert v.growth_rate == pytest.approx(5.0, rel=1e-12)


def test_verdict_boundary_is_inconclusive():
    t = np.arange(2000, dtype=float)
    v = cs.stability_verdict(_synthetic(0.25 * t), theta_stable=0.25, theta_unstable=2.0)
    assert v.growth_rate == 0.25  # exact: quarter-integer sums are lossless
    assert v.verdict == "inconclusive"


def test_verdict_threshold_validation():
    m = _synthetic(np.zeros(100))
    with pytest.raises(ValueError):
        cs.stability_verdict(m, theta_stable=1.0, theta_unstable=0.5)


# -- drift ------------------------------------------------------------------


def test_drift_negative_interior(toy_single):
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = [1e4]
    est = cs.drift_check(toy_single, cs.ArrivalConfig(rates=(0.3,)), probe, samples=10_000, seed=1)
    assert est.mean < 0
    assert est.mean < -3 * est.stderr


def test_drift_bounded_at_origin(toy_single):
    probe = cs.QueueState.zeros(toy_single)
    arr = cs.ArrivalConfig(rates=(0.3,))
    est = cs.drift_check(toy_single, arr, probe, samples=10_000, seed=2)
    T = toy_single.shape.block_length
    a_max = 2 * math.floor(0.3 * T) + 1
    r_t = 1.0 * T
    bound = max(a_max, r_t) ** 2 + (1.0 * T) ** 2  # source term + relay load term
    assert abs(est.mean) <= bound


def test_drift_positive_exterior(toy_single):
    # growth ray state: source twice the relay backlog, load 1.5x the boundary
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = [1e4]
    probe.relay[0, 0] = 4e3
    est = cs.drift_check(toy_single, cs.ArrivalConfig(rates=(0.75,)), probe, samples=10_000, seed=3)
    assert est.mean > 3 * est.stderr


@pytest.mark.parametrize("part,value", [("source", math.nan), ("source", -5.0), ("relay", math.inf), ("relay", -3.0)])
def test_drift_check_rejects_bad_probe(toy_single, part, value):
    probe = cs.QueueState.zeros(toy_single)
    getattr(probe, part)[:] = value
    with pytest.raises(ValueError, match="finite and non-negative"):
        cs.drift_check(toy_single, cs.ArrivalConfig(rates=(0.3,)), probe, samples=100)


def test_drift_check_rejects_probe_of_another_config(desk, toy_goodbad):
    wrong_source = cs.QueueState(desk, np.zeros(3), cs.QueueState.zeros(desk).relay)
    cases = [(desk, cs.QueueState.zeros(toy_goodbad)), (toy_goodbad, cs.QueueState.zeros(desk)), (desk, wrong_source)]
    for config, probe in cases:
        arrivals = cs.ArrivalConfig(rates=(0.3,) * config.shape.num_destinations)
        with pytest.raises(ValueError, match="the probe's queues must have shapes"):
            cs.drift_check(config, arrivals, probe, samples=100)


def test_drift_check_rejects_overflow(toy_single, toy_goodbad):
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        with pytest.raises(ValueError, match="potential V overflows"):
            cs.drift_check(toy_single, cs.ArrivalConfig(rates=(0.3,)), probe, samples=10)
        # V(probe) is finite, but the spread of the changes overflows
        doc = toy_goodbad.to_document()
        doc["schemes"][0]["rates"] = [1e140]
        cfg = cs.validate_config(doc)
        probe = cs.QueueState.zeros(cfg)
        probe.source[:] = 1e150
        probe.relay[:] = 1e10
        with pytest.raises(ValueError, match="estimate overflows"):
            cs.drift_check(cfg, cs.ArrivalConfig(rates=(0.3,)), probe, samples=100)


def test_drift_determinism(toy_single):
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = [500.0]
    arr = cs.ArrivalConfig(rates=(0.3,))
    a = cs.drift_check(toy_single, arr, probe, samples=500, seed=7)
    b = cs.drift_check(toy_single, arr, probe, samples=500, seed=7)
    assert a == b


# -- serialization ----------------------------------------------------------


def test_metrics_csv_layout(toy_single):
    m = cs.run(toy_single, cs.ArrivalConfig(rates=(0.0,)), horizon=2, seed=1)
    buf = io.StringIO()
    write_metrics_csv(m, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "first_hop" and first[2] == "0" and first[3] == ""
    second = lines[2].split(",")
    assert second[1] == "second_hop" and second[3] == "a"
    assert float(second[4]) < 0  # A negative once the relay queue is loaded


def test_summary_dict_fields(toy_single):
    m = cs.run(toy_single, cs.ArrivalConfig(rates=(0.2,)), horizon=100, seed=1)
    v = cs.stability_verdict(m)
    s = cs.sim.summary_dict(m, v)
    assert s["horizon"] == 100 and s["verdict"] in ("stable", "unstable", "inconclusive")
    assert len(s["delivered_bits"]) == 1
