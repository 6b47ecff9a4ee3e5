"""``sim.run`` against ``oracles.reference_run``, the block loop written with
``oracles.bruteforce_decide`` and the pure ``oracles.apply_*`` updates.

Every ``Metrics`` field must match bit for bit: arrays by dtype, shape and
raw bytes (so the sign of every zero and every -inf counts), scalars the
same way, and ``final_state`` through both of its arrays.  ``drift_check``
is held the same way to ``oracles.reference_drift_check``, one
``bruteforce_decide`` per sample, and its mean to the exactly enumerated
``oracles.expected_drift``.
"""

import dataclasses
import io
import itertools

import numpy as np
import pytest

import coopsim as cs
from coopsim import controller, sim
from coopsim.model import fading_indices
from conftest import make_doc, sparse_config
from oracles import expected_drift, reference_drift_check, reference_run, state_entry

# (config fixture, interior rate, exterior rate); desk rho* is about 1.213
# along (1, 1), both toys have rho* = 0.5
CONFIG_RATES = {
    "desk": (1.1, 1.7),
    "toy_goodbad": (0.45, 0.7),
    "toy_single": (0.45, 0.7),
}
HORIZON = 2 * sim.CHUNK + 188


def _bits(value):
    if isinstance(value, cs.QueueState):
        return (_bits(value.source), _bits(value.relay))
    if isinstance(value, (np.ndarray, np.generic, float)):
        arr = np.asarray(value)
        return (arr.dtype.str, arr.shape, arr.tobytes())
    return value


def assert_bit_identical(got, want):
    for f in dataclasses.fields(sim.Metrics):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def _synthetic_config(n, k, seed):
    """Random sparse config: a handful of states, mixed-rate schemes (one
    with a zero rate when K > 1) and a random support subset."""
    rng = np.random.default_rng(seed)
    alphabet = ("a", "b")
    f1s = list(itertools.product(alphabet, repeat=n))
    f2s = list(itertools.product(alphabet, repeat=n * k))
    picks = rng.choice(len(f1s) * len(f2s), size=7, replace=False)
    probs = rng.dirichlet(np.ones(len(picks)))
    states = [
        {"f1": list(f1s[i // len(f2s)]), "f2": list(f2s[i % len(f2s)]), "p": float(p)}
        for i, p in zip(picks, probs)
    ]
    states[-1]["p"] = 1.0 - sum(s["p"] for s in states[:-1])
    rates = np.round(rng.uniform(0.1, 1.3, size=(3, k)), 3)
    if k > 1:
        rates[1, k - 1] = 0.0
    support = [
        {"m": m, "g1": list(g1), "g2": s["f2"]}
        for m in range(3)
        for g1 in f1s
        for s in states
        if rng.random() < 0.4
    ]
    doc = make_doc(n=n, k=k, T=7, alphabet=alphabet, rates=rates.tolist(), support=support, states=states)
    return cs.validate_config(doc)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("distribution", sim.DISTRIBUTIONS)
@pytest.mark.parametrize("allow_idle", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIG_RATES))
def test_run_matches_reference(request, name, allow_idle, distribution, seed):
    config = request.getfixturevalue(name)
    rate = CONFIG_RATES[name][seed - 1]
    arrivals = cs.ArrivalConfig(rates=(rate,) * config.shape.num_destinations, distribution=distribution)
    got = cs.run(config, arrivals, HORIZON, seed, allow_idle=allow_idle)
    want = reference_run(config, arrivals, HORIZON, seed, allow_idle=allow_idle)
    assert_bit_identical(got, want)


@pytest.mark.parametrize("n,k,seed", [(3, 1, 11), (1, 3, 12), (2, 3, 13), (1, 9, 14)])
@pytest.mark.parametrize("allow_idle", [False, True])
def test_run_matches_reference_synthetic(n, k, seed, allow_idle):
    config = _synthetic_config(n, k, seed)
    for rate in (0.2, 0.9):
        arrivals = cs.ArrivalConfig(rates=(rate,) * k)
        got_rows, want_rows = io.StringIO(), io.StringIO()
        got = cs.run(config, arrivals, HORIZON, seed, allow_idle=allow_idle, snapshot_sink=got_rows)
        want = reference_run(config, arrivals, HORIZON, seed, allow_idle=allow_idle, snapshot_sink=want_rows)
        assert_bit_identical(got, want)
        assert got_rows.getvalue() == want_rows.getvalue()


@pytest.mark.parametrize("rate", [0.6, 1.6])
def test_run_matches_reference_on_96_cells(rate):
    # N = 4, K = 3: 96 relay cells per row, rho* about 1.147 along (1, 1, 1),
    # so 1.6 fills most of them
    config = sparse_config(4, 3, 6, 800, 1)
    arrivals = cs.ArrivalConfig(rates=(rate,) * 3)
    got_rows, want_rows = io.StringIO(), io.StringIO()
    got = cs.run(config, arrivals, HORIZON, 1, snapshot_sink=got_rows)
    want = reference_run(config, arrivals, HORIZON, 1, snapshot_sink=want_rows)
    assert_bit_identical(got, want)
    assert got_rows.getvalue() == want_rows.getvalue()


@pytest.mark.parametrize("horizon", [1, sim.CHUNK - 1, sim.CHUNK, sim.CHUNK + 1])
def test_run_matches_reference_at_chunk_edges(desk, horizon):
    arrivals = cs.ArrivalConfig(rates=(1.3, 1.3), distribution="bernoulli-batch")
    got_rows, want_rows = io.StringIO(), io.StringIO()
    got = cs.run(desk, arrivals, horizon, 5, snapshot_sink=got_rows)
    want = reference_run(desk, arrivals, horizon, 5, snapshot_sink=want_rows)
    assert_bit_identical(got, want)
    assert got_rows.getvalue() == want_rows.getvalue()


# -- drift ------------------------------------------------------------------


def _desk_probes(desk):
    interior = cs.QueueState.zeros(desk)
    interior.source[:] = 5e4
    exterior = cs.run(desk, cs.ArrivalConfig(rates=(1.8, 1.8)), 3000, 4).final_state
    return [(interior, 1.0), (exterior, 1.8)]


def _drift_cases(desk, toy_goodbad):
    """(config, probe, rate) for every drift comparison: toy_goodbad at a
    loaded and an empty probe, desk at its interior and warm exterior
    probes, and a synthetic N=1/K=3 config at a warm and a hand-made probe."""
    probe = cs.QueueState.zeros(toy_goodbad)
    probe.source[:] = 300.0
    probe.relay[:] = 40.0
    cases = [(toy_goodbad, probe, 0.4), (toy_goodbad, cs.QueueState.zeros(toy_goodbad), 0.1)]
    cases += [(desk, p, rate) for p, rate in _desk_probes(desk)]
    synthetic = _synthetic_config(1, 3, 12)
    warm = cs.run(synthetic, cs.ArrivalConfig(rates=(0.9,) * 3), 2000, 3).final_state
    hand = cs.QueueState.zeros(synthetic)
    hand.source[:] = [400.0, 0.0, 35.5]
    hand.relay[:, 0] = [70.0, 0.0, 14.0]
    hand.relay[:, 1] = [0.0, 21.0, 7.0]
    cases += [(synthetic, warm, 0.9), (synthetic, hand, 0.5)]
    return cases


@pytest.mark.parametrize("allow_idle", [False, True])
def test_drift_check_matches_reference(desk, toy_goodbad, allow_idle):
    cases = itertools.product(sim.DISTRIBUTIONS, _drift_cases(desk, toy_goodbad))
    for seed, (distribution, (config, probe, rate)) in enumerate(cases):
        arrivals = cs.ArrivalConfig(rates=(rate,) * config.shape.num_destinations, distribution=distribution)
        got = cs.drift_check(config, arrivals, probe, 1500, seed=seed, allow_idle=allow_idle)
        want = reference_drift_check(config, arrivals, probe, 1500, seed=seed, allow_idle=allow_idle)
        assert [_bits(getattr(got, f)) for f in ("mean", "stderr", "samples")] == [
            _bits(getattr(want, f)) for f in ("mean", "stderr", "samples")
        ]


@pytest.mark.parametrize("distribution", sim.DISTRIBUTIONS)
def test_drift_check_within_4_stderr_of_expected_drift(desk, toy_goodbad, distribution):
    for seed, (config, probe, rate) in enumerate(_drift_cases(desk, toy_goodbad)[:4]):  # the toy and desk cases
        arrivals = cs.ArrivalConfig(rates=(rate,) * config.shape.num_destinations, distribution=distribution)
        est = cs.drift_check(config, arrivals, probe, 20_000, seed=seed)
        exact = expected_drift(config, arrivals, probe)
        # plus rounding: the oracle's probabilities sum to 1 only to float precision
        assert abs(est.mean - exact) <= 4 * est.stderr + 1e-12 * abs(exact), (config.shape, rate, est, exact)


def test_expected_drift_point_mass(toy_single):
    # one fading state and constant arrivals: every sample is the exact drift
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = 123.0
    probe.relay[:] = 7.0
    arrivals = cs.ArrivalConfig(rates=(0.35,), distribution="constant")
    est = cs.drift_check(toy_single, arrivals, probe, 50, seed=1)
    assert est.stderr == 0.0
    assert est.mean == expected_drift(toy_single, arrivals, probe)


def _recording_choose(entries):
    def recording_choose(src, q, entry, n_relays, allow_idle):
        entries.append(entry)
        return controller.choose(src, q, entry, n_relays, allow_idle)

    return recording_choose


def test_drift_check_decides_once_per_fading_state(desk, monkeypatch):
    probe, rate = _desk_probes(desk)[1]  # before the patch: run() calls choose once per block
    entries = []
    monkeypatch.setattr(sim, "choose", _recording_choose(entries))
    arrivals = cs.ArrivalConfig(rates=(rate, rate))
    cs.drift_check(desk, arrivals, probe, 5000, seed=1)
    drawn = set(sim._draws(desk, arrivals, 5000, 1)[0].tolist())
    expected = [state_entry(desk, desk.sorted_states[s]) for s in drawn]
    # one call per distinct drawn state, each on that state's entry
    assert len(entries) == len(drawn)
    assert sorted(map(repr, entries)) == sorted(map(repr, expected))


def test_run_and_drift_check_build_the_state_table_once(desk, monkeypatch):
    calls = []

    def counting_state_entries(config, states):
        calls.append(states)
        return controller.state_entries(config, states)

    monkeypatch.setattr(sim, "state_entries", counting_state_entries)
    arrivals = cs.ArrivalConfig(rates=(1.0, 1.0))
    probe = cs.run(desk, arrivals, 2 * sim.CHUNK + 5, 0).final_state
    assert len(calls) == 1
    cs.drift_check(desk, arrivals, probe, 2000, seed=1)
    assert calls == [desk.sorted_states] * 2


# -- the zero-probability clamp ---------------------------------------------


class _TopDraws:
    """A generator whose uniform variates all sit just below 1."""

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


def _trailing_zero_state_config():
    states = [
        {"f1": ["a"], "f2": ["a"], "p": 1.0 - 1e-13},
        {"f1": ["b"], "f2": ["b"], "p": 0.0},  # sorts last
    ]
    config = cs.validate_config(make_doc(alphabet=("a", "b"), states=states))
    assert config.cumulative_probs[-1] < np.nextafter(1.0, 0.0)
    assert config.sorted_states[-1] == (("b",), ("b",))
    return config


def test_fading_indices_never_draws_zero_probability_state():
    config = _trailing_zero_state_config()
    top = _TopDraws().random(3)
    assert fading_indices(config, top).tolist() == [0, 0, 0]
    assert int(fading_indices(config, top[0])) == 0


def test_run_never_draws_zero_probability_state(monkeypatch):
    config = _trailing_zero_state_config()
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed=None: _TopDraws())
    m = cs.run(config, cs.ArrivalConfig(rates=(0.5,), distribution="constant"), 10, 0)
    assert m.fading_state_idx.tolist() == [0] * 10


def test_drift_check_never_draws_zero_probability_state(monkeypatch):
    config = _trailing_zero_state_config()
    entries = []
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed=None: _TopDraws())
    monkeypatch.setattr(sim, "choose", _recording_choose(entries))
    cs.drift_check(config, cs.ArrivalConfig(rates=(0.5,), distribution="constant"), cs.QueueState.zeros(config), 10)
    assert state_entry(config, config.sorted_states[1]) != state_entry(config, config.sorted_states[0])
    assert entries == [state_entry(config, config.sorted_states[0])]
