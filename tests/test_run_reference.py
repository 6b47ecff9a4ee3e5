"""``sim.run`` against ``oracles.reference_run``, the block loop written with
``oracles.bruteforce_decide`` and the pure ``oracles.apply_*`` updates.

Every ``Metrics`` field must match bit for bit: arrays by dtype, shape and
raw bytes (so the sign of every zero and every -inf counts), scalars the
same way, and ``final_state`` through both of its arrays.  ``drift_check``,
a closed-form sum, is held within 1e-12 relative to the exactly enumerated
``oracles.expected_drift``, and where the arrival support is too large to
list, to the same sum taken in ``fractions.Fraction``.  On desk it decides
once per state group, evaluates each (destination, send) closed form at
most once and reads each group's p from ``NetworkConfig.group_pi`` alone.
"""

import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import coopsim as cs
from coopsim import controller, sim
from coopsim.model import fading_indices
from configs import CONFIG_DIR, make_doc, sparse_config, trailing_zero_config
from oracles import assert_bit_identical, decide, expected_drift, reference_run, state_entry

# (config fixture, interior rate, exterior rate); desk rho* is about 1.213
# along (1, 1), both toys have rho* = 0.5
CONFIG_RATES = {
    "desk": (1.1, 1.7),
    "toy_goodbad": (0.45, 0.7),
    "toy_single": (0.45, 0.7),
}
HORIZON = 2 * sim.CHUNK + 188


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


@pytest.mark.parametrize(
    "horizon",
    [1, pytest.param(sim.CHUNK - 1, id="chunk-1"), pytest.param(sim.CHUNK, id="chunk"), pytest.param(sim.CHUNK + 1, id="chunk+1")],
)
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
    probes, a synthetic N=1/K=3 config at a warm and a hand-made probe, and
    a synthetic N=1/K=9 config at sources 1000 * sqrt(k + 2).  A first hop
    takes more bits than the empty probe's and the hand probe's empty source
    queues hold, so the clamp (.)+ bites there; the synthetic rates times
    T = 7 are not integers, so uniform-integer arrivals have a top-up."""
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
    wide = _synthetic_config(1, 9, 14)
    probe = cs.QueueState.zeros(wide)
    probe.source[:] = [1000 * math.sqrt(k + 2) for k in range(9)]
    probe.relay[:] = 3.0
    cases.append((wide, probe, 0.9))
    return cases


@pytest.mark.parametrize("distribution", sim.DISTRIBUTIONS)
def test_drift_check_matches_expected_drift(desk, toy_goodbad, distribution):
    # every case with K <= 3; the K = 9 one where its outcomes can be listed,
    # 1 under constant and 2**9 = 512 under bernoulli-batch arrivals
    for config, probe, rate in _drift_cases(desk, toy_goodbad):
        k = config.shape.num_destinations
        if k > 3 and distribution == "uniform-integer":
            continue
        arrivals = cs.ArrivalConfig(rates=(rate,) * k, distribution=distribution)
        got = cs.drift_check(config, arrivals, probe, 2)
        exact = expected_drift(config, arrivals, probe)
        assert (got.stderr, got.samples) == (0.0, 2)
        assert abs(got.mean - exact) <= 1e-12 * abs(exact), (config.shape, rate, got.mean, exact)


def _fraction_drift(config, probe, mu):
    """E[V(next) - V(probe)] for K = 1 and arrivals uniform on {0..2 mu}, mu
    an integer, in Fractions: per drawable state, sum_u (y + u)^2 over the
    u > -y, y = Qs - s, as cnt y^2 + 2 y sum(u) + sum(u^2) in integer sums."""
    T = config.shape.block_length
    x = Fraction(probe.source[0])
    n = 2 * mu
    total = Fraction(0)
    for f in config.sorted_states:
        if config.fading[f] == 0.0:
            continue
        d = decide(probe, f)
        g1 = config.g1_index[f[0] if d.variant == cs.FIRST_HOP else d.g1]
        y = x - (Fraction(config.schemes[d.m][0]) * T if d.variant == cs.FIRST_HOP else 0)
        lo = min(max(0, math.floor(-y) + 1), n + 1)
        cnt = n + 1 - lo
        sum_u = (n * (n + 1) - (lo - 1) * lo) // 2
        sum_u2 = (n * (n + 1) * (2 * n + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
        source = (cnt * y * y + 2 * y * sum_u + sum_u2) / (n + 1) - x * x
        q = Fraction(probe.relay[d.m, g1])
        new = q + T if d.variant == cs.FIRST_HOP else max(q - T, Fraction(0))
        w = Fraction(config.rate_sums[d.m])
        relay = config.shape.num_relays * w * w * (new * new - q * q)
        total += Fraction(config.fading[f]) * (source + relay)
    return total


def test_drift_check_sums_an_unlistable_uniform_support(toy_goodbad):
    # a uniform-integer mean of 2**61 bits: 2**62 + 1 outcomes per block.
    # Qs = 3 is below r T = 10, so the first hop (under f2 = B) empties it
    # and the second hop (under f2 = G) drains the relay queue of 5.
    mu = 2**61
    probe = cs.QueueState.zeros(toy_goodbad)
    probe.source[:] = 3.0
    probe.relay[:] = 5.0
    arrivals = cs.ArrivalConfig(rates=(mu / toy_goodbad.shape.block_length,))
    assert arrivals.rates[0] * toy_goodbad.shape.block_length == mu
    assert {decide(probe, f).variant for f in toy_goodbad.sorted_states} == {"first_hop", "second_hop"}
    got = cs.drift_check(toy_goodbad, arrivals, probe, 2).mean
    exact = _fraction_drift(toy_goodbad, probe, mu)
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * abs(exact), (got, float(exact))


def test_expected_drift_point_mass(toy_single):
    # one fading state and constant arrivals: one outcome, and every value is
    # exact in binary, so the closed form equals the enumeration
    probe = cs.QueueState.zeros(toy_single)
    probe.source[:] = 123.0
    probe.relay[:] = 7.0
    arrivals = cs.ArrivalConfig(rates=(0.35,), distribution="constant")
    est = cs.drift_check(toy_single, arrivals, probe, 50, seed=1)
    assert est.stderr == 0.0
    assert est.mean == expected_drift(toy_single, arrivals, probe)


def _recording_chooser(entries):
    """A stand-in for ``controller.chooser`` whose step records each entry."""

    def recording_chooser(k_dest):
        choose = controller.chooser(k_dest)

        def recording_choose(src, q, entry, n_relays, allow_idle):
            entries.append(entry)
            return choose(src, q, entry, n_relays, allow_idle)

        return recording_choose

    return recording_chooser


def _no_draw(*args, **kwargs):
    raise AssertionError("a random draw")


def test_drift_check_decides_once_per_state_group(desk, monkeypatch):
    probe, rate = _desk_probes(desk)[1]  # before the patch: run() would record its blocks' steps too
    entries = []
    monkeypatch.setattr(sim, "chooser", _recording_chooser(entries))
    monkeypatch.setattr(sim.np.random, "default_rng", _no_draw)
    cs.drift_check(desk, cs.ArrivalConfig(rates=(rate, rate)), probe, 5000, seed=1)
    drawable = [f for f in desk.sorted_states if desk.fading[f] > 0.0]
    groups = {}  # (f1, the (m, g1) pairs f2 drains) -> member states, from the raw support
    for f1, f2 in drawable:
        drained = frozenset((m, g1) for m, g1, g2 in desk.support if g2 == f2)
        groups.setdefault((f1, drained), []).append((f1, f2))
    # one call per drawable group, each on the entry of its member states
    assert len(entries) == len(groups) < len(drawable)
    expected = [state_entry(desk, members[0]) for members in groups.values()]
    assert all(state_entry(desk, f) == entry for members, entry in zip(groups.values(), expected) for f in members)
    assert sorted(map(repr, entries)) == sorted(map(repr, expected))


def test_drift_check_evaluates_each_arrival_term_once(monkeypatch):
    config = cs.load_config(CONFIG_DIR / "desk.json")  # fresh: its fading table is taken away below
    cases = [(probe, cs.ArrivalConfig(rates=(rate, rate))) for probe, rate in _desk_probes(config)]
    wants = [cs.drift_check(config, arrivals, probe, 2).mean for probe, arrivals in cases]
    object.__setattr__(config, "fading", None)  # every group's p must come from group_pi
    real = sim._expected_square_change
    for (probe, arrivals), want in zip(cases, wants):
        entries, terms = [], []

        def counting(cfg, k, T, x, s):
            terms.append((k, s))
            return real(cfg, k, T, x, s)

        monkeypatch.setattr(sim, "chooser", _recording_chooser(entries))
        monkeypatch.setattr(sim, "_expected_square_change", counting)
        assert cs.drift_check(config, arrivals, probe, 2).mean == want
        # one step per group; at most K * (M + 1) = 8 distinct (destination, send) terms
        assert len(entries) == len(config.state_groups[0]) == 12
        assert 0 < len(terms) == len(set(terms)) <= 2 * (len(config.schemes) + 1) == 8
        assert {s for _, s in terms} <= {r * 10 for rates in config.schemes for r in rates} | {0.0}


def test_run_and_drift_check_build_the_decision_table_once(monkeypatch):
    config = cs.load_config(CONFIG_DIR / "desk.json")  # fresh: the shared desk fixture may hold the table
    tables, partitions = [], []

    def counting_decision_table(config):
        tables.append(config)
        return real_decision_table(config)

    def counting_state_groups(config):
        partitions.append(config)
        return real_state_groups(config)

    real_decision_table = controller.decision_table
    prop = cs.NetworkConfig.__dict__["state_groups"]
    real_state_groups = prop.func
    monkeypatch.setattr(controller, "decision_table", counting_decision_table)
    monkeypatch.setattr(prop, "func", counting_state_groups)
    arrivals = cs.ArrivalConfig(rates=(1.0, 1.0))
    probe = cs.run(config, arrivals, 2 * sim.CHUNK + 5, 0).final_state
    cs.drift_check(config, arrivals, probe, 2000, seed=1)
    cs.drift_check(config, arrivals, probe, 2000, seed=2)
    assert tables == [config] and partitions == [config]
    assert len(config.decision_table) == len(config.state_groups[0]) == 12


def test_run_matches_reference_at_5000_destinations():
    # the compiled step's source grows with K; thousands of destinations still run
    k = 5000
    rates = (tuple(np.linspace(0.5, 1.5, k).tolist()), (1.0,) * k)
    states = [{"f1": [g], "f2": [g] * k, "p": 0.5} for g in "ab"]  # not the 2 * 2**5000 product
    support = [{"m": m, "g1": [g], "g2": [g] * k} for m in (0, 1) for g in "ab"]
    config = cs.validate_config(make_doc(k=k, alphabet=("a", "b"), rates=rates, support=support, states=states))
    arrivals = cs.ArrivalConfig(rates=(1e-3,) * k)
    assert_bit_identical(cs.run(config, arrivals, 12, 3), reference_run(config, arrivals, 12, 3))


# -- the zero-probability clamp ---------------------------------------------


class _TopDraws:
    """A generator whose uniform variates all sit just below 1."""

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


def test_fading_indices_never_draws_zero_probability_state():
    config = trailing_zero_config()
    top = _TopDraws().random(3)
    assert fading_indices(config, top).tolist() == [0, 0, 0]
    assert int(fading_indices(config, top[0])) == 0


def test_run_never_draws_zero_probability_state(monkeypatch):
    config = trailing_zero_config()
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed=None: _TopDraws())
    m = cs.run(config, cs.ArrivalConfig(rates=(0.5,), distribution="constant"), 10, 0)
    assert m.fading_state_idx.tolist() == [0] * 10


def test_drift_check_never_draws_zero_probability_state(monkeypatch):
    config = trailing_zero_config()
    entries = []
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed=None: _TopDraws())
    monkeypatch.setattr(sim, "chooser", _recording_chooser(entries))
    cs.drift_check(config, cs.ArrivalConfig(rates=(0.5,), distribution="constant"), cs.QueueState.zeros(config), 10)
    # the listed p = 0 state (b, b) would be decided on an entry of its own
    assert state_entry(config, (("b",), ("b",))) != state_entry(config, config.sorted_states[0])
    assert entries == [state_entry(config, config.sorted_states[0])]
