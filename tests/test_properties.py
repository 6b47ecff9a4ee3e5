"""Property tests on random small configs (N <= 3, K <= 2, sparse tables,
random support): the controller against ``oracles.bruteforce_decide`` and
the pure ``queueing.apply_*`` updates against their bit-accounting rules.

N = 3 checks the controller's N * Q column sum against the oracle's sum
over relays, n ascending, on a shape no shipped config has.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import coopsim as cs  # noqa: E402
from conftest import small_configs  # noqa: E402
from oracles import bruteforce_decide  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

# exact ties (equal and empty queues) as well as arbitrary floats
QUEUE = st.one_of(st.sampled_from([0.0, 10.0, 30.0]), st.floats(0.0, 1e4))


@st.composite
def probes(draw, values=QUEUE):
    """A small config and a queue state on it."""
    config = draw(small_configs())
    k, cells = config.shape.num_destinations, len(config.schemes) * len(config.first_hop_space)
    source = draw(st.lists(values, min_size=k, max_size=k))
    relay = np.reshape(draw(st.lists(values, min_size=cells, max_size=cells)), (len(config.schemes), -1))
    return cs.QueueState.from_values(config, source, relay)


@st.composite
def decide_cases(draw):
    """A probe and a combined fading state; f2 ranges over the whole
    second-hop space, so most f2 drain nothing."""
    state = draw(probes())
    sh = state.config.shape
    f1 = draw(st.sampled_from(state.config.first_hop_space))
    f2 = draw(st.tuples(*[st.sampled_from("GB")] * (sh.num_relays * sh.num_destinations)))
    return state, (f1, f2)


@SETTINGS
@hypothesis.given(decide_cases())
def test_decide_matches_bruteforce(case):
    state, f = case
    d = cs.decide(state, f)
    assert (d.variant, d.m, d.g1, d.weight_first, d.weight_second) == bruteforce_decide(state, f)


@st.composite
def update_cases(draw):
    """A probe with whole-bit queues, whole-bit arrivals, and an update."""
    state = draw(probes(values=st.integers(0, 60).map(float)))
    config = state.config
    k = config.shape.num_destinations
    arrivals = draw(st.lists(st.integers(0, 30).map(float), min_size=k, max_size=k))
    m = draw(st.integers(0, len(config.schemes) - 1))
    g1 = draw(st.sampled_from(config.first_hop_space))
    return state, np.array(arrivals), m, g1, draw(st.sampled_from(["first", "second", "idle"]))


@SETTINGS
@hypothesis.given(update_cases())
def test_updates_conserve_bits(case):
    state, a, m, g1, op = case
    config = state.config
    T = config.shape.block_length
    cell = (m, config.g1_index[g1])
    before = state.copy()
    if op == "first":
        out = cs.apply_first_hop(state, a, m, g1)
        sent = config.rates[m] * T
        expected = [max(q + x - r, 0.0) for q, x, r in zip(state.source, a, sent)]
        assert out.source.tolist() == expected
        # the source loses exactly what it sends, or all it holds
        assert (state.source + a - out.source).tolist() == np.minimum(state.source + a, sent).tolist()
        assert out.relay[cell] - state.relay[cell] == T
    else:
        out = cs.apply_second_hop(state, a, m, g1) if op == "second" else cs.apply_idle(state, a)
        assert out.source.tolist() == (state.source + a).tolist()
        if op == "second":
            pre = state.relay[cell]
            assert out.relay[cell] == (pre - T if pre >= T else 0.0)
        else:
            assert out.relay[cell] == state.relay[cell]
    others = np.ones(state.relay.shape, dtype=bool)
    others[cell] = False
    assert np.array_equal(out.relay[others], state.relay[others])
    assert np.array_equal(state.source, before.source) and np.array_equal(state.relay, before.relay)
