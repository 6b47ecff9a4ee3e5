"""Property tests on random small configs (N <= 3, K <= 2, sparse tables,
random support): the controller against ``oracles.bruteforce_decide``,
``controller.state_entries`` against the per-state ``oracles.state_entry``,
the pure ``queueing.apply_*`` updates against their bit-accounting
rules, and ``sim._relay_rows``, the chunk rebuild of the relay queues,
against a copy of the queues after every block.

N = 3 checks the controller's N * Q column sum against the oracle's sum
over relays, n ascending, on a shape no shipped config has.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import coopsim as cs  # noqa: E402
from coopsim.controller import state_entries  # noqa: E402
from coopsim.sim import _relay_rows  # noqa: E402
from conftest import small_configs  # noqa: E402
from oracles import (  # noqa: E402
    apply_first_hop,
    apply_idle,
    apply_second_hop,
    bruteforce_decide,
    decide,
    state_entry,
)

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
    d = decide(state, f)
    assert (d.variant, d.m, d.g1, d.weight_first, d.weight_second) == bruteforce_decide(state, f)


@SETTINGS
@hypothesis.given(small_configs())
def test_state_entries_match_spec_on_every_f2(config):
    sh = config.shape
    f2s = itertools.product("GB", repeat=sh.num_relays * sh.num_destinations)
    states = list(itertools.product(config.first_hop_space, f2s))
    assert state_entries(config, states) == [state_entry(config, f) for f in states]


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
        out = apply_first_hop(state, a, m, g1)
        sent = config.rates[m] * T
        expected = [max(q + x - r, 0.0) for q, x, r in zip(state.source, a, sent)]
        assert out.source.tolist() == expected
        # the source loses exactly what it sends, or all it holds
        assert (state.source + a - out.source).tolist() == np.minimum(state.source + a, sent).tolist()
        assert out.relay[cell] - state.relay[cell] == T
    else:
        out = apply_second_hop(state, a, m, g1) if op == "second" else apply_idle(state, a)
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


@st.composite
def chunk_writes(draw):
    """A start row, and per block the cell written (-1 when idle) and the
    value written; few cells, so blocks often write one cell again."""
    width = draw(st.integers(1, 5))
    blocks = draw(st.integers(1, 20))
    start = draw(st.lists(QUEUE, min_size=width, max_size=width))
    cells = draw(st.lists(st.integers(-1, width - 1), min_size=blocks, max_size=blocks))
    values = draw(st.lists(QUEUE, min_size=blocks, max_size=blocks))
    return np.array(start), np.array(cells, dtype=np.int32), values


def _copied_rows(start, cells, values):
    q = start.tolist()
    rows = [list(q)]
    for c, v in zip(cells.tolist(), values):
        if c >= 0:
            q[c] = v
        rows.append(list(q))
    return np.array(rows)


@SETTINGS
@hypothesis.given(chunk_writes())
@hypothesis.example((np.array([3.0, 0.0]), np.array([-1, -1, -1], dtype=np.int32), [5.0, 6.0, 7.0]))  # no write
@hypothesis.example((np.array([0.0, 20.0, 0.0]), np.array([1, 1, -1, 1], dtype=np.int32), [30.0, 10.0, 9.0, 0.0]))
@hypothesis.example((np.array([40.0]), np.array([0], dtype=np.int32), [50.0]))
def test_relay_rows_match_a_copy_per_block(case):
    start, cells, values = case
    got = _relay_rows(start, cells, values)
    want = _copied_rows(start, cells, values)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
