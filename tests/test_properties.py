"""Property tests on random small configs (N <= 3, K <= 2, and K = 9 at
N = 1 for the block loop, sparse tables, random support): the controller
against ``oracles.bruteforce_decide``, the step ``controller.chooser``
compiles per K against the loop ``oracles.choose_spec`` bitwise on raw
arguments, the block loop
``sim.chunk_loop`` compiles per K (K in {1, 2, 9}) against
``oracles.reference_run`` bit for bit across chunk edges,
``NetworkConfig.state_groups`` and ``decision_table`` against the per-state
``oracles.state_entry`` and the region LP's time rows,
``sim.drift_check`` against the per-group ``oracles.drift_spec`` bit for
bit, ``NetworkConfig.group_pi`` against ``reduce(add)`` over each group's
members, the pure ``oracles.apply_*`` updates against their bit-accounting
rules, ``sim._relay_rows``, the chunk rebuild of the relay queues,
against a copy of the queues after every block, and the simplex's ratio
test ``region._ratio_row`` against ``oracles.ratio_row`` in numpy, and
``model.fading_indices`` against the per-variate
``oracles.fading_indices_spec``, and the
one CSV writer against the per-value writers of ``oracles``.

N = 3 checks the controller's N * Q column sum against the oracle's sum
over relays, n ascending, on a shape no shipped config has.
"""

import io
from functools import reduce
from operator import add

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import coopsim as cs  # noqa: E402
from coopsim.controller import chooser  # noqa: E402
from coopsim.region import PIVOT_TOL, _ratio_row  # noqa: E402
from coopsim.sim import CHUNK, DISTRIBUTIONS, _relay_rows, write_metrics_csv  # noqa: E402
from configs import make_doc, small_configs, small_docs, without_zero_rows  # noqa: E402
from oracles import (  # noqa: E402
    apply_first_hop,
    apply_idle,
    apply_second_hop,
    assert_bit_identical,
    bruteforce_decide,
    check_decision_table,
    check_fading_indices,
    choose_spec,
    decide,
    drift_spec,
    ratio_row,
    reference_run,
    step_bits,
    write_metrics_csv_spec,
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
    return cs.QueueState(config, np.asarray(source, dtype=float), relay)


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


# weights that tie often, both zeros, and arbitrary floats
STEP_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 10.0]), st.floats(0.0, 1e4))


@st.composite
def step_cases(draw):
    """Raw arguments of a compiled step: K in {1, 2, 3, 9}, up to 4 schemes
    over up to 4 flat queues, a drain set that may be empty."""
    k = draw(st.sampled_from([1, 2, 3, 9]))
    cells = draw(st.integers(1, 4))
    index = st.integers(0, cells - 1)
    rates = st.tuples(*[STEP_VALUE] * k)
    first = draw(st.lists(st.tuples(index, rates), min_size=1, max_size=4))
    drains = draw(st.lists(st.tuples(index, STEP_VALUE), max_size=4))
    src = draw(st.lists(STEP_VALUE, min_size=k, max_size=k))
    q = draw(st.lists(STEP_VALUE, min_size=cells, max_size=cells))
    return src, q, (tuple(first), tuple(drains)), draw(st.integers(1, 3)), draw(st.booleans())


@SETTINGS
@hypothesis.given(step_cases())
def test_compiled_step_equals_the_loop_spec_bitwise(case):
    src = case[0]
    assert step_bits(chooser(len(src))(*case)) == step_bits(choose_spec(*case))


@st.composite
def run_cases(draw):
    """A small config with K in {1, 2, 9}, arrivals under one of the three
    laws at rates that keep queues empty, tied or growing, a horizon on
    either side of a chunk edge, a seed and ``allow_idle``."""
    config = draw(small_configs(st.sampled_from([1, 2, 9])))
    k = config.shape.num_destinations
    rates = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]), min_size=k, max_size=k))
    arrivals = cs.ArrivalConfig(rates=rates, distribution=draw(st.sampled_from(DISTRIBUTIONS)))
    horizon = draw(st.sampled_from([1, 2, 40, CHUNK - 1, CHUNK, CHUNK + 1]))
    return config, arrivals, horizon, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


# two schemes with equal rates tie on A in every block
TIED = cs.validate_config(make_doc(n=2, alphabet=("G", "B"), rates=((1.0,), (1.0,))))


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(run_cases())
@hypothesis.example((TIED, cs.ArrivalConfig(rates=(0.45,)), CHUNK + 1, 3, False))
def test_compiled_loop_equals_the_reference_run_bitwise(case):
    config, arrivals, horizon, seed, allow_idle = case
    got = cs.run(config, arrivals, horizon, seed, allow_idle=allow_idle)
    assert_bit_identical(got, reference_run(config, arrivals, horizon, seed, allow_idle=allow_idle))


@SETTINGS
@hypothesis.given(small_configs())
def test_decision_table_matches_spec(config):
    check_decision_table(config)


# empty queues, relay queues below T = 10 (a second hop empties them), and
# backlogs large enough that no arrival empties a source queue
DRIFT_QUEUE = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e4), st.floats(1e6, 1e12))


@st.composite
def drift_cases(draw):
    """A probe on a small config and arrivals under one of the three laws."""
    state = draw(probes(DRIFT_QUEUE))
    k = state.config.shape.num_destinations
    rates = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0)), min_size=k, max_size=k))
    return state, cs.ArrivalConfig(rates=rates, distribution=draw(st.sampled_from(DISTRIBUTIONS)))


@SETTINGS
@hypothesis.given(drift_cases())
def test_drift_check_equals_the_per_group_spec(case):
    state, arrivals = case
    assert cs.drift_check(state.config, arrivals, state, 1).mean == drift_spec(state.config, arrivals, state)


@SETTINGS
@hypothesis.given(small_configs())
def test_group_pi_adds_each_group_in_member_order(config):
    members = config.state_groups[1]
    assert config.group_pi == tuple(reduce(add, (config.fading[f] for f in states), 0.0) for states in members)


@SETTINGS
@hypothesis.given(small_docs())
def test_zero_probability_rows_are_dropped(doc):
    # every small doc lists its first state with p = 0
    config, left_out = cs.validate_config(doc), cs.validate_config(without_zero_rows(doc))
    assert config == left_out
    assert config.to_document() == left_out.to_document()


# ratio-test columns: exact ties, +-0.0, entries far below the pivot
# tolerance, non-positive ones and arbitrary floats; x_B holds zeros and ties
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e-13, 1e-26]), st.floats(-1e3, 1e3))
BASIC = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(0.0, 1e3))


@st.composite
def ratio_cases(draw):
    """A column with entries at and just around its pivot threshold
    appended (they leave max |column| alone), its basic values and distinct
    basis indices, all in a drawn order."""
    column = draw(st.lists(ENTRY, min_size=1, max_size=10))
    threshold = PIVOT_TOL * max(1.0, max(map(abs, column)))
    edges = [threshold, float(np.nextafter(threshold, np.inf)), float(np.nextafter(threshold, 0.0))]
    column += draw(st.lists(st.sampled_from(edges), max_size=3))
    n = len(column)
    order = draw(st.permutations(range(n)))
    x_b = draw(st.lists(BASIC, min_size=n, max_size=n))
    basis = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))
    return np.array(column)[order], np.array(x_b), np.array(basis)


def _ratio_outcome(test, case):
    try:
        return test(*case, 3)
    except cs.DegeneracyError as exc:
        return str(exc)


@SETTINGS
@hypothesis.given(ratio_cases())
@hypothesis.example((np.array([-1.0, 0.0, -0.0]), np.array([1.0, 0.0, 2.0]), np.array([4, 1, 2])))  # unbounded
@hypothesis.example((np.array([-3.0, 1e-13, 3e-12]), np.zeros(3), np.array([0, 1, 2])))  # all below 3e-12
@hypothesis.example((np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, 1.0]), np.array([7, 3, 5])))  # a three-way tie
@hypothesis.example((np.array([-0.0, 0.5, 1e-12]), np.array([0.0, -0.0, 0.0]), np.array([9, 8, 1])))  # +-0 ratios
def test_ratio_row_matches_numpy_spec(case):
    assert _ratio_outcome(_ratio_row, case) == _ratio_outcome(ratio_row, case)


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
    source, relay = state.source.copy(), state.relay.copy()
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
    assert np.array_equal(state.source, source) and np.array_equal(state.relay, relay)


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


@SETTINGS
@hypothesis.given(small_configs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64))
def test_fading_indices_match_spec(config, variates):
    check_fading_indices(config, variates)


@hypothesis.settings(SETTINGS, max_examples=40)
@hypothesis.given(
    small_configs(), st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]), min_size=2, max_size=2), st.integers(0, 2**32 - 1)
)
def test_csv_writers_match_the_per_value_spec(config, rates, seed):
    # idle blocks, B = -inf and both hops; the run crosses a chunk boundary
    arrivals = cs.ArrivalConfig(rates=rates[: config.shape.num_destinations])
    got_rows, want_rows = io.StringIO(), io.StringIO()
    metrics = cs.run(config, arrivals, CHUNK + 9, seed, allow_idle=True, snapshot_sink=got_rows)
    reference_run(config, arrivals, CHUNK + 9, seed, allow_idle=True, snapshot_sink=want_rows)
    assert got_rows.getvalue() == want_rows.getvalue()
    got, want = io.StringIO(), io.StringIO()
    write_metrics_csv(metrics, got)
    write_metrics_csv_spec(metrics, want)
    assert got.getvalue() == want.getvalue()
