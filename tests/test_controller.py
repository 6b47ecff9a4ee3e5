import inspect
import itertools

import numpy as np
import pytest

import coopsim as cs
from coopsim.controller import FIRST_HOP, IDLE, SECOND_HOP, chooser, rule_text
from coopsim.sim import chunk_loop
from configs import make_doc, sparse_config, zero_gap_config
from oracles import bruteforce_decide, check_decision_table, choose_spec, decide, lyapunov, state_entry, step_bits


def _two_scheme_cfg(support="all"):
    # two first-hop states, schemes r=[1] and r=[2]
    return cs.validate_config(
        make_doc(n=1, k=1, alphabet=("a", "b"), rates=((1.0,), (2.0,)), support=support)
    )


F_A = (("a",), ("a",))  # f1 = f2 = ("a",)


def test_first_hop_weight_picks_higher_rate():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0]
    d = decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 20.0, 1)


def test_first_hop_weight_backpressure_flips():
    cfg = _two_scheme_cfg(support=[])  # B = -inf, so the first hop shows m*
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0]
    st.relay[1, 0] = 6.0  # scheme 1 backlog at f1=('a',)
    d = decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 10.0, 0)  # (10-12)*2 = -4 loses to 10


def test_first_hop_weight_tie_breaks_low_index():
    cfg = _two_scheme_cfg(support=[])
    st = cs.QueueState.zeros(cfg)
    d = decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 0.0, 0)


def test_second_hop_weight_examples():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    st.relay[0, 0] = 10.0  # (m0, a): weight 1*10
    st.relay[1, 1] = 4.0  # (m1, b): weight 4*4
    d = decide(st, F_A)  # A = 0 via scheme 1
    assert (d.variant, d.weight_second, d.m, d.g1) == (SECOND_HOP, 16.0, 1, ("b",))

    # drop (m1, b) from the support for this f2: next best is (m0, a)
    trimmed = [
        {"m": m, "g1": [g1], "g2": [g2]} for m in (0, 1) for g1 in "ab" for g2 in "ab" if (m, g1) != (1, "b")
    ]
    st_trimmed = cs.QueueState(_two_scheme_cfg(trimmed), st.source, st.relay)
    d = decide(st_trimmed, F_A)
    assert (d.variant, d.weight_second, d.m, d.g1) == (SECOND_HOP, 10.0, 0, ("a",))

    st_empty = cs.QueueState(_two_scheme_cfg([]), st.source, st.relay)
    d = decide(st_empty, F_A)
    assert (d.variant, d.weight_second) == (FIRST_HOP, -np.inf)


def test_second_hop_tie_breaks_lowest_m_then_g1():
    cfg = cs.validate_config(
        make_doc(n=1, k=1, alphabet=("a", "b"), rates=((1.0,), (1.0,)))
    )
    st = cs.QueueState.zeros(cfg)
    st.relay[:, :] = 7.0  # every queue equal: B = 7, A = -7
    d = decide(st, F_A)
    assert (d.variant, d.m, d.g1) == (SECOND_HOP, 0, ("a",))


def test_decide_prefers_first_hop_on_ties():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    d = decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP and d.m == 0
    assert d.weight_first == 0.0 and d.weight_second == 0.0


def test_decide_weight_comparison():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0]  # A = 20 via scheme 1
    st.relay[1, 1] = 4.0  # B = 16 at (m1, b)
    d = decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP and d.m == 1 and d.weight_first == 20.0

    st2 = cs.QueueState.zeros(cfg)
    st2.source[:] = [5.0]  # A = 10 via scheme 1
    st2.relay[1, 1] = 4.0
    d2 = decide(st2, (("a",), ("a",)))
    assert d2.variant == SECOND_HOP and (d2.m, d2.g1) == (1, ("b",))
    assert d2.weight_second == 16.0


def test_decide_infeasible_second_hop_forces_first():
    cfg = _two_scheme_cfg(support=[])
    st = cs.QueueState.zeros(cfg)
    st.relay[:, :] = 50.0  # A very negative everywhere
    d = decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP
    assert d.weight_second == -np.inf


def test_decide_idle_extension():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    d = decide(st, (("a",), ("a",)), allow_idle=True)
    assert d.variant == IDLE
    st.source[:] = [1.0]
    d2 = decide(st, (("a",), ("a",)), allow_idle=True)
    assert d2.variant == FIRST_HOP  # A > 0 transmits even with the flag on


def test_lyapunov_examples():
    cfg = cs.validate_config(make_doc(k=2, rates=((1.0, 1.0),)))
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [1.0, 2.0]
    assert lyapunov(st) == 5.0
    assert lyapunov(cs.QueueState.zeros(cfg)) == 0.0

    cfg2 = cs.validate_config(make_doc(k=1, rates=((2.0,),)))
    st2 = cs.QueueState.zeros(cfg2)
    st2.source[:] = [3.0]
    st2.relay[0, 0] = 2.0
    assert lyapunov(st2) == 9.0 + 16.0


def test_second_hop_weight_scales_linearly():
    cfg = cs.validate_config(
        make_doc(n=2, k=2, alphabet=("a", "b"), rates=((1.0, 0.5), (0.25, 2.0)))
    )
    second_hop_space = list(itertools.product(cfg.alphabet, repeat=4))
    f1 = cfg.first_hop_space[0]
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = cs.QueueState.zeros(cfg)
        st.relay[:] = rng.uniform(0, 40, size=st.relay.shape)
        f = (f1, second_hop_space[int(rng.integers(0, len(second_hop_space)))])
        base = decide(st, f)  # empty sources: A <= 0 < B
        c = float(rng.uniform(0.1, 9.0))
        scaled = cs.QueueState(cfg, st.source * c, st.relay * c)
        out = decide(scaled, f)
        assert base.variant == out.variant == SECOND_HOP
        assert (out.m, out.g1) == (base.m, base.g1)  # same maximizer
        assert out.weight_second == pytest.approx(c * base.weight_second, rel=1e-12)


def test_controller_ignores_fading_distribution(desk):
    # same network with a different joint table must produce identical decisions
    doc = desk.to_document()
    probs = np.array([s["p"] for s in doc["fading"]["states"]])
    probs = probs[::-1].copy()
    for s, p in zip(doc["fading"]["states"], probs):
        s["p"] = float(p)
    other = cs.validate_config(doc)
    rng = np.random.default_rng(21)
    for _ in range(100):
        st = cs.QueueState.zeros(desk)
        st.source[:] = rng.uniform(0, 200, size=2)
        st.relay[:] = rng.uniform(0, 100, size=st.relay.shape)
        st2 = cs.QueueState(other, st.source, st.relay)
        f = desk.sorted_states[int(rng.integers(0, len(desk.sorted_states)))]
        d1 = decide(st, f)
        d2 = decide(st2, f)
        assert (d1.variant, d1.m, d1.g1) == (d2.variant, d2.m, d2.g1)


def test_decide_matches_bruteforce_randomized(desk):
    _check_decide_against_bruteforce(desk)


def test_decide_matches_bruteforce_randomized_k9():
    # from 8 terms on numpy's pairwise row sums would round A and r_m . 1
    # differently from the k-ascending sums
    _check_decide_against_bruteforce(sparse_config(1, 9, 3, 40, 5))


def _check_decide_against_bruteforce(config):
    rng = np.random.default_rng(99)
    states = config.sorted_states
    for _ in range(300):
        st = cs.QueueState.zeros(config)
        st.source[:] = rng.uniform(0, 500, size=config.shape.num_destinations)
        st.relay[:] = rng.uniform(0, 300, size=st.relay.shape)
        f = states[int(rng.integers(0, len(states)))]
        d = decide(st, f)
        variant, m, g1, bf_a, bf_b = bruteforce_decide(st, f)
        assert (d.variant, d.m, d.g1) == (variant, m, g1)
        assert d.weight_first == bf_a
        assert d.weight_second == bf_b


def _undrained_g2_config():
    # only ("a",) drains, so the drawable states with f2 = ("b",) drain nothing
    support = [{"m": 0, "g1": ["b"], "g2": ["a"]}, {"m": 1, "g1": ["a"], "g2": ["a"]}]
    return _two_scheme_cfg(support=support)


def _trailing_zero_state_config():
    states = [{"f1": ["a"], "f2": ["a"], "p": 1.0}, {"f1": ["b"], "f2": ["b"], "p": 0.0}]
    return cs.validate_config(make_doc(alphabet=("a", "b"), states=states))


SPEC_CONFIGS = {
    "sparse_n3": lambda: sparse_config(3, 3, 4, 300, 6),
    "sparse_n4": lambda: sparse_config(4, 3, 6, 800, 1),
    "undrained_g2": _undrained_g2_config,
    "trailing_p0": _trailing_zero_state_config,
}


def _state_entries(config) -> dict:
    """Each sorted state's entry in the config's decision table."""
    entries = config.decision_table
    return {f: entries[g] for f, g in zip(config.sorted_states, config.state_groups[2].tolist())}


@pytest.mark.parametrize("name", ["toy_single", "toy_goodbad", "desk", *SPEC_CONFIGS])
def test_state_entries_match_spec(request, name):
    config = SPEC_CONFIGS[name]() if name in SPEC_CONFIGS else request.getfixturevalue(name)
    states = config.sorted_states
    assert list(_state_entries(config).values()) == [state_entry(config, f) for f in states]
    # groups sharing f1 share one first-hop tuple
    assert len({id(first) for first, _ in config.decision_table}) == len({f1 for f1, _ in states})


def test_state_entries_cover_the_edge_configs():
    undrained = _undrained_g2_config()
    entries = _state_entries(undrained)
    assert undrained.probability((("a",), ("b",))) > 0 and entries[("a",), ("b",)][1] == ()
    assert entries[("a",), ("a",)][1] == ((1, 1.0), (2, 4.0))  # (m, g1) = (0, "b"), then (1, "a")
    trailing = _trailing_zero_state_config()
    assert trailing.probability((("b",), ("b",))) == 0.0
    assert list(_state_entries(trailing)) == [(("a",), ("a",))]


def test_state_groups_leave_out_zero_probability_states():
    # the p = 0 state sorts first and is dropped when the config is read: it
    # gets no group and no time row, while both support classes keep a flow row
    states = [{"f1": ["a"], "f2": ["a"], "p": 0.0}, {"f1": ["b"], "f2": ["b"], "p": 1.0}]
    config = cs.validate_config(make_doc(alphabet=("a", "b"), states=states))
    check_decision_table(config)
    keys, members, group_of = config.state_groups
    assert keys == ((("b",), (0, 1)),)
    assert members == (((("b",), ("b",)),),)
    assert group_of.tolist() == [0]
    assert config.lp_layout.shape[0] == 1 + 2 + 1  # rate, 2 classes, 1 time row


def test_zero_gap_time_rows_hold_only_drawable_states():
    # zero_gap lists p = 0 states (a, aa) and (b, ab) ahead of both groups'
    # first member; each time row's members are the states with p > 0
    config = zero_gap_config()
    check_decision_table(config)
    keys, members, group_of = config.state_groups
    assert members == (
        ((("a",), ("a", "b")),),
        ((("b",), ("a", "a")), (("b",), ("b", "a"))),
    )
    assert group_of.tolist() == [0, 1, 1]


# (groups, sorted states) per config: desk's 64 states fall into 12 groups,
# the other configs merge no two states
DECISION_GROUPS = {
    "toy_single": (1, 1),
    "toy_goodbad": (2, 2),
    "desk": (12, 64),
    "sparse_n3": (300, 300),
    "sparse_n4": (800, 800),
    "undrained_g2": (4, 4),
    "trailing_p0": (1, 1),
}


@pytest.mark.parametrize("name", DECISION_GROUPS)
def test_decision_table_groups_states_by_f1_and_drain_set(request, name):
    config = SPEC_CONFIGS[name]() if name in SPEC_CONFIGS else request.getfixturevalue(name)
    check_decision_table(config)
    assert (len(config.decision_table), len(config.state_groups[2])) == DECISION_GROUPS[name]


@pytest.mark.xfail(
    strict=True,
    reason="decision_table offers every scheme as a first hop under every f1, also into a class no support "
    "triple drains; the fill stays there for ever while the verdict reads stable",
)
def test_no_first_hop_fills_an_undrainable_class():
    cfg = cs.validate_config(make_doc(rates=((1.0,), (2.0,)), support=[{"m": 0, "g1": ["a"], "g2": ["a"]}]))
    rho = cs.scale_witness(cfg, [1.0]).value
    drained = {c for cells in cfg.drain_cells.values() for c in cells}
    n_g1 = len(cfg.first_hop_space)
    for seed in range(3):
        m = cs.run(cfg, cs.ArrivalConfig(rates=(0.9 * rho,)), 20_000, seed)
        first = np.flatnonzero(m.variants == 0)
        f1 = [cfg.g1_index[cfg.sorted_states[i][0]] for i in m.fading_state_idx[first].tolist()]
        filled = set((m.decision_m[first] * n_g1 + np.array(f1, dtype=np.int32)).tolist())
        assert filled <= drained, (seed, sorted(filled - drained), m.final_state.relay.tolist())


def test_chooser_compiles_and_matches_the_spec_at_5000_destinations():
    k = 5000
    rng = np.random.default_rng(11)
    src = rng.uniform(0.0, 1e4, k).tolist()
    q = rng.uniform(0.0, 1e3, 6).tolist()
    first = tuple((c, tuple(rng.uniform(0.0, 3.0, k).tolist())) for c in (0, 2, 4))
    entry = (first, ((1, 2.5), (4, 7.0)))
    for allow_idle in (False, True):
        args = (src, q, entry, 2, allow_idle)
        assert step_bits(chooser(k)(*args)) == step_bits(choose_spec(*args))


def test_chooser_is_compiled_once_per_k(desk):
    # run() compiles the block loop, drift_check() the step, each once per K
    assert chooser(2) is chooser(2) and chunk_loop(2) is chunk_loop(2)
    loops, steps = chunk_loop.cache_info().misses, chooser.cache_info().misses
    arrivals = cs.ArrivalConfig(rates=(1.0, 1.0))
    probe = cs.run(desk, arrivals, 300, 0).final_state
    cs.run(desk, arrivals, 300, 1)
    assert chunk_loop.cache_info().misses == loops
    cs.drift_check(desk, arrivals, probe, 1)
    cs.drift_check(desk, arrivals, cs.QueueState.zeros(desk), 1)
    assert chooser.cache_info().misses == steps


@pytest.mark.parametrize("k", [1, 2, 9])
def test_step_and_block_loop_splice_one_rule_text(k):
    assert rule_text(k, " " * 4) in inspect.getsource(chooser(k))
    assert rule_text(k, " " * 8) in inspect.getsource(chunk_loop(k))
