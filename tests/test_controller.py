import itertools

import numpy as np
import pytest

import coopsim as cs
from coopsim.controller import FIRST_HOP, IDLE, SECOND_HOP
from conftest import make_doc, sparse_config
from oracles import bruteforce_decide


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
    d = cs.decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 20.0, 1)


def test_first_hop_weight_backpressure_flips():
    cfg = _two_scheme_cfg(support=[])  # B = -inf, so the first hop shows m*
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0]
    st.relay[1, 0] = 6.0  # scheme 1 backlog at f1=('a',)
    d = cs.decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 10.0, 0)  # (10-12)*2 = -4 loses to 10


def test_first_hop_weight_tie_breaks_low_index():
    cfg = _two_scheme_cfg(support=[])
    st = cs.QueueState.zeros(cfg)
    d = cs.decide(st, F_A)
    assert (d.variant, d.weight_first, d.m) == (FIRST_HOP, 0.0, 0)


def test_second_hop_weight_examples():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    st.relay[0, 0] = 10.0  # (m0, a): weight 1*10
    st.relay[1, 1] = 4.0  # (m1, b): weight 4*4
    d = cs.decide(st, F_A)  # A = 0 via scheme 1
    assert (d.variant, d.weight_second, d.m, d.g1) == (SECOND_HOP, 16.0, 1, ("b",))

    # drop (m1, b) from the support for this f2: next best is (m0, a)
    trimmed = [
        {"m": m, "g1": [g1], "g2": [g2]} for m in (0, 1) for g1 in "ab" for g2 in "ab" if (m, g1) != (1, "b")
    ]
    st_trimmed = cs.QueueState.from_values(_two_scheme_cfg(trimmed), st.source, st.relay)
    d = cs.decide(st_trimmed, F_A)
    assert (d.variant, d.weight_second, d.m, d.g1) == (SECOND_HOP, 10.0, 0, ("a",))

    st_empty = cs.QueueState.from_values(_two_scheme_cfg([]), st.source, st.relay)
    d = cs.decide(st_empty, F_A)
    assert (d.variant, d.weight_second) == (FIRST_HOP, -np.inf)


def test_second_hop_tie_breaks_lowest_m_then_g1():
    cfg = cs.validate_config(
        make_doc(n=1, k=1, alphabet=("a", "b"), rates=((1.0,), (1.0,)))
    )
    st = cs.QueueState.zeros(cfg)
    st.relay[:, :] = 7.0  # every queue equal: B = 7, A = -7
    d = cs.decide(st, F_A)
    assert (d.variant, d.m, d.g1) == (SECOND_HOP, 0, ("a",))


def test_decide_prefers_first_hop_on_ties():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    d = cs.decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP and d.m == 0
    assert d.weight_first == 0.0 and d.weight_second == 0.0


def test_decide_weight_comparison():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0]  # A = 20 via scheme 1
    st.relay[1, 1] = 4.0  # B = 16 at (m1, b)
    d = cs.decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP and d.m == 1 and d.weight_first == 20.0

    st2 = cs.QueueState.zeros(cfg)
    st2.source[:] = [5.0]  # A = 10 via scheme 1
    st2.relay[1, 1] = 4.0
    d2 = cs.decide(st2, (("a",), ("a",)))
    assert d2.variant == SECOND_HOP and (d2.m, d2.g1) == (1, ("b",))
    assert d2.weight_second == 16.0


def test_decide_infeasible_second_hop_forces_first():
    cfg = _two_scheme_cfg(support=[])
    st = cs.QueueState.zeros(cfg)
    st.relay[:, :] = 50.0  # A very negative everywhere
    d = cs.decide(st, (("a",), ("a",)))
    assert d.variant == FIRST_HOP
    assert d.weight_second == -np.inf


def test_decide_idle_extension():
    cfg = _two_scheme_cfg()
    st = cs.QueueState.zeros(cfg)
    d = cs.decide(st, (("a",), ("a",)), allow_idle=True)
    assert d.variant == IDLE
    st.source[:] = [1.0]
    d2 = cs.decide(st, (("a",), ("a",)), allow_idle=True)
    assert d2.variant == FIRST_HOP  # A > 0 transmits even with the flag on


def test_lyapunov_examples():
    cfg = cs.validate_config(make_doc(k=2, rates=((1.0, 1.0),)))
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [1.0, 2.0]
    assert cs.lyapunov(st) == 5.0
    assert cs.lyapunov(cs.QueueState.zeros(cfg)) == 0.0

    cfg2 = cs.validate_config(make_doc(k=1, rates=((2.0,),)))
    st2 = cs.QueueState.zeros(cfg2)
    st2.source[:] = [3.0]
    st2.relay[0, 0] = 2.0
    assert cs.lyapunov(st2) == 9.0 + 16.0


def test_second_hop_weight_scales_linearly():
    cfg = cs.validate_config(
        make_doc(n=2, k=2, alphabet=("a", "b"), rates=((1.0, 0.5), (0.25, 2.0)))
    )
    second_hop_space = list(itertools.product(cfg.fading.alphabet, repeat=4))
    f1 = cfg.first_hop_space[0]
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = cs.QueueState.zeros(cfg)
        st.relay[:] = rng.uniform(0, 40, size=st.relay.shape)
        f = (f1, second_hop_space[int(rng.integers(0, len(second_hop_space)))])
        base = cs.decide(st, f)  # empty sources: A <= 0 < B
        c = float(rng.uniform(0.1, 9.0))
        scaled = cs.QueueState.from_values(cfg, st.source * c, st.relay * c)
        out = cs.decide(scaled, f)
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
        st2 = cs.QueueState.from_values(other, st.source, st.relay)
        f = desk.sorted_states[int(rng.integers(0, len(desk.sorted_states)))]
        d1 = cs.decide(st, f)
        d2 = cs.decide(st2, f)
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
        d = cs.decide(st, f)
        variant, m, g1, bf_a, bf_b = bruteforce_decide(st, f)
        assert (d.variant, d.m, d.g1) == (variant, m, g1)
        assert d.weight_first == bf_a
        assert d.weight_second == bf_b
