import numpy as np
import pytest

import coopsim as cs
from coopsim.sim import snapshot_header
from configs import make_doc
from oracles import apply_first_hop, apply_idle, apply_second_hop


def _cfg(n=1, k=1, rates=((1.0,),), alphabet=("a",), T=10):
    return cs.validate_config(make_doc(n=n, k=k, T=T, alphabet=alphabet, rates=rates))


def test_first_hop_basic():
    cfg = _cfg(n=2, rates=((0.5,),))
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [8.0]
    out = apply_first_hop(st, [3.0], 0, ("a", "a"))
    assert out.source.tolist() == [6.0]
    assert out.relay.tolist() == [[10.0]]  # queue (m0, a|a), the same at both relays
    assert st.source.tolist() == [8.0] and not st.relay.any()  # input untouched


def test_first_hop_clamps_at_zero():
    cfg = _cfg(rates=((0.5,),))
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [2.0]
    out = apply_first_hop(st, [0.0], 0, ("a",))
    assert out.source.tolist() == [0.0]
    assert out.relay[0, 0] == 10.0


def test_first_hop_componentwise():
    cfg = _cfg(k=2, rates=((1.0, 0.5),), T=4)
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [10.0, 10.0]
    out = apply_first_hop(st, [1.0, 1.0], 0, ("a",))
    assert out.source.tolist() == [7.0, 9.0]


def test_second_hop_basic():
    cfg = _cfg(n=2)
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [1.0]
    st.relay[0, 0] = 10.0
    out = apply_second_hop(st, [2.0], 0, ("a", "a"))
    assert out.source.tolist() == [3.0]
    assert np.all(out.relay == 0.0)


def test_second_hop_clamps_at_zero():
    cfg = _cfg()
    st = cs.QueueState.zeros(cfg)
    st.relay[0, 0] = 4.0
    out = apply_second_hop(st, [0.0], 0, ("a",))
    assert out.relay[0, 0] == 0.0


def test_second_hop_fixed_point():
    cfg = _cfg(k=2, rates=((1.0, 1.0),))
    st = cs.QueueState.zeros(cfg)
    out = apply_second_hop(st, [0.0, 0.0], 0, ("a",))
    assert np.all(out.source == 0.0) and np.all(out.relay == 0.0)


def test_idle():
    cfg = _cfg()
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [1.0]
    assert apply_idle(st, [2.0]).source.tolist() == [3.0]
    assert apply_idle(st, [0.0]).source.tolist() == [1.0]
    cfg2 = _cfg(k=2, rates=((1.0, 1.0),))
    st2 = cs.QueueState.zeros(cfg2)
    st2.source[:] = [0.0, 5.0]
    assert apply_idle(st2, [1.0, 0.0]).source.tolist() == [1.0, 5.0]


def test_errors():
    cfg = _cfg()
    st = cs.QueueState.zeros(cfg)
    with pytest.raises(ValueError):
        apply_first_hop(st, [1.0], 5, ("a",))
    with pytest.raises(ValueError):
        apply_first_hop(st, [1.0, 2.0], 0, ("a",))
    with pytest.raises(ValueError):
        apply_second_hop(st, [1.0], 0, ("z",))


def test_bit_conservation_without_clamp():
    cfg = _cfg(k=2, rates=((1.0, 0.5),), T=4)
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [100.0, 100.0]
    arrivals = [3.0, 7.0]
    out = apply_first_hop(st, arrivals, 0, ("a",))
    drained = st.source.sum() + sum(arrivals) - out.source.sum()
    assert drained == (1.0 + 0.5) * 4


def test_random_walk_invariants():
    cfg = _cfg(n=2, k=2, alphabet=("a", "b"), rates=((1.0, 0.5), (0.25, 2.0)))
    rng = np.random.default_rng(5)
    st = cs.QueueState.zeros(cfg)
    T = cfg.shape.block_length
    for _ in range(400):
        arr = rng.integers(0, 10, size=2).astype(float)
        m = int(rng.integers(0, 2))
        g1 = cfg.first_hop_space[int(rng.integers(0, len(cfg.first_hop_space)))]
        op = rng.integers(0, 3)
        if op == 0:
            st = apply_first_hop(st, arr, m, g1)
        elif op == 1:
            st = apply_second_hop(st, arr, m, g1)
        else:
            st = apply_idle(st, arr)
        assert (st.source >= 0).all() and (st.relay >= 0).all()
        assert st.relay.shape == (len(cfg.schemes), len(cfg.first_hop_space))
        assert np.all(st.relay % T == 0)  # relay queues move in quanta of T


def test_first_then_second_round_trip():
    cfg = _cfg(n=2)
    st = cs.QueueState.zeros(cfg)
    st.source[:] = [1000.0]
    mid = apply_first_hop(st, [0.0], 0, ("a", "a"))
    out = apply_second_hop(mid, [0.0], 0, ("a", "a"))
    assert np.all(out.relay == 0.0)


def test_snapshot_layout():
    cfg = _cfg(n=2, k=2, alphabet=("a", "b"), rates=((1.0, 1.0), (2.0, 2.0)))
    header = snapshot_header(cfg)
    # block, Qs_1..Qs_K, then one relay's queues in (m, g1) lexicographic order
    assert len(header) == 1 + 2 + 2 * 4
    assert header[:3] == ["block", "Qs_1", "Qs_2"]
    assert header[3:7] == ["Q_m0_a|a", "Q_m0_a|b", "Q_m0_b|a", "Q_m0_b|b"]
    assert header[7] == "Q_m1_a|a"
