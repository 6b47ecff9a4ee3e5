"""Config builders shared by the tests: the shipped configs' directory,
``make_doc`` (a small config document), ``sparse_config`` (a deterministic
sparse random config), the two zero-probability edge cases
``trailing_zero_doc`` and ``zero_gap_doc`` with the configs read from them,
``without_zero_rows`` (a document without its p = 0 rows) and, when
hypothesis is installed, the ``small_docs`` and ``small_configs``
strategies.  Nothing here imports pytest, so the module can be imported
outside a test run.
"""

import copy
import itertools
from pathlib import Path

import numpy as np

import coopsim as cs

try:
    from hypothesis import strategies as st
except ImportError:  # the property tests skip themselves through importorskip
    st = None

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_doc(n=1, k=1, T=10, alphabet=("a",), rates=((1.0,),), support="all", states=None):
    """Small config document builder; support='all' marks every triple supported."""
    if states is None:
        combos = [
            (f1, f2)
            for f1 in itertools.product(alphabet, repeat=n)
            for f2 in itertools.product(alphabet, repeat=n * k)
        ]
        p = 1.0 / len(combos)
        states = [{"f1": list(f1), "f2": list(f2), "p": p} for f1, f2 in combos]
    if support == "all":
        support = [
            {"m": m, "g1": list(g1), "g2": list(g2)}
            for m in range(len(rates))
            for g1 in itertools.product(alphabet, repeat=n)
            for g2 in itertools.product(alphabet, repeat=n * k)
        ]
    return {
        "shape": {"N": n, "K": k, "T": T},
        "fading": {"alphabet": list(alphabet), "states": states},
        "schemes": [{"id": i, "rates": list(r)} for i, r in enumerate(rates)],
        "support": support,
    }


def sparse_config(n, k, m, states, seed):
    """A deterministic sparse random config over {G, B}: ``states`` distinct
    (f1, f2) states with normalized random weights, integer rates in 0..3
    plus 1 toward destination m mod K, and each (m, g1, g2) triple over the
    drawn f2 set supported with probability 0.15."""
    rng = np.random.default_rng(seed)
    f1s = list(itertools.product("GB", repeat=n))
    f2s = list(itertools.product("GB", repeat=n * k))
    picks = sorted(rng.choice(len(f1s) * len(f2s), size=states, replace=False))
    drawn = [(f1s[i // len(f2s)], f2s[i % len(f2s)]) for i in picks]
    w = rng.random(states)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    rates = rng.integers(0, 4, (m, k)).astype(float)
    for i in range(m):
        rates[i, i % k] += 1.0
    g2s = sorted({f2 for _, f2 in drawn})
    support = [
        {"m": i, "g1": list(g1), "g2": list(g2)}
        for i in range(m)
        for g1 in f1s
        for g2 in g2s
        if rng.random() < 0.15
    ]
    doc = make_doc(
        n=n,
        k=k,
        T=10,
        alphabet=("G", "B"),
        rates=rates.tolist(),
        support=support,
        states=[{"f1": list(f1), "f2": list(f2), "p": float(p)} for (f1, f2), p in zip(drawn, w)],
    )
    return cs.validate_config(doc)


def without_zero_rows(doc):
    """A copy of the config document ``doc`` without its p = 0 fading rows."""
    doc = copy.deepcopy(doc)
    doc["fading"]["states"] = [s for s in doc["fading"]["states"] if s["p"] != 0.0]
    return doc


def trailing_zero_doc():
    """Two states whose last, in sorted order, has p = 0, and whose
    cumulative probabilities end just below the largest float below 1."""
    states = [
        {"f1": ["a"], "f2": ["a"], "p": 1.0 - 1e-13},
        {"f1": ["b"], "f2": ["b"], "p": 0.0},  # sorts last
    ]
    return make_doc(alphabet=("a", "b"), states=states)


def trailing_zero_config():
    """``trailing_zero_doc`` as read: its one state with p > 0, whose
    probability is the table's total."""
    config = cs.validate_config(trailing_zero_doc())
    assert config.cumulative_probs[-1] < np.nextafter(1.0, 0.0)
    assert config.sorted_states == ((("a",), ("a",)),)
    return config


def zero_gap_doc():
    """N = 1, K = 2 over {a, b}, all eight states listed in sorted order with
    p = 0 first, between the states with p > 0 and last."""
    probs = [0.0, 0.1, 0.0, 0.0, 0.3, 0.0, 0.6, 0.0]
    combos = itertools.product(itertools.product("ab", repeat=1), itertools.product("ab", repeat=2))
    states = [{"f1": list(f1), "f2": list(f2), "p": p} for (f1, f2), p in zip(combos, probs)]
    return make_doc(k=2, alphabet=("a", "b"), rates=((1.0, 0.5),), states=states)


def zero_gap_config():
    """``zero_gap_doc`` as read: its three states with p > 0, (a, ab),
    (b, aa) and (b, ba), with cumulative probabilities .1, .4, 1."""
    config = cs.validate_config(zero_gap_doc())
    assert config.sorted_states == ((("a",), ("a", "b")), (("b",), ("a", "a")), (("b",), ("b", "a")))
    assert [config.fading[f] for f in config.sorted_states] == [0.1, 0.3, 0.6]
    return config


if st is not None:

    @st.composite
    def small_docs(draw, ks=st.integers(1, 2)):
        """N <= 3 and K drawn from ``ks`` over {G, B}, N = 1 when K > 2: a
        sparse table whose first listed state has p = 0, halved integer rates
        and a random support of up to 8 triples, whose g2 is a listed state's
        f2 when K > 2 (a random one of 2**K would drain nothing)."""
        n, k = draw(st.integers(1, 3)), draw(ks)
        n = n if k <= 2 else 1
        f1s = list(itertools.product("GB", repeat=n))
        f2s = list(itertools.product("GB", repeat=n * k))
        combos = list(itertools.product(f1s, f2s))
        states = draw(st.lists(st.sampled_from(combos), min_size=2, max_size=6, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(states) - 1, max_size=len(states) - 1))
        probs = [0.0] + [w / sum(weights) for w in weights]
        rates = draw(
            st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any), min_size=1, max_size=3)
        )
        g2s = f2s if k <= 2 else sorted({f2 for _, f2 in states})
        triples = list(itertools.product(range(len(rates)), f1s, g2s))
        support = draw(st.lists(st.sampled_from(triples), max_size=8, unique=True))
        return make_doc(
            n=n,
            k=k,
            alphabet=("G", "B"),
            rates=[[r / 2 for r in row] for row in rates],
            support=[{"m": m, "g1": list(g1), "g2": list(g2)} for m, g1, g2 in support],
            states=[{"f1": list(f1), "f2": list(f2), "p": p} for (f1, f2), p in zip(states, probs)],
        )

    def small_configs(ks=st.integers(1, 2)):
        """The configs read from ``small_docs``."""
        return small_docs(ks).map(cs.validate_config)
