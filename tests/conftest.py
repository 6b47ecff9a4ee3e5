import itertools
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def toy_single():
    return cs.load_config(CONFIG_DIR / "toy_single.json")


@pytest.fixture(scope="session")
def toy_goodbad():
    return cs.load_config(CONFIG_DIR / "toy_goodbad.json")


@pytest.fixture(scope="session")
def desk():
    return cs.load_config(CONFIG_DIR / "desk.json")


if st is not None:

    @st.composite
    def small_configs(draw):
        """N <= 3, K <= 2 over {G, B}: a sparse table whose first state has
        p = 0, halved integer rates and a random support of up to 8 triples."""
        n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        f1s = list(itertools.product("GB", repeat=n))
        f2s = list(itertools.product("GB", repeat=n * k))
        combos = list(itertools.product(f1s, f2s))
        states = draw(st.lists(st.sampled_from(combos), min_size=2, max_size=6, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(states) - 1, max_size=len(states) - 1))
        probs = [0.0] + [w / sum(weights) for w in weights]
        rates = draw(
            st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any), min_size=1, max_size=3)
        )
        triples = list(itertools.product(range(len(rates)), f1s, f2s))
        support = draw(st.lists(st.sampled_from(triples), max_size=8, unique=True))
        doc = make_doc(
            n=n,
            k=k,
            alphabet=("G", "B"),
            rates=[[r / 2 for r in row] for row in rates],
            support=[{"m": m, "g1": list(g1), "g2": list(g2)} for m, g1, g2 in support],
            states=[{"f1": list(f1), "f2": list(f2), "p": p} for (f1, f2), p in zip(states, probs)],
        )
        return cs.validate_config(doc)
