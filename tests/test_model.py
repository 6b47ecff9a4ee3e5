import json
import math

import numpy as np
import pytest

import coopsim as cs
from coopsim.model import fading_indices
from conftest import make_doc


def test_minimal_config_valid():
    cfg = cs.validate_config(make_doc())
    assert cfg.shape == cs.NetworkShape(1, 1, 10)
    assert cfg.schemes[0].rates == (1.0,)
    assert (0, ("a",), ("a",)) in cfg.support


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d["fading"]["states"][0].update(p=0.9), "distribution-not-normalized"),
        (lambda d: d["fading"]["states"][0].update(p=-0.5), "negative-probability"),
        (lambda d: d.update(schemes=[]), "empty-scheme-set"),
        (lambda d: d["schemes"][0].update(rates=[0.0]), "zero-rate-vector"),
        (lambda d: d["support"][0].update(m=5), "support-references-unknown-scheme"),
        (lambda d: d["support"][0].update(g1=["a", "a"]), "dimension-mismatch"),
        (lambda d: d["schemes"][0].update(rates=[1.0, 1.0]), "dimension-mismatch"),
        (lambda d: d.update(extra=1), "unknown-field"),
        (lambda d: d["shape"].update(T=0), "bad-shape"),
        (lambda d: d["schemes"][0].update(rates=[-1.0]), "negative-rate"),
        (lambda d: d["fading"]["states"][0].update(p=math.nan), "non-finite-probability"),
        (lambda d: d["fading"]["states"][0].update(p=math.inf), "non-finite-probability"),
        (lambda d: d["schemes"][0].update(rates=[math.inf]), "non-finite-rate"),
        (lambda d: d["schemes"][0].update(rates=[math.nan]), "non-finite-rate"),
        (lambda d: d["shape"].update(T=True), "boolean-value"),
        (lambda d: d["fading"]["states"][0].update(p=True), "boolean-value"),
        (lambda d: d["schemes"][0].update(rates=[True]), "boolean-value"),
        (lambda d: d["support"][0].update(m=False), "boolean-value"),
        (lambda d: d["shape"].update(N=1.9), "non-integral-value"),
        (lambda d: d["shape"].update(K=1.5), "non-integral-value"),
        (lambda d: d["shape"].update(T=10.5), "non-integral-value"),
        (lambda d: d["schemes"][0].update(id=0.7), "non-integral-value"),
        (lambda d: d["support"][0].update(m=0.5), "non-integral-value"),
        (lambda d: d["fading"].update(alphabet=[["a"]]), "bad-alphabet"),
        (lambda d: d["fading"]["states"][0].update(f1=[["a"]]), "dimension-mismatch"),
        (lambda d: d["support"][0].update(g2=[{"a": 1}]), "dimension-mismatch"),
    ],
)
def test_validation_errors(mutate, code):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(cs.ConfigError) as exc:
        cs.validate_config(doc)
    assert exc.value.code == code


def test_zero_rate_vector_rejected_multidest():
    doc = make_doc(k=2, rates=((0.0, 0.0),))
    with pytest.raises(cs.ConfigError) as exc:
        cs.validate_config(doc)
    assert exc.value.code == "zero-rate-vector"


def test_duplicate_state_rejected():
    doc = make_doc()
    doc["fading"]["states"] = [
        {"f1": ["a"], "f2": ["a"], "p": 0.5},
        {"f1": ["a"], "f2": ["a"], "p": 0.5},
    ]
    with pytest.raises(cs.ConfigError) as exc:
        cs.validate_config(doc)
    assert exc.value.code == "duplicate-state"


def test_validate_is_idempotent():
    doc = make_doc(n=2, k=2, alphabet=("G", "B"), rates=((1.0, 0.5), (0.25, 2.0)))
    cfg = cs.validate_config(doc)
    again = cs.validate_config(cfg)
    assert again == cfg
    assert cs.validate_config(cfg.to_document()) == cfg


def test_integral_floats_accepted_and_strings_rejected():
    doc = make_doc()
    doc["shape"].update(N=1.0, T=10.0)
    doc["schemes"][0]["id"] = 0.0
    assert cs.validate_config(doc) == cs.validate_config(make_doc())
    doc["shape"]["N"] = "1"
    with pytest.raises(cs.ConfigError) as exc:
        cs.validate_config(doc)
    assert exc.value.code == "bad-shape"


@pytest.mark.parametrize("name", ["toy_single", "toy_goodbad", "desk", "sparse"])
def test_to_document_round_trip(request, name):
    if name == "sparse":  # a p = 0 state and a support triple no drawable state reaches
        doc = make_doc(n=2, k=1, alphabet=("G", "B"), rates=((1.0,), (0.5,)), support=[])
        doc["fading"]["states"] = [
            {"f1": ["G", "B"], "f2": ["B", "G"], "p": 0.75},
            {"f1": ["B", "B"], "f2": ["G", "G"], "p": 0.25},
            {"f1": ["G", "G"], "f2": ["G", "G"], "p": 0.0},
        ]
        doc["support"] = [{"m": 1, "g1": ["G", "B"], "g2": ["B", "B"]}]
        cfg = cs.validate_config(doc)
    else:
        cfg = request.getfixturevalue(name)
    doc = cfg.to_document()
    again = cs.validate_config(json.loads(json.dumps(doc)))
    assert again == cfg
    assert again.to_document() == doc


def test_sparse_table_zero_states_implicit():
    doc = make_doc(alphabet=("a", "b"))
    doc["fading"]["states"] = [{"f1": ["a"], "f2": ["a"], "p": 1.0}]
    cfg = cs.validate_config(doc)
    assert cfg.probability((("b",), ("b",))) == 0.0


# -- sampling ---------------------------------------------------------------


def test_sample_point_mass():
    cfg = cs.validate_config(make_doc())
    idx = fading_indices(cfg, np.random.default_rng(0).random(100))
    assert idx.tolist() == [0] * 100
    assert cfg.sorted_states[0] == (("a",), ("a",))


def test_sample_two_state_frequency():
    doc = make_doc(alphabet=("a", "b"))
    doc["fading"]["states"] = [
        {"f1": ["a"], "f2": ["a"], "p": 0.5},
        {"f1": ["b"], "f2": ["b"], "p": 0.5},
    ]
    cfg = cs.validate_config(doc)
    n = 100_000
    idx = fading_indices(cfg, np.random.default_rng(42).random(n))
    assert cfg.sorted_states[0] == (("a",), ("a",))
    assert abs(np.count_nonzero(idx == 0) / n - 0.5) <= 0.01


def test_sample_determinism():
    doc = make_doc(alphabet=("a", "b"))
    doc["fading"]["states"] = [
        {"f1": ["a"], "f2": ["a"], "p": 0.3},
        {"f1": ["b"], "f2": ["b"], "p": 0.7},
    ]
    cfg = cs.validate_config(doc)
    a = fading_indices(cfg, np.random.default_rng(123).random(500))
    b = fading_indices(cfg, np.random.default_rng(123).random(500))
    assert np.array_equal(a, b)
    assert set(a.tolist()) == {0, 1}


def test_sample_empirical_convergence(desk):
    n = 100_000
    idx = fading_indices(desk, np.random.default_rng(3).random(n))
    counts = np.bincount(idx, minlength=len(desk.sorted_states))
    bound = 5.0 * math.sqrt(math.log(n) / n)
    for f, c in zip(desk.sorted_states, counts.tolist()):
        assert abs(c / n - desk.probability(f)) <= bound


# -- queue counts -----------------------------------------------------------


def test_encoding_count_examples():
    cfg = cs.validate_config(
        make_doc(n=2, k=1, alphabet=("a", "b"), rates=((1.0,),) * 4, support=[])
    )
    assert cs.queue_count_encoding_based(cfg) == 16
    assert cs.queue_count_encoding_based(cs.validate_config(make_doc())) == 1
    cfg3 = cs.validate_config(make_doc(alphabet=("a", "b"), rates=((1.0,),) * 3, support=[]))
    assert cs.queue_count_encoding_based(cfg3) == 6


def test_encoding_count_matches_dense_state(desk):
    state = cs.QueueState.zeros(desk)
    assert state.relay.size == cs.queue_count_encoding_based(desk)


def test_encoding_count_independent_of_destinations():
    one = cs.validate_config(make_doc(n=2, k=1, alphabet=("a", "b"), rates=((1.0,),), support=[]))
    two = cs.validate_config(
        make_doc(n=2, k=3, alphabet=("a", "b"), rates=((1.0, 1.0, 1.0),), support=[])
    )
    assert cs.queue_count_encoding_based(one) == cs.queue_count_encoding_based(two)


@pytest.mark.parametrize(
    "args,expected",
    [((4, 3, 2, 2), 32768), ((1, 1, 1, 1), 1), ((2, 2, 2, 1), 64)],
)
def test_state_count_examples(args, expected):
    assert cs.queue_count_state_based(*args) == expected


def test_state_count_ratio_law():
    for levels, fsize, n in [(4, 2, 2), (3, 3, 1), (2, 4, 3)]:
        for k in range(1, 5):
            a = cs.queue_count_state_based(levels, k, fsize, n)
            b = cs.queue_count_state_based(levels, k + 1, fsize, n)
            assert b % a == 0
            assert b // a == levels * fsize ** (n + 1)


def test_state_count_overflow_detected():
    with pytest.raises(cs.CountOverflowError):
        cs.queue_count_state_based(10, 50, 2, 1)
    with pytest.raises(ValueError):
        cs.queue_count_state_based(0, 1, 1, 1)
