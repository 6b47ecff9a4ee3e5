"""Differential test of the in-repo simplex against scipy's HiGHS.

Every optimum the package reports must match HiGHS on the very same
LinearProgram to 1e-7 relative, every state merged into a group must carry
its group's fraction in the witness, and the witness must replay against
the region constraints to 1e-7: on desk over random directions (scale LP)
and random loads up to 1.2 rho* (slack LP), on small random configs with
sparse fading tables, zero-probability states and random support, on
seven generated N = 3 configs (333- to 335-row scale LPs) and on one
generated N = 4 config (an 899 x 16412 scale LP).  HiGHS on the package's
own LP cannot see a wrong merge of states, so the desk slack directions,
the small configs and a hand-built config where every f2 drains every
class are also checked against HiGHS on the unaggregated per-triple,
per-state formulation (``oracles.per_triple_value``).

Hypothesis 6.155 also draws literal constants found in the imported
non-test modules (``src/coopsim/*``, ``bench/spans.py``, ``bench/stats.py``),
so editing a literal there changes the drawn examples, and a file run alone
draws different examples from the full tier-1 run.  Reproduce a failure
with the full tier-1 command, not with ``pytest tests/test_highs.py``.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import coopsim as cs  # noqa: E402
from configs import make_doc, small_configs, sparse_config  # noqa: E402
from oracles import highs_value, per_triple_value  # noqa: E402

TOL = 1e-7


def _members_share(lp, witness):
    """The witness holds one entry per member state of every nonzero a and
    b column, each equal to the column's value, and no other entry."""
    expanded = {"a": {}, "b": {}}
    for col, val in zip(lp.columns, witness.x):
        if col[0] in expanded and val > cs.region.PIVOT_TOL:
            family, m, g1, members = col
            expanded[family].update(((f, m, g1), float(val)) for f in members)
    assert (witness.a, witness.b) == (expanded["a"], expanded["b"])


def _agrees(config, witness, lp, per_triple=False, **target):
    """HiGHS's optimum on the same LP, which ``witness`` must match, as must
    HiGHS on the per-triple formulation with ``per_triple``."""
    assert witness.status == "optimal"
    refs = [highs_value(lp)]
    if per_triple:
        refs.append(per_triple_value(config, lp.kind, *target.values()))
    for ref in refs:
        assert abs(witness.value - ref) <= TOL * (1.0 + abs(ref)), (witness.value, ref)
    _members_share(lp, witness)
    assert cs.witness_max_violation(config, witness, **target) <= TOL
    return refs[0]


def _scale_and_slack(config, direction, fraction):
    lp = cs.build_scale_lp(config, direction)
    rho = _agrees(config, cs.solve_lp(lp), lp, per_triple=True, direction=direction)
    lam = fraction * rho * np.asarray(direction)
    lp = cs.build_slack_lp(config, lam)
    _agrees(config, cs.solve_lp(lp), lp, per_triple=True, lam=lam)


def test_desk_scale_matches_highs(desk):
    rng = np.random.default_rng(2024)
    for theta in rng.uniform(0.0, np.pi / 2, size=200):
        direction = np.array([np.cos(theta), np.sin(theta)])
        lp = cs.build_scale_lp(desk, direction)
        _agrees(desk, cs.solve_lp(lp), lp, direction=direction)


def test_desk_slack_matches_highs(desk):
    rng = np.random.default_rng(2025)
    for theta, fraction in zip(rng.uniform(0.0, np.pi / 2, size=30), rng.uniform(0.0, 1.2, size=30)):
        _scale_and_slack(desk, np.array([np.cos(theta), np.sin(theta)]), fraction)


def test_every_f2_draining_every_class_merges_per_f1():
    # N = K = 1 over {G, B}, one class (0, G) that every f2 drains, so the
    # four states merge into one group per f1: pi = 3/8 for G, 5/8 for B.
    # rho* = 2 * 3/8: fill at rate 2 in all of G's time, drain in 3/5 of
    # B's.  At lambda = 1/2, delta* = 1/4: rate 3/4 - 1/2 and flow
    # 3/8 - 5/8 with a = 1 under G and b = 1 under B.
    probs = {("G", "G"): 0.125, ("G", "B"): 0.25, ("B", "G"): 0.375, ("B", "B"): 0.25}
    config = cs.validate_config(make_doc(
        alphabet=("G", "B"),
        rates=((2.0,),),
        support=[{"m": 0, "g1": ["G"], "g2": [g2]} for g2 in "GB"],
        states=[{"f1": [f1], "f2": [f2], "p": p} for (f1, f2), p in probs.items()],
    ))
    lp = cs.build_scale_lp(config, [1.0])
    g_group = ((("G",), ("G",)), (("G",), ("B",)))  # sorted_states order: G before B
    b_group = ((("B",), ("G",)), (("B",), ("B",)))
    assert lp.columns == (("a", 0, ("G",), g_group), ("b", 0, ("G",), g_group), ("b", 0, ("G",), b_group), ("rho",))
    assert lp.matrix.shape == (1 + 1 + 2, 3 + 1)  # rate, flow, one time row per f1
    assert lp.matrix.tolist() == [
        [-0.75, 0.0, 0.0, 1.0], [0.375, -0.375, -0.625, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
    ]
    wit = cs.solve_lp(lp)
    assert wit.value == pytest.approx(0.75, abs=1e-12)
    _agrees(config, wit, lp, per_triple=True, direction=[1.0])
    assert wit.a == {(f, 0, ("G",)): pytest.approx(1.0, abs=1e-12) for f in g_group}
    assert wit.b == {(f, 0, ("G",)): pytest.approx(0.6, abs=1e-12) for f in b_group}
    lp = cs.build_slack_lp(config, [0.5])
    wit = cs.solve_lp(lp)
    assert wit.value == pytest.approx(0.25, abs=1e-12)
    _agrees(config, wit, lp, per_triple=True, lam=[0.5])


@st.composite
def lp_cases(draw):
    """A small config with a direction and a load fraction up to 1.2 rho*."""
    config = draw(small_configs())
    k = config.shape.num_destinations
    direction = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    return config, direction, draw(st.floats(0.0, 1.2))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(lp_cases())
def test_small_configs_match_highs(case):
    config, direction, fraction = case
    _scale_and_slack(config, direction, fraction)


@pytest.mark.parametrize(
    "seed,rho",
    [
        (1, 0.4999999999999999),
        (2, 0.9999999999999998),
        (3, 1.0000000000000004),
        (4, 1.0000000000000002),
        (5, 1.2000000000000006),
        (6, 0.8846153846153847),
        (19, 0.9600000000000001),
    ],
)
def test_generated_n3_scale_matches_highs(seed, rho):
    # N=3, K=3, M=4, 300 states; seed 6 once failed the post-solve replay.
    # 3 rate rows, 32 flow rows and one time row per group of states
    # sharing (f1, D(f2)): 300, less the one and two merges of seeds 2 and 5
    config = sparse_config(3, 3, 4, 300, seed)
    lp = cs.build_scale_lp(config, np.ones(3))
    assert lp.matrix.shape[0] == 335 - {2: 1, 5: 2}.get(seed, 0)
    assert _agrees(config, cs.solve_lp(lp), lp, direction=np.ones(3)) == pytest.approx(rho, abs=1e-12)


def test_generated_n4_scale_matches_highs():
    # N=4, K=3, M=6, 800 states; the dense tableau ran for minutes without an answer
    config = sparse_config(4, 3, 6, 800, 1)
    lp = cs.build_scale_lp(config, np.ones(3))
    assert lp.matrix.shape == (899, 16412)
    assert _agrees(config, cs.solve_lp(lp), lp, direction=np.ones(3)) == pytest.approx(1.147058823529411, abs=1e-12)
