import numpy as np
import pytest

import coopsim as cs
from coopsim.region import LinearProgram
from conftest import make_doc
from oracles import _constraint_matrices, _oracle_columns, highs_value, scale_oracle, slack_oracle

# On the per-triple LP of this direction the solver once returned rho*
# 1.76082, with a witness breaking a time row by 0.386; HiGHS gives this value.
PINNED_DIRECTION = (0.6263039869788208, 0.7430217329347985)
PINNED_RHO = 1.7510870485311762


def _lp(objective, matrix, senses, rhs):
    return LinearProgram(
        objective=np.asarray(objective, dtype=float),
        matrix=np.asarray(matrix, dtype=float),
        senses=tuple(senses),
        rhs=np.asarray(rhs, dtype=float),
        columns=(("x",),) * len(objective),
    )


def test_solver_simple_bounded():
    wit = cs.solve_lp(_lp([1.0], [[1.0]], ["<="], [3.0]))
    assert wit.status == "optimal"
    assert wit.value == pytest.approx(3.0, abs=1e-9)


def test_solver_rejects_rows_that_exclude_the_origin():
    # x = 0 must be feasible: only "<=" rows with a non-negative rhs
    for senses, rhs in (([">="], [2.0]), (["="], [2.0]), (["<="], [-2.0]), (["<="], [np.nan])):
        with pytest.raises(ValueError):
            cs.solve_lp(_lp([1.0], [[1.0]], senses, rhs))


def test_solver_unbounded():
    wit = cs.solve_lp(_lp([1.0], [[-1.0]], ["<="], [2.0]))
    assert wit.status == "unbounded"
    assert cs.solve_lp(_lp([1.0], np.zeros((0, 1)), [], [])).status == "unbounded"  # no rows at all


def test_solver_rejects_non_2d_matrix():
    # a flat matrix is not reshaped into a guessed row count
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        cs.solve_lp(_lp([1.0], [1.0], ["<="], [3.0]))


def test_solver_reports_tiny_pivots():
    # the only ratio-eligible entry is far below the pivot tolerance
    with pytest.raises(cs.DegeneracyError):
        cs.solve_lp(_lp([1.0], [[1e-13]], ["<="], [1.0]))


def test_solver_two_rows():
    # max x + 2y s.t. x + y <= 4, y <= 3  ->  (1, 3), value 7
    wit = cs.solve_lp(
        _lp([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], ["<=", "<="], [4.0, 3.0])
    )
    assert wit.status == "optimal"
    assert wit.value == pytest.approx(7.0, abs=1e-9)
    assert wit.x == pytest.approx([1.0, 3.0], abs=1e-9)


def test_solver_terminates_on_beales_cycling_lp(monkeypatch):
    # Beale's LP cycles under Dantzig's rule with lowest-index ties.  Solve it
    # under Devex, then with Bland's rule taking over at the first pivot
    # that does not improve the objective.
    import coopsim.region as region

    lp = _lp(
        [0.75, -20.0, 0.5, -6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ["<="] * 3,
        [0.0, 0.0, 1.0],
    )
    for stall_limit, bland_from in ((region.STALL_LIMIT, None), (0, 1)):
        monkeypatch.setattr(region, "STALL_LIMIT", stall_limit)
        wit = cs.solve_lp(lp)
        assert wit.status == "optimal"
        assert wit.value == pytest.approx(1.25, abs=1e-12)
        assert wit.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
        assert wit.stats.bland_from == bland_from
        assert wit.stats.pivots <= 10


# -- LP structure -----------------------------------------------------------


def test_toy_slack_lp_shape(toy_single):
    lp = cs.build_slack_lp(toy_single, [0.4])
    state = (("a",), ("a",))
    assert lp.columns == (("a", 0, ("a",), state), ("b", 0, ("a",), state), ("delta",))
    assert len(lp.rhs) == 3  # rate, flow, time


def test_column_count_closed_form(desk):
    # a: one column per (m, g1) class and drawable state with f1 = g1;
    # b: one per support triple and drawable state with f2 = g2
    drawable = [f for f in desk.sorted_states if desk.probability(f) > 0]
    classes = {(m, g1) for m, g1, _ in desk.support.triples}
    expected = sum(sum(f[0] == g1 for f in drawable) for _, g1 in classes)
    expected += sum(sum(f[1] == g2 for f in drawable) for _, _, g2 in desk.support.triples)
    assert expected == 384
    for lp in (cs.build_slack_lp(desk, [0.1, 0.1]), cs.build_scale_lp(desk, [1.0, 1.0])):
        assert lp.matrix.shape == (2 + len(classes) + len(drawable), expected + 1) == (78, 385)
        assert len(lp.columns) == expected + 1


def test_zero_probability_states_add_no_rows():
    # the good/bad toy plus a p = 0 state (B, B), the only state that could
    # fill class (0, B): (B, B) gets no time row and no column; same rho
    doc = make_doc(alphabet=("G", "B"))
    doc["fading"]["states"] = [
        {"f1": ["G"], "f2": ["G"], "p": 0.5},
        {"f1": ["G"], "f2": ["B"], "p": 0.5},
        {"f1": ["B"], "f2": ["B"], "p": 0.0},
    ]
    doc["support"] = [{"m": 0, "g1": ["G"], "g2": ["G"]}, {"m": 0, "g1": ["B"], "g2": ["B"]}]
    cfg = cs.validate_config(doc)
    lp = cs.build_scale_lp(cfg, [1.0])
    assert lp.matrix.shape == (1 + 2 + 2, 4 + 1)  # rate, 2 classes, 2 states
    assert all(col[3][0] == ("G",) for col in lp.columns[:-1])
    assert [col[:3] for col in lp.columns[:-1]] == [
        ("a", 0, ("G",)), ("a", 0, ("G",)), ("b", 0, ("G",)), ("b", 0, ("B",))
    ]
    assert cs.boundary_scale(cfg, [1.0]) == pytest.approx(0.5, abs=1e-12)


def test_zero_rate_interior(toy_single):
    # with lam = 0 the slack is capped by the time budget: a=1/3, b=2/3
    assert cs.interior_slack(toy_single, [0.0]) == pytest.approx(1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize(
    "lam,expected",
    [(0.4, 1.0 / 15.0), (0.5, 0.0), (0.6, -1.0 / 15.0)],
)
def test_toy_slack_closed_forms(toy_single, lam, expected):
    got = cs.interior_slack(toy_single, [lam])
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(slack_oracle(toy_single, [lam]), abs=1e-5)


def test_toy_scale(toy_single):
    got = cs.boundary_scale(toy_single, [1.0])
    assert got == pytest.approx(0.5, abs=1e-9)
    assert got == pytest.approx(scale_oracle(toy_single, [1.0]), abs=1e-5)


def test_goodbad_scale_and_slack(toy_goodbad):
    rho = cs.boundary_scale(toy_goodbad, [1.0])
    assert rho == pytest.approx(0.5, abs=1e-9)
    assert rho == pytest.approx(scale_oracle(toy_goodbad, [1.0]), abs=1e-5)
    delta = cs.interior_slack(toy_goodbad, [0.4])
    assert delta == pytest.approx(0.05, abs=1e-9)
    assert delta == pytest.approx(slack_oracle(toy_goodbad, [0.4]), abs=1e-5)


def test_empty_support_zero_throughput():
    cfg = cs.validate_config(make_doc(support=[]))
    assert cs.boundary_scale(cfg, [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_direction_validation(toy_single):
    with pytest.raises(ValueError):
        cs.boundary_scale(toy_single, [0.0])
    with pytest.raises(ValueError):
        cs.boundary_scale(toy_single, [-1.0])
    with pytest.raises(ValueError):
        cs.interior_slack(toy_single, [-0.1])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="direction entries must be finite"):
            cs.build_scale_lp(toy_single, [bad])
        with pytest.raises(ValueError, match="lambda entries must be finite"):
            cs.build_slack_lp(toy_single, [bad])


def test_witness_replay(toy_single, toy_goodbad, desk):
    for cfg, lam in ((toy_single, [0.4]), (toy_goodbad, [0.3]), (desk, [0.5, 0.7])):
        wit = cs.slack_witness(cfg, lam)
        assert wit.status == "optimal"
        assert cs.witness_max_violation(cfg, wit, lam=lam) <= 1e-7
    for cfg, direction in ((toy_single, [1.0]), (toy_goodbad, [1.0]), (desk, [1.0, 1.0])):
        wit = cs.scale_witness(cfg, direction)
        assert wit.status == "optimal"
        assert cs.witness_max_violation(cfg, wit, direction=direction) <= 1e-7


def test_witness_replay_rejects_misplaced_fractions(desk):
    wit = cs.scale_witness(desk, [1.0, 1.0])
    (f, m, g1), val = next(iter(wit.a.items()))
    other = next(s for s in desk.sorted_states if s[0] != g1)
    moved = cs.RegionWitness("optimal", "scale", wit.value, a={**wit.a, (other, m, g1): 0.0}, b=wit.b)
    assert cs.witness_max_violation(desk, moved, direction=[1.0, 1.0]) == np.inf  # a needs f1 = g1
    (f, m, g1), val = next(iter(wit.b.items()))
    unsupported = next(s for s in desk.sorted_states if (m, g1, s[1]) not in desk.support)
    moved = cs.RegionWitness("optimal", "scale", wit.value, a=wit.a, b={**wit.b, (unsupported, m, g1): 0.0})
    assert cs.witness_max_violation(desk, moved, direction=[1.0, 1.0]) == np.inf  # b needs support


def test_witness_fractions_in_unit_interval(desk):
    wit = cs.scale_witness(desk, [1.0, 1.0])
    for val in list(wit.a.values()) + list(wit.b.values()):
        assert -1e-9 <= val <= 1.0 + 1e-9


def test_scale_inverse_in_direction_norm(desk):
    base = cs.boundary_scale(desk, [1.0, 1.0])
    for c in (0.5, 2.0, 3.7):
        got = cs.boundary_scale(desk, [c, c])
        assert got == pytest.approx(base / c, rel=1e-7)


def test_scale_exact_at_extreme_direction_scales(desk):
    # the solver's tolerances are not scale-free: unless the direction is
    # rescaled, these read 0, overflow or fail a pivot
    base = cs.boundary_scale(desk, [1.0, 1.0])
    for c in (1e-13, 1e10, 1e155, 1e300):
        assert cs.boundary_scale(desk, [c, c]) * c == pytest.approx(base, rel=1e-12)


def test_support_monotonicity_of_scale(toy_goodbad, desk):
    # removing supported triples never enlarges the region
    doc = desk.to_document()
    doc["support"] = doc["support"][: len(doc["support"]) // 2]
    smaller = cs.validate_config(doc)
    assert cs.boundary_scale(smaller, [1.0, 1.0]) <= cs.boundary_scale(desk, [1.0, 1.0]) + 1e-9

    # and enlarging the good/bad toy helps: support the bad state too
    doc = toy_goodbad.to_document()
    doc["support"].append({"m": 0, "g1": ["G"], "g2": ["B"]})
    bigger = cs.validate_config(doc)
    assert cs.boundary_scale(bigger, [1.0]) >= 0.5 - 1e-9


def test_slack_is_not_monotone_in_support(desk):
    # The uniform margin delta is NOT monotone in the support relation:
    # every relay queue (m, g1) carries its own flow row demanding a drain
    # surplus of at least delta out of the shared time budget, so adding
    # classes can shrink the best uniform margin even though the rate region
    # itself only grows.  Pin one concrete instance (0.0681 > 0.0357).
    doc = desk.to_document()
    doc["support"] = doc["support"][: len(doc["support"]) // 2]
    smaller = cs.validate_config(doc)
    lam = [0.3, 0.3]
    assert cs.interior_slack(smaller, lam) > cs.interior_slack(desk, lam)


def test_midpoint_convexity_small(desk):
    rng = np.random.default_rng(17)
    rho_cache = {}
    for _ in range(8):
        d1 = tuple(rng.uniform(0.2, 1.0, size=2))
        d2 = tuple(rng.uniform(0.2, 1.0, size=2))
        for d in (d1, d2):
            if d not in rho_cache:
                rho_cache[d] = cs.boundary_scale(desk, d)
        lam1 = rng.uniform(0, 1) * rho_cache[d1] * np.asarray(d1)
        lam2 = rng.uniform(0, 1) * rho_cache[d2] * np.asarray(d2)
        mid = 0.5 * (lam1 + lam2)
        assert cs.interior_slack(desk, mid) >= -1e-9


def test_desk_slack_sign_tracks_boundary(desk):
    rho = cs.boundary_scale(desk, [1.0, 1.0])
    inside = cs.interior_slack(desk, [0.9 * rho, 0.9 * rho])
    outside = cs.interior_slack(desk, [1.1 * rho, 1.1 * rho])
    assert inside > 0.0
    assert outside < 0.0


def test_solver_never_returns_a_broken_optimum(desk):
    # The old per-triple scale LP for the pinned direction: the solver must
    # either raise or agree with HiGHS, never report a wrong optimum.
    pytest.importorskip("scipy")
    rate, flow, time = _constraint_matrices(desk, _oracle_columns(desk))
    zero = np.zeros((len(flow) + len(time), 1))
    matrix = np.vstack([np.hstack([-rate, np.asarray(PINNED_DIRECTION)[:, None]]), np.hstack([np.vstack([flow, time]), zero])])
    senses = ("<=",) * matrix.shape[0]  # fill - drain <= 0 per triple
    rhs = np.concatenate([np.zeros(len(rate) + len(flow)), np.ones(len(time))])
    objective = np.zeros(matrix.shape[1])
    objective[-1] = 1.0
    lp = _lp(objective, matrix, senses, rhs)
    assert matrix.shape == (114, 961)
    ref = highs_value(lp)
    assert ref == pytest.approx(PINNED_RHO, abs=1e-9)
    try:
        wit = cs.solve_lp(lp)
    except cs.DegeneracyError:
        return
    assert wit.status == "optimal"
    assert wit.value == pytest.approx(ref, abs=1e-7)


def test_post_solve_check_rejects_a_broken_point(monkeypatch):
    # force the check to see a point that breaks its row
    import coopsim.region as region

    real = region._check_primal
    monkeypatch.setattr(region, "_check_primal", lambda m, r, x: real(m, r, x + 1.0))
    with pytest.raises(cs.DegeneracyError, match="post-solve residual"):
        cs.solve_lp(_lp([1.0], [[1.0]], ["<="], [3.0]))


def test_dual_check_rejects_prices_that_do_not_bound_the_optimum(monkeypatch):
    # force the check to see prices of half the true ones: b.y < c.x
    import coopsim.region as region

    real = region._check_dual
    monkeypatch.setattr(region, "_check_dual", lambda m, r, c, x, y: real(m, r, c, x, 0.5 * y))
    with pytest.raises(cs.DegeneracyError, match="dual residual"):
        cs.solve_lp(_lp([1.0], [[1.0]], ["<="], [3.0]))


def test_singular_basis_at_refactorization_raises(monkeypatch):
    import coopsim.region as region

    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(region, "REFACTOR_EVERY", 1)
    monkeypatch.setattr(region.np.linalg, "inv", singular)
    with pytest.raises(cs.DegeneracyError, match="singular"):
        cs.solve_lp(_lp([1.0], [[1.0]], ["<="], [3.0]))


def test_pinned_direction_matches_highs(desk):
    assert cs.boundary_scale(desk, PINNED_DIRECTION) == pytest.approx(PINNED_RHO, abs=1e-9)


def _replay_config():
    # N=1, K=2 over {G, B}; the p = 0 state (G, GG) stays in the table
    states = [
        (("G",), ("G", "G"), 0.0),
        (("B",), ("B", "G"), 1 / 6),
        (("G",), ("G", "B"), 5 / 12),
        (("B",), ("G", "G"), 5 / 12),
    ]
    return cs.validate_config(make_doc(
        n=1,
        k=2,
        alphabet=("G", "B"),
        rates=((1.0, 0.0), (0.5, 0.5)),
        support=[{"m": 0, "g1": ["G"], "g2": ["B", "G"]}, {"m": 1, "g1": ["G"], "g2": ["G", "G"]}],
        states=[{"f1": list(f1), "f2": list(f2), "p": p} for f1, f2, p in states],
    ))


def _replay_witness(drain_1):
    # rho* = 5/18: a = 1/3 into class (0, G) and 2/3 into (1, G) under (G, GB);
    # (0, G) drains 5/6 under (B, BG), (1, G) drains drain_1 under (B, GG)
    fill = (("G",), ("G", "B"))
    return cs.RegionWitness(
        "optimal",
        "scale",
        5 / 18,
        a={(fill, 0, ("G",)): 1 / 3, (fill, 1, ("G",)): 2 / 3},
        b={((("B",), ("B", "G")), 0, ("G",)): 5 / 6, ((("B",), ("G", "G")), 1, ("G",)): drain_1},
    )


def test_replay_accepts_an_over_drained_class():
    # fill 5/18 <= drain 5/12 in class (1, G): as good as balanced
    cfg = _replay_config()
    assert cs.boundary_scale(cfg, [1.0, 0.5]) == pytest.approx(5 / 18, abs=1e-12)
    assert cs.witness_max_violation(cfg, _replay_witness(1.0), direction=[1.0, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_replay_rejects_an_under_drained_class():
    # fill 5/18 > drain 5/24 in class (1, G): breached by 5/72
    cfg = _replay_config()
    worst = cs.witness_max_violation(cfg, _replay_witness(0.5), direction=[1.0, 0.5])
    assert worst == pytest.approx(5 / 72, abs=1e-12)
