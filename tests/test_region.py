import numpy as np
import pytest

import coopsim as cs
from coopsim.region import LinearProgram, region_columns
from conftest import make_doc
from oracles import scale_oracle, slack_oracle


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


def test_solver_infeasible():
    wit = cs.solve_lp(_lp([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0]))
    assert wit.status == "infeasible"


def test_solver_unbounded():
    wit = cs.solve_lp(_lp([1.0], [[1.0]], [">="], [2.0]))
    assert wit.status == "unbounded"


def test_solver_reports_tiny_pivots():
    # the only ratio-eligible entry is far below the pivot tolerance
    with pytest.raises(cs.DegeneracyError):
        cs.solve_lp(_lp([1.0], [[1e-13]], ["<="], [1.0]))


def test_solver_mixed_senses():
    # max x + y s.t. x + y <= 4, x = 1  ->  5? no: objective x+2y, x=1, y<=3 -> 7
    wit = cs.solve_lp(
        _lp([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], ["<=", "="], [4.0, 1.0])
    )
    assert wit.status == "optimal"
    assert wit.value == pytest.approx(7.0, abs=1e-9)
    assert wit.x == pytest.approx([1.0, 3.0], abs=1e-9)


# -- LP structure -----------------------------------------------------------


def test_toy_slack_lp_shape(toy_single):
    lp = cs.build_slack_lp(toy_single, [0.4])
    assert len(lp.columns) == 3  # a, b, delta
    assert len(lp.rhs) == 3  # rate, flow, time
    labels = lp.column_labels()
    assert labels[-1] == "delta"
    assert labels[0].startswith("a[") and labels[1].startswith("b[")


def test_column_count_closed_form(desk):
    cols = region_columns(desk)
    n1 = len(desk.first_hop_space)
    n2 = len(desk.second_hop_space)
    expected = sum(n2 + n1 for _ in desk.support.triples)
    assert len(cols) == expected
    lp = cs.build_slack_lp(desk, [0.1, 0.1])
    assert len(lp.columns) == expected + 1


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


def test_witness_fractions_in_unit_interval(desk):
    wit = cs.scale_witness(desk, [1.0, 1.0])
    for val in list(wit.a.values()) + list(wit.b.values()):
        assert -1e-9 <= val <= 1.0 + 1e-9


def test_scale_inverse_in_direction_norm(desk):
    base = cs.boundary_scale(desk, [1.0, 1.0])
    for c in (0.5, 2.0, 3.7):
        got = cs.boundary_scale(desk, [c, c])
        assert got == pytest.approx(base / c, rel=1e-7)


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
    # every supported (m, g) class carries its own flow row demanding a
    # drain surplus of at least delta out of the shared time budget, so
    # adding classes can shrink the best uniform margin even though the
    # rate region itself only grows.  Pin one concrete instance.
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
