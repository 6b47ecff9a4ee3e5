"""Throughput-region linear programs and a small dense simplex solver.

The throughput region of the network is the set of arrival-rate vectors
(bits/symbol per destination) for which time-sharing fractions exist.  The
flow classes are the relays' own queues: the (m, g1) pairs of the support.
The states are the fading table's states with p > 0.  ``a_f^{m,g1}`` is the
fraction of blocks in state f spent sending first-hop packets into class
(m, g1), ``b_f^{m,g1}`` the fraction spent draining it on the second hop.
Columns exist only where they can be nonzero: ``a`` needs f1 = g1, ``b``
needs (m, g1, f2) supported.  The constraint system is

    rate    sum_{f,m,g1} pi_f r_m^k a_f^{m,g1} >= (target rate)_k   per k
    flow    sum_f pi_f a_f^{m,g1}  <=  sum_f pi_f b_f^{m,g1}        per (m,g1)
    time    sum_{m,g1} (a_f^{m,g1} + b_f^{m,g1}) <= 1                per f

This region is exact.  A first-hop packet enters queue (m, g1) whichever
second-hop state later drains it, so a per-(m, g1, g2) solution sums to a
per-class one, and a per-class one splits back across g2 in proportion to
its drain flow under each.  A p = 0 state carries no rate and no flow.  The
flow row may be an inequality because fill = drain admits the same rate
vectors: in a class drained more than it is filled, scale every b down by
the factor fill/drain.  Its drain then equals its fill, no rate row reads
a b, and every time row only loosens.

Two queries are exposed.  ``boundary_scale`` pushes rho * direction as far
as possible (rate rows relaxed to >=, excess is discardable).  The slack
query ``interior_slack`` maximizes the uniform margin delta by which every
rate row and every relay queue's flow row holds strictly; delta > 0
certifies a strictly interior rate vector, delta <= 0 a boundary or
exterior one.  Since every column of a LinearProgram is non-negative while
delta may legitimately be negative, the slack LP optimizes the shifted
variable d = delta + shift (shift = max(lambda) + 1, a lower bound
certified by the all-zero assignment) and the reported value is d - shift.

Both LPs are written as ``<=`` rows with a non-negative rhs, so x = 0 is
feasible and the solver is a deterministic dense one-phase simplex that
starts from the slack basis.  Pricing is Dantzig's (most negative reduced
cost, ties to the lowest index) while the objective improves; if it stalls
on degenerate pivots the solver switches to Bland's anti-cycling rule
(lowest eligible index, leaving ties broken by lowest basic-variable
index), which guarantees termination.  Both rules are deterministic, so a
fixed LP always produces the same solution.  An optimum is checked from
both sides before it is returned: x is replayed against the rows
(achievable), and the row prices y, the slack columns' final reduced
costs, must satisfy y >= 0, A^T y >= c and b.y = c.x, which by weak
duality bounds every feasible objective by c.x (maximal).  Desk-scale
problems stay below a few hundred columns, where determinism and zero
dependencies matter more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import NetworkConfig

PIVOT_TOL = 1e-12  # relative to the entering column's largest magnitude (at least 1)
ENTER_TOL = 1e-9
RESIDUAL_TOL = 1e-9  # post-solve checks, relative to each row's magnitude
MAX_PIVOTS = 200_000


class SolverError(RuntimeError):
    """The simplex could not certify an optimum."""


class DegeneracyError(SolverError):
    """A pivot fell below tolerance, or an optimum failed a post-solve check."""


@dataclass
class LinearProgram:
    """maximize objective @ x  s.t.  matrix @ x (sense) rhs,  x >= 0."""

    objective: np.ndarray
    matrix: np.ndarray
    senses: tuple  # "<=" per row, the only sense solve_lp takes
    rhs: np.ndarray
    columns: tuple  # per-column tags: ("a", m, g1, f), ("b", m, g1, f), ("delta",), ("rho",)
    kind: str = "generic"  # "slack" | "scale" | "generic"
    objective_shift: float = 0.0  # reported value = raw optimum - shift


@dataclass
class RegionWitness:
    """Feasibility certificate: time-sharing fractions plus the margin.

    ``value`` is the slack delta (kind "slack"), the scale rho (kind
    "scale") or the raw objective (generic LPs).  ``a`` and ``b`` hold the
    nonzero fractions keyed (f, m, g1).
    """

    status: str  # "optimal" | "unbounded"
    kind: str
    value: float
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    x: np.ndarray | None = None


# ---------------------------------------------------------------------------
# simplex core


def _pivot(tab: np.ndarray, cost: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    cost -= cost[col] * tab[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    cost[col] = 0.0
    basis[row] = col


def _ratio_row(tab: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Leaving row by minimum ratio, Bland tie-break.  None means unbounded."""
    column = tab[:, col]
    threshold = PIVOT_TOL * max(1.0, np.abs(column).max())
    eligible = column > threshold
    if not eligible.any():
        if (column > 1e-25).any():
            raise DegeneracyError(
                f"all candidate pivots in column {col} are below {threshold:.3g}"
            )
        return None
    ratios = np.full(len(column), np.inf)
    ratios[eligible] = tab[eligible, -1] / column[eligible]
    best = ratios.min()
    ties = np.nonzero(ratios == best)[0]
    return int(ties[np.argmin(basis[ties])])


STALL_LIMIT = 32  # degenerate pivots tolerated before Bland's rule kicks in


def _iterate(tab, cost, basis) -> str:
    bland = False
    stall = 0
    best = cost[-1]
    for _ in range(MAX_PIVOTS):
        reduced = cost[:-1]
        if bland:
            candidates = np.nonzero(reduced < -ENTER_TOL)[0]
            if candidates.size == 0:
                return "optimal"
            col = int(candidates[0])  # lowest eligible index
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -ENTER_TOL:
                return "optimal"
        row = _ratio_row(tab, basis, col)
        if row is None:
            return "unbounded"
        _pivot(tab, cost, basis, row, col)
        if not bland:
            if cost[-1] > best + 1e-12 * (1.0 + abs(best)):
                best = cost[-1]
                stall = 0
            else:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
    raise SolverError("simplex failed to converge within the pivot limit")


def _check_primal(matrix: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> None:
    """Raise DegeneracyError unless x >= 0 and every row holds, each to
    RESIDUAL_TOL relative to 1 + |rhs_i| + sum_j |A_ij x_j|."""
    gap = (matrix @ x - rhs) / (1.0 + np.abs(rhs) + np.abs(matrix) @ np.abs(x))
    worst = max(gap.max(initial=0.0), -x.min(initial=0.0) / (1.0 + np.abs(x).max(initial=0.0)))
    if worst > RESIDUAL_TOL:
        raise DegeneracyError(f"post-solve residual {worst:.3g} exceeds {RESIDUAL_TOL} (relative)")


def _check_dual(matrix, rhs, objective, x, y) -> None:
    """Raise DegeneracyError unless the row prices y prove x maximal: y >= 0,
    A^T y >= c and b.y = c.x, each to RESIDUAL_TOL relative to the
    magnitudes of its terms."""
    abs_y = np.abs(y)
    short = (objective - matrix.T @ y) / (1.0 + np.abs(objective) + np.abs(matrix).T @ abs_y)
    gap = abs(rhs @ y - objective @ x) / (1.0 + np.abs(rhs) @ abs_y + np.abs(objective) @ np.abs(x))
    worst = max(-y.min(initial=0.0) / (1.0 + abs_y.max(initial=0.0)), short.max(initial=0.0), gap)
    if worst > RESIDUAL_TOL:
        raise DegeneracyError(f"dual residual {worst:.3g} exceeds {RESIDUAL_TOL} (relative)")


def solve_lp(lp: LinearProgram) -> RegionWitness:
    """Solve with a one-phase dense simplex from the slack basis;
    deterministic for a fixed LP.

    Every row must be "<=" with a non-negative rhs, so that x = 0 is
    feasible; anything else raises ValueError.  An optimum that does not
    replay against every row, or whose prices do not prove it maximal,
    raises DegeneracyError.
    """
    matrix = np.asarray(lp.matrix, dtype=float)
    rhs = np.asarray(lp.rhs, dtype=float)
    objective = np.asarray(lp.objective, dtype=float)
    if matrix.ndim != 2 or matrix.shape != (len(lp.senses), len(objective)) or len(rhs) != len(lp.senses):
        raise ValueError("inconsistent LP dimensions")
    if any(s != "<=" for s in lp.senses):
        raise ValueError(f"solve_lp takes '<=' rows only, got {sorted(set(lp.senses) - {'<='})}")
    if not (rhs >= 0.0).all():
        raise ValueError("solve_lp needs a non-negative rhs")
    n_rows, n_cols = matrix.shape

    tab = np.hstack([matrix, np.eye(n_rows), rhs[:, None]])
    cost = np.zeros(n_cols + n_rows + 1)
    cost[:n_cols] = -objective
    basis = np.arange(n_cols, n_cols + n_rows)
    if _iterate(tab, cost, basis) == "unbounded":
        return RegionWitness(status="unbounded", kind=lp.kind, value=float("nan"))

    x_full = np.zeros(n_cols + n_rows)
    x_full[basis] = tab[:, -1]
    x = x_full[:n_cols]
    _check_primal(matrix, rhs, x)
    _check_dual(matrix, rhs, objective, x, cost[n_cols:-1])
    raw = float(np.dot(objective, x))
    wit = RegionWitness(
        status="optimal", kind=lp.kind, value=raw - lp.objective_shift, x=x
    )
    for j, col in enumerate(lp.columns):
        if col and col[0] in ("a", "b") and x[j] > PIVOT_TOL:
            _, m, g1, f = col
            target = wit.a if col[0] == "a" else wit.b
            target[(f, m, g1)] = float(x[j])
    return wit


# ---------------------------------------------------------------------------
# LP construction


def _classes(config: NetworkConfig) -> list:
    """The (m, g1) pairs of the support, ordered by scheme, then g1."""
    g1i = config.g1_index
    pairs = {(m, g1) for m, g1, _ in config.support.triples}
    return sorted(pairs, key=lambda c: (c[0], g1i[c[1]]))


def _assemble(config: NetworkConfig, extra_tag: tuple):
    """Shared rate/flow/time skeleton plus one trailing column the caller fills.

    Returns the column tags, the matrix and the slice of flow rows.
    """
    k_dest = config.shape.num_destinations
    classes = _classes(config)
    states = [f for f in config.sorted_states if config.fading.table[f] > 0.0]
    flow_row = {c: k_dest + i for i, c in enumerate(classes)}
    time_row = {f: k_dest + len(classes) + i for i, f in enumerate(states)}
    columns = []
    for m, g1 in classes:
        columns += [("a", m, g1, f) for f in states if f[0] == g1]
        columns += [("b", m, g1, f) for f in states if (m, g1, f[1]) in config.support]

    matrix = np.zeros((k_dest + len(classes) + len(states), len(columns) + 1))
    for j, (fam, m, g1, f) in enumerate(columns):
        pi = config.fading.table[f]
        if fam == "a":
            matrix[:k_dest, j] = -pi * config.rates[m]
            matrix[flow_row[(m, g1)], j] = pi
        else:
            matrix[flow_row[(m, g1)], j] = -pi
        matrix[time_row[f], j] = 1.0
    return tuple(columns) + (extra_tag,), matrix, slice(k_dest, k_dest + len(classes))


def build_slack_lp(config: NetworkConfig, lam) -> LinearProgram:
    """LP maximizing the interior margin delta of the rate vector lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (config.shape.num_destinations,):
        raise ValueError(f"lambda must have {config.shape.num_destinations} entries")
    if not np.isfinite(lam).all():
        raise ValueError("lambda entries must be finite")
    if (lam < 0).any():
        raise ValueError("lambda must be non-negative")

    shift = float(lam.max(initial=0.0)) + 1.0
    columns, matrix, flows = _assemble(config, ("delta",))
    k_dest = config.shape.num_destinations
    matrix[:k_dest, -1] = 1.0
    matrix[flows, -1] = 1.0

    rhs = np.ones(len(matrix))
    rhs[:k_dest] = shift - lam
    rhs[flows] = shift

    objective = np.zeros(len(columns))
    objective[-1] = 1.0
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=("<=",) * len(matrix),
        rhs=rhs,
        columns=columns,
        kind="slack",
        objective_shift=shift,
    )


def build_scale_lp(config: NetworkConfig, direction) -> LinearProgram:
    """LP maximizing rho with rho * direction achievable (rate rows >=)."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (config.shape.num_destinations,):
        raise ValueError(f"direction must have {config.shape.num_destinations} entries")
    if not np.isfinite(direction).all():
        raise ValueError("direction entries must be finite")
    if (direction < 0).any() or not (direction > 0).any():
        raise ValueError("direction must be non-negative with at least one positive entry")

    columns, matrix, flows = _assemble(config, ("rho",))
    k_dest = config.shape.num_destinations
    matrix[:k_dest, -1] = direction  # rho*dir_k - sum pi r a <= 0

    rhs = np.ones(len(matrix))
    rhs[:k_dest] = 0.0
    rhs[flows] = 0.0  # fill - drain <= 0

    objective = np.zeros(len(columns))
    objective[-1] = 1.0
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=("<=",) * len(matrix),
        rhs=rhs,
        columns=columns,
        kind="scale",
    )


# ---------------------------------------------------------------------------
# queries


def slack_witness(config: NetworkConfig, lam) -> RegionWitness:
    return solve_lp(build_slack_lp(config, lam))


def scale_witness(config: NetworkConfig, direction) -> RegionWitness:
    return solve_lp(build_scale_lp(config, direction))


def interior_slack(config: NetworkConfig, lam) -> float:
    """Largest delta with every rate/flow row satisfied by margin delta.

    Positive iff some epsilon > 0 keeps lam + epsilon*1 inside the region.
    """
    wit = slack_witness(config, lam)
    if wit.status != "optimal":
        raise SolverError(f"slack LP ended {wit.status}")
    return wit.value


def boundary_scale(config: NetworkConfig, direction) -> float:
    """Largest rho with rho * direction inside the region."""
    wit = scale_witness(config, direction)
    if wit.status != "optimal":
        raise SolverError(f"scale LP ended {wit.status}")
    return wit.value


def witness_max_violation(
    config: NetworkConfig, witness: RegionWitness, lam=None, direction=None
) -> float:
    """Replay a witness against the region constraints; max violation.

    Checked from first principles (the witness dicts), independent of the
    LP matrix that produced it: every relay queue (m, g1) is filled no more
    than it drains, less the margin (delta for slack, 0 for scale), and an
    entry outside its family's states counts as an infinite breach.
    """
    if witness.status != "optimal":
        raise ValueError("can only replay an optimal witness")
    rate = np.zeros(config.shape.num_destinations)
    flow = dict.fromkeys(_classes(config), 0.0)  # fill - drain per relay queue
    time_used: dict = {}
    worst = 0.0
    for (f, m, g1), val in witness.a.items():
        worst = max(worst, -val, 0.0 if f[0] == g1 else math.inf)
        rate += config.probability(f) * val * config.rates[m]
        flow[(m, g1)] = flow.get((m, g1), 0.0) + config.probability(f) * val
        time_used[f] = time_used.get(f, 0.0) + val
    for (f, m, g1), val in witness.b.items():
        worst = max(worst, -val, 0.0 if (m, g1, f[1]) in config.support else math.inf)
        flow[(m, g1)] -= config.probability(f) * val
        time_used[f] = time_used.get(f, 0.0) + val
    worst = max(worst, max(time_used.values(), default=1.0) - 1.0)

    if witness.kind == "slack":
        margin = witness.value
        target = np.asarray(lam, dtype=float) + margin
    elif witness.kind == "scale":
        margin = 0.0
        target = witness.value * np.asarray(direction, dtype=float)
    else:
        raise ValueError(f"cannot replay witness of kind {witness.kind!r}")
    worst = max(worst, float((target - rate).max()))
    return max(worst, max(flow.values(), default=-margin) + margin)
