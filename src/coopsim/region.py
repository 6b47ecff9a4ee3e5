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
    flow    sum_f pi_f a_f^{m,g1}  =  sum_f pi_f b_f^{m,g1}         per (m,g1)
    time    sum_{m,g1} (a_f^{m,g1} + b_f^{m,g1}) <= 1                per f

This region is exact.  A first-hop packet enters queue (m, g1) whichever
second-hop state later drains it, so a per-(m, g1, g2) solution sums to a
per-class one, and a per-class one splits back across g2 in proportion to
its drain flow under each.  A p = 0 state carries no rate and no flow.

Two queries are exposed.  ``boundary_scale`` pushes rho * direction as far
as possible (rate rows relaxed to >=, excess is discardable).  The slack
query ``interior_slack`` maximizes the uniform margin delta by which every
rate row and every relay queue's flow row holds strictly; delta > 0
certifies a strictly interior rate vector, delta <= 0 a boundary or
exterior one.  Since every column of a LinearProgram is non-negative while
delta may legitimately be negative, the slack LP optimizes the shifted
variable d = delta + shift (shift = max(lambda) + 1, a lower bound
certified by the all-zero assignment) and the reported value is d - shift.

The solver is a deterministic dense two-phase simplex.  Pricing is
Dantzig's (most negative reduced cost, ties to the lowest index) while the
objective improves; if it stalls on degenerate pivots the solver switches
to Bland's anti-cycling rule (lowest eligible index, leaving ties broken
by lowest basic-variable index), which guarantees termination.  Both rules
are deterministic, so a fixed LP always produces the same solution.  An
optimum is replayed against the rows before it is returned.  Desk-scale
problems stay below a few hundred columns, where determinism and zero
dependencies matter more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import NetworkConfig

PIVOT_TOL = 1e-12
ENTER_TOL = 1e-9
FEAS_TOL = 1e-8
RESIDUAL_TOL = 1e-9  # post-solve check, relative to each row's magnitude
MAX_PIVOTS = 200_000


class SolverError(RuntimeError):
    """The simplex could not certify an optimum."""


class DegeneracyError(SolverError):
    """A pivot fell below 1e-12, or the returned point broke a constraint."""


@dataclass
class LinearProgram:
    """maximize objective @ x  s.t.  matrix @ x (sense) rhs,  x >= 0."""

    objective: np.ndarray
    matrix: np.ndarray
    senses: tuple  # "<=", "=" or ">=" per row
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

    status: str  # "optimal" | "infeasible" | "unbounded"
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
    eligible = column > PIVOT_TOL
    if not eligible.any():
        if (column > 1e-25).any():
            raise DegeneracyError(
                f"all candidate pivots in column {col} are below {PIVOT_TOL}"
            )
        return None
    ratios = np.full(len(column), np.inf)
    ratios[eligible] = tab[eligible, -1] / column[eligible]
    best = ratios.min()
    ties = np.nonzero(ratios == best)[0]
    return int(ties[np.argmin(basis[ties])])


STALL_LIMIT = 32  # degenerate pivots tolerated before Bland's rule kicks in


def _iterate(tab, cost, basis, allowed: np.ndarray) -> str:
    bland = False
    stall = 0
    best = cost[-1]
    for _ in range(MAX_PIVOTS):
        reduced = cost[:-1]
        if bland:
            candidates = np.nonzero(allowed & (reduced < -ENTER_TOL))[0]
            if candidates.size == 0:
                return "optimal"
            col = int(candidates[0])  # lowest eligible index
        else:
            masked = np.where(allowed, reduced, 0.0)
            col = int(np.argmin(masked))
            if masked[col] >= -ENTER_TOL:
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


def _cost_row(cvec: np.ndarray, tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    cost = cvec[basis] @ tab
    cost[:-1] -= cvec
    return cost


def _check_primal(matrix: np.ndarray, senses, rhs: np.ndarray, x: np.ndarray) -> None:
    """Raise DegeneracyError unless x >= 0 and every row holds, each to
    RESIDUAL_TOL relative to 1 + |rhs_i| + sum_j |A_ij x_j|."""
    gap = (matrix @ x - rhs) / (1.0 + np.abs(rhs) + np.abs(matrix) @ np.abs(x))
    sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])
    excess = np.where(sign == 0.0, np.abs(gap), sign * gap)
    worst = max(excess.max(initial=0.0), -x.min(initial=0.0) / (1.0 + np.abs(x).max(initial=0.0)))
    if worst > RESIDUAL_TOL:
        raise DegeneracyError(f"post-solve residual {worst:.3g} exceeds {RESIDUAL_TOL} (relative)")


def solve_lp(lp: LinearProgram) -> RegionWitness:
    """Solve with a two-phase dense simplex; deterministic for a fixed LP.

    An optimum that does not replay against every row raises DegeneracyError.
    """
    a_in = np.asarray(lp.matrix, dtype=float)
    b_in = np.asarray(lp.rhs, dtype=float).copy()
    if a_in.ndim != 2 or a_in.shape != (len(lp.senses), len(lp.objective)) or len(b_in) != len(lp.senses):
        raise ValueError("inconsistent LP dimensions")
    n_rows, n_cols = a_in.shape

    rows = a_in.copy()
    senses = list(lp.senses)
    for i in range(n_rows):
        if b_in[i] < 0.0:
            rows[i] = -rows[i]
            b_in[i] = -b_in[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_rows = [i for i, s in enumerate(senses) if s == "<="]
    surplus_rows = [i for i, s in enumerate(senses) if s == ">="]
    artif_rows = [i for i, s in enumerate(senses) if s in (">=", "=")]
    n_extra = len(slack_rows) + len(surplus_rows)
    total = n_cols + n_extra + len(artif_rows)

    tab = np.zeros((n_rows, total + 1))
    tab[:, :n_cols] = rows
    tab[:, -1] = b_in
    basis = np.empty(n_rows, dtype=int)
    for j, i in enumerate(slack_rows):
        tab[i, n_cols + j] = 1.0
        basis[i] = n_cols + j
    for j, i in enumerate(surplus_rows):
        tab[i, n_cols + len(slack_rows) + j] = -1.0
    first_artif = n_cols + n_extra
    for j, i in enumerate(artif_rows):
        tab[i, first_artif + j] = 1.0
        basis[i] = first_artif + j
    artificial = np.zeros(total, dtype=bool)
    artificial[first_artif:] = True

    if artif_rows:
        cvec1 = np.where(artificial, -1.0, 0.0)
        cost = _cost_row(cvec1, tab, basis)
        status = _iterate(tab, cost, basis, np.ones(total, dtype=bool))
        if status != "optimal" or cost[-1] < -FEAS_TOL * (1.0 + abs(b_in).max()):
            return RegionWitness(status="infeasible", kind=lp.kind, value=float("nan"))
        # drive leftover artificials out of the basis (their value is 0)
        for i in range(n_rows):
            if artificial[basis[i]]:
                usable = np.nonzero(~artificial & (np.abs(tab[i, :-1]) > PIVOT_TOL))[0]
                if usable.size:
                    _pivot(tab, cost, basis, i, int(usable[0]))

    cvec2 = np.zeros(total)
    cvec2[:n_cols] = lp.objective
    cost = _cost_row(cvec2, tab, basis)
    status = _iterate(tab, cost, basis, ~artificial)
    if status == "unbounded":
        return RegionWitness(status="unbounded", kind=lp.kind, value=float("nan"))

    x_full = np.zeros(total)
    x_full[basis] = tab[:, -1]
    x = x_full[:n_cols]
    _check_primal(a_in, lp.senses, np.asarray(lp.rhs, dtype=float), x)
    raw = float(np.dot(lp.objective, x))
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
    rhs[flows] = 0.0
    senses = ["<="] * len(matrix)
    senses[flows] = ["="] * (flows.stop - flows.start)

    objective = np.zeros(len(columns))
    objective[-1] = 1.0
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=tuple(senses),
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
    LP matrix that produced it: flows are balanced per relay queue (m, g1),
    and an entry outside its family's states counts as an infinite breach.
    """
    if witness.status != "optimal":
        raise ValueError("can only replay an optimal witness")
    rate = np.zeros(config.shape.num_destinations)
    flow = dict.fromkeys(_classes(config), 0.0)  # net inflow per relay queue
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
        delta = witness.value
        worst = max(worst, float((np.asarray(lam, dtype=float) + delta - rate).max()))
        worst = max(worst, max(flow.values(), default=-delta) + delta)
    elif witness.kind == "scale":
        worst = max(worst, float((witness.value * np.asarray(direction, dtype=float) - rate).max()))
        worst = max(worst, max(map(abs, flow.values()), default=0.0))
    else:
        raise ValueError(f"cannot replay witness of kind {witness.kind!r}")
    return worst
