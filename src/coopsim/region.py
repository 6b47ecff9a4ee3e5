"""Throughput-region linear programs and a revised simplex solver.

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
feasible and the solver is a deterministic one-phase revised simplex that
starts from the slack basis of [A | I].  It keeps the basis inverse B^-1
explicitly and updates it with one rank-1 step per pivot, together with
the basic values x_B = B^-1 b and the reduced costs, which move by a
multiple of the pivot row (row r of B^-1 [A | I]).  Every REFACTOR_EVERY
pivots, and again before an optimum is accepted if pivots came after the
last one, B^-1 is recomputed from the basis columns with numpy.linalg and
x_B and the reduced costs are recomputed from it.  So rounding from the
updates does not pile up, optimality is judged on fresh reduced costs,
and the reported x_B = B^-1 b and prices y = c_B B^-1 come from a fresh
inverse.  The entering column is picked by Devex pricing: the largest
d_j^2 / w_j over the improving reduced costs d_j, with reference weights
w_j updated from the pivot row and ties going to the lowest index.  If the
objective stalls on degenerate pivots the solver switches to Bland's
anti-cycling rule (lowest eligible index; leaving ties always go to the
lowest basic-variable index), which guarantees termination.  Every rule
is deterministic, so a fixed LP always produces the same solution under a
fixed BLAS build and thread count (threaded products on large LPs may round
differently under another thread count).

An optimum is certified from both sides before it is returned: x is
replayed against the rows (achievable), and the prices y must satisfy
y >= 0, A^T y >= c and b.y = c.x, which by weak duality bounds every
feasible objective by c.x (maximal).  ``SolveStats`` records what the
solver did: pivots, refactorizations, when Bland's rule took over, the
smallest pivot and the worst residual of each check.
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
class SolveStats:
    """What the simplex did on one LP.  ``bland_from`` is the pivot count at
    which Bland's rule took over, ``min_pivot`` the smallest accepted
    |pivot|, and the residuals are the worst relative ones of the two
    post-solve checks; each is None when it never happened."""

    pivots: int = 0
    refactorizations: int = 0
    bland_from: int | None = None
    min_pivot: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None


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
    stats: SolveStats | None = None


# ---------------------------------------------------------------------------
# simplex core


def _ratio_row(column: np.ndarray, x_b: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Leaving row by minimum ratio, Bland tie-break.  None means unbounded."""
    threshold = PIVOT_TOL * max(1.0, np.abs(column).max(initial=0.0))
    eligible = np.flatnonzero(column > threshold)
    if eligible.size == 0:
        if (column > 1e-25).any():
            raise DegeneracyError(
                f"all candidate pivots in column {col} are below {threshold:.3g}"
            )
        return None
    ratios = x_b[eligible] / column[eligible]
    ties = eligible[ratios == ratios.min()]
    return int(ties[np.argmin(basis[ties])])


STALL_LIMIT = 32  # degenerate pivots tolerated before Bland's rule kicks in
REFACTOR_EVERY = 50  # pivots between refactorizations of the basis inverse


class _Basis:
    """A basis of [A | I] with its explicit inverse, the basic values
    x_B = B^-1 b and the reduced costs d = c_B B^-1 [A | I] - [c | 0]."""

    def __init__(self, matrix, rhs, objective, stats):
        n_rows, n_cols = matrix.shape
        self.full = np.hstack([matrix, np.eye(n_rows)])
        # A region LP column has at most K + 2 nonzeros, so the pivot row is
        # summed over the nonzeros of [A | I], listed column by column.
        self.nz_cols, self.nz_rows = np.nonzero(self.full.T)
        self.nz_vals = self.full[self.nz_rows, self.nz_cols]
        self.rhs, self.stats = rhs, stats
        self.cost = np.concatenate((objective, np.zeros(n_rows)))
        self.cols = np.arange(n_cols, n_cols + n_rows)  # the slack basis: B = I
        self.inverse = np.eye(n_rows)
        self.recompute()

    def refactor(self) -> None:
        """Invert B from its columns, then recompute x_B and d."""
        try:
            self.inverse = np.linalg.inv(self.full[:, self.cols])
        except np.linalg.LinAlgError:
            raise DegeneracyError("the basis became singular") from None
        self.stats.refactorizations += 1
        self.recompute()

    def recompute(self) -> None:
        """x_B and d straight from the current inverse."""
        self.fresh = True
        self.x_b = self.inverse @ self.rhs
        self.reduced = self.prices() @ self.full - self.cost
        self.reduced[self.cols] = 0.0

    def prices(self) -> np.ndarray:
        """Row prices y = c_B B^-1."""
        return self.cost[self.cols] @ self.inverse

    def pivot(self, row: int, col: int, column: np.ndarray, weights: np.ndarray) -> None:
        """Bring ``col`` in at ``row``, where ``column`` = B^-1 [A | I]_col:
        rank-1 updates of B^-1, x_B and d from the pivot row r of
        B^-1 [A | I], and of the Devex weights."""
        pivot = float(column[row])
        self.inverse[row] /= pivot
        pivot_row = np.bincount(
            self.nz_cols, weights=self.inverse[row][self.nz_rows] * self.nz_vals, minlength=len(self.cost)
        )
        weights[self.cols[row]] = max(weights[col] / pivot**2, 1.0)
        np.maximum(weights, pivot_row * pivot_row * weights[col], out=weights)
        self.reduced -= self.reduced[col] * pivot_row
        self.reduced[col] = 0.0
        step = self.x_b[row] / pivot
        self.x_b -= step * column
        self.x_b[row] = step
        column[row] = 0.0
        self.inverse -= column[:, None] * self.inverse[row]
        self.cols[row] = col
        self.fresh = False
        self.stats.pivots += 1
        self.stats.min_pivot = min(self.stats.min_pivot or math.inf, abs(pivot))
        if self.stats.pivots % REFACTOR_EVERY == 0:
            self.refactor()


def _iterate(basis: _Basis) -> str:
    """Devex pricing while the objective improves, Bland's rule once it
    stalls; optimality is only declared on freshly computed values."""
    stats = basis.stats
    weights = np.ones(len(basis.cost))
    stall = 0
    best = value = 0.0  # the slack basis has x = 0
    while True:
        eligible = basis.reduced < -ENTER_TOL
        if stats.bland_from is None:  # Devex: largest d_j^2 / w_j, ties to the lowest index
            col = int(np.argmax(np.where(eligible, basis.reduced * basis.reduced / weights, -1.0)))
        else:  # Bland: lowest eligible index
            col = int(np.argmax(eligible))
        if not eligible[col]:
            if basis.fresh:
                return "optimal"
            basis.refactor()
            continue
        if stats.pivots >= MAX_PIVOTS:
            raise SolverError("simplex failed to converge within the pivot limit")
        column = basis.inverse @ basis.full[:, col]
        row = _ratio_row(column, basis.x_b, basis.cols, col)
        if row is None:
            return "unbounded"
        value -= basis.reduced[col] * basis.x_b[row] / column[row]
        basis.pivot(row, col, column, weights)
        if stats.bland_from is None:
            if value > best + 1e-12 * (1.0 + abs(best)):
                best = value
                stall = 0
            else:
                stall += 1
                if stall > STALL_LIMIT:
                    stats.bland_from = stats.pivots


def _check_primal(matrix: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> float:
    """Worst relative residual of x: x >= 0 and every row holds, each
    relative to 1 + |rhs_i| + sum_j |A_ij x_j|.  Raise DegeneracyError if it
    exceeds RESIDUAL_TOL."""
    gap = (matrix @ x - rhs) / (1.0 + np.abs(rhs) + np.abs(matrix) @ np.abs(x))
    worst = max(gap.max(initial=0.0), -x.min(initial=0.0) / (1.0 + np.abs(x).max(initial=0.0)))
    if worst > RESIDUAL_TOL:
        raise DegeneracyError(f"post-solve residual {worst:.3g} exceeds {RESIDUAL_TOL} (relative)")
    return float(worst)


def _check_dual(matrix, rhs, objective, x, y) -> float:
    """Worst relative residual of the row prices y as a proof that x is
    maximal: y >= 0, A^T y >= c and b.y = c.x, each relative to the
    magnitudes of its terms.  Raise DegeneracyError if it exceeds
    RESIDUAL_TOL."""
    abs_y = np.abs(y)
    short = (objective - matrix.T @ y) / (1.0 + np.abs(objective) + np.abs(matrix).T @ abs_y)
    gap = abs(rhs @ y - objective @ x) / (1.0 + np.abs(rhs) @ abs_y + np.abs(objective) @ np.abs(x))
    worst = max(0.0, -y.min(initial=0.0) / (1.0 + abs_y.max(initial=0.0)), short.max(initial=0.0), gap)
    if worst > RESIDUAL_TOL:
        raise DegeneracyError(f"dual residual {worst:.3g} exceeds {RESIDUAL_TOL} (relative)")
    return float(worst)


def solve_lp(lp: LinearProgram) -> RegionWitness:
    """Solve with a one-phase revised simplex from the slack basis;
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
    n_cols = matrix.shape[1]

    stats = SolveStats()
    basis = _Basis(matrix, rhs, objective, stats)
    if _iterate(basis) == "unbounded":
        return RegionWitness(status="unbounded", kind=lp.kind, value=float("nan"), stats=stats)

    x_full = np.zeros(len(basis.cost))
    x_full[basis.cols] = basis.x_b
    x = x_full[:n_cols]
    stats.primal_residual = _check_primal(matrix, rhs, x)
    stats.dual_residual = _check_dual(matrix, rhs, objective, x, basis.prices())
    raw = float(np.dot(objective, x))
    wit = RegionWitness(
        status="optimal", kind=lp.kind, value=raw - lp.objective_shift, x=x, stats=stats
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
    supported = config.support.triples
    columns, class_of, state_of = [], [], []
    for c, (m, g1) in enumerate(classes):
        fill = [s for s, f in enumerate(states) if f[0] == g1]
        drain = [s for s, f in enumerate(states) if (m, g1, f[1]) in supported]
        columns += [("a", m, g1, states[s]) for s in fill] + [("b", m, g1, states[s]) for s in drain]
        class_of += [c] * (len(fill) + len(drain))
        state_of += fill + drain
    fills = np.array([col[0] == "a" for col in columns], dtype=bool)
    class_of, state_of = np.array(class_of, dtype=int), np.array(state_of, dtype=int)
    pi = np.array([config.fading.table[f] for f in states])[state_of]
    scheme = np.array([m for m, _ in classes], dtype=int)[class_of]

    j = np.arange(len(columns))
    matrix = np.zeros((k_dest + len(classes) + len(states), len(columns) + 1))
    matrix[:k_dest, j[fills]] = (-pi[fills, None] * config.rates[scheme[fills]]).T
    matrix[k_dest + class_of, j] = np.where(fills, pi, -pi)
    matrix[k_dest + len(classes) + state_of, j] = 1.0
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
    """The scale LP's witness along ``direction``, solved on the direction
    times the power of two 2^-e that puts its largest entry in (0.5, 1], as
    the solver's tolerances are not scale-free.  rho(c * d) = rho(d) / c, so
    ``value`` and the rho entry of ``x`` are scaled back by 2^-e exactly;
    ``stats`` describe the scaled solve."""
    direction = np.asarray(direction, dtype=float)
    mantissa, e = math.frexp(float(direction.max(initial=0.0)))
    e -= mantissa == 0.5  # a power of two scales to 1, not 0.5
    wit = solve_lp(build_scale_lp(config, np.ldexp(direction, -e)))
    if wit.status == "optimal":
        try:
            wit.value = wit.x[-1] = math.ldexp(wit.value, -e)
        except OverflowError:
            raise ValueError("rho* along this direction exceeds the float range") from None
    return wit


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
