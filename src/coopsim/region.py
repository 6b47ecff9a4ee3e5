"""Throughput-region linear programs and a revised simplex solver.

The throughput region of the network is the set of arrival-rate vectors
(bits/symbol per destination) for which time-sharing fractions exist.  The
flow classes are the relays' own queues: the (m, g1) pairs of the support.
The states are those of the fading table, each with pi_f > 0: a state with
p = 0 carries no rate and no flow, and the config drops it when it is read.
``a_f^{m,g1}`` is the fraction of blocks in state f spent sending first-hop
packets into class (m, g1), ``b_f^{m,g1}`` the fraction spent draining it
on the second hop.
Columns exist only where they can be nonzero: ``a`` needs f1 = g1, ``b``
needs (m, g1, f2) supported.  The constraint system is

    rate    sum_{f,m,g1} pi_f r_m^k a_f^{m,g1} >= (target rate)_k   per k
    flow    sum_f pi_f a_f^{m,g1}  <=  sum_f pi_f b_f^{m,g1}        per (m,g1)
    time    sum_{m,g1} (a_f^{m,g1} + b_f^{m,g1}) <= 1                per f

This region is exact.  A first-hop packet enters queue (m, g1) whichever
second-hop state later drains it, so a per-(m, g1, g2) solution sums to a
per-class one, and a per-class one splits back across g2 in proportion to
its drain flow under each.  The flow row may be an inequality because
fill = drain admits the same rate vectors: in a class drained more than it
is filled, scale every b down by the factor fill/drain.  Its drain then
equals its fill, no rate row reads a b, and every time row only loosens.

The LP is built over groups of states, not over single states, and this is
exact too.  A state can fill the classes with g1 = f1 and drain those in
D(f2), the classes (m, g1) with (m, g1, f2) supported, so the states are
grouped by the key (f1, D(f2)); a group G gets one time row and one a or b
column per class it can reach, weighted by pi_G = sum_{f in G} pi_f.  The
states of one group have identical column sets.  Replace their fractions by
the pi-weighted average x_G over the group: every rate and flow row reads
them only as sum_{f in G} pi_f x_f = pi_G x_G and keeps its value, and the
group's time use is a convex combination of its members', each <= 1, so it
stays <= 1.  Splitting back, each member taking the group's fraction gives
the same rate and flow sums and the group's time use in every member's
time row, so it is feasible.  Both forms thus have the same optimum, and a
config in which no two states share a key builds the per-state LP.

What depends on the config alone is computed once per config and cached on
it: the states' (f1, D(f2)) partition (``NetworkConfig.state_groups``, the
controller's too), each group's pi_G (``NetworkConfig.group_pi``, the drift
probe's too) and ``lp_layout``, which takes a time row per group,
orders the support classes and records the column tags and every rate,
flow and time entry.  Per query, ``_assemble`` fills a fresh LP from that
layout, and ``build_scale_lp`` and ``build_slack_lp`` write only their rho
or delta column and rhs; the cached arrays are read-only, so no query can
change what the next one reads.

Two queries are exposed.  ``scale_witness`` pushes rho * direction as far
as possible (rate rows relaxed to >=, excess is discardable).  The slack
query ``slack_witness`` maximizes the uniform margin delta by which every
rate row and every relay queue's flow row holds strictly; delta > 0
certifies a strictly interior rate vector, delta <= 0 a boundary or
exterior one.  Since every column of a LinearProgram is non-negative while
delta may legitimately be negative, the slack LP optimizes the shifted
variable d = delta + shift (shift = max(lambda) + 1, a lower bound
certified by the all-zero assignment) and the reported value is d - shift.
Both LPs are bounded (a rate row with a positive direction entry caps rho,
and every rate row caps d), so each query returns a certified optimum; an
unbounded LP would raise SolverError.

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
    """maximize objective @ x  s.t.  matrix @ x <= rhs,  x >= 0."""

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    # per-column tags: ("a", m, g1, members), ("b", m, g1, members), ("delta",),
    # ("rho",); members is the tuple of the fading states, in sorted_states
    # order, that share the column's time row
    columns: tuple
    kind: str = "generic"  # "slack" | "scale" | "generic"
    objective_shift: float = 0.0  # reported value = raw optimum - shift

    @property
    def senses(self) -> tuple:
        """Every row's sense, all "<=" (the benchmark's HiGHS check reads it)."""
        return ("<=",) * len(self.rhs)


@dataclass
class SolveStats:
    """What the simplex did on one LP.  ``bland_from`` is the pivot count at
    which Bland's rule took over, ``min_pivot`` the smallest accepted
    |pivot|, and the residuals are the worst relative ones of ``_certify``;
    each is None when it never happened."""

    pivots: int = 0
    refactorizations: int = 0
    bland_from: int | None = None
    min_pivot: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None


@dataclass
class RegionWitness:
    """Feasibility certificate: time-sharing fractions plus the margin, at
    an optimum ``solve_lp`` has certified (``status`` is always "optimal").

    ``value`` is the slack delta (kind "slack"), the scale rho (kind
    "scale") or the raw objective (generic LPs).  ``a`` and ``b`` hold the
    nonzero fractions keyed (f, m, g1), one entry per fading state: the
    states merged into one time row of the LP each carry that row's
    fraction, so they share a value.
    """

    status = "optimal"  # a class constant: solve_lp returns optima only
    kind: str
    value: float
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    x: np.ndarray | None = None
    stats: SolveStats | None = None


# ---------------------------------------------------------------------------
# simplex core


def _ratio_row(column: np.ndarray, x_b: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Leaving row by minimum ratio, Bland tie-break.  None means unbounded.

    One pass over Python floats: the column is short (one entry per row),
    so this beats a dozen numpy calls on it.  ``oracles.ratio_row`` is the
    same test in numpy."""
    entries = column.tolist()
    threshold = PIVOT_TOL * max(1.0, max(map(abs, entries), default=0.0))
    row, best, positive = None, 0.0, False
    for i, (entry, x) in enumerate(zip(entries, x_b.tolist())):
        if entry > threshold:
            ratio = x / entry
            if row is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                row, best = i, ratio
        elif entry > 1e-25:
            positive = True
    if row is None and positive:
        raise DegeneracyError(f"all candidate pivots in column {col} are below {threshold:.3g}")
    return row


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


def _iterate(basis: _Basis, kind: str) -> None:
    """Devex pricing while the objective improves, Bland's rule once it
    stalls; optimality is only declared on freshly computed values.  An
    entering column with no leaving row raises SolverError: the ``kind``
    LP is unbounded."""
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
                return
            basis.refactor()
            continue
        if stats.pivots >= MAX_PIVOTS:
            raise SolverError("simplex failed to converge within the pivot limit")
        column = basis.inverse @ basis.full[:, col]
        row = _ratio_row(column, basis.x_b, basis.cols, col)
        if row is None:
            raise SolverError(f"{kind} LP ended unbounded")
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


def _certify(matrix, rhs, objective, x, y) -> tuple:
    """Worst relative residuals (primal, dual) of x and its row prices y.

    Primal: x >= 0 and every row holds, each relative to 1 + |rhs_i| +
    sum_j |A_ij x_j|.  Dual, the proof that x is maximal: y >= 0, A^T y >= c
    and b.y = c.x, each relative to the magnitudes of its terms.  Raise
    DegeneracyError if either exceeds RESIDUAL_TOL, the primal first."""
    abs_matrix = np.abs(matrix)
    gap = (matrix @ x - rhs) / (1.0 + np.abs(rhs) + abs_matrix @ np.abs(x))
    primal = max(gap.max(initial=0.0), -x.min(initial=0.0) / (1.0 + np.abs(x).max(initial=0.0)))
    if primal > RESIDUAL_TOL:
        raise DegeneracyError(f"post-solve residual {primal:.3g} exceeds {RESIDUAL_TOL} (relative)")
    abs_y = np.abs(y)
    short = (objective - matrix.T @ y) / (1.0 + np.abs(objective) + abs_matrix.T @ abs_y)
    gap = abs(rhs @ y - objective @ x) / (1.0 + np.abs(rhs) @ abs_y + np.abs(objective) @ np.abs(x))
    dual = max(0.0, -y.min(initial=0.0) / (1.0 + abs_y.max(initial=0.0)), short.max(initial=0.0), gap)
    if dual > RESIDUAL_TOL:
        raise DegeneracyError(f"dual residual {dual:.3g} exceeds {RESIDUAL_TOL} (relative)")
    return float(primal), float(dual)


def solve_lp(lp: LinearProgram) -> RegionWitness:
    """The certified optimum, by a one-phase revised simplex from the slack
    basis; deterministic for a fixed LP.

    The rhs must be non-negative, so that x = 0 is feasible; anything else
    raises ValueError.  An unbounded LP raises SolverError, and an optimum
    that does not replay against every row, or whose prices do not prove
    it maximal, raises DegeneracyError.
    """
    matrix = np.asarray(lp.matrix, dtype=float)
    rhs = np.asarray(lp.rhs, dtype=float)
    objective = np.asarray(lp.objective, dtype=float)
    if matrix.ndim != 2 or matrix.shape != (len(rhs), len(objective)):
        raise ValueError("inconsistent LP dimensions")
    if not (rhs >= 0.0).all():
        raise ValueError("solve_lp needs a non-negative rhs")
    n_cols = matrix.shape[1]

    stats = SolveStats()
    basis = _Basis(matrix, rhs, objective, stats)
    _iterate(basis, lp.kind)
    x_full = np.zeros(len(basis.cost))
    x_full[basis.cols] = basis.x_b
    x, y = x_full[:n_cols], basis.prices()
    del basis  # frees [A | I] before |A| is built for the certificate
    stats.primal_residual, stats.dual_residual = _certify(matrix, rhs, objective, x, y)
    raw = float(np.dot(objective, x))
    wit = RegionWitness(kind=lp.kind, value=raw - lp.objective_shift, x=x, stats=stats)
    for j, col in enumerate(lp.columns):
        if col and col[0] in ("a", "b") and x[j] > PIVOT_TOL:
            family, m, g1, members = col
            target = wit.a if family == "a" else wit.b
            for f in members:
                target[(f, m, g1)] = float(x[j])
    return wit


# ---------------------------------------------------------------------------
# LP construction


@dataclass(frozen=True)
class LpLayout:
    """The config-only part of both region LPs, built once per config and
    cached as ``NetworkConfig.lp_layout``: rate rows, then one flow row per
    support class, then one time row per state group; a query adds one
    trailing column and the rhs."""

    columns: tuple  # the a and b column tags, without the query's column
    shape: tuple  # (rows, columns + 1)
    cells: np.ndarray  # flat positions of the rate, flow and time entries in a matrix of ``shape``
    values: np.ndarray  # their values
    flows: slice  # the flow rows


def lp_layout(config: NetworkConfig) -> LpLayout:
    """Lay out the rate/flow/time skeleton.  The classes are the support's
    (m, g1) pairs by flat index m * |F|^N + g1, the groups those of
    ``config.state_groups``, pi each one's ``config.group_pi``.  Per class,
    one a column per group with f1 = g1, then one b column per group whose
    drain set holds the class."""
    k_dest = config.shape.num_destinations
    n_g1 = len(config.first_hop_space)
    classes = sorted({c for drained in config.drain_cells.values() for c in drained})  # flat indices
    keys, members, _ = config.state_groups
    columns, class_of, group_of = [], [], []
    for c, cell in enumerate(classes):
        m, g1 = cell // n_g1, config.first_hop_space[cell % n_g1]
        fill = [s for s, (f1, _) in enumerate(keys) if f1 == g1]
        drain = [s for s, (_, drained) in enumerate(keys) if cell in drained]
        columns += [("a", m, g1, members[s]) for s in fill] + [("b", m, g1, members[s]) for s in drain]
        class_of += [c] * (len(fill) + len(drain))
        group_of += fill + drain
    fills = np.array([col[0] == "a" for col in columns], dtype=bool)
    class_of, group_of = np.array(class_of, dtype=int), np.array(group_of, dtype=int)
    pi = np.array(config.group_pi)[group_of]
    scheme = (np.array(classes, dtype=int) // n_g1)[class_of]

    j = np.arange(len(columns))
    width = len(columns) + 1
    rate_rows = np.repeat(np.arange(k_dest), fills.sum())
    rows = np.concatenate((rate_rows, k_dest + class_of, k_dest + len(classes) + group_of))
    cols = np.concatenate((np.tile(j[fills], k_dest), j, j))
    values = np.concatenate((
        (-pi[fills, None] * config.rates[scheme[fills]]).T.ravel(),
        np.where(fills, pi, -pi),
        np.ones(len(columns)),
    ))
    cells = rows * width + cols
    cells.setflags(write=False)
    values.setflags(write=False)
    return LpLayout(
        tuple(columns), (k_dest + len(classes) + len(keys), width), cells, values, slice(k_dest, k_dest + len(classes))
    )


def _assemble(config: NetworkConfig, tag: tuple, kind: str) -> tuple:
    """(LP, flow-row slice): a fresh LP from the cached layout maximizing a
    trailing column tagged ``tag``, left zero for the caller; ``<=`` rows,
    rhs 1."""
    layout = config.lp_layout
    rows, width = layout.shape
    matrix = np.zeros(layout.shape)
    matrix.flat[layout.cells] = layout.values
    objective = np.zeros(width)
    objective[-1] = 1.0
    lp = LinearProgram(objective, matrix, np.ones(rows), layout.columns + (tag,), kind)
    return lp, layout.flows


def _finite_vector(config: NetworkConfig, raw, what: str) -> np.ndarray:
    """``raw`` as a float array of K finite entries."""
    vec = np.asarray(raw, dtype=float)
    if vec.shape != (config.shape.num_destinations,):
        raise ValueError(f"{what} must have {config.shape.num_destinations} entries")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} entries must be finite")
    return vec


def build_slack_lp(config: NetworkConfig, lam) -> LinearProgram:
    """LP maximizing the interior margin delta of the rate vector lam."""
    lam = _finite_vector(config, lam, "lambda")
    if (lam < 0).any():
        raise ValueError("lambda must be non-negative")

    lp, flows = _assemble(config, ("delta",), "slack")
    k_dest = config.shape.num_destinations
    lp.objective_shift = shift = float(lam.max(initial=0.0)) + 1.0
    lp.matrix[:k_dest, -1] = 1.0
    lp.matrix[flows, -1] = 1.0
    lp.rhs[:k_dest] = shift - lam
    lp.rhs[flows] = shift
    return lp


def build_scale_lp(config: NetworkConfig, direction) -> LinearProgram:
    """LP maximizing rho with rho * direction achievable (rate rows >=)."""
    direction = _finite_vector(config, direction, "direction")
    if (direction < 0).any() or not (direction > 0).any():
        raise ValueError("direction must be non-negative with at least one positive entry")

    lp, flows = _assemble(config, ("rho",), "scale")
    k_dest = config.shape.num_destinations
    lp.matrix[:k_dest, -1] = direction  # rho*dir_k - sum pi r a <= 0
    lp.rhs[:k_dest] = 0.0
    lp.rhs[flows] = 0.0  # fill - drain <= 0
    return lp


# ---------------------------------------------------------------------------
# queries


def slack_witness(config: NetworkConfig, lam) -> RegionWitness:
    """The slack LP's witness at ``lam``: the largest delta with every rate
    and flow row satisfied by margin delta, positive iff some epsilon > 0
    keeps lam + epsilon*1 inside the region."""
    return solve_lp(build_slack_lp(config, lam))


def scale_witness(config: NetworkConfig, direction) -> RegionWitness:
    """The scale LP's witness: the largest rho with rho * direction inside
    the region.  It is solved on the direction times the power of two 2^-e
    that puts its largest entry in (0.5, 1], as the solver's tolerances are
    not scale-free; rho(c * d) = rho(d) / c, so ``value`` and the rho entry
    of ``x`` are scaled back by 2^-e exactly.  ``stats`` describe the
    scaled solve."""
    direction = np.asarray(direction, dtype=float)
    mantissa, e = math.frexp(float(direction.max(initial=0.0)))
    e -= mantissa == 0.5  # a power of two scales to 1, not 0.5
    wit = solve_lp(build_scale_lp(config, np.ldexp(direction, -e)))
    try:
        wit.value = wit.x[-1] = math.ldexp(wit.value, -e)
    except OverflowError:
        raise ValueError("rho* along this direction exceeds the float range") from None
    return wit


def witness_max_violation(
    config: NetworkConfig, witness: RegionWitness, lam=None, direction=None
) -> float:
    """Replay a witness against the region constraints; max violation.

    Checked from first principles (the witness dicts and ``config.support``),
    independent of the LP and the cached views it was built from: every
    relay queue (m, g1) is filled no more than it drains, less the margin
    (delta for slack, 0 for scale), and an entry outside its family's states
    counts as an infinite breach.
    """
    rate = np.zeros(config.shape.num_destinations)
    flow = {(m, g1): 0.0 for m, g1, _ in config.support}  # fill - drain per relay queue
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
