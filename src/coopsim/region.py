"""Throughput-region linear programs and a small dense simplex solver.

The throughput region of the network is the set of arrival-rate vectors
(bits/symbol per destination) for which time-sharing fractions exist:
``a_f^{m,g}`` is the fraction of blocks in fading state f spent sending
first-hop packets of class (m, g), and ``b_f^{m,g}`` the fraction spent
draining them on the second hop.  Columns exist only where they can be
nonzero: ``a`` needs g1 = f1 and (m, g) supported, ``b`` needs g2 = f2 and
(m, g) supported.  The constraint system is

    rate    sum_{f,m,g} pi_f r_m^k a_f^{m,g} >= (target rate)_k   per k
    flow    sum_f pi_f a_f^{m,g}  =  sum_f pi_f b_f^{m,g}         per (m,g)
    time    sum_{m,g} (a_f^{m,g} + b_f^{m,g}) <= 1                per f

Two queries are exposed.  ``boundary_scale`` pushes rho * direction as far
as possible (rate rows relaxed to >=, excess is discardable).  The slack
query ``interior_slack`` maximizes the uniform margin delta by which every
rate and flow row holds strictly; delta > 0 certifies a strictly interior
rate vector, delta <= 0 a boundary or exterior one.  Since every column of
a LinearProgram is non-negative while delta may legitimately be negative,
the slack LP optimizes the shifted variable d = delta + shift (shift =
max(lambda) + 1, a lower bound certified by the all-zero assignment) and
the reported value is d - shift.

The solver is a deterministic dense two-phase simplex.  Pricing is
Dantzig's (most negative reduced cost, ties to the lowest index) while the
objective improves; if it stalls on degenerate pivots the solver switches
to Bland's anti-cycling rule (lowest eligible index, leaving ties broken
by lowest basic-variable index), which guarantees termination.  Both rules
are deterministic, so a fixed LP always produces the same solution.
Desk-scale problems stay below a few thousand columns, where determinism
and zero dependencies matter more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkConfig

PIVOT_TOL = 1e-12
ENTER_TOL = 1e-9
FEAS_TOL = 1e-8
MAX_PIVOTS = 200_000


class DegeneracyError(RuntimeError):
    """Every usable pivot in the chosen column fell below 1e-12."""


@dataclass
class LinearProgram:
    """maximize objective @ x  s.t.  matrix @ x (sense) rhs,  x >= 0."""

    objective: np.ndarray
    matrix: np.ndarray
    senses: tuple  # "<=", "=" or ">=" per row
    rhs: np.ndarray
    columns: tuple  # per-column tags: ("a", m, g, f), ("b", m, g, f), ("delta",), ("rho",)
    kind: str = "generic"  # "slack" | "scale" | "generic"
    objective_shift: float = 0.0  # reported value = raw optimum - shift

    def column_labels(self) -> list[str]:
        out = []
        for col in self.columns:
            if col[0] in ("a", "b"):
                _, m, g, f = col
                out.append(
                    f"{col[0]}[m={m};g={'|'.join(g[0])},{'|'.join(g[1])};"
                    f"f={'|'.join(f[0])},{'|'.join(f[1])}]"
                )
            else:
                out.append(col[0])
        return out


@dataclass
class RegionWitness:
    """Feasibility certificate: time-sharing fractions plus the margin.

    ``value`` is the slack delta (kind "slack"), the scale rho (kind
    "scale") or the raw objective (generic LPs).  ``a`` and ``b`` hold the
    nonzero fractions keyed (f, m, g).
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
    raise RuntimeError("simplex failed to converge within the pivot limit")


def _cost_row(cvec: np.ndarray, tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    cost = cvec[basis] @ tab
    cost[:-1] -= cvec
    return cost


def solve_lp(lp: LinearProgram) -> RegionWitness:
    """Solve with a two-phase dense simplex; deterministic for a fixed LP."""
    a_in = np.asarray(lp.matrix, dtype=float)
    if a_in.ndim != 2:
        a_in = a_in.reshape(len(lp.rhs), -1)
    b_in = np.asarray(lp.rhs, dtype=float).copy()
    n_rows, n_cols = a_in.shape
    if len(lp.objective) != n_cols or len(lp.senses) != n_rows or len(b_in) != n_rows:
        raise ValueError("inconsistent LP dimensions")

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
    raw = float(np.dot(lp.objective, x))
    wit = RegionWitness(
        status="optimal", kind=lp.kind, value=raw - lp.objective_shift, x=x
    )
    for j, col in enumerate(lp.columns):
        if col and col[0] in ("a", "b") and x[j] > PIVOT_TOL:
            _, m, g, f = col
            target = wit.a if col[0] == "a" else wit.b
            target[(f, m, g)] = float(x[j])
    return wit


# ---------------------------------------------------------------------------
# LP construction


def _sorted_support(config: NetworkConfig) -> list:
    g1i = config.g1_index
    g2i = {g2: i for i, g2 in enumerate(config.second_hop_space)}
    return sorted(config.support.triples, key=lambda t: (t[0], g1i[t[1]], g2i[t[2]]))


def region_columns(config: NetworkConfig) -> list:
    """Column tags for the a/b families, in canonical order."""
    cols = []
    for m, g1, g2 in _sorted_support(config):
        g = (g1, g2)
        for f2 in config.second_hop_space:
            cols.append(("a", m, g, (g1, f2)))
        for f1 in config.first_hop_space:
            cols.append(("b", m, g, (f1, g2)))
    return cols


def _assemble(config: NetworkConfig, cols: list, extra_tag: tuple):
    """Shared rate/flow/time skeleton; the caller patches the extra column."""
    support = _sorted_support(config)
    k_dest = config.shape.num_destinations
    flow_row = {(m, (g1, g2)): k_dest + i for i, (m, g1, g2) in enumerate(support)}
    combined = [
        (f1, f2) for f1 in config.first_hop_space for f2 in config.second_hop_space
    ]
    time_row = {f: k_dest + len(support) + i for i, f in enumerate(combined)}
    n_rows = k_dest + len(support) + len(combined)

    columns = cols + [extra_tag]
    matrix = np.zeros((n_rows, len(columns)))
    for j, (fam, m, g, f) in enumerate(cols):
        pi = config.probability(f)
        if fam == "a":
            matrix[:k_dest, j] = -pi * config.rates[m]
            matrix[flow_row[(m, g)], j] = pi
        else:
            matrix[flow_row[(m, g)], j] = -pi
        matrix[time_row[f], j] = 1.0
    return columns, matrix, flow_row, time_row, n_rows


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
    columns, matrix, flow_row, time_row, n_rows = _assemble(config, region_columns(config), ("delta",))
    d = len(columns) - 1
    k_dest = config.shape.num_destinations
    matrix[:k_dest, d] = 1.0
    for r in flow_row.values():
        matrix[r, d] = 1.0

    rhs = np.ones(n_rows)
    rhs[:k_dest] = shift - lam
    for r in flow_row.values():
        rhs[r] = shift
    senses = ("<=",) * n_rows

    objective = np.zeros(len(columns))
    objective[d] = 1.0
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=senses,
        rhs=rhs,
        columns=tuple(columns),
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

    columns, matrix, flow_row, time_row, n_rows = _assemble(config, region_columns(config), ("rho",))
    rho = len(columns) - 1
    k_dest = config.shape.num_destinations
    matrix[:k_dest, rho] = direction  # rho*dir_k - sum pi r a <= 0

    rhs = np.ones(n_rows)
    rhs[:k_dest] = 0.0
    senses = ["<="] * n_rows
    for r in flow_row.values():
        rhs[r] = 0.0
        senses[r] = "="

    objective = np.zeros(len(columns))
    objective[rho] = 1.0
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=tuple(senses),
        rhs=rhs,
        columns=tuple(columns),
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
        raise RuntimeError(f"slack LP ended {wit.status}")
    return wit.value


def boundary_scale(config: NetworkConfig, direction) -> float:
    """Largest rho with rho * direction inside the region."""
    wit = scale_witness(config, direction)
    if wit.status != "optimal":
        raise RuntimeError(f"scale LP ended {wit.status}")
    return wit.value


def witness_max_violation(
    config: NetworkConfig, witness: RegionWitness, lam=None, direction=None
) -> float:
    """Replay a witness against the region constraints; max violation.

    Checked from first principles (the witness dicts), independent of the
    LP matrix that produced it.
    """
    if witness.status != "optimal":
        raise ValueError("can only replay an optimal witness")
    k_dest = config.shape.num_destinations

    rate = np.zeros(k_dest)
    flow: dict = {}
    time_used: dict = {}
    worst = 0.0
    for (f, m, g), val in witness.a.items():
        worst = max(worst, -val)
        pi = config.probability(f)
        rate += pi * val * config.rates[m]
        flow[(m, g)] = flow.get((m, g), 0.0) + pi * val
        time_used[f] = time_used.get(f, 0.0) + val
    for (f, m, g), val in witness.b.items():
        worst = max(worst, -val)
        pi = config.probability(f)
        flow[(m, g)] = flow.get((m, g), 0.0) - pi * val
        time_used[f] = time_used.get(f, 0.0) + val

    for used in time_used.values():
        worst = max(worst, used - 1.0)

    if witness.kind == "slack":
        lam = np.asarray(lam, dtype=float)
        delta = witness.value
        worst = max(worst, float((lam + delta - rate).max()))
        seen = set(flow)
        for key, net in flow.items():
            worst = max(worst, net + delta)
        for m, g1, g2 in config.support.triples:
            if (m, (g1, g2)) not in seen:
                worst = max(worst, delta)  # empty class still needs net <= -delta
    elif witness.kind == "scale":
        direction = np.asarray(direction, dtype=float)
        rho = witness.value
        worst = max(worst, float((rho * direction - rate).max()))
        for net in flow.values():
            worst = max(worst, abs(net))
    else:
        raise ValueError(f"cannot replay witness of kind {witness.kind!r}")
    return worst
