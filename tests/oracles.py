"""The spec-level model and the independent oracles used by the tests.

The spec-level model is the package's behaviour written on a
``QueueState``, one pure step at a time: ``apply_first_hop``,
``apply_second_hop`` and ``apply_idle`` return the next state under the
exact per-block updates (``queueing``'s docstring gives the equations)
and never mutate their input; ``state_entry`` is the entry
``controller.decision_table`` holds for one fading state's group, written
per state from the raw support triples, and ``check_decision_table`` holds
``NetworkConfig.state_groups``, ``NetworkConfig.decision_table`` and the
region LP's time rows to it; ``choose_spec`` is the controller's rule as
a loop over the K destinations, the spec of the step
``controller.chooser`` compiles per K, and ``step_bits`` is a step's
result with its weights as bytes; ``decide`` is that step on a
``QueueState`` and any (f1, f2), on that entry, returning a
``Decision``; ``lyapunov`` is the quadratic potential V.  The package
applies the same updates inline in ``sim.run``, and these are what it is
checked against.

``fading_indices_spec`` is the fading draw one variate at a time: a
``bisect`` over the cumulative probabilities, capped at the last state with
p > 0 found on its own, and ``check_fading_indices`` holds
``model.fading_indices`` to it on the variates where a sampler could go
wrong.

``bruteforce_decide`` enumerates every one-hot transmit assignment of a
block's discrete scheduling program with plain Python loops (k ascending,
n ascending over the N equal relays, the support read as its raw triples)
and picks the maximum under the documented preference order.

``reference_run`` is the simulator's block loop written with
``bruteforce_decide`` (``sim.run`` and ``decide`` share one rule,
``controller.chooser``'s, so ``decide`` would check that rule against
itself), the pure ``apply_*`` updates, ``lyapunov`` and numpy reductions
over the state's one ``(M, |F|^N)`` relay array for every other series.
It records each block's scheme m and first-hop state g1 as it decides
them, so it checks the decision columns ``sim.run`` splits from its flat
queue indices after the loop.  ``sim.run`` must reproduce every field bit
for bit, so the summary ``sim.summary_dict`` derives from them matches too;
``assert_bit_identical`` compares two runs' ``Metrics`` that way.

``write_metrics_csv_spec`` and ``snapshot_row_spec`` format every float
on its own with ``repr``, the spec of ``sim``'s one CSV writer, which
formats each distinct bit pattern of a chunk once.

``expected_drift`` is the exact one-block drift at a probe: the sum over
every fading state and every point of the finite arrival support, weighted
by its probability, of V(next) - V(probe) after one ``decide``, one pure
queue update and one full potential.  It is the spec of ``sim.drift_check``,
which sums per destination in closed form.  ``drift_spec`` is that closed
form evaluated per group: one ``chooser`` step, the relay term and one
``sim._expected_square_change`` call per destination, each group's pi
added in member order by ``reduce(add)``; ``drift_check``, which evaluates
each (destination, send) expectation once per call and reads
``NetworkConfig.group_pi``, must equal it bit for bit.

``ratio_row`` is the simplex's ratio test written in numpy, the reference
for the package's one-pass loop over Python floats.

``highs_value`` solves a ``LinearProgram`` with scipy's HiGHS (tests only;
the package itself needs numpy alone).  ``per_triple_value`` gives HiGHS
the unaggregated per-triple, per-state formulation instead, which it
builds itself, so it also checks how the package builds its LP.

``slack_oracle`` / ``scale_oracle`` evaluate the region queries by direct
grid search over the time-sharing fractions: feasibility and the margin
are computed from the defining constraint formulas at every grid point,
then the winning cell is refined level by level down to a 1e-6 step.  The
objectives are concave (minima of affine functions over a box), so the
local refinement converges to the global optimum.
"""

import bisect
import itertools
import math
import struct
from dataclasses import dataclass, fields
from functools import reduce
from operator import add

import numpy as np

from coopsim.controller import FIRST_HOP, IDLE, SECOND_HOP, VARIANT_NAMES, chooser
from coopsim.model import fading_indices
from coopsim.queueing import QueueState
from coopsim.region import PIVOT_TOL, DegeneracyError
from coopsim.sim import METRICS_COLUMNS, Metrics, _draws, _expected_square_change, snapshot_header

# ---------------------------------------------------------------------------
# the spec-level model: pure queue updates on a QueueState, the controller's
# rule as a Decision, and the quadratic potential


def _check_event(state: QueueState, arrivals, m: int, g1) -> tuple[np.ndarray, int]:
    arr = np.asarray(arrivals, dtype=float)
    if arr.shape != state.source.shape:
        raise ValueError(f"arrivals must have shape {state.source.shape}, got {arr.shape}")
    if not 0 <= m < len(state.config.schemes):
        raise ValueError(f"unknown scheme id {m}")
    g1i = state.config.g1_index.get(tuple(g1))
    if g1i is None:
        raise ValueError(f"unknown first-hop state {g1!r}")
    return arr, g1i


def apply_first_hop(state: QueueState, arrivals, m: int, g1) -> QueueState:
    """Source transmits one block with scheme m under first-hop state g1."""
    arr, g1i = _check_event(state, arrivals, m, g1)
    T = state.config.shape.block_length
    rates = state.config.rates[m]
    source = np.maximum(state.source + arr - rates * T, 0.0)
    relay = state.relay.copy()
    relay[m, g1i] += T
    return QueueState(state.config, source, relay)


def apply_second_hop(state: QueueState, arrivals, m: int, g1) -> QueueState:
    """Relays drain virtual queue (m, g1); the caller must have checked
    that (m, g1, f2) is supported for the block's second-hop state f2."""
    arr, g1i = _check_event(state, arrivals, m, g1)
    T = state.config.shape.block_length
    source = state.source + arr
    relay = state.relay.copy()
    relay[m, g1i] = np.maximum(relay[m, g1i] - T, 0.0)
    return QueueState(state.config, source, relay)


def apply_idle(state: QueueState, arrivals) -> QueueState:
    """No transmission; arrivals still accumulate."""
    arr = np.asarray(arrivals, dtype=float)
    if arr.shape != state.source.shape:
        raise ValueError(f"arrivals must have shape {state.source.shape}, got {arr.shape}")
    return QueueState(state.config, state.source + arr, state.relay.copy())


def state_entry(config, f) -> tuple:
    """``controller.decision_table``'s entry for one fading state f = (f1, f2),
    built on its own: per scheme m, the flat index of its (m, f1) queue and
    its rates r_m; then every (m, g1), m ascending and g1 in
    ``first_hop_space`` order, whose (m, g1, f2) is a support triple, as
    (flat index, (r_m . 1)^2)."""
    f1, f2 = tuple(f[0]), tuple(f[1])
    n_g1 = len(config.first_hop_space)
    g1i = config.g1_index[f1]
    w2 = (config.rate_sums * config.rate_sums).tolist()
    first = tuple((m * n_g1 + g1i, r) for m, r in enumerate(config.rates.tolist()))
    drains = tuple(
        (m * n_g1 + g, w2[m])
        for m in range(len(config.schemes))
        for g, g1 in enumerate(config.first_hop_space)
        if (m, g1, f2) in config.support
    )
    return first, drains


def check_decision_table(config) -> None:
    """Assert the spec of ``config.state_groups`` and ``config.decision_table``:
    each sorted state's group has the key (f1, D(f2)), D(f2) from the raw
    support, and the entry ``state_entry``; the entries are pairwise
    distinct, one per group; the groups are numbered in order of their
    first state, and ``members`` lists each group's states; and the region
    LP's time rows are the groups in order, every column in time row r
    tagged with ``members[r]``."""
    keys, members, group_of = config.state_groups
    entries = config.decision_table
    assert config.state_groups is config.state_groups  # cached per config
    assert config.decision_table is config.decision_table
    assert type(entries) is tuple
    assert group_of.dtype == np.intp and not group_of.flags.writeable
    assert group_of.shape == (len(config.sorted_states),)
    assert len(keys) == len(members) == len(entries)
    n_g1 = len(config.first_hop_space)
    drained = {}  # g2 -> the flat indices of its supported (m, g1), from the raw triples
    for m, g1, g2 in config.support:
        drained.setdefault(g2, []).append(m * n_g1 + config.g1_index[g1])
    for (f1, f2), g in zip(config.sorted_states, group_of.tolist()):
        assert keys[g] == (f1, tuple(sorted(drained.get(f2, ()))))
    assert [entries[g] for g in group_of.tolist()] == [state_entry(config, f) for f in config.sorted_states]
    assert len({repr(e) for e in entries}) == len(entries)
    assert list(dict.fromkeys(group_of.tolist())) == list(range(len(entries)))
    assert members == tuple(
        tuple(f for g, f in zip(group_of.tolist(), config.sorted_states) if g == h) for h in range(len(entries))
    )
    layout = config.lp_layout
    assert layout.shape[0] - layout.flows.stop == len(entries)  # one time row per group
    rows, cols = np.divmod(layout.cells, layout.shape[1])
    for r, j in zip(rows.tolist(), cols.tolist()):
        if r >= layout.flows.stop:
            assert layout.columns[j][3] == members[r - layout.flows.stop]


def fading_indices_spec(config, u):
    """Sorted-state indices of variates ``u``, one at a time: the number of
    cumulative probabilities at or below each, at most the last state."""
    cum = config.cumulative_probs.tolist()
    last = len(cum) - 1
    return np.array([min(bisect.bisect_right(cum, x), last) for x in np.ravel(u).tolist()], dtype=np.intp)


def boundary_variates(config):
    """The variates in [0, 1) where a sampler can err: 0.0, 1 - 2**-53 and
    every cumulative probability below 1 with its two float neighbours."""
    cum = config.cumulative_probs[config.cumulative_probs < 1.0]
    near = np.concatenate(([0.0, 1.0 - 2.0**-53], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)))
    return near[near < 1.0]


def check_fading_indices(config, u) -> None:
    """Assert that ``fading_indices`` equals ``fading_indices_spec`` bit for
    bit, as intp, on ``u`` and the config's ``boundary_variates``, and on
    each boundary variate as a numpy scalar too."""
    near = boundary_variates(config)
    u = np.concatenate((np.asarray(u, dtype=float), near))
    got, want = fading_indices(config, u), fading_indices_spec(config, u)
    assert got.dtype == want.dtype == np.intp and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for x in near:  # np.float64 scalars
        one = fading_indices(config, x)
        assert np.asarray(one).dtype == np.intp and one == fading_indices_spec(config, x)[0]


@dataclass(frozen=True)
class Decision:
    variant: str  # FIRST_HOP | SECOND_HOP | IDLE
    m: int | None
    g1: tuple | None
    weight_first: float  # A
    weight_second: float  # B, -inf when no drainable queue exists


def choose_spec(src, q, entry, n_relays, allow_idle) -> tuple:
    """The rule as a loop over the K destinations: (variant code, flat index,
    A, B), the spec of each step ``controller.chooser`` compiles."""
    first, drains = entry
    for i, (c, r) in enumerate(first):
        col = n_relays * q[c]
        w = 0.0
        for x, rk in zip(src, r):
            w += (x - rk * col) * rk
        if i == 0 or w > a:
            a, fill = w, c
    b = -math.inf
    for c, w2 in drains:
        w = w2 * (n_relays * q[c])
        if w > b:
            b, drain = w, c
    if allow_idle and a <= 0.0 and b <= 0.0:
        return 2, -1, a, b
    if a >= b:
        return 0, fill, a, b
    return 1, drain, a, b


def step_bits(step) -> tuple:
    """A step's (code, index, A, B) with A and B as their IEEE bytes, so
    comparing two steps tells -0.0 from 0.0."""
    code, c, a, b = step
    return code, c, struct.pack("<d", a), struct.pack("<d", b)


def decide(state: QueueState, f, allow_idle: bool = False) -> Decision:
    """``controller.chooser``'s rule on a queue state and fading state f = (f1, f2)."""
    cfg = state.config
    q = state.relay.ravel().tolist()
    choose = chooser(cfg.shape.num_destinations)
    code, c, a, b = choose(state.source.tolist(), q, state_entry(cfg, f), cfg.shape.num_relays, allow_idle)
    variant = VARIANT_NAMES[code]
    if variant == IDLE:
        return Decision(IDLE, None, None, a, b)
    m, g1i = divmod(c, len(cfg.first_hop_space))
    return Decision(variant, m, None if variant == FIRST_HOP else cfg.first_hop_space[g1i], a, b)


def lyapunov(state: QueueState) -> float:
    """V(Q) = sum_k Qs_k^2 + N * sum_{m,g1} ((r_m . 1) * Q^{m,g1})^2, the
    relay term of one relay counted once per relay, as ``sim.run``'s
    series are."""
    cfg = state.config
    weighted = state.relay * cfg.rate_sums[:, None]
    return float((state.source * state.source).sum() + cfg.shape.num_relays * (weighted * weighted).sum())


# ---------------------------------------------------------------------------
# the controller and the simulator, written independently


def bruteforce_decide(state, f, allow_idle=False):
    """(variant, m, g1, best_first, best_second) by exhaustive enumeration;
    with ``allow_idle``, idle when neither weight is positive."""
    cfg = state.config
    f1, f2 = tuple(f[0]), tuple(f[1])
    g1i_now = cfg.g1_index[f1]

    first = []
    for m, rates in enumerate(cfg.schemes):
        s = 0.0
        for _ in range(cfg.shape.num_relays):
            s += state.relay[m, g1i_now]
        val = 0.0
        for k in range(cfg.shape.num_destinations):
            r = rates[k]
            val += (state.source[k] - r * s) * r
        first.append((val, m))

    second = []
    for m, rates in enumerate(cfg.schemes):
        rsum = 0.0
        for k in range(cfg.shape.num_destinations):
            rsum += rates[k]
        for g1 in cfg.first_hop_space:
            if (m, g1, f2) in cfg.support:
                s = 0.0
                for _ in range(cfg.shape.num_relays):
                    s += state.relay[m, cfg.g1_index[g1]]
                second.append((rsum * rsum * s, m, g1))

    best_first = max(first, key=lambda c: c[0])  # max keeps the earliest maximum
    best_second = max(second, key=lambda c: c[0], default=(float("-inf"), None, None))
    if allow_idle and best_first[0] <= 0.0 and best_second[0] <= 0.0:
        return ("idle", None, None, best_first[0], best_second[0])
    if best_first[0] >= best_second[0]:
        return ("first_hop", best_first[1], None, best_first[0], best_second[0])
    return ("second_hop", best_second[1], best_second[2], best_first[0], best_second[0])


def reference_run(config, arrivals, horizon, seed, allow_idle=False, snapshot_sink=None):
    """``sim.run`` as one ``bruteforce_decide`` and one pure queue update per
    block."""
    k_dest = config.shape.num_destinations
    T = config.shape.block_length
    state_idx, arr = _draws(config, arrivals, horizon, seed)

    states = config.sorted_states
    g1_index = config.g1_index
    rate_sums = config.rate_sums

    src_series = np.empty(horizon)
    rel_series = np.empty(horizon)
    rel_bits_series = np.empty(horizon)
    v_series = np.empty(horizon)
    variants = np.empty(horizon, dtype=np.int8)
    dec_m = np.full(horizon, -1, dtype=np.int32)
    dec_g1 = np.full(horizon, -1, dtype=np.int32)
    w_first = np.empty(horizon)
    w_second = np.empty(horizon)
    delivered = np.zeros(k_dest)

    state = QueueState.zeros(config)
    if snapshot_sink is not None:
        snapshot_sink.write(",".join(snapshot_header(config)) + "\n")

    for t in range(horizon):
        f = states[state_idx[t]]
        a = arr[:, t]
        variant, m, g1, w_first[t], w_second[t] = bruteforce_decide(state, f, allow_idle)
        if variant == FIRST_HOP:
            state = apply_first_hop(state, a, m, f[0])
            dec_m[t] = m
        elif variant == SECOND_HOP:
            assert (m, g1, f[1]) in config.support
            pre = state.relay[m, g1_index[g1]]
            delivered += min(T, pre) * config.rates[m]
            state = apply_second_hop(state, a, m, g1)
            dec_m[t] = m
            dec_g1[t] = g1_index[g1]
        else:
            state = apply_idle(state, a)
        variants[t] = VARIANT_NAMES.index(variant)
        src_series[t] = state.source.sum()
        rel_series[t] = state.relay.sum()
        rel_bits_series[t] = (state.relay * rate_sums[:, None]).sum()
        v_series[t] = lyapunov(state)
        if snapshot_sink is not None:
            snapshot_sink.write(snapshot_row_spec(t, [*state.source.tolist(), *state.relay.reshape(-1).tolist()]))

    offered = arr.sum(axis=1)
    return Metrics(
        horizon=horizon,
        block_length=T,
        source_backlog=src_series,
        relay_backlog=rel_series,
        relay_backlog_bits=rel_bits_series,
        lyapunov=v_series,
        variants=variants,
        decision_m=dec_m,
        decision_g1=dec_g1,
        weight_first=w_first,
        weight_second=w_second,
        fading_state_idx=state_idx,
        g1_space=config.first_hop_space,
        seed=seed,
        delivered_bits=np.minimum(delivered, offered),
        offered_bits=offered,
        final_state=state,
    )


def _bits(value):
    if isinstance(value, QueueState):
        return (_bits(value.source), _bits(value.relay))
    if isinstance(value, (np.ndarray, np.generic, float)):
        arr = np.asarray(value)
        return (arr.dtype.str, arr.shape, arr.tobytes())
    return value


def assert_bit_identical(got, want):
    """Every ``Metrics`` field equal bit for bit: arrays by dtype, shape and
    raw bytes, scalars the same way, ``final_state`` through both arrays."""
    for f in fields(Metrics):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def snapshot_row_spec(t, values) -> str:
    """The ``--queues`` row of block t: t, then the repr of each value."""
    return f"{t}," + ",".join(map(repr, values)) + "\n"


def write_metrics_csv_spec(metrics, fh) -> None:
    """``sim.write_metrics_csv`` with one f-string per row, each float
    formatted on its own."""
    fh.write(",".join(METRICS_COLUMNS) + "\n")
    g1_names = ["|".join(g1) for g1 in metrics.g1_space]
    columns = (
        metrics.variants,
        metrics.decision_m,
        metrics.decision_g1,
        metrics.weight_first,
        metrics.weight_second,
        metrics.source_backlog,
        metrics.relay_backlog,
        metrics.relay_backlog_bits,
        metrics.lyapunov,
    )
    rows = zip(range(metrics.horizon), *(c.tolist() for c in columns))
    fh.writelines(
        f"{t},{VARIANT_NAMES[v]},{'' if m < 0 else m},{'' if g1 < 0 else g1_names[g1]},"
        f"{a!r},{b!r},{src!r},{rel!r},{rel_bits!r},{pot!r}\n"
        for t, v, m, g1, a, b, src, rel, rel_bits, pot in rows
    )


def _arrival_support(arrivals, k, T):
    """[(probability, bits)] of destination k's arrivals in one block."""
    mu = arrivals.rates[k] * T
    if arrivals.distribution == "constant":
        return [(1.0, mu)]
    if arrivals.distribution == "uniform-integer":
        base = math.floor(mu)
        frac = mu - base
        top_up = [(1.0 - frac, 0), (frac, 1)]
        return [(pb / (2 * base + 1), float(u + b)) for u in range(2 * base + 1) for pb, b in top_up if pb > 0]
    return [(0.5, 0.0), (0.5, 2.0 * mu)]


def expected_drift(config, arrivals, probe_state):
    """E[V(next) - V(probe)] over fading states x arrival supports, exactly
    enumerated with the spec-level ``decide``, ``apply_*`` and ``lyapunov``.

    States with the same action share one pass over the arrival outcomes.
    """
    T = config.shape.block_length
    supports = [_arrival_support(arrivals, k, T) for k in range(config.shape.num_destinations)]
    outcomes = [
        (math.prod(p for p, _ in combo), np.array([a for _, a in combo]))
        for combo in itertools.product(*supports)
    ]
    actions = {}
    for f in config.sorted_states:
        p = config.probability(f)
        if p > 0.0:
            d = decide(probe_state, f)
            key = (d.variant, d.m, f[0] if d.variant == FIRST_HOP else d.g1)
            actions[key] = actions.get(key, 0.0) + p
    v0 = lyapunov(probe_state)
    terms = []
    for (variant, m, g1), p_action in actions.items():
        for p_arr, a in outcomes:
            if variant == FIRST_HOP:
                nxt = apply_first_hop(probe_state, a, m, g1)
            else:
                nxt = apply_second_hop(probe_state, a, m, g1)
            terms.append(p_action * p_arr * (lyapunov(nxt) - v0))
    return math.fsum(terms)


def drift_spec(config, arrivals, probe_state):
    """The exact drift as a sum over the (f1, D(f2)) groups, one group at a
    time: p_G * (N (r_m . 1)^2 (Q'^2 - Q^2) + sum_k E[(Qs_k - s_k + a_k)+^2]
    - Qs_k^2), the relay term first, then the destinations k ascending, with
    p_G the members' p added in member order from 0.0."""
    T = config.shape.block_length
    n_relays = config.shape.num_relays
    n_g1 = len(config.first_hop_space)
    qs, q = probe_state.source.tolist(), probe_state.relay.ravel().tolist()
    w2 = (config.rate_sums * config.rate_sums).tolist()
    choose = chooser(config.shape.num_destinations)
    drift = 0.0
    for entry, states in zip(config.decision_table, config.state_groups[1]):
        code, c = choose(qs, q, entry, n_relays, False)[:2]
        m = c // n_g1
        new = q[c] + T if code == 0 else max(q[c] - T, 0.0)
        change = n_relays * w2[m] * ((new - q[c]) * (new + q[c]))
        for k, x in enumerate(qs):
            change += _expected_square_change(arrivals, k, T, x, config.schemes[m][k] * T if code == 0 else 0.0)
        drift += reduce(add, (config.fading[f] for f in states), 0.0) * change
    return drift


# ---------------------------------------------------------------------------
# grid search over time-sharing fractions


def _second_hop_space(config):
    n = config.shape.num_relays * config.shape.num_destinations
    return list(itertools.product(config.alphabet, repeat=n))


def _oracle_columns(config):
    """Per support triple (m, g1, g2), over the full F^N x F^(NK) product.

    Deliberately the unaggregated layout: one flow class per triple, every
    combined state including p = 0 ones, so it checks the package's
    per-(m, g1) LP independently.
    """
    g1rank = {g: i for i, g in enumerate(config.first_hop_space)}
    second_hop_space = _second_hop_space(config)
    g2rank = {g: i for i, g in enumerate(second_hop_space)}
    cols = []
    for m, g1, g2 in sorted(config.support, key=lambda t: (t[0], g1rank[t[1]], g2rank[t[2]])):
        for f2 in second_hop_space:
            cols.append(("a", m, (g1, g2), (g1, f2)))
        for f1 in config.first_hop_space:
            cols.append(("b", m, (g1, g2), (f1, g2)))
    return cols


def _constraint_matrices(config, cols):
    k_dest = config.shape.num_destinations
    classes = sorted({(m, g) for _, m, g, _ in cols})
    class_rank = {c: i for i, c in enumerate(classes)}
    fstates = list(itertools.product(config.first_hop_space, _second_hop_space(config)))
    frank = {f: i for i, f in enumerate(fstates)}
    rate = np.zeros((k_dest, len(cols)))
    flow = np.zeros((len(classes), len(cols)))  # net = sum pi (a - b)
    time = np.zeros((len(fstates), len(cols)))
    for j, (fam, m, g, f) in enumerate(cols):
        pi = config.fading.get(f, 0.0)
        if fam == "a":
            rate[:, j] = pi * np.asarray(config.schemes[m])
            flow[class_rank[(m, g)], j] = pi
        else:
            flow[class_rank[(m, g)], j] = -pi
        time[frank[f], j] = 1.0
    return rate, flow, time


def _grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _grid_search(dim, evaluate, start_step, final_step=1e-6):
    axes = [np.arange(0.0, 1.0 + start_step / 2, start_step)] * dim
    pts = _grid_points(axes)
    vals = evaluate(pts)
    best = int(np.argmax(vals))
    best_x, best_v = pts[best], vals[best]
    step = start_step
    while step > final_step:
        step /= 4.0
        axes = [np.clip(best_x[d] + step * np.arange(-12, 13), 0.0, 1.0) for d in range(dim)]
        pts = _grid_points(axes)
        vals = evaluate(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_x, best_v = pts[i], vals[i]
    return best_v


def slack_oracle(config, lam, start_step=None):
    """max over fractions of min(rate margins, flow margins), time-feasible."""
    lam = np.asarray(lam, dtype=float)
    cols = _oracle_columns(config)
    dim = len(cols)
    if dim == 0:
        return -float(lam.max())
    if dim > 6:
        raise ValueError("grid oracle is for tiny configs only")
    rate, flow, time = _constraint_matrices(config, cols)
    if start_step is None:
        start_step = 0.01 if dim <= 3 else 0.05

    def evaluate(pts):
        feas = (pts @ time.T <= 1.0 + 1e-12).all(axis=1)
        margins = np.concatenate(
            [pts @ rate.T - lam[None, :], -(pts @ flow.T)], axis=1
        )
        vals = margins.min(axis=1)
        vals[~feas] = -np.inf
        return vals

    return _grid_search(dim, evaluate, start_step)


def scale_oracle(config, direction, start_step=None):
    """max over fractions of min_k rate_k/direction_k with fill <= drain
    per class, the relation the package's scale LP uses."""
    direction = np.asarray(direction, dtype=float)
    cols = _oracle_columns(config)
    dim = len(cols)
    if dim == 0:
        return 0.0
    if dim > 6:
        raise ValueError("grid oracle is for tiny configs only")
    rate, flow, time = _constraint_matrices(config, cols)
    pos = direction > 0
    if start_step is None:
        start_step = 0.01 if dim <= 3 else 0.05

    def evaluate(pts):
        feas = (pts @ time.T <= 1.0 + 1e-12).all(axis=1)
        feas &= (pts @ flow.T <= 1e-12).all(axis=1)
        vals = (pts @ rate.T[:, pos] / direction[None, pos]).min(axis=1)
        vals[~feas] = -np.inf
        return vals

    return _grid_search(dim, evaluate, start_step)


# ---------------------------------------------------------------------------
# independent LP solver


def ratio_row(column, x_b, basis, col):
    """``region._ratio_row`` in numpy: the leaving row by minimum ratio
    x_B / column over the entries above PIVOT_TOL * max(1, max |column|),
    ties to the lowest basis index; None when no entry is positive, and
    DegeneracyError when every positive entry is below the threshold."""
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


def highs_value(lp):
    """Optimum of ``lp`` by HiGHS, reported as the package does (raw - shift)."""
    from scipy.optimize import linprog

    assert all(s == "<=" for s in lp.senses), lp.senses
    res = linprog(
        -np.asarray(lp.objective),
        A_ub=lp.matrix,
        b_ub=lp.rhs,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun) - lp.objective_shift


def per_triple_value(config, kind, target):
    """The scale ("scale", target = direction) or slack ("slack", target =
    lambda) optimum by HiGHS on the unaggregated formulation: the
    ``_oracle_columns`` layout, one time row per combined state (p = 0 ones
    included) and no merging of states.  The scale LP keeps one flow row
    per triple; the slack margin is per relay queue (m, g1), so the slack
    LP sums the triples' flow rows into one per class.  The last variable,
    rho >= 0 or a free delta, is maximized."""
    from scipy.optimize import linprog

    cols = _oracle_columns(config)
    rate, flow, time = _constraint_matrices(config, cols)
    target = np.asarray(target, dtype=float)
    if kind == "slack":
        triples = sorted({(m, g) for _, m, g, _ in cols})
        classes = sorted({(m, g[0]) for m, g in triples})
        merge = np.array([[(m, g[0]) == c for m, g in triples] for c in classes], dtype=float)
        flow = merge.reshape(len(classes), len(triples)) @ flow  # the shape holds with no classes too
        extra = np.concatenate([np.ones(len(rate) + len(flow)), np.zeros(len(time))])
        rhs = np.concatenate([-target, np.zeros(len(flow)), np.ones(len(time))])
        bounds = [(0, None)] * len(cols) + [(None, None)]
    else:
        extra = np.concatenate([target, np.zeros(len(flow) + len(time))])
        rhs = np.concatenate([np.zeros(len(rate) + len(flow)), np.ones(len(time))])
        bounds = (0, None)
    matrix = np.hstack([np.vstack([-rate, flow, time]), extra[:, None]])
    objective = np.zeros(matrix.shape[1])
    objective[-1] = -1.0
    res = linprog(objective, A_ub=matrix, b_ub=rhs, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)
