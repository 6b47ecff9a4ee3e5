"""Independent oracles used by the tests.

``bruteforce_decide`` enumerates every one-hot transmit assignment of a
block's discrete scheduling program with plain Python loops (k ascending,
n ascending over the N equal relays, the support read as its raw triples)
and picks the maximum under the documented preference order.

``reference_run`` is the simulator's block loop written with
``bruteforce_decide`` (``sim.run`` and ``controller.decide`` share one rule,
so ``decide`` would check that rule against itself), the pure
``queueing.apply_*`` updates, ``controller.lyapunov`` and numpy reductions
over the state's one ``(M, |F|^N)`` relay array for every other series.
It records each block's scheme m and first-hop state g1 as it decides
them, so it checks the decision columns ``sim.run`` splits from its flat
queue indices after the loop.  ``sim.run`` must reproduce every field bit
for bit, so the summary ``sim.summary_dict`` derives from them matches too.

``reference_drift_check`` is ``drift_check`` with one ``bruteforce_decide``
call, one pure queue update and one full potential per sample.

``expected_drift`` is the exact one-block drift at a probe: the sum over
every fading state and every point of the finite arrival support, weighted
by its probability, of the same per-sample change of the potential.

``highs_value`` solves a ``LinearProgram`` with scipy's HiGHS (tests only;
the package itself needs numpy alone).

``slack_oracle`` / ``scale_oracle`` evaluate the region queries by direct
grid search over the time-sharing fractions: feasibility and the margin
are computed from the defining constraint formulas at every grid point,
then the winning cell is refined level by level down to a 1e-6 step.  The
objectives are concave (minima of affine functions over a box), so the
local refinement converges to the global optimum.
"""

import itertools
import math

import numpy as np

from coopsim.controller import FIRST_HOP, SECOND_HOP, VARIANT_NAMES, decide, lyapunov
from coopsim.queueing import (
    QueueState,
    apply_first_hop,
    apply_idle,
    apply_second_hop,
    snapshot_header,
)
from coopsim.sim import DriftEstimate, Metrics, _draws


def bruteforce_decide(state, f, allow_idle=False):
    """(variant, m, g1, best_first, best_second) by exhaustive enumeration;
    with ``allow_idle``, idle when neither weight is positive."""
    cfg = state.config
    triples = cfg.support.triples
    f1, f2 = tuple(f[0]), tuple(f[1])
    g1i_now = cfg.g1_index[f1]

    first = []
    for m, scheme in enumerate(cfg.schemes):
        s = 0.0
        for _ in range(cfg.shape.num_relays):
            s += state.relay[m, g1i_now]
        val = 0.0
        for k in range(cfg.shape.num_destinations):
            r = scheme.rates[k]
            val += (state.source[k] - r * s) * r
        first.append((val, m))

    second = []
    for m, scheme in enumerate(cfg.schemes):
        rsum = 0.0
        for k in range(cfg.shape.num_destinations):
            rsum += scheme.rates[k]
        for g1 in cfg.first_hop_space:
            if (m, g1, f2) in triples:
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
            values = [*state.source.tolist(), *state.relay.reshape(-1).tolist()]
            snapshot_sink.write(f"{t}," + ",".join(map(repr, values)) + "\n")

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


def reference_drift_check(config, arrivals, probe_state, samples, seed=0, allow_idle=False):
    """``drift_check`` with a fresh ``bruteforce_decide``, a pure queue update
    and a full potential for every sample, on the draws of ``sim._draws``."""
    state_idx, arr = _draws(config, arrivals, samples, seed)
    v0 = lyapunov(probe_state)
    dv = np.empty(samples)
    for i in range(samples):
        f = config.sorted_states[state_idx[i]]
        a = arr[:, i]
        variant, m, g1, _, _ = bruteforce_decide(probe_state, f, allow_idle)
        if variant == FIRST_HOP:
            nxt = apply_first_hop(probe_state, a, m, f[0])
        elif variant == SECOND_HOP:
            nxt = apply_second_hop(probe_state, a, m, g1)
        else:
            nxt = apply_idle(probe_state, a)
        dv[i] = lyapunov(nxt) - v0
    return DriftEstimate(
        mean=float(dv.mean()), stderr=float(dv.std(ddof=1) / math.sqrt(samples)), samples=samples
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


def expected_drift(config, arrivals, probe_state, allow_idle=False):
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
            d = decide(probe_state, f, allow_idle=allow_idle)
            key = (d.variant, d.m, f[0] if d.variant == FIRST_HOP else d.g1)
            actions[key] = actions.get(key, 0.0) + p
    v0 = lyapunov(probe_state)
    terms = []
    for (variant, m, g1), p_action in actions.items():
        for p_arr, a in outcomes:
            if variant == FIRST_HOP:
                nxt = apply_first_hop(probe_state, a, m, g1)
            elif variant == SECOND_HOP:
                nxt = apply_second_hop(probe_state, a, m, g1)
            else:
                nxt = apply_idle(probe_state, a)
            terms.append(p_action * p_arr * (lyapunov(nxt) - v0))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# grid search over time-sharing fractions


def _second_hop_space(config):
    n = config.shape.num_relays * config.shape.num_destinations
    return list(itertools.product(config.fading.alphabet, repeat=n))


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
    for m, g1, g2 in sorted(config.support.triples, key=lambda t: (t[0], g1rank[t[1]], g2rank[t[2]])):
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
        pi = config.fading.table.get(f, 0.0)
        if fam == "a":
            rate[:, j] = pi * np.asarray(config.schemes[m].rates)
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
