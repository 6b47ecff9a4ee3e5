"""Block-by-block simulation, arrivals, stability verdicts, drift probes.

A run draws the fading state and the exogenous arrivals for each block,
asks the controller for a decision, applies the matching queue update and
records time series.  Everything is a pure function of the seed: the seed
is split with numpy's SeedSequence into one PCG64 substream for fading and
one per destination for arrivals, so runs are reproducible bit for bit and
independent runs can execute in parallel.

Arrival models (mean exactly rate_k * T bits per block, bounded support):

  constant         exactly rate_k * T every block
  uniform-integer  U + B with U uniform on {0..2*floor(mu)} and B a
                   Bernoulli(mu - floor(mu)) top-up, mu = rate_k * T; this
                   is plain uniform {0..2*mu} whenever mu is an integer
  bernoulli-batch  2 * mu bits with probability 1/2, else 0

The block loop keeps the state's one relay queue as a flat list of length
M * |F|^N, index c = m * |F|^N + g1, and runs over Python floats: once per
block it calls ``controller.choose`` on the state's entry of the table
``controller.state_entries`` builds once per run, and applies the exact
queue updates (given in ``queueing``) inline.  Queues start empty and move
only in whole multiples of the integer T.  An action writes at most one
relay queue, so per block the loop records three things: ``choose``'s
(variant code, c, A, B), the new source queues (appended to one flat list)
and the new value of queue c.

After each chunk of blocks, ``_relay_rows`` rebuilds the relay queue after
every block from the row at the chunk's start: it scatters each block's
write at (t, c), skipping idle blocks (c = -1), and forward-fills each
cell's last write with ``np.maximum.accumulate`` over the write positions.
The rows hold the very floats the loop wrote, so they equal a copy of the
queue taken after every block bit for bit, and that one matrix feeds the
relay series, the potential and the snapshot rows through the same numpy
row sums a copy would.  ``delivered_bits`` reads each second hop's queue
before the drain from the row above it: min(T, Q) times r_m for every
destination, added block after block by ``np.add.accumulate`` seeded with
the running total.  ``accumulate`` adds strictly in sequence, so the sums
are those of the running d + sent * r_m^k.  Snapshot text is the repr of
each distinct float64 bit pattern of the chunk, so no memo outlives a chunk
and memory stays flat in the horizon.  The decision columns m and g1 are
split from c after the loop, and the final state is the flat queue
reshaped to (M, |F|^N).  The summary is derived where it is printed, in
``summary_dict``.

A drift probe estimates E[V(next) - V(probe)] at a fixed probe from the
draws a run of that many blocks would use.  It builds the same table once
and calls ``choose`` once per distinct drawn fading state, on the probe's
source queues as a list and its relay queue as one flat list, which fixes
the bits taken from the source: r_m * T for a first hop into queue c,
m = c // |F|^N, else none.  The relay term of V after the action,
N * sum_{m,g1} ((r_m . 1) * Q^{m,g1})^2, depends only on (variant code, c),
so it is computed once per distinct action, on a copy of the probe's relay
with queue c moved to Q + T (first hop) or (Q - T)+ (second hop).  The
source term max(Qs + a - sub, 0)^2 is one array pass, summed along
contiguous rows (the order of a 1-D sum), and V(next) is that sum plus the
relay term, the one addition a full potential makes.  The clamp is a no-op
unless bits are taken, as probe and arrivals are non-negative, so the
estimate equals one decision, update and potential per sample bit for bit.

The relay series sum one relay's queue: every relay holds a copy of each
buffered packet, so a packet counts once in the backlog.  Only the
potential V = sum_k Qs_k^2 + N * sum_{m,g1} ((r_m . 1) * Q^{m,g1})^2
weights the relay term by N.

The stability verdict fits a least-squares slope to the total backlog, in
bits, over the trailing half of the horizon.  Relay symbols convert to
bits with each queue's own rate sum r_m . 1, the same weighting the
quadratic potential uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

import numpy as np

from .controller import VARIANT_NAMES, choose, state_entries
from .model import NetworkConfig, fading_indices
from .queueing import QueueState, snapshot_header

DISTRIBUTIONS = ("constant", "uniform-integer", "bernoulli-batch")

# Blocks per chunk: draws are converted to Python lists, and the relay rows
# rebuilt and the series and snapshot rows computed, one chunk at a time, so
# memory stays flat in the horizon.
CHUNK = 256

METRICS_COLUMNS = (
    "block",
    "variant",
    "m",
    "g1",
    "A",
    "B",
    "source_backlog",
    "relay_backlog",
    "relay_backlog_bits",
    "lyapunov",
)


@dataclass(frozen=True)
class ArrivalConfig:
    rates: tuple  # bits/symbol per destination
    distribution: str = "uniform-integer"

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not all(0.0 <= r < math.inf for r in self.rates):
            raise ValueError("arrival rates must be finite and non-negative")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown arrival distribution {self.distribution!r}")


def _draw_destination(cfg: ArrivalConfig, k: int, rng: np.random.Generator, T: float, size: int):
    """Arrivals for destination k over ``size`` blocks, shape (size,)."""
    mu = cfg.rates[k] * T
    if cfg.distribution == "constant":
        return np.full(size, mu)
    if cfg.distribution == "uniform-integer":
        base = math.floor(mu)
        u = rng.integers(0, 2 * base + 1, size=size)
        return u.astype(float) + (rng.random(size) < mu - base)
    return 2.0 * mu * (rng.random(size) < 0.5)  # bernoulli-batch


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    """A run's per-block record and its final queues.  The shares of
    each action and the trailing-half means are not stored: ``summary_dict``
    derives them from ``variants`` and the series."""

    horizon: int
    block_length: int
    source_backlog: np.ndarray  # bits after each block's update
    relay_backlog: np.ndarray = None  # one relay's symbols: a packet counts once, not N times
    relay_backlog_bits: np.ndarray = None  # the same symbols weighted by each queue's r_m . 1
    lyapunov: np.ndarray = None
    variants: np.ndarray = None  # choose()'s codes into VARIANT_NAMES
    decision_m: np.ndarray = None  # c // |F|^N of choose()'s queue index c, -1 when idle
    decision_g1: np.ndarray = None  # c % |F|^N, an index into g1_space, on a second hop only; else -1
    weight_first: np.ndarray = None
    weight_second: np.ndarray = None
    fading_state_idx: np.ndarray = None  # index into the config's sorted states
    g1_space: tuple = ()
    seed: int | None = None
    delivered_bits: np.ndarray = None  # per destination, capped at offered
    offered_bits: np.ndarray = None
    final_state: QueueState | None = None

    def total_backlog_bits(self) -> np.ndarray:
        return self.source_backlog + self.relay_backlog_bits


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "inconclusive"
    growth_rate: float  # bits/block over the trailing half
    theta_stable: float
    theta_unstable: float


@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    stderr: float
    samples: int


def _ls_slope(t: np.ndarray, x: np.ndarray) -> float:
    t = t.astype(float)
    d = t - t.mean()
    den = float((d * d).sum())
    if den == 0.0:
        return float("nan")
    return float((d * (x - x.mean())).sum() / den)


def stability_verdict(
    metrics: Metrics,
    theta_stable: float | None = None,
    theta_unstable: float | None = None,
) -> StabilityVerdict:
    """Classify the trailing-half backlog slope against two thresholds.

    Defaults: theta_stable = 0.01 * T and theta_unstable = 0.1 * T bits per
    block, an order of magnitude apart so slow transients do not flip the
    verdict.  Slopes between the thresholds are inconclusive.
    """
    if theta_stable is None:
        theta_stable = 0.01 * metrics.block_length
    if theta_unstable is None:
        theta_unstable = 0.1 * metrics.block_length
    if not theta_stable < theta_unstable:
        raise ValueError("theta_stable must be below theta_unstable")
    series = metrics.total_backlog_bits()
    start = metrics.horizon // 2
    tail = series[start:]
    if len(tail) < 2:
        slope = float("nan")
    else:
        slope = _ls_slope(np.arange(start, metrics.horizon), tail)
    if slope < theta_stable:
        verdict = "stable"
    elif slope > theta_unstable:
        verdict = "unstable"
    else:
        verdict = "inconclusive"  # includes nan slopes
    return StabilityVerdict(verdict, slope, theta_stable, theta_unstable)


# ---------------------------------------------------------------------------
# the block loop


def _draws(config: NetworkConfig, arrivals: ArrivalConfig, horizon: int, seed: int):
    """All of a run's random input: sorted-state indices (horizon,) and
    arrivals (K, horizon), from one substream for fading and one per
    destination."""
    k_dest = config.shape.num_destinations
    if len(arrivals.rates) != k_dest:
        raise ValueError(f"arrival rates must have {k_dest} entries")
    T = config.shape.block_length
    if not all(math.isfinite(r * T) for r in arrivals.rates):
        raise ValueError(f"arrival rates times the block length T={T} must be finite")
    if seed < 0:
        raise ValueError(f"the seed must be a non-negative integer, got {seed}")
    children = np.random.SeedSequence(seed).spawn(1 + k_dest)
    state_idx = fading_indices(config, np.random.default_rng(children[0]).random(horizon))
    arr = np.empty((k_dest, horizon))
    for k in range(k_dest):
        arr[k] = _draw_destination(arrivals, k, np.random.default_rng(children[1 + k]), T, horizon)
    return state_idx, arr


def _relay_rows(start, cells, values) -> np.ndarray:
    """One relay's queues before and after each block of a chunk, shape
    (blocks + 1, cells): row 0 is ``start``, and row t + 1 holds each cell's
    last write at or before block t, else its start value.  Block t wrote
    ``values[t]`` to queue ``cells[t]``; an idle block (c = -1) writes
    nothing."""
    width = len(start)
    written = np.empty((len(cells) + 1) * width)
    written[:width] = start
    last = np.zeros((len(cells) + 1, width), dtype=np.intp)  # flat position of each cell's last write
    last[0] = np.arange(width)
    t = np.flatnonzero(cells >= 0)
    at = (t + 1) * width + cells[t]
    written[at] = np.asarray(values)[t]
    last.flat[at] = at
    np.maximum.accumulate(last, axis=0, out=last)
    return written[last]


def run(
    config: NetworkConfig,
    arrivals: ArrivalConfig,
    horizon: int,
    seed: int,
    allow_idle: bool = False,
    snapshot_sink=None,
) -> Metrics:
    """Simulate ``horizon`` blocks from empty queues.

    ``snapshot_sink``, when given, receives the full queue snapshot CSV
    (header plus one row per block) as it is produced.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k_dest = config.shape.num_destinations
    T = config.shape.block_length
    n_relays = config.shape.num_relays
    n_g1 = len(config.first_hop_space)
    n_cells = len(config.schemes) * n_g1
    state_idx, arr = _draws(config, arrivals, horizon, seed)

    table = state_entries(config, config.sorted_states)
    cell_rates = np.repeat(config.rates, n_g1, axis=0)  # r_m per flat index
    cell_sends = np.repeat(config.rates * T, n_g1, axis=0).tolist()  # bits a first hop takes
    cell_rate_sums = np.repeat(config.rate_sums, n_g1)  # r_m . 1 per flat index

    src_series = np.empty(horizon)
    rel_series = np.empty(horizon)
    rel_bits_series = np.empty(horizon)
    v_series = np.empty(horizon)
    variants = np.empty(horizon, dtype=np.int8)
    cells = np.empty(horizon, dtype=np.int32)  # the queue filled or drained, -1 when idle
    w_first = np.empty(horizon)
    w_second = np.empty(horizon)
    delivered = np.zeros(k_dest)

    src = [0.0] * k_dest
    q = [0.0] * n_cells  # one relay's queues, index m * |F|^N + g1
    if snapshot_sink is not None:
        snapshot_sink.write(",".join(snapshot_header(config)) + "\n")

    for lo in range(0, horizon, CHUNK):
        hi = min(lo + CHUNK, horizon)
        start = np.array(q)
        ch_act, ch_src, ch_val = [], [], []
        for s, a in zip(state_idx[lo:hi].tolist(), arr[:, lo:hi].T.tolist()):
            act = choose(src, q, table[s], n_relays, allow_idle)
            code, c = act[0], act[1]
            if code == 0:  # first hop into queue c
                # v > 0.0, not max(): np.maximum(-0.0, 0.0) is +0.0
                src = [v if (v := x + y - z) > 0.0 else 0.0 for x, y, z in zip(src, a, cell_sends[c])]
                q[c] += T
            else:
                src = list(map(add, src, a))
                if code == 1:  # second hop draining queue c
                    q[c] = v if (v := q[c] - T) > 0.0 else 0.0
            ch_act.append(act)
            ch_src += src
            ch_val.append(q[c])  # the one queue the action wrote; unused when idle (c = -1)

        variants[lo:hi], cells[lo:hi], w_first[lo:hi], w_second[lo:hi] = zip(*ch_act)
        source = np.array(ch_src).reshape(hi - lo, k_dest)
        rows = _relay_rows(start, cells[lo:hi], ch_val)
        relay = rows[1:]
        weighted = relay * cell_rate_sums
        src_series[lo:hi] = source.sum(axis=1)
        rel_series[lo:hi] = relay.sum(axis=1)
        rel_bits_series[lo:hi] = weighted.sum(axis=1)
        v_series[lo:hi] = (source * source).sum(axis=1) + n_relays * (weighted * weighted).sum(axis=1)
        # a second hop delivers min(T, Q) symbols of each of its queue's r_m;
        # accumulate adds them one block after another, as a running sum would
        second = np.flatnonzero(variants[lo:hi] == 1)
        drained = cells[lo:hi][second]
        steps = np.minimum(T, rows[second, drained])[:, None] * cell_rates[drained]
        delivered = np.add.accumulate(np.vstack((delivered, steps)), axis=0)[-1]
        if snapshot_sink is not None:
            # Keyed by bit pattern, -0.0 could never take 0.0's text, though
            # the queues never hold -0.0: they start at +0.0, each update
            # either clamps to +0.0 or adds a non-negative amount to a queue
            # at +0.0 or above, and an IEEE sum is -0.0 only when both terms are.
            row_bits = np.concatenate((source, relay), axis=1).view(np.int64)
            bits, inverse = np.unique(row_bits, return_inverse=True)
            texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)[inverse.ravel()]
            snapshot_sink.writelines(
                f"{t},{','.join(row)}\n" for t, row in zip(range(lo, hi), texts.reshape(row_bits.shape).tolist())
            )

    offered = arr.sum(axis=1)
    return Metrics(
        horizon=horizon,
        block_length=T,
        source_backlog=src_series,
        relay_backlog=rel_series,
        relay_backlog_bits=rel_bits_series,
        lyapunov=v_series,
        variants=variants,
        decision_m=np.where(variants == 2, np.int32(-1), cells // n_g1),
        decision_g1=np.where(variants == 1, cells % n_g1, np.int32(-1)),
        weight_first=w_first,
        weight_second=w_second,
        fading_state_idx=state_idx,
        g1_space=config.first_hop_space,
        seed=seed,
        delivered_bits=np.minimum(delivered, offered),
        offered_bits=offered,
        final_state=QueueState(config, np.array(src), np.array(q).reshape(-1, n_g1)),
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as ValueError
def drift_check(
    config: NetworkConfig,
    arrivals: ArrivalConfig,
    probe_state: QueueState,
    samples: int,
    seed: int = 0,
    allow_idle: bool = False,
) -> DriftEstimate:
    """Monte Carlo estimate of the one-block potential drift at a fixed state.

    Each sample independently draws (fading, arrivals), applies the
    controller's action to the probe state, and measures V(next) - V(probe).
    The probe must have ``config``'s queue shapes, its queues must be finite
    and non-negative, and V(probe) and the estimate must be finite floats;
    anything else raises ValueError.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    k_dest = config.shape.num_destinations
    n_g1 = len(config.first_hop_space)
    relay_shape = (len(config.schemes), n_g1)
    if probe_state.source.shape != (k_dest,) or probe_state.relay.shape != relay_shape:
        raise ValueError(
            f"the probe's queues must have shapes {(k_dest,)} and {relay_shape}, "
            f"got {probe_state.source.shape} and {probe_state.relay.shape}"
        )
    for queue in (probe_state.source, probe_state.relay):
        if not (np.isfinite(queue).all() and (queue >= 0.0).all()):
            raise ValueError("probe queues must be finite and non-negative")
    T = config.shape.block_length
    n_relays = config.shape.num_relays
    rate_sums = config.rate_sums[:, None]

    def relay_term(relay):  # N * sum ((r_m . 1) * Q^{m,g1})^2
        weighted = relay * rate_sums
        return n_relays * (weighted * weighted).sum()

    source = probe_state.source
    v0 = float((source * source).sum() + relay_term(probe_state.relay))
    if not math.isfinite(v0):
        raise ValueError("the probe's potential V overflows the float range")
    state_idx, arr = _draws(config, arrivals, samples, seed)
    qs, q = source.tolist(), probe_state.relay.ravel().tolist()
    sends = config.rates * T  # bits a first hop with scheme m takes
    sub = np.zeros((len(config.sorted_states), k_dest))  # bits the action takes from the source
    relay_terms = np.zeros(len(sub))
    by_action = {}  # (variant code, c) -> the relay term of V after that action
    table = state_entries(config, config.sorted_states)
    for s in np.flatnonzero(np.bincount(state_idx)).tolist():
        code, c = choose(qs, q, table[s], n_relays, allow_idle)[:2]
        if code == 0:
            sub[s] = sends[c // n_g1]
        if (code, c) not in by_action:
            relay = probe_state.relay.copy()
            if code != 2:
                relay.flat[c] = q[c] + T if code == 0 else max(q[c] - T, 0.0)
            by_action[code, c] = relay_term(relay)
        relay_terms[s] = by_action[code, c]
    src = np.ascontiguousarray(arr.T)  # next source queues, one row per sample
    src += source
    src -= sub[state_idx]
    np.maximum(src, 0.0, out=src)
    src *= src
    dv = src.sum(axis=1)
    dv += relay_terms[state_idx]
    dv -= v0
    mean = float(dv.mean())
    stderr = float(dv.std(ddof=1) / math.sqrt(samples))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError("the drift estimate overflows the float range")
    return DriftEstimate(mean=mean, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# serialization


def write_metrics_csv(metrics: Metrics, fh) -> None:
    """Frozen column order; floats use shortest round-trip formatting."""
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
    for lo in range(0, metrics.horizon, CHUNK):
        rows = zip(range(lo, metrics.horizon), *(c[lo:lo + CHUNK].tolist() for c in columns))
        fh.writelines(
            f"{t},{VARIANT_NAMES[v]},{'' if m < 0 else m},{'' if g1 < 0 else g1_names[g1]},"
            f"{a!r},{b!r},{src!r},{rel!r},{rel_bits!r},{pot!r}\n"
            for t, v, m, g1, a, b, src, rel, rel_bits, pot in rows
        )


def summary_dict(metrics: Metrics, verdict: StabilityVerdict) -> dict:
    """The run's summary: the share of blocks per action and the mean
    backlogs over the trailing half of the horizon, derived from the
    series, next to the verdict."""
    counts = np.bincount(metrics.variants, minlength=3)
    start = metrics.horizon // 2
    return {
        "horizon": metrics.horizon,
        "seed": metrics.seed,
        "block_length": metrics.block_length,
        "delivered_bits": [float(x) for x in metrics.delivered_bits],
        "offered_bits": [float(x) for x in metrics.offered_bits],
        "fraction_first_hop": counts[0] / metrics.horizon,
        "fraction_second_hop": counts[1] / metrics.horizon,
        "fraction_idle": counts[2] / metrics.horizon,
        "trailing_avg_source_bits": float(metrics.source_backlog[start:].mean()),
        "trailing_avg_relay_symbols": float(metrics.relay_backlog[start:].mean()),
        "trailing_avg_total_bits": float(metrics.total_backlog_bits()[start:].mean()),
        "final_total_bits": float(metrics.total_backlog_bits()[-1]),
        "verdict": verdict.verdict,
        "growth_rate": verdict.growth_rate,
        "theta_stable": verdict.theta_stable,
        "theta_unstable": verdict.theta_unstable,
    }
