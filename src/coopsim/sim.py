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

The block loop runs over Python floats and is compiled once per K,
``chunk_loop(K)``; one call runs a chunk of ``CHUNK`` blocks.  It keeps the
state's one relay queue as a flat list of length M * |F|^N, index
c = m * |F|^N + g1, and the K source queues as locals.  Each block it
decides on the entry of the state's (f1, D(f2)) group in the config's
cached ``decision_table`` by the controller's rule, spliced in as the text
``controller.rule_text`` gives (the step ``controller.chooser`` compiles
the same text), and applies the exact queue updates (given in
``queueing``) inline.  Queues start empty and move only in whole multiples
of the integer T.  An action writes at most one relay queue, so each block
extends one flat list with one record: (variant code, c, A, B, the new
value of queue c, the K new source queues).  After the chunk one
``np.array`` of that list is sliced into the decision columns, the
weights, the written values and the source rows.

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
are those of the running d + sent * r_m^k.  One writer, ``_write_rows``,
formats a chunk's floats for the snapshot rows and metrics.csv alike: the
repr of each distinct float64 bit pattern of the chunk, so no memo
outlives a chunk and memory stays flat in the horizon, and writes them
after the block index and any other text columns (metrics.csv's from
arrays of names, where index -1 reads "") as one string.  The decision columns m and g1 are split
from c after the loop, and the final state is the flat queue reshaped to
(M, |F|^N).  The summary is derived where it is printed, in
``summary_dict``.

A drift probe gives E[V(next) - V(probe)] at a fixed probe exactly: the
sum over the (f1, D(f2)) groups of the same table, with one step each, of
p_G * (N * (r_m . 1)^2 * (Q'^2 - Q^2) + sum_k E[(Qs_k - s_k + a_k)+^2] -
Qs_k^2), p_G the group's entry of
``NetworkConfig.group_pi``.  The action takes s_k = r_m^k * T bits on a
first hop into queue c, m = c // |F|^N, else none, and moves queue c
alone, to Q' = Q + T or (Q - T)+.  Arrivals are independent across
destinations and of the fading, so each destination has one closed-form
expectation, next to its draw, and it depends on the group only through
the send: a call keeps a table of the terms per send, filled the first
time a group makes that send, so at most K * (M + 1) closed forms are
evaluated however many groups there are.  A group's change starts from
its relay term and adds the K terms k ascending.  Each term is a change,
e (2x + e), never a difference of squares, so no large squares cancel.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .controller import VARIANT_NAMES, chooser, compile_function, rule_text
from .model import NetworkConfig, fading_indices
from .queueing import QueueState

DISTRIBUTIONS = ("constant", "uniform-integer", "bernoulli-batch")

# Blocks per chunk: draws are converted to Python lists, and the relay rows
# rebuilt and the series and snapshot rows computed, one chunk at a time, so
# memory stays flat in the horizon.  Each chunk pays fixed numpy and CSV
# costs; on desk, 1024 blocks run faster than 256 or 512, as fast as 2048,
# and hold less memory than 2048 or 4096.
CHUNK = 1024

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


def _expected_square_change(cfg: ArrivalConfig, k: int, T: float, x: float, s: float) -> float:
    """E[(x - s + a)+^2] - x^2 for destination k's arrivals a in one block,
    under the law ``_draw_destination`` draws from."""
    mu = cfg.rates[k] * T
    if cfg.distribution == "constant":
        return _square_change(x, mu - s, 1)
    if cfg.distribution == "uniform-integer":
        base = math.floor(mu)
        n, frac = 2 * base + 1, mu - base
        return (1.0 - frac) * _square_change(x, -s, n) + frac * _square_change(x, 1.0 - s, n)
    return 0.5 * (_square_change(x, -s, 1) + _square_change(x, 2.0 * mu - s, 1))  # bernoulli-batch


def _square_change(x: float, lo: float, count: int) -> float:
    """The mean over j < count of (x + e_j)+^2 - x^2, e_j = lo + j, in closed
    form: each e_j <= -x empties the queue, a change of -x^2, and the other n
    changes e (2x + e) sum to n (e' (2x + e') + (n^2 - 1) / 12), e' their mean."""
    gap = -x - lo  # the queue empties for j <= gap
    low = count if gap >= count - 1 else math.floor(gap) + 1 if gap >= 0.0 else 0
    change = -x * x * (low / count)
    n = count - low
    if n:
        e = lo + low + (n - 1) / 2
        change += n / count * (e * (2.0 * x + e) + (n * n - 1) / 12)
    return change


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
    variants: np.ndarray = None  # the step's codes into VARIANT_NAMES
    decision_m: np.ndarray = None  # c // |F|^N of the step's queue index c, -1 when idle
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


def stability_verdict(metrics: Metrics) -> StabilityVerdict:
    """Classify the trailing-half backlog slope against two thresholds.

    theta_stable = 0.01 * T and theta_unstable = 0.1 * T bits per block, an
    order of magnitude apart so slow transients do not flip the verdict.
    Slopes between the thresholds are inconclusive.
    """
    theta_stable = 0.01 * metrics.block_length
    theta_unstable = 0.1 * metrics.block_length
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


def _check_arrivals(config: NetworkConfig, arrivals: ArrivalConfig) -> None:
    """Refuse arrivals without one finite mean r * T per destination, or whose uniform draw overflows."""
    k_dest = config.shape.num_destinations
    if len(arrivals.rates) != k_dest:
        raise ValueError(f"arrival rates must have {k_dest} entries")
    T = config.shape.block_length
    if not all(math.isfinite(r * T) for r in arrivals.rates):
        raise ValueError(f"arrival rates times the block length T={T} must be finite")
    for k, r in enumerate(arrivals.rates):
        # the uniform draw's exclusive bound 2 * floor(r * T) + 1 must fit numpy's int64
        if arrivals.distribution == "uniform-integer" and r * T >= 2**62:
            raise ValueError(
                f"destination {k}: uniform-integer mean {r * T!r} bits per block (rate times T={T})"
                f" must be below 2**62 = {2**62}"
            )


def _draws(config: NetworkConfig, arrivals: ArrivalConfig, horizon: int, seed: int):
    """All of a run's random input: sorted-state indices (horizon,) and
    arrivals (K, horizon), from one substream for fading and one per
    destination."""
    _check_arrivals(config, arrivals)
    k_dest = config.shape.num_destinations
    T = config.shape.block_length
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


# One call runs a chunk of blocks: the controller's rule spliced in, the K
# source queues held as locals x0..x{K-1}, the exact queue updates written out
# and one flat record per block.
_LOOP = """\
def loop(src, q, rec, groups, arrivals, table, sends, n_relays, allow_idle, T):
    {xs} = src
    for g, {ys} in zip(groups, *arrivals):
        entry = table[g]
{rule}
        if code == 0:  # first hop into queue c
            {ss} = sends[c]
{clamps}
            q[c] += T
        else:
{adds}
            if code == 1:  # second hop draining queue c
                q[c] = v if (v := q[c] - T) > 0.0 else 0.0
        rec += (code, c, a, b, q[c], {xs})  # q[c] is unused when idle (c = -1)
    return [{xs}]
"""


@functools.cache
def chunk_loop(k_dest: int):
    """The block loop compiled for K = ``k_dest``, once per K: ``loop(src, q,
    rec, groups, arrivals, table, sends, n_relays, allow_idle, T)`` runs one
    block per entry of ``groups`` (decision-table indices) and of the K lists
    ``arrivals``, updates the relay queues ``q`` in place, extends ``rec`` per
    block with (variant code, c, A, B, the new value of queue c, the K new
    source queues) and returns the source queues.  ``sends[c]`` holds the
    bits a first hop into queue c takes from each destination."""
    xs = "".join(f"x{k}, " for k in range(k_dest))
    # v > 0.0, not max(): np.maximum(-0.0, 0.0) is +0.0
    clamps = "\n".join(f"            x{k} = v if (v := x{k} + y{k} - s{k}) > 0.0 else 0.0" for k in range(k_dest))
    adds = "\n".join(f"            x{k} += y{k}" for k in range(k_dest))
    source = _LOOP.format(
        xs=xs,
        ys=xs.replace("x", "y"),
        ss=xs.replace("x", "s"),
        rule=rule_text(k_dest, " " * 8),
        clamps=clamps,
        adds=adds,
    )
    return compile_function(source, "loop", k_dest)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as ValueError
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
    (header plus one row per block) as it is produced.  A series value
    beyond the float range raises ValueError naming its block, after the
    last block; B = -inf, no drainable queue, is kept.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k_dest = config.shape.num_destinations
    T = config.shape.block_length
    n_relays = config.shape.num_relays
    n_g1 = len(config.first_hop_space)
    n_cells = len(config.schemes) * n_g1
    state_idx, arr = _draws(config, arrivals, horizon, seed)

    table, group_of = config.decision_table, config.state_groups[2]
    loop = chunk_loop(k_dest)
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
        rec = []
        groups = group_of[state_idx[lo:hi]].tolist()
        # N and T as floats, the same values: float-only arithmetic runs faster
        src = loop(src, q, rec, groups, arr[:, lo:hi].tolist(), table, cell_sends, float(n_relays), allow_idle, float(T))
        block = np.array(rec, dtype=float).reshape(hi - lo, 5 + k_dest)
        variants[lo:hi], cells[lo:hi], w_first[lo:hi], w_second[lo:hi] = block[:, :4].T
        source = block[:, 5:]
        rows = _relay_rows(start, cells[lo:hi], block[:, 4])
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
            _write_rows(snapshot_sink, lo, [], np.concatenate((source, relay), axis=1))

    offered = arr.sum(axis=1)
    # A finite V bounds a block's arrivals and deliveries by 2 sqrt(V) < 3e154
    # bits, so the offered and delivered totals of a checked run stay finite.
    ok = w_second < math.inf
    for series in (src_series, rel_series, rel_bits_series, v_series, w_first):
        ok &= np.isfinite(series)
    if not ok.all():
        raise ValueError(f"block {ok.argmin()}: a queue, the potential V or a weight A or B overflows the float range")
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


def drift_check(
    config: NetworkConfig,
    arrivals: ArrivalConfig,
    probe_state: QueueState,
    samples: int,
    seed: int = 0,
) -> DriftEstimate:
    """The exact expected one-block potential drift at a fixed state, the
    sum the module docstring gives.  ``samples`` and ``seed`` are ignored,
    ``stderr`` is 0.0 and ``samples`` echoes the argument, as the benchmark
    under ``bench/`` passes and reads them.  Arrivals ``run`` refuses, a
    probe of other queue shapes or with a negative or non-finite queue, and
    a V(probe) or drift beyond the float range raise ValueError."""
    _check_arrivals(config, arrivals)
    k_dest = config.shape.num_destinations
    n_g1 = len(config.first_hop_space)
    relay_shape = (len(config.schemes), n_g1)
    if probe_state.source.shape != (k_dest,) or probe_state.relay.shape != relay_shape:
        raise ValueError(
            f"the probe's queues must have shapes {(k_dest,)} and {relay_shape}, "
            f"got {probe_state.source.shape} and {probe_state.relay.shape}"
        )
    qs, rows = probe_state.source.tolist(), probe_state.relay.tolist()
    q = [x for row in rows for x in row]
    if not all(0.0 <= x < math.inf for x in qs + q):
        raise ValueError("probe queues must be finite and non-negative")
    T = config.shape.block_length
    n_relays = config.shape.num_relays
    w = config.rate_sums.tolist()
    v0 = sum(x * x for x in qs) + n_relays * sum((wm * x) * (wm * x) for wm, row in zip(w, rows) for x in row)
    if not math.isfinite(v0):
        raise ValueError("the probe's potential V overflows the float range")
    choose = chooser(k_dest)
    arrival = {}  # the send's scheme m, -1 for none -> sum_k's terms, k ascending
    drift = 0.0
    for entry, pi in zip(config.decision_table, config.group_pi):
        code, c = choose(qs, q, entry, n_relays, False)[:2]
        m = c // n_g1
        new = q[c] + T if code == 0 else max(q[c] - T, 0.0)
        change = n_relays * (w[m] * w[m]) * ((new - q[c]) * (new + q[c]))
        send = m if code == 0 else -1
        if send not in arrival:
            arrival[send] = [
                _expected_square_change(arrivals, k, T, x, config.schemes[m][k] * T if code == 0 else 0.0)
                for k, x in enumerate(qs)
            ]
        for term in arrival[send]:
            change += term
        drift += pi * change
    if not math.isfinite(drift):
        raise ValueError("the drift estimate overflows the float range")
    return DriftEstimate(mean=drift, stderr=0.0, samples=samples)


# ---------------------------------------------------------------------------
# serialization


def snapshot_header(config: NetworkConfig) -> list[str]:
    """The --queues columns: block, Qs_1..Qs_K, then one relay's queues in
    (m, g1) lexicographic order (every relay holds the same)."""
    cols = ["block"]
    cols += [f"Qs_{k + 1}" for k in range(config.shape.num_destinations)]
    cols += [f"Q_m{m}_{'|'.join(g1)}" for m in range(len(config.schemes)) for g1 in config.first_hop_space]
    return cols


def _write_rows(fh, lo, heads, values) -> None:
    """One CSV line per row of the float64 matrix ``values``, the rows of
    blocks lo, lo + 1, ...: the block index, its entry in each str column
    of ``heads``, then the repr of each value, comma-separated.  Each
    distinct bit pattern is formatted once, so -0.0 keeps its own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)[inverse.ravel()]
    blocks = map(str, range(lo, lo + len(values)))
    fh.write("\n".join(map(",".join, zip(blocks, *heads, *texts.reshape(values.shape).T.tolist()))) + "\n")


def write_metrics_csv(metrics: Metrics, fh) -> None:
    """Frozen column order; floats use shortest round-trip formatting."""
    fh.write(",".join(METRICS_COLUMNS) + "\n")
    names = [np.array(VARIANT_NAMES, dtype=object)]
    names.append(np.array([*map(str, range(metrics.decision_m.max() + 1)), ""], dtype=object))
    names.append(np.array(["|".join(g1) for g1 in metrics.g1_space] + [""], dtype=object))
    decisions = (metrics.variants, metrics.decision_m, metrics.decision_g1)
    floats = (
        metrics.weight_first,
        metrics.weight_second,
        metrics.source_backlog,
        metrics.relay_backlog,
        metrics.relay_backlog_bits,
        metrics.lyapunov,
    )
    for lo in range(0, metrics.horizon, CHUNK):
        hi = min(lo + CHUNK, metrics.horizon)
        heads = [t[c[lo:hi]].tolist() for t, c in zip(names, decisions)]
        _write_rows(fh, lo, heads, np.stack([c[lo:hi] for c in floats], axis=1))


def summary_dict(metrics: Metrics, verdict: StabilityVerdict) -> dict:
    """The run's summary: the share of blocks per action and the mean
    backlogs over the trailing half of the horizon, derived from the
    series, next to the verdict.  A growth rate that could not be fitted
    (NaN, a trailing half of fewer than two blocks) is None, JSON null."""
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
        "growth_rate": None if math.isnan(verdict.growth_rate) else verdict.growth_rate,
        "theta_stable": verdict.theta_stable,
        "theta_unstable": verdict.theta_unstable,
    }
