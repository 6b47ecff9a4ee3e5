"""Back-pressure central controller.

Every block the controller sees the current queue lengths and the block's
combined fading state (f1, f2) and picks exactly one action:

  first hop   with the scheme m* maximizing
                  A = max_m  sum_k (Qs_k - r_m^k * S_m(f1)) * r_m^k,
              where S_m(g1) = sum_n Q_n at key (m, g1);
  second hop  draining the (m, g1) pair, supported under f2, maximizing
                  B = max (r_m . 1)^2 * S_m(g1),
              with B = -inf when no queue is drainable under f2.

First hop wins ties (A >= B).  Within a weight, ties break to the lowest
scheme id and then the lexicographically smallest g1, so runs are exactly
reproducible.  With ``allow_idle`` set the controller idles when A <= 0 and
B <= 0.  It never sees the fading distribution or the arrival rates; its
only inputs are queue lengths, the realized state and the support relation,
read as ``NetworkConfig.drain_cells``, the relation's g2 -> drainable queues
view that the region LP's layout is built from too.

The rule has one text, the template ``_STEP``, a scalar step over Python
floats: the K source queues and one relay's queues as a flat list, index
m * |F|^N + g1.  ``chooser(K)`` compiles it once per K with A's K terms
written out; its loop form, the spec, is ``tests/oracles.py``'s
``choose_spec``.  The N relays hold equal queues, so S_m(g1) = N * Q at
(m, g1).  A accumulates k ascending from 0.0 and r_m . 1 is
``NetworkConfig.rate_sums``, summed the same way, for any K.

The rule reads the state (f1, f2) only through f1 and D(f2), the queues f2
drains.  ``decision_table`` keeps one entry per group of
``NetworkConfig.state_groups``, the region LP's partition too, cached as
``NetworkConfig.decision_table``: ``sim.run`` calls the step once per
block on its state's entry, and ``sim.drift_check`` once per group;
there is no adapter for a ``QueueState``.
"""

from __future__ import annotations

import functools
import math

from .model import NetworkConfig

FIRST_HOP = "first_hop"
SECOND_HOP = "second_hop"
IDLE = "idle"
VARIANT_NAMES = (FIRST_HOP, SECOND_HOP, IDLE)  # indexed by the step's variant code


def decision_table(config: NetworkConfig) -> tuple:
    """(entries, group_of): per group of ``config.state_groups``, what
    the step reads: per scheme m, the flat index of queue (m, f1) and r_m
    (one tuple per f1); then D(f2) as (flat index, (r_m . 1)^2)."""
    keys, _, group_of = config.state_groups
    n_g1 = len(config.first_hop_space)
    rates = config.rates.tolist()
    w2 = (config.rate_sums * config.rate_sums).tolist()
    firsts = [tuple((m * n_g1 + g1i, r) for m, r in enumerate(rates)) for g1i in range(n_g1)]
    return tuple((firsts[config.g1_index[f1]], tuple((c, w2[c // n_g1]) for c in cells)) for f1, cells in keys), group_of


# One statement per term of A: one nested sum of K terms overflows the
# compiler's recursion limit at a few thousand destinations.
_STEP = """\
def choose(src, q, entry, n_relays, allow_idle):
    {xs} = src
    first, drains = entry
    a = None
    for c, ({rs}) in first:
        col = n_relays * q[c]
        w = 0.0
{terms}
        if a is None or w > a:
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
"""


@functools.cache
def chooser(k_dest: int):
    """The rule compiled for K = ``k_dest``, once per K: ``choose(src, q,
    entry, n_relays, allow_idle)`` -> (variant code, flat index, A, B) on the
    K source queues ``src`` and one relay's flat queues ``q``; the index is
    the queue the action fills or drains, -1 when idle."""
    xs = "".join(f"x{k}, " for k in range(k_dest))
    terms = "\n".join(f"        w += (x{k} - r{k} * col) * r{k}" for k in range(k_dest))
    namespace = {"math": math}
    exec(_STEP.format(xs=xs, rs=xs.replace("x", "r"), terms=terms), namespace)
    return namespace["choose"]
