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
as ``NetworkConfig.drain_masks``.

The rule has one implementation, ``choose``, a scalar step over Python
floats: the K source queues and one relay's queues as a flat list, index
m * |F|^N + g1.  The N relays hold equal queues, so S_m(g1) = N * Q at
(m, g1).  A accumulates k ascending from 0.0 and r_m . 1 is
``NetworkConfig.rate_sums``, summed the same way, for any K.  ``sim.run``
calls ``choose`` once per block and ``sim.drift_check`` once per drawn
fading state, each on the state's ``state_entry``; there is no adapter for
a ``QueueState``.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NetworkConfig

FIRST_HOP = "first_hop"
SECOND_HOP = "second_hop"
IDLE = "idle"
VARIANT_NAMES = (FIRST_HOP, SECOND_HOP, IDLE)  # indexed by choose()'s variant code


def state_entry(config: NetworkConfig, f) -> tuple:
    """What ``choose`` reads of fading state f = (f1, f2): per scheme m, the
    flat index of its (m, f1) queue and its rates r_m; and the queues
    drainable under f2 as (flat index, (r_m . 1)^2), lowest m and then
    smallest g1 first."""
    f1, f2 = f
    n_g1 = len(config.first_hop_space)
    g1i = config.g1_index[tuple(f1)]
    w2 = (config.rate_sums * config.rate_sums).tolist()
    first = tuple((m * n_g1 + g1i, r) for m, r in enumerate(config.rates.tolist()))
    mask = config.drain_masks.get(tuple(f2))
    drains = () if mask is None else tuple((m * n_g1 + g, w2[m]) for m, g in np.argwhere(mask).tolist())
    return first, drains


def choose(src, q, entry, n_relays, allow_idle) -> tuple:
    """One block of the rule: (variant code, flat index, A, B).

    ``src`` holds the K source queues and ``q`` one relay's flat queues.
    The index is the queue the action fills (first hop) or drains (second
    hop), -1 when idle; the code indexes ``VARIANT_NAMES``.
    """
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
