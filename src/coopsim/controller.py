"""Back-pressure central controller.

Every block the controller sees the current queue lengths and the block's
combined fading state (f1, f2) and picks exactly one action:

  first hop   with the scheme m* maximizing
                  A = max_m  sum_k (Qs_k - r_m^k * S_m(f1)) * r_m^k,
              where S_m(g1) = sum_n Q_n at key (m, g1);
  second hop  draining the (m, g1) pair, supported under f2, maximizing
                  B = max (r_m . 1)^2 * S_m(g1).

First hop wins ties (A >= B).  Within a weight, ties break to the lowest
scheme id and then the lexicographically smallest g1, so runs are exactly
reproducible.  The controller never sees the fading distribution or the
arrival rates; its only inputs are queue lengths, the realized state and
the support relation, as ``NetworkConfig.drain_masks``.

The N relays hold equal queues and the state keeps one relay's Q, so
S_m(g1) = N * Q at (m, g1).  Queues move in whole multiples of the integer
T, so on every state a run reaches this equals the sum over n bit for bit.
Weights are accumulated k ascending so results are bit-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .queueing import QueueState

FIRST_HOP = "first_hop"
SECOND_HOP = "second_hop"
IDLE = "idle"


@dataclass(frozen=True)
class Decision:
    variant: str  # FIRST_HOP | SECOND_HOP | IDLE
    m: int | None
    g1: tuple | None
    weight_first: float  # A
    weight_second: float  # B, -inf when no drainable queue exists


def first_hop_weight(state: QueueState, f1) -> tuple[float, int]:
    """Max first-hop weight A and its lowest-index maximizer m*."""
    cfg = state.config
    g1i = cfg.g1_index[tuple(f1)]
    col = cfg.shape.num_relays * state.relay[:, g1i]  # S_m(f1)
    rates = cfg.rates
    terms = (state.source[None, :] - rates * col[:, None]) * rates
    scores = terms.sum(axis=1)  # k ascending
    m_star = int(np.argmax(scores))  # first occurrence = lowest id
    return float(scores[m_star]), m_star


def second_hop_weight(state: QueueState, f2) -> tuple[float, int, tuple] | None:
    """Max second-hop weight B with its (m, g1), or None if nothing is
    drainable under second-hop state f2."""
    cfg = state.config
    mask = cfg.drain_masks.get(tuple(f2))
    if mask is None:
        return None
    colsums = cfg.shape.num_relays * state.relay
    rs = cfg.rate_sums
    scores = np.where(mask, (rs * rs)[:, None] * colsums, -np.inf)
    flat = int(np.argmax(scores))  # row-major: lowest m, then smallest g1
    m_hat, g1i = divmod(flat, scores.shape[1])
    return float(scores[m_hat, g1i]), int(m_hat), cfg.first_hop_space[g1i]


def decide(state: QueueState, f, allow_idle: bool = False) -> Decision:
    """Pick the block's action from the two weights.

    With ``allow_idle`` unset (the default) the controller always transmits,
    taking the first hop whenever A >= B.  With the flag set it idles when
    neither weight is positive, which leaves an empty system untouched.
    """
    f1, f2 = f
    a, m_star = first_hop_weight(state, f1)
    second = second_hop_weight(state, f2)
    b = -np.inf if second is None else second[0]
    if allow_idle and a <= 0.0 and (second is None or b <= 0.0):
        return Decision(IDLE, None, None, a, b)
    if a >= b:
        return Decision(FIRST_HOP, m_star, None, a, b)
    return Decision(SECOND_HOP, second[1], second[2], a, b)


def lyapunov(state: QueueState) -> float:
    """V(Q) = sum_k Qs_k^2 + N * sum_{m,g1} ((r_m . 1) * Q^{m,g1})^2, the
    relay term of one relay counted once per relay, as ``sim.run``'s
    series are."""
    cfg = state.config
    weighted = state.relay * cfg.rate_sums[:, None]
    return float((state.source * state.source).sum() + cfg.shape.num_relays * (weighted * weighted).sum())
