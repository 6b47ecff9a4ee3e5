"""Queue state and the exact per-block update dynamics.

The source keeps one queue of bits per destination.  Every relay keeps one
virtual queue of buffered symbols per (encoding scheme, first-hop fading
state) pair, zero-initialized and dense.  Every update reaches all N relays
alike, so the relays always hold equal queues and the state keeps one
relay's: ``relay[m, i]`` where ``i`` indexes F^N lexicographically.  N
enters only as a scalar factor, where the controller and the potential
sum over the relays.

A first-hop block with scheme m under first-hop state g1 updates

    Qs_k   <- (Qs_k + A_k - r_m^k * T)+        for every destination k
    Q      <- Q + T  at key (m, g1)

and a second-hop block draining (m, g1) updates

    Qs_k   <- Qs_k + A_k
    Q      <- (Q - T)+  at key (m, g1).

The first hop always loads T symbols per relay even if the source queue
held fewer than r_m^k * T bits (the missing bits are padding); the clamp on
Qs models exactly that.  Operations are pure: they return a new state and
never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig


@dataclass
class QueueState:
    config: NetworkConfig
    source: np.ndarray  # (K,) bits
    relay: np.ndarray  # (M, |F|^N) symbols, the same at every relay

    @classmethod
    def zeros(cls, config: NetworkConfig) -> "QueueState":
        return cls(
            config=config,
            source=np.zeros(config.shape.num_destinations),
            relay=np.zeros((len(config.schemes), len(config.first_hop_space))),
        )

    @classmethod
    def from_values(cls, config: NetworkConfig, source, relay) -> "QueueState":
        state = cls.zeros(config)
        src = np.asarray(source, dtype=float)
        rel = np.asarray(relay, dtype=float)
        if src.shape != state.source.shape or rel.shape != state.relay.shape:
            raise ValueError(
                f"expected shapes {state.source.shape} and {state.relay.shape}, "
                f"got {src.shape} and {rel.shape}"
            )
        state.source = src.copy()
        state.relay = rel.copy()
        return state

    def copy(self) -> "QueueState":
        return QueueState(self.config, self.source.copy(), self.relay.copy())


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


# ---------------------------------------------------------------------------
# snapshot serialization: block, Qs_1..Qs_K, then one relay's queues in
# (m, g1) lexicographic order (every relay holds the same)


def snapshot_header(config: NetworkConfig) -> list[str]:
    cols = ["block"]
    cols += [f"Qs_{k + 1}" for k in range(config.shape.num_destinations)]
    cols += [f"Q_m{m}_{'|'.join(g1)}" for m in range(len(config.schemes)) for g1 in config.first_hop_space]
    return cols
