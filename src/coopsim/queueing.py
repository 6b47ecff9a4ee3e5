"""Queue state.

The source keeps one queue of bits per destination.  Every relay keeps one
virtual queue of buffered symbols per (encoding scheme, first-hop fading
state) pair, zero-initialized and dense.  Every update reaches all N relays
alike, so the relays always hold equal queues and ``QueueState`` keeps one
relay's: ``relay[m, i]`` where ``i`` indexes F^N lexicographically.  N
enters only as a scalar factor, where the controller and the potential
sum over the relays.

``sim.run`` applies the exact per-block updates inline, on its flat list of
one relay's queues.  A first-hop block with scheme m under first-hop state
g1 updates

    Qs_k   <- (Qs_k + A_k - r_m^k * T)+        for every destination k
    Q      <- Q + T  at key (m, g1)

and a second-hop block draining (m, g1) updates

    Qs_k   <- Qs_k + A_k
    Q      <- (Q - T)+  at key (m, g1);

an idle block only adds the arrivals.  The first hop always loads T
symbols per relay even if the source queue held fewer than r_m^k * T bits
(the missing bits are padding); the clamp on Qs models exactly that.  The
tests keep these updates as pure functions on a ``QueueState``
(``tests/oracles.py``), the spec the inline ones are checked against.

``QueueState`` is plain data, built by ``zeros`` or by the dataclass
constructor on float arrays of the shapes above.  It checks nothing;
``sim.drift_check`` checks its probe.
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
