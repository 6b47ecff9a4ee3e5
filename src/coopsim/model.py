"""Static description of a two-hop cooperative relay network.

A network has one source, ``N`` relays and ``K`` destinations.  Time is
slotted into blocks of ``T`` symbols.  In every block the channel draws a
combined fading state ``f = (f1, f2)`` from a finite joint table, where
``f1`` holds one label per relay (first hop, length N) and ``f2`` one label
per relay-destination pair (second hop, length N*K, relay-major order).
Labels are opaque strings; nothing in the simulator interprets them
numerically.

The source owns a finite menu of encoding schemes, each with a fixed
per-destination rate vector (bits per symbol).  Whether a packet encoded
with scheme ``m`` on first-hop state ``g1`` can be decoded by every
destination under second-hop state ``g2`` is given by an explicit support
relation over triples ``(m, g1, g2)``; deriving it from channel physics is
out of scope here.

Config files are single JSON documents::

    {
      "shape":   {"N": 2, "K": 2, "T": 10},
      "fading":  {"alphabet": ["G", "B"],
                  "states": [{"f1": ["G","G"], "f2": ["G","G","G","G"], "p": 0.25}, ...]},
      "schemes": [{"id": 0, "rates": [1.0, 0.5]}, ...],
      "support": [{"m": 0, "g1": ["G","G"], "g2": ["G","G","G","G"]}, ...]
    }

Unknown fields are rejected.  States missing from the table are treated as
probability zero.  Scheme ids must be the contiguous integers 0..M-1.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12

# Counts are checked against a signed 128-bit ceiling so that blowups are
# reported instead of silently producing astronomically large integers.
INT128_MAX = 2**127 - 1

Label = str
HopState = tuple  # tuple of labels


class ConfigError(ValueError):
    """Invalid network description.  ``code`` is a stable machine tag."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class CountOverflowError(OverflowError):
    """A queue-count formula exceeded the 128-bit ceiling."""


@dataclass(frozen=True)
class NetworkShape:
    num_relays: int
    num_destinations: int
    block_length: int


@dataclass(frozen=True)
class FadingModel:
    """Joint block-fading table: (f1, f2) -> probability.

    The table is sparse; the key space is semantically the full product
    F^N x F^(N*K).  Keys are pairs of label tuples.
    """

    alphabet: tuple[Label, ...]
    table: dict


@dataclass(frozen=True)
class EncodingScheme:
    id: int
    rates: tuple[float, ...]  # bits/symbol per destination


@dataclass(frozen=True)
class SupportRelation:
    """Set of (m, g1, g2) triples a second-hop transmission may use."""

    triples: frozenset

    def __contains__(self, triple) -> bool:
        return triple in self.triples


@dataclass(frozen=True)
class NetworkConfig:
    shape: NetworkShape
    fading: FadingModel
    schemes: tuple[EncodingScheme, ...]
    support: SupportRelation

    # -- derived, cached views used by the controller / region builders --

    @cached_property
    def first_hop_space(self) -> tuple:
        """All F^N tuples in lexicographic (alphabet-order) order."""
        return tuple(itertools.product(self.fading.alphabet, repeat=self.shape.num_relays))

    @cached_property
    def g1_index(self) -> dict:
        return {g1: i for i, g1 in enumerate(self.first_hop_space)}

    @cached_property
    def drain_masks(self) -> dict:
        """Second-hop state g2 -> read-only boolean (M, |F|^N) mask of the
        (m, g1) queues drainable under it; g2 is absent when none is."""
        masks: dict = {}
        for m, g1, g2 in self.support.triples:
            if g2 not in masks:
                masks[g2] = np.zeros((len(self.schemes), len(self.first_hop_space)), dtype=bool)
            masks[g2][m, self.g1_index[g1]] = True
        for mask in masks.values():
            mask.setflags(write=False)
        return masks

    @cached_property
    def rates(self) -> np.ndarray:
        """(M, K) rate matrix, row m = scheme m."""
        out = np.array([s.rates for s in self.schemes], dtype=float)
        out.setflags(write=False)
        return out

    @cached_property
    def rate_sums(self) -> np.ndarray:
        """(M,) vector of r_m . 1, summed k ascending from 0.0 (numpy's row
        sum is pairwise from 8 terms on)."""
        out = np.zeros(len(self.schemes))
        for column in self.rates.T:
            out += column
        out.setflags(write=False)
        return out

    @cached_property
    def sorted_states(self) -> tuple:
        """Fading-table states in canonical (lexicographic) order."""
        idx = {lab: i for i, lab in enumerate(self.fading.alphabet)}

        def key(st):
            f1, f2 = st
            return tuple(idx[x] for x in f1) + tuple(idx[x] for x in f2)

        return tuple(sorted(self.fading.table, key=key))

    @cached_property
    def cumulative_probs(self) -> np.ndarray:
        out = np.cumsum([self.fading.table[s] for s in self.sorted_states])
        out.setflags(write=False)
        return out

    @cached_property
    def last_drawable_state(self) -> int:
        """Index of the last sorted state with p > 0."""
        return max(i for i, s in enumerate(self.sorted_states) if self.fading.table[s] > 0)

    def probability(self, f) -> float:
        return self.fading.table.get(f, 0.0)

    def to_document(self) -> dict:
        """Round-trip back to the JSON document form (canonically ordered)."""
        sh = self.shape
        return {
            "shape": {"N": sh.num_relays, "K": sh.num_destinations, "T": sh.block_length},
            "fading": {
                "alphabet": list(self.fading.alphabet),
                "states": [
                    {"f1": list(f1), "f2": list(f2), "p": self.fading.table[(f1, f2)]}
                    for f1, f2 in self.sorted_states
                ],
            },
            "schemes": [{"id": s.id, "rates": list(s.rates)} for s in self.schemes],
            "support": [
                {"m": m, "g1": list(g1), "g2": list(g2)}
                for m, g1, g2 in sorted(self.support.triples)
            ],
        }


# ---------------------------------------------------------------------------
# validation


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError("unknown-field", f"unknown field(s) {sorted(unknown)} in {where}")


def _typed(raw, kind, what: str):
    """``raw`` if it is a JSON object (``kind=dict``) or array (``kind=list``)."""
    if kind is dict and not isinstance(raw, dict):
        raise ConfigError("wrong-type", f"{what} must be an object, got {raw!r}")
    if kind is list and not isinstance(raw, (list, tuple)):
        raise ConfigError("wrong-type", f"{what} must be a list, got {raw!r}")
    return raw


def _label_tuple(raw, arity: int, alphabet: set, what: str) -> HopState:
    if not isinstance(raw, (list, tuple)) or len(raw) != arity:
        raise ConfigError("dimension-mismatch", f"{what} must have {arity} label(s), got {raw!r}")
    for lab in raw:
        if not isinstance(lab, str) or lab not in alphabet:  # a list or dict label is unhashable
            raise ConfigError("dimension-mismatch", f"{what} uses label {lab!r} not in alphabet")
    return tuple(raw)


def _number(raw, what: str, code: str, integral: bool = False):
    """A finite JSON number, or an integral one; ``code`` tags NaN, inf and non-numbers."""
    if isinstance(raw, bool):
        raise ConfigError("boolean-value", f"{what} must be a number, got {raw!r}")
    if not isinstance(raw, (int, float)) or not math.isfinite(raw):
        raise ConfigError(code, f"{what} must be a finite number, got {raw!r}")
    if integral and raw != int(raw):
        raise ConfigError("non-integral-value", f"{what} must be an integer, got {raw!r}")
    return int(raw) if integral else float(raw)


def validate_config(raw) -> NetworkConfig:
    """Validate a parsed config document (or re-validate a NetworkConfig)."""
    if isinstance(raw, NetworkConfig):
        raw = raw.to_document()
    if not isinstance(raw, dict):
        raise ConfigError("bad-document", "config document must be a JSON object")
    _require_keys(raw, {"shape", "fading", "schemes", "support"}, "config")
    for key in ("shape", "fading", "schemes", "support"):
        if key not in raw:
            raise ConfigError("missing-field", f"config is missing {key!r}")

    sh = _typed(raw["shape"], dict, "shape")
    _require_keys(sh, {"N", "K", "T"}, "shape")
    n, k, t = (_number(sh.get(v), f"shape {v}", "bad-shape", integral=True) for v in ("N", "K", "T"))
    if n < 1 or k < 1 or t < 1:
        raise ConfigError("bad-shape", "N, K and T must all be >= 1")
    shape = NetworkShape(n, k, t)

    fad = _typed(raw["fading"], dict, "fading")
    _require_keys(fad, {"alphabet", "states"}, "fading")
    alphabet = tuple(_typed(fad.get("alphabet", []), list, "alphabet"))
    strings = all(isinstance(lab, str) for lab in alphabet)
    if not alphabet or not strings or len(set(alphabet)) != len(alphabet):
        raise ConfigError("bad-alphabet", "alphabet must be a non-empty list of distinct string labels")
    alpha_set = set(alphabet)
    table: dict = {}
    total = 0.0
    for ent in _typed(fad.get("states", []), list, "fading states"):
        _require_keys(_typed(ent, dict, "fading state"), {"f1", "f2", "p"}, "fading state")
        f1 = _label_tuple(ent.get("f1"), n, alpha_set, "f1")
        f2 = _label_tuple(ent.get("f2"), n * k, alpha_set, "f2")
        p = _number(ent.get("p", 0.0), f"state {(f1, f2)} probability", "non-finite-probability")
        if p < 0.0:
            raise ConfigError("negative-probability", f"state {(f1, f2)} has probability {p}")
        if (f1, f2) in table:
            raise ConfigError("duplicate-state", f"state {(f1, f2)} listed twice")
        table[(f1, f2)] = p
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise ConfigError(
            "distribution-not-normalized", f"state probabilities sum to {total!r}, expected 1"
        )
    fading = FadingModel(alphabet=alphabet, table=table)

    raw_schemes = _typed(raw["schemes"], list, "schemes")
    if not raw_schemes:
        raise ConfigError("empty-scheme-set", "at least one encoding scheme is required")
    schemes = []
    for pos, ent in enumerate(raw_schemes):
        _require_keys(_typed(ent, dict, "scheme"), {"id", "rates"}, "scheme")
        if _number(ent.get("id"), "scheme id", "bad-scheme-id", integral=True) != pos:
            raise ConfigError("bad-scheme-id", "scheme ids must be contiguous 0..M-1 in order")
        raw_rates = _typed(ent.get("rates", []), list, f"scheme {pos} rates")
        rates = tuple(_number(x, f"scheme {pos} rate", "non-finite-rate") for x in raw_rates)
        if len(rates) != k:
            raise ConfigError("dimension-mismatch", f"scheme {pos} needs {k} rates, got {len(rates)}")
        if any(r < 0 for r in rates):
            raise ConfigError("negative-rate", f"scheme {pos} has a negative rate")
        if all(r == 0 for r in rates):
            raise ConfigError("zero-rate-vector", f"scheme {pos} has an all-zero rate vector")
        schemes.append(EncodingScheme(id=pos, rates=rates))

    triples = set()
    for ent in _typed(raw["support"], list, "support"):
        _require_keys(_typed(ent, dict, "support entry"), {"m", "g1", "g2"}, "support entry")
        m = _number(ent.get("m"), "support m", "support-references-unknown-scheme", integral=True)
        if not 0 <= m < len(schemes):
            raise ConfigError("support-references-unknown-scheme", f"support references scheme {m}")
        g1 = _label_tuple(ent.get("g1"), n, alpha_set, "support g1")
        g2 = _label_tuple(ent.get("g2"), n * k, alpha_set, "support g2")
        triples.add((m, g1, g2))

    return NetworkConfig(
        shape=shape,
        fading=fading,
        schemes=tuple(schemes),
        support=SupportRelation(triples=frozenset(triples)),
    )


def load_config(path) -> NetworkConfig:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


# ---------------------------------------------------------------------------
# sampling and counting


def fading_indices(config: NetworkConfig, u):
    """Sorted-state indices of uniform variates ``u`` (a scalar or an array).

    A variate at or above the table's total probability, which rounding can
    leave just below 1, maps to the last state with p > 0, never to a
    trailing zero-probability state.
    """
    idx = np.searchsorted(config.cumulative_probs, u, side="right")
    return np.minimum(idx, config.last_drawable_state)


def queue_count_encoding_based(config: NetworkConfig) -> int:
    """Virtual queues per relay under the encoding-based architecture: |M| * |F|^N."""
    return len(config.schemes) * len(config.fading.alphabet) ** config.shape.num_relays


def queue_count_state_based(
    levels: int, num_destinations: int, alphabet_size: int, num_relays: int
) -> int:
    """Virtual queues per relay if rates are quantized to ``levels`` values per
    destination and a queue is kept per state: L^K * |F|^(K*(N+1)).

    Raises CountOverflowError above the signed 128-bit ceiling.
    """
    if min(levels, num_destinations, alphabet_size, num_relays) < 1:
        raise ValueError("all queue-count arguments must be >= 1")
    count = levels**num_destinations * alphabet_size ** (
        num_destinations * (num_relays + 1)
    )
    if count > INT128_MAX:
        raise CountOverflowError(
            f"state-based queue count exceeds 128-bit range ({count.bit_length()} bits)"
        )
    return count
