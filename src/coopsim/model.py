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

Unknown fields are rejected.  States missing from the table have
probability zero, and a state listed with p = 0 is checked like any other,
then dropped: it is never drawn and weighs nothing in the region.  Scheme
ids must be the contiguous integers 0..M-1.  ``validate_config`` turns the
document into a ``NetworkConfig`` of plain data: the shape, the alphabet,
the fading table of the states with p > 0 as a dict, one rate tuple per
scheme (its position is its id) and the support as a frozenset of triples.
A scheme whose (r_m . 1)^2 or (r_m^k * T)^2 is not a finite float is
refused (``rate-overflow``): the controller and the potential weigh relay
queues by the first, and a first hop sends r_m^k * T bits.

``group_pi``, cached like the other derived views, holds the probability
of each (f1, D(f2)) group of ``state_groups``: its members' p added one
float addition at a time in member order from 0.0.  The region LP and the
drift probe weigh a group by that one float, on every Python version (the
builtin ``sum`` of floats is compensated from Python 3.12 on and can round
a group's pi differently).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
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
class NetworkConfig:
    shape: NetworkShape
    alphabet: tuple[Label, ...]
    # (f1, f2) -> p > 0, a pair of label tuples to a probability.  The table
    # is sparse; the key space is semantically the full product F^N x F^(N*K).
    fading: dict
    schemes: tuple[tuple[float, ...], ...]  # bits/symbol per destination; index = scheme id
    support: frozenset  # the (m, g1, g2) triples a second-hop transmission may use

    # -- derived, cached views used by the sampler, controller and region builders --
    # Each is computed on first use and shared by every later call on this
    # config.  Per config: the drain relation and the states' (f1, D(f2))
    # partition built on it, which the controller and the region LP share,
    # each group's probability, the controller's decision table and the
    # region LP's layout.  Per
    # region query: a fresh matrix filled from ``lp_layout``, its rho or
    # delta column and its rhs.
    # Cached arrays are read-only; the other views are only read.

    @cached_property
    def first_hop_space(self) -> tuple:
        """All F^N tuples in lexicographic (alphabet-order) order."""
        return tuple(itertools.product(self.alphabet, repeat=self.shape.num_relays))

    @cached_property
    def g1_index(self) -> dict:
        return {g1: i for i, g1 in enumerate(self.first_hop_space)}

    @cached_property
    def rates(self) -> np.ndarray:
        """(M, K) rate matrix, row m = scheme m."""
        out = np.array(self.schemes, dtype=float)
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
        idx = {lab: i for i, lab in enumerate(self.alphabet)}

        def key(st):
            f1, f2 = st
            return tuple(idx[x] for x in f1) + tuple(idx[x] for x in f2)

        return tuple(sorted(self.fading, key=key))

    @cached_property
    def cumulative_probs(self) -> np.ndarray:
        out = np.cumsum([self.fading[s] for s in self.sorted_states])
        out.setflags(write=False)
        return out

    @cached_property
    def drain_cells(self) -> dict:
        """g2 -> the flat indices m * |F|^N + g1 of the relay queues (m, g1)
        with (m, g1, g2) supported, ascending; a g2 that drains nothing is
        absent."""
        n_g1 = len(self.first_hop_space)
        cells: dict = {}
        for m, g1, g2 in self.support:
            cells.setdefault(g2, []).append(m * n_g1 + self.g1_index[g1])
        return {g2: tuple(sorted(c)) for g2, c in cells.items()}

    @cached_property
    def state_groups(self) -> tuple:
        """(keys, members, group_of): the sorted states grouped by (f1, D(f2)),
        D(f2) from ``drain_cells``, numbered in order of their first state:
        the region LP's time rows.  ``keys[g]`` is group g's pair,
        ``members[g]`` its states in order, ``group_of`` a read-only intp
        array of each sorted state's group."""
        drains = self.drain_cells
        keys = [(f1, drains.get(f2, ())) for f1, f2 in self.sorted_states]
        index = {key: g for g, key in enumerate(dict.fromkeys(keys))}
        members = [[] for _ in index]
        for f, key in zip(self.sorted_states, keys):
            members[index[key]].append(f)
        group_of = np.array([index[key] for key in keys], dtype=np.intp)
        group_of.setflags(write=False)
        return tuple(index), tuple(map(tuple, members)), group_of

    @cached_property
    def group_pi(self) -> tuple:
        """One probability per group of ``state_groups``: its members' p
        added in member order from 0.0, one float addition at a time, as
        ``reduce(add, ..., 0.0)`` adds them.  The region LP's a and b
        entries and the drift probe's group weights both read it."""
        out = []
        for states in self.state_groups[1]:
            pi = 0.0
            for f in states:
                pi += self.fading[f]
            out.append(pi)
        return tuple(out)

    @cached_property
    def decision_table(self) -> tuple:
        """The controller's entry per group of ``state_groups``,
        ``controller.decision_table(self)``."""
        from .controller import decision_table  # controller builds on this module

        return decision_table(self)

    @cached_property
    def lp_layout(self):
        """The region LP's config-only part, ``region.lp_layout(self)``."""
        from .region import lp_layout  # region builds on this module

        return lp_layout(self)

    def __reduce__(self):
        # The five fields, not the cached views: a pickled config (a sweep's
        # pool task) rebuilds only the views its reader uses.
        return type(self), (self.shape, self.alphabet, self.fading, self.schemes, self.support)

    def probability(self, f) -> float:
        return self.fading.get(f, 0.0)

    def to_document(self) -> dict:
        """Round-trip back to the JSON document form (canonically ordered)."""
        sh = self.shape
        return {
            "shape": {"N": sh.num_relays, "K": sh.num_destinations, "T": sh.block_length},
            "fading": {
                "alphabet": list(self.alphabet),
                "states": [
                    {"f1": list(f1), "f2": list(f2), "p": self.fading[(f1, f2)]}
                    for f1, f2 in self.sorted_states
                ],
            },
            "schemes": [{"id": m, "rates": list(r)} for m, r in enumerate(self.schemes)],
            "support": [
                {"m": m, "g1": list(g1), "g2": list(g2)}
                for m, g1, g2 in sorted(self.support)
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
    if not isinstance(raw, (int, float)) or not abs(raw) <= sys.float_info.max:  # exact for ints of any size
        if isinstance(raw, int):  # beyond the float range: shown as the float it rounds to
            raw = math.inf if raw > 0 else -math.inf
        raise ConfigError(code, f"{what} must be a finite number, got {raw!r}")
    if integral and raw != int(raw):
        raise ConfigError("non-integral-value", f"{what} must be an integer, got {raw!r}")
    return int(raw) if integral else float(raw)


def validate_config(raw) -> NetworkConfig:
    """Validate a parsed config document."""
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
    # the CSV outputs write labels unquoted and join a g1's labels with "|"
    strings = all(isinstance(lab, str) and set(lab).isdisjoint(',|"\r\n') for lab in alphabet)
    if not alphabet or not strings or len(set(alphabet)) != len(alphabet):
        raise ConfigError(
            "bad-alphabet", 'alphabet must be a non-empty list of distinct string labels without , | " CR or LF'
        )
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
        rate_sum = 0.0  # r_m . 1, added as ``NetworkConfig.rate_sums`` adds it
        for r in rates:
            rate_sum += r
        # the controller and the potential weigh queues by (r_m . 1)^2, a first hop takes r_m^k * T bits
        if not all(math.isfinite(x * x) for x in (rate_sum, *(r * t for r in rates))):
            raise ConfigError(
                "rate-overflow",
                f"scheme {pos}: the square of its rate sum {rate_sum!r} or of a rate times T={t}"
                " overflows the float range",
            )
        schemes.append(rates)

    triples = set()
    for ent in _typed(raw["support"], list, "support"):
        _require_keys(_typed(ent, dict, "support entry"), {"m", "g1", "g2"}, "support entry")
        m = _number(ent.get("m"), "support m", "support-references-unknown-scheme", integral=True)
        if not 0 <= m < len(schemes):
            raise ConfigError("support-references-unknown-scheme", f"support references scheme {m}")
        g1 = _label_tuple(ent.get("g1"), n, alpha_set, "support g1")
        g2 = _label_tuple(ent.get("g2"), n * k, alpha_set, "support g2")
        triples.add((m, g1, g2))

    fading = {f: p for f, p in table.items() if p > 0.0}  # a p = 0 state is never drawn
    return NetworkConfig(shape, alphabet, fading, tuple(schemes), frozenset(triples))


def parse_json_int(text: str):
    """``json.load``'s ``parse_int``: +-inf for more digits than ``int`` converts
    (4300 by default), beyond the float range anyway, so the field's check refuses it."""
    try:
        return int(text)
    except ValueError:
        return -math.inf if text.startswith("-") else math.inf


def load_config(path) -> NetworkConfig:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh, parse_int=parse_json_int))


# ---------------------------------------------------------------------------
# sampling and counting


def fading_indices(config: NetworkConfig, u):
    """Sorted-state indices of uniform variates ``u`` in [0, 1) (a scalar or
    an array): the number of cumulative probabilities at or below each
    variate, as ``np.searchsorted(..., side="right")`` counts them.

    A variate at or above the table's total probability, which rounding can
    leave just below 1, maps to the last state.
    """
    return np.minimum(np.searchsorted(config.cumulative_probs, u, side="right"), len(config.sorted_states) - 1)


def queue_count_encoding_based(config: NetworkConfig) -> int:
    """Virtual queues per relay under the encoding-based architecture: |M| * |F|^N."""
    return len(config.schemes) * len(config.alphabet) ** config.shape.num_relays


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
