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

The rule has one text, ``_RULE``, over Python floats: the K source queues
as the names x0..x{K-1} and one relay's queues as a flat list, index
m * |F|^N + g1.  ``rule_text(K, indent)`` writes A's K terms out, and two
compiled functions splice it: ``chooser(K)``, a scalar step compiled once
per K, and ``sim.chunk_loop(K)``, the block loop, so the two cannot drift
apart.  The step's loop form, the spec, is ``tests/oracles.py``'s
``choose_spec``.  The N relays hold equal queues, so S_m(g1) = N * Q at
(m, g1).  A accumulates k ascending from 0.0 and r_m . 1 is
``NetworkConfig.rate_sums``, summed the same way, for any K.

The rule reads the state (f1, f2) only through f1 and D(f2), the queues f2
drains.  ``decision_table`` is a tuple of one entry per group of
``NetworkConfig.state_groups``, the region LP's partition too, cached as
``NetworkConfig.decision_table``; a state's group number is read from
``state_groups`` alone.  ``sim.run``'s loop decides each block on its
state's entry, and ``sim.drift_check`` calls the step once per group;
there is no adapter for a ``QueueState``.
"""

from __future__ import annotations

import functools
import linecache
import math
import textwrap

from .model import NetworkConfig

FIRST_HOP = "first_hop"
SECOND_HOP = "second_hop"
IDLE = "idle"
VARIANT_NAMES = (FIRST_HOP, SECOND_HOP, IDLE)  # indexed by the step's variant code


def decision_table(config: NetworkConfig) -> tuple:
    """One entry per group of ``config.state_groups``, what the step reads:
    per scheme m, the flat index of queue (m, f1) and r_m (one tuple per
    f1); then D(f2) as (flat index, (r_m . 1)^2)."""
    keys = config.state_groups[0]
    n_g1 = len(config.first_hop_space)
    rates = config.rates.tolist()
    w2 = (config.rate_sums * config.rate_sums).tolist()
    firsts = [tuple((m * n_g1 + g1i, r) for m, r in enumerate(rates)) for g1i in range(n_g1)]
    return tuple((firsts[config.g1_index[f1]], tuple((c, w2[c // n_g1]) for c in cells)) for f1, cells in keys)


# The rule's one text.  One statement per term of A: one nested sum of K
# terms overflows the compiler's recursion limit at a few thousand
# destinations.  It reads the K source queues x0..x{K-1}, one relay's flat
# queues q, the group's entry, n_relays and allow_idle, and leaves the variant
# code, the flat index c, A and B in code, c, a and b.
_RULE = """\
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
    code, c = 2, -1
elif a >= b:
    code, c = 0, fill
else:
    code, c = 1, drain"""

_STEP = """\
def choose(src, q, entry, n_relays, allow_idle):
    {xs} = src
{rule}
    return code, c, a, b
"""


def rule_text(k_dest: int, indent: str) -> str:
    """``_RULE`` for K = ``k_dest``, with A's K terms written out and every
    line indented by ``indent``: the body ``chooser`` and ``sim``'s compiled
    block loop both splice."""
    rs = "".join(f"r{k}, " for k in range(k_dest))
    terms = "\n".join(f"    w += (x{k} - r{k} * col) * r{k}" for k in range(k_dest))
    return textwrap.indent(_RULE.format(rs=rs, terms=terms), indent)


def compile_function(source: str, name: str, k_dest: int):
    """The function ``name`` that ``source`` defines, compiled under the file
    name ``<coopsim name K=k_dest>``.  The source is kept in ``linecache``, so
    tracebacks and ``inspect.getsource`` show the generated lines."""
    filename = f"<coopsim {name} K={k_dest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"math": math}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.cache
def chooser(k_dest: int):
    """The rule compiled for K = ``k_dest``, once per K: ``choose(src, q,
    entry, n_relays, allow_idle)`` -> (variant code, flat index, A, B) on the
    K source queues ``src`` and one relay's flat queues ``q``; the index is
    the queue the action fills or drains, -1 when idle."""
    xs = "".join(f"x{k}, " for k in range(k_dest))
    return compile_function(_STEP.format(xs=xs, rule=rule_text(k_dest, "    ")), "choose", k_dest)
