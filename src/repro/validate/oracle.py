"""Exact LRU stack-distance oracle.

The conformance harness needs ground truth that is *independent* of the
cache simulators it validates.  This module computes, for every demand
access of a trace, the exact **stack distance** — the number of distinct
other cache lines touched since the previous access to the same line —
using the classic Bennett–Kruskal formulation: maintain a "latest
occurrence of its line" flag per position in a Fenwick tree and count
flags inside each reuse window.  O(n log n), no cache state at all.

From the stack distances the entire fully-associative LRU behaviour
falls out in closed form:

* an access with stack distance ``d`` hits a cache of ``C`` lines iff
  ``d < C`` (cold accesses never hit);
* the exact miss-ratio curve at *every* size comes from one pass;
* the stack (inclusion) property — a hit at size ``C`` is a hit at any
  larger size — holds by construction, so any simulator disagreeing
  with this oracle at some size violates LRU semantics.

A set-associative LRU cache is one such stack per set: an access misses
iff it is cold or its stack distance *within its set* is at least the
associativity (:func:`oracle_set_miss_vector`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.statstack.mrc import MissRatioCurve
from repro.trace.events import MemoryTrace

__all__ = [
    "COLD",
    "stack_distances",
    "oracle_miss_vector",
    "oracle_set_miss_vector",
    "oracle_miss_ratio_curve",
    "oracle_per_pc_miss_ratios",
]

#: Stack distance assigned to cold (first-touch) accesses.
COLD = -1


class _Fenwick:
    """Fixed-size Fenwick (binary indexed) tree over event positions."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        """Sum over positions ``[0, i]``."""
        i += 1
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact per-access LRU stack distances of a line-number stream.

    Returns an ``int64`` array: entry ``i`` is the number of distinct
    *other* lines accessed since the previous access to ``lines[i]``,
    or :data:`COLD` for a first touch.
    """
    n = len(lines)
    sd = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return sd
    fen = _Fenwick(n)
    last: dict[int, int] = {}
    with obs.span("validate.oracle", events=n):
        for i, line in enumerate(lines.tolist()):
            prev = last.get(line)
            if prev is not None:
                # Distinct lines in (prev, i): each contributes exactly
                # one flag at its latest occurrence; the line itself is
                # excluded because its flag still sits at `prev`.
                sd[i] = fen.prefix(i - 1) - fen.prefix(prev)
                fen.add(prev, -1)
            last[line] = i
            fen.add(i, 1)
    return sd


def oracle_miss_vector(sd: np.ndarray, cache_lines: int) -> np.ndarray:
    """Per-access miss booleans of a fully-associative LRU of ``cache_lines``."""
    if cache_lines <= 0:
        raise SimulationError("cache_lines must be positive")
    return (sd == COLD) | (sd >= cache_lines)


def oracle_set_miss_vector(lines: np.ndarray, sets: int, ways: int) -> np.ndarray:
    """Per-access miss booleans of a ``sets`` × ``ways`` LRU cache.

    Lines map to set ``line & (sets - 1)``; each set's accesses form an
    independent fully-associative LRU stack of ``ways`` lines.
    """
    if sets <= 0 or sets & (sets - 1):
        raise SimulationError("sets must be a positive power of two")
    set_of = lines & (sets - 1)
    miss = np.empty(len(lines), dtype=bool)
    for s in np.unique(set_of).tolist():
        pos = np.flatnonzero(set_of == s)
        miss[pos] = oracle_miss_vector(stack_distances(lines[pos]), ways)
    return miss


def oracle_miss_ratio_curve(
    sd: np.ndarray, sizes_bytes: np.ndarray, line_bytes: int = 64
) -> MissRatioCurve:
    """Exact miss-ratio curve over ``sizes_bytes`` from stack distances."""
    if len(sd) == 0:
        raise SimulationError("cannot build a curve from an empty trace")
    ratios = [
        float(np.count_nonzero(oracle_miss_vector(sd, int(size) // line_bytes)))
        / len(sd)
        for size in sizes_bytes
    ]
    return MissRatioCurve(np.asarray(sizes_bytes, dtype=np.int64), np.array(ratios))


def oracle_per_pc_miss_ratios(
    trace: MemoryTrace, sd: np.ndarray, cache_lines: int
) -> dict[int, float]:
    """Exact per-PC miss ratios at one size (demand view of ``trace``)."""
    if len(sd) != len(trace):
        raise SimulationError("stack distances must cover the whole trace")
    miss = oracle_miss_vector(sd, cache_lines)
    pcs, counts = np.unique(trace.pc, return_counts=True)
    out: dict[int, float] = {}
    miss_pcs, miss_counts = np.unique(trace.pc[miss], return_counts=True)
    misses = dict(zip(miss_pcs.tolist(), miss_counts.tolist()))
    for pc, count in zip(pcs.tolist(), counts.tolist()):
        out[int(pc)] = misses.get(pc, 0) / count
    return out
