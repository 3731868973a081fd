"""Sparse data-reuse (reuse distance) sampling.

Emulates the hardware-assisted sampler of Sembrant et al. that the paper
builds on: execution is stopped at randomly chosen memory references, a
watchpoint is armed on the referenced cache line, and the trap at the
next access to that line yields one *reuse sample* — the number of
intervening memory references (the reuse distance), plus the PCs of both
endpoint instructions.  Lines that are never re-accessed produce
*dangling* samples, which the cache model treats as always-missing
(cold/stream-out accesses).

Instead of scanning forward per sample, the trace-driven implementation
precomputes every reference's next-access-to-same-line index with one
``lexsort`` (O(n log n)) and then reads off the sampled entries — the
semantics are identical to per-sample watchpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.trace.events import MemoryTrace

from repro.trace.util import next_same_value_index

__all__ = ["ReuseSampleSet", "next_same_value_index", "collect_reuse_samples"]


@dataclass(frozen=True)
class ReuseSampleSet:
    """Vectorised collection of reuse samples.

    Attributes
    ----------
    start_pc:
        PC of the sampled (watchpoint-arming) access.
    end_pc:
        PC of the access that re-touched the line; -1 for dangling
        samples.
    distance:
        Reuse distance — intervening memory references between the two
        accesses; -1 for dangling samples.
    n_refs:
        Total demand references in the sampled execution (for scaling).
    """

    start_pc: np.ndarray
    end_pc: np.ndarray
    distance: np.ndarray
    n_refs: int

    def __post_init__(self) -> None:
        if not (len(self.start_pc) == len(self.end_pc) == len(self.distance)):
            raise SamplingError("reuse sample arrays must have equal length")
        if self.n_refs < 0:
            raise SamplingError("n_refs must be non-negative")

    def __len__(self) -> int:
        return len(self.distance)

    @property
    def finite_mask(self) -> np.ndarray:
        """Samples whose line was re-accessed."""
        return self.distance >= 0

    @property
    def n_dangling(self) -> int:
        """Samples whose line was never re-accessed."""
        return int(np.count_nonzero(self.distance < 0))

    def merged_with(self, other: "ReuseSampleSet") -> "ReuseSampleSet":
        """Concatenate two sample sets (e.g. from phased sampling)."""
        return ReuseSampleSet(
            np.concatenate([self.start_pc, other.start_pc]),
            np.concatenate([self.end_pc, other.end_pc]),
            np.concatenate([self.distance, other.distance]),
            self.n_refs + other.n_refs,
        )


def collect_reuse_samples(
    trace: MemoryTrace,
    sample_indices: np.ndarray,
    line_bytes: int,
    next_same_line: np.ndarray | None = None,
) -> ReuseSampleSet:
    """Take reuse samples at the given demand-reference indices.

    ``sample_indices`` index into the *demand-only* view of ``trace``.
    ``next_same_line`` may be supplied to share the precomputed
    next-access map with other passes over the same trace.
    """
    demand = trace.demand_only()
    n = len(demand)
    if n == 0:
        if len(sample_indices):
            raise SamplingError("cannot sample an empty trace")
        empty = np.empty(0, dtype=np.int64)
        return ReuseSampleSet(empty, empty.copy(), empty.copy(), 0)
    if len(sample_indices) and (sample_indices.min() < 0 or sample_indices.max() >= n):
        raise SamplingError("sample index out of range")

    if next_same_line is None:
        next_same_line = next_same_value_index(demand.line_addr(line_bytes))

    idx = np.asarray(sample_indices, dtype=np.int64)
    nxt = next_same_line[idx]
    finite = nxt >= 0
    distance = np.where(finite, nxt - idx - 1, -1).astype(np.int64)
    end_pc = np.where(finite, demand.pc[np.maximum(nxt, 0)], -1).astype(np.int64)
    return ReuseSampleSet(
        start_pc=demand.pc[idx].astype(np.int64),
        end_pc=end_pc,
        distance=distance,
        n_refs=n,
    )
