"""Cross-core (helper) LLC prefetcher for index-array indirection.

The paper's hardware prefetchers are per-core stride/stream engines and
its software rewrite targets the owning core's cache; neither helps the
``A[B[i]]`` gathers that dominate graph analytics.  This model follows
the *helper-prefetcher* school (Pickle-style): a small engine near the
LLC watches the *index* walk of a registered ``A[B[i]]`` pair, resolves
the index values the program is about to consume, and issues prefetches
for ``A[B[i + d]]`` into the **shared LLC only** (``fill_l2=False``) —
the data arrives on chip without polluting any core's private cache, so
whichever core consumes it next (the same one, or a neighbour in a
parallel run) takes an LLC hit instead of a DRAM access.

Index values are *input data* of the workload model: an
:class:`~repro.isa.instructions.IndexedAccess` owns an ``index_seed``
from which both the interpreter and this prefetcher reconstruct the same
``B`` array (:func:`~repro.trace.synthesis.index_array_values`).  That
mirrors real helper prefetchers, which read the index array out of the
cache — here the read is a seeded recomputation.

The engine keys on the index load's PC.  A next-issue pointer per pair
suppresses re-issues while the walk advances monotonically and resets
when the walk jumps (rewind or wrap), so steady state issues one new
line per demand index access — the same discipline the streamer models
use.  Coordinator feedback (:class:`~repro.hwpref.base.PrefetchTuning`)
applies as everywhere else: ``degree_scale``/utilisation throttle the
degree, ``distance_scale`` the run-ahead, ``nta_bypass`` marks fills to
skip even the LLC, ``enabled=False`` gates the engine off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ProgramError
from repro.hwpref.base import HardwarePrefetcher, PrefetchRequest

if TYPE_CHECKING:  # isa imports cachesim imports hwpref — defer the cycle
    from repro.config import MachineConfig
    from repro.isa.program import Program

__all__ = [
    "IndexRegion",
    "CrossCoreLLCPrefetcher",
    "index_directory_for",
    "cross_core_prefetcher_for",
]


@dataclass(frozen=True)
class IndexRegion:
    """One registered ``A[B[i]]`` pair: where ``B`` lives, what it indexes.

    ``index_values()`` reconstructs the ``B`` array contents exactly as
    the interpreter materialises them — both sides are pure functions of
    ``index_seed``.
    """

    index_pc: int
    index_base: int
    index_elem_bytes: int
    n_indices: int
    index_seed: int
    data_base: int
    data_elem_bytes: int
    n_slots: int
    data_pc: int

    def __post_init__(self) -> None:
        if self.index_elem_bytes <= 0 or self.data_elem_bytes <= 0:
            raise ProgramError("element sizes must be positive")
        if self.n_indices <= 0 or self.n_slots <= 0:
            raise ProgramError("n_indices and n_slots must be positive")

    def index_values(self) -> np.ndarray:
        from repro.trace.synthesis import index_array_values

        return index_array_values(self.index_seed, self.n_indices, self.n_slots)

    def position_of(self, addr: int | np.ndarray) -> int | np.ndarray:
        """Element position of a demand access into the index array."""
        return ((addr - self.index_base) // self.index_elem_bytes) % self.n_indices


def index_directory_for(program: Program) -> dict[int, IndexRegion]:
    """Index-load PC → :class:`IndexRegion` for every resolvable pair.

    The structural pairing is :meth:`~repro.isa.program.Program.indirect_pairs`;
    this adds the geometry the hardware needs to resolve future indices.
    """
    from repro.isa.instructions import IndexedAccess, Load

    pairs = program.indirect_pairs()
    if not pairs:
        return {}
    mapping = program.pc_map()
    by_pc: dict[int, IndexedAccess] = {}
    for kernel in program.kernels:
        for instr in kernel.mem_instructions:
            if isinstance(instr, Load) and isinstance(instr.pattern, IndexedAccess):
                by_pc[mapping[(kernel.name, instr.label)]] = instr.pattern
    directory: dict[int, IndexRegion] = {}
    for data_pc, (index_pc, _stride) in pairs.items():
        pat = by_pc[data_pc]
        directory[index_pc] = IndexRegion(
            index_pc=index_pc,
            index_base=pat.index_base,
            index_elem_bytes=pat.index_elem_bytes,
            n_indices=pat.n_indices,
            index_seed=pat.index_seed,
            data_base=pat.base,
            data_elem_bytes=pat.elem_bytes,
            n_slots=pat.n_slots,
            data_pc=data_pc,
        )
    return directory


class CrossCoreLLCPrefetcher(HardwarePrefetcher):
    """Helper prefetcher resolving ``B[i+d]`` into LLC fills of ``A[B[i+d]]``.

    Parameters
    ----------
    regions:
        Index directory (index-load PC → :class:`IndexRegion`), typically
        :func:`index_directory_for`.
    line_bytes:
        LLC line size for address→line conversion.
    degree:
        Consecutive future positions covered per demand index access.
    ahead:
        Run-ahead distance in index *elements* (scaled by the tuning's
        ``distance_scale``).
    """

    name = "hw-xcore"

    def __init__(
        self,
        regions: dict[int, IndexRegion],
        line_bytes: int = 64,
        degree: int = 4,
        ahead: int = 16,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if degree <= 0 or ahead <= 0:
            raise ValueError("degree and ahead must be positive")
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.regions = dict(regions)
        self.line_bytes = line_bytes
        self.degree = degree
        self.ahead = ahead
        self._values: dict[int, np.ndarray] = {}
        self._next: dict[int, int] = {}

    # -- resolution ----------------------------------------------------

    def _region_values(self, region: IndexRegion) -> np.ndarray:
        vals = self._values.get(region.index_pc)
        if vals is None:
            vals = region.index_values()
            self._values[region.index_pc] = vals
        return vals

    def _resolve(self, region: IndexRegion, positions: np.ndarray) -> np.ndarray:
        """Target *lines* of ``A[B[pos]]`` for future index positions.

        Separated out so the validation self-test can break exactly this
        step (issuing unresolved garbage) and check the invariants notice.
        """
        vals = self._region_values(region)
        slots = vals[positions % region.n_indices]
        addrs = region.data_base + slots * region.data_elem_bytes
        return addrs // self.line_bytes

    # -- observation ---------------------------------------------------

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        region = self.regions.get(pc)
        if region is None:
            return []
        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        degree = max(1, round(self.degree * factor))
        ahead = max(1, round(self.ahead * self._tuning.distance_scale))
        start = int(region.position_of(addr)) + ahead
        hi = start + degree - 1
        nxt = self._next.get(pc)
        # Monotone advance: resume at the pointer; a jump (rewind or
        # wrap past the array end) falls outside the window and resets.
        lo = nxt if nxt is not None and start < nxt <= hi + 1 else start
        self._next[pc] = hi + 1
        if lo > hi:
            return []
        lines = self._resolve(region, np.arange(lo, hi + 1, dtype=np.int64))
        return [self._request(int(t), fill_l2=False) for t in lines]

    def reset(self) -> None:
        self._next.clear()


def cross_core_prefetcher_for(
    program: Program,
    machine: MachineConfig | None = None,
    utilisation: Callable[[], float] | None = None,
    degree: int = 4,
    ahead: int = 16,
) -> CrossCoreLLCPrefetcher:
    """Build the helper prefetcher for a program's resolvable pairs.

    Programs without any ``A[B[i]]`` pair get an engine with an empty
    directory — it observes everything and issues nothing, so the config
    degenerates to the baseline (the honest outcome for e.g. ``bfs``,
    whose visitation order is not index-array indirection).
    """
    line_bytes = machine.line_bytes if machine is not None else 64
    return CrossCoreLLCPrefetcher(
        index_directory_for(program),
        line_bytes=line_bytes,
        degree=degree,
        ahead=ahead,
        utilisation=utilisation,
    )
