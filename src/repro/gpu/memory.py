"""Transition-table placement and the memory-hierarchy cost model.

Two layouts from the paper are modeled.  Both cache the same hot set, the
profile's ``H`` hottest states, in a table whose rows run hottest first, so
the hot lookups are exactly those from a state ``< H``; the layouts differ
only in what the device pays to find that out:

* :attr:`TableLayout.HASH` — the PM approach: the hot rows live in shared
  memory behind a hash table, so *every* transition pays one extra shared
  access plus a hash computation just to decide where to look.
* :attr:`TableLayout.RANK` — the paper's frequency-based transformation:
  state ids are hotness ranks, so the hotness test is ``state < H`` (a
  register compare) and hot lookups go straight to shared memory.

The :class:`MemoryModel` answers how many states are hot — the lookups
from a state ``< H`` hit shared memory, a compare the lockstep executor
makes on its premultiplied trace as ``s·m < H·m`` — and what per-step
overhead the layout imposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.errors import SimulationError


class TableLayout(enum.Enum):
    """How the hot part of the transition table is found at runtime."""

    RANK = "rank"  # frequency-transformed: hotness == state id < H
    HASH = "hash"  # PM-style: hash table in shared memory guards the cache


@dataclass(frozen=True)
class MemoryModel:
    """Cost model for transition-table lookups under a given layout.

    Parameters
    ----------
    device:
        The simulated GPU.
    hot_state_count:
        Number of (hottest-ranked) states whose rows are resident in shared
        memory: the ids ``< hot_state_count`` of a rank-ordered table.
    layout:
        The runtime hotness-check strategy; it sets only
        :attr:`per_step_overhead_cycles`.
    """

    device: DeviceSpec
    hot_state_count: int
    layout: TableLayout = TableLayout.RANK

    def __post_init__(self) -> None:
        if self.hot_state_count < 0:
            raise SimulationError("hot_state_count must be non-negative")

    @classmethod
    def for_dfa(
        cls, device: DeviceSpec, n_states: int, n_symbols: int
    ) -> "MemoryModel":
        """Build a RANK model sizing the hot region to the device's shared
        memory."""
        if n_symbols <= 0:
            raise SimulationError("alphabet must be non-empty")
        hot = min(n_states, device.shared_table_entries // n_symbols)
        return cls(device=device, hot_state_count=hot)

    @property
    def per_step_overhead_cycles(self) -> float:
        """Layout overhead added to *every* transition regardless of hotness.

        HASH pays a shared-memory probe plus the hash computation (the cost
        the Fig. 4 transformation removes); RANK pays a register compare,
        which we fold into the transition-compute constant (0 extra).
        """
        if self.layout is TableLayout.HASH:
            return float(self.device.shared_cycles + self.device.hash_compute_cycles)
        return 0.0
