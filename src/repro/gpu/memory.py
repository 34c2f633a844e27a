"""Transition-table placement and the memory-hierarchy cost model.

Two layouts from the paper are modeled:

* :attr:`TableLayout.HASH` — the PM approach: the hot rows live in shared
  memory behind a hash table, so *every* transition pays one extra shared
  access plus a hash computation just to decide where to look.
* :attr:`TableLayout.RANK` — the paper's frequency-based transformation:
  state ids are hotness ranks, so the hotness test is ``state < H`` (a
  register compare) and hot lookups go straight to shared memory.

The :class:`MemoryModel` answers, for a batch of current states, which
lookups are hot and what per-step overhead the layout imposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        memory.  With :attr:`TableLayout.RANK` the hot states are exactly the
        ids ``< hot_state_count``; with :attr:`TableLayout.HASH` the same hot
        *set* is assumed (both layouts cache by frequency; they differ in the
        runtime check, not the selection).
    layout:
        The runtime hotness-check strategy.
    hot_state_ids:
        Only for :attr:`TableLayout.HASH` on *untransformed* DFAs: the actual
        set of cached state ids.  When omitted, ids ``< hot_state_count`` are
        assumed (i.e. the table was already rank-ordered).
    """

    device: DeviceSpec
    hot_state_count: int
    layout: TableLayout = TableLayout.RANK
    hot_state_ids: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.hot_state_count < 0:
            raise SimulationError("hot_state_count must be non-negative")
        # HASH with an explicit set: a dense membership table, built once
        # (``hot_mask`` runs once per executor trace block).  Its last
        # entry is a False sentinel every id past the largest hot one maps to.
        lookup = None
        if self.layout is TableLayout.HASH and self.hot_state_ids:
            ids = np.fromiter(self.hot_state_ids, dtype=np.int64)
            lookup = np.zeros(int(ids.max()) + 2, dtype=bool)
            lookup[ids] = True
        object.__setattr__(self, "_hot_lookup", lookup)

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

    # ------------------------------------------------------------------
    def hot_mask(self, states: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``states``' next lookups hit shared memory."""
        states = np.asarray(states)
        if self.hot_state_count == 0:
            return np.zeros(states.shape, dtype=bool)
        if self.layout is TableLayout.HASH and self.hot_state_ids is not None:
            lookup = self._hot_lookup
            if lookup is None:  # an empty hot set
                return np.zeros(states.shape, dtype=bool)
            return lookup[np.minimum(states, lookup.size - 1)]
        return states < self.hot_state_count

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
