"""A throughput-oriented GPU NFA engine (the §II-B prior-art baseline).

Most pre-GSpecPal GPU automata engines (iNFAnt lineage) execute **NFAs**
with *state-level parallelism*: one thread per NFA state, all threads
consuming the same input symbol each step, the new active set assembled with
bitwise ORs in shared memory.  Per-symbol work parallelizes beautifully —
but symbols are strictly sequential, so single-stream latency is
``O(stream length)`` no matter how many threads the GPU has.  That is
exactly the gap GSpecPal's chunk parallelism attacks; this engine exists so
the benchmarks can measure the contrast on equal footing.

Cost model per symbol:

* every *active* state's successor-mask row is fetched — shared memory when
  the masks fit, global otherwise (NFAs are famously compact, one of the
  reasons engines preferred them);
* the OR-reduction and the active-set broadcast cost a shared access plus a
  barrier;
* lanes beyond the active count idle (the low thread-utilization issue
  Liu et al. [18] analyze).
"""

from __future__ import annotations

import numpy as np

from repro.automata.dfa import _as_symbol_array
from repro.automata.nfa import EPSILON, NFA, pack_nfa
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.stats import KernelStats
from repro.errors import SchemeError


class NFAEngineResult:
    """Result of one NFA-engine scan."""

    def __init__(self, accepts: bool, stats: KernelStats):
        self.accepts = accepts
        self.stats = stats

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms


class NFAEngine:
    """State-parallel NFA execution with the simulated-GPU cost model.

    The active set is a packed bitset row; one symbol ORs the ε-closed move
    rows of every active state — the rows :func:`~repro.automata.nfa.pack_nfa`
    builds for the subset construction, indexed by the symbol's class.

    Parameters
    ----------
    nfa:
        The automaton (ε-moves are folded into the packed move rows).
    device:
        Simulated GPU.
    """

    name = "nfa-engine"

    def __init__(self, nfa: NFA, device: DeviceSpec = RTX3090):
        if nfa.n_states == 0:
            raise SchemeError("NFA engine needs at least one state")
        self.n_states = nfa.n_states
        self.packed = pack_nfa(nfa)
        self.device = device
        # Real engines store NFAs sparsely (edge lists): that compact form
        # is what decides shared-memory residency and is the footprint the
        # literature's "NFAs are memory efficient" claim refers to.  The
        # dense packed rows are only this simulator's execution vehicle.
        n_edges = sum(
            len(dsts)
            for edges in nfa.transitions
            for sym, dsts in edges.items()
            if sym != EPSILON
        )
        self.table_bytes = 8 * n_edges + 8 * nfa.n_states  # packed edges + index
        self.masks_in_shared = self.table_bytes <= (
            device.shared_memory_bytes_per_sm - 8 * 1024
        )

    # ------------------------------------------------------------------
    def run(self, data) -> NFAEngineResult:
        symbols = _as_symbol_array(data)
        stats = KernelStats(device=self.device, n_threads=self.n_states)
        stats.charge("launch", self.device.launch_overhead_cycles)

        # counts[j]: states active before symbol j (each is one thread's
        # mask-row fetch).  A dead set stays dead, so counting stops there.
        moves = self.packed.moves
        row = self.packed.start
        counts = np.zeros(symbols.size, dtype=np.int64)
        for j, ci in enumerate(self.packed.symbol_class[symbols].tolist()):
            active = np.flatnonzero(np.unpackbits(row, bitorder="little"))
            if active.size == 0:
                break
            counts[j] = active.size
            row = np.bitwise_or.reduce(moves[active, ci], axis=0)

        dev = self.device
        ws = dev.warp_size
        fetch = dev.shared_cycles if self.masks_in_shared else dev.global_cycles
        issue = 0 if self.masks_in_shared else dev.global_issue_cycles

        # Per step: ceil(active/warp) warps fetch mask rows (serialized
        # transactions within a warp when global), one OR/broadcast through
        # shared memory, one barrier.  Steps are strictly sequential.
        active = counts.astype(np.float64)
        warps_needed = np.ceil(np.maximum(active, 1.0) / ws)
        per_step = (
            fetch
            + np.maximum(0.0, np.minimum(active, ws) - 1.0) * issue
            + dev.shared_cycles  # OR-reduce + active-set publish
            + dev.sync_cycles
            + dev.transition_compute_cycles
        ) * np.maximum(1.0, warps_needed / max(1, dev.n_sms))
        stats.charge("state_parallel_scan", float(per_step.sum()))
        stats.transitions += int(active.sum())
        if self.masks_in_shared:
            stats.shared_accesses += int(active.sum())
        else:
            stats.global_accesses += int(active.sum())
        stats.sync_ops += len(symbols)

        accepts = bool((row & self.packed.accepting).any())
        return NFAEngineResult(accepts=accepts, stats=stats)

    # ------------------------------------------------------------------
    @property
    def memory_footprint_bytes(self) -> int:
        """The engine's table size — NFAs' headline advantage over DFAs."""
        return self.table_bytes
