"""Verification-record storage (``VR_i`` of Table I, hierarchy of Fig. 5).

Each chunk ``i`` accumulates records ``{start, end}`` of speculative
executions/recoveries performed on it.  On the GPU the paper splits storage:

* ``VR_i^end`` — records produced by the chunk's own thread, held in that
  thread's **registers** (fast, private);
* ``VR_i^others`` — records produced by *other* threads under aggressive
  speculative recovery, staged through **shared memory** and loaded back
  into a bounded set of registers.

The number of registers reserved for ``VR_i^others`` is the Fig. 7 tunable:
too few and recovery results are dropped (the work is wasted and may have to
be redone); too many and every verification round pays extra load/store and
check cycles.  :class:`VRStore` models both capacities and reports the
operation counts the cost model charges.

Storage layout — the register file of Fig. 5, as arrays.  Chunk ``i`` owns
row ``i`` of three dense ``(n_chunks, own_capacity + others_capacity)``
arrays (``start``, ``end``, ``own``) and fills its slots left to right in
arrival order; two per-chunk counters say how many of the filled slots hold
own and foreign records.  Free slots hold :data:`EMPTY` as their start, which
no state id equals, so the verification scan of any set of rows
(:meth:`VRStore.scan` — a frontier round passes the chunks whose forwarded
state or records changed) is a single broadcast compare with no validity
mask.  The store is read only through these arrays: the scalar
:meth:`~VRStore.add` / :meth:`~VRStore.lookup` / :meth:`~VRStore.count` /
:meth:`~VRStore.others_full` serve the inherently sequential chains
(Algorithm 2, PM's stage 2), the many-row :meth:`~VRStore.add_batch` /
:meth:`~VRStore.scan` serve the frontier loop, and :meth:`~VRStore.rows`
hands the RR/NF recovery schedule a run of rows as lists for its
per-chunk loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.stats import KernelStats
from repro.errors import SchemeError

#: Default register budget for each record class (paper finds 16 optimal).
DEFAULT_OWN_CAPACITY = 16
DEFAULT_OTHERS_CAPACITY = 16

#: Start value of a free record slot (state ids are non-negative).
EMPTY = -1

#: Below this many records :meth:`VRStore.add_batch` stores them one by one:
#: that many scalar :meth:`VRStore.add` calls (~2 µs each) cost less than the
#: fixed overhead of the array operations one vectorized pass needs (~50 µs).
_SCALAR_BATCH = 24


@dataclass
class VRStore:
    """Bounded per-chunk record storage with the Fig. 5 hierarchy.

    Parameters
    ----------
    n_chunks:
        Number of chunks (and threads).
    own_capacity:
        Register budget for ``VR_i^end`` (records by the owner thread).
    others_capacity:
        Register budget for ``VR_i^others`` (records forwarded from other
        threads through shared memory).  Records beyond capacity are
        **dropped** — the recovery work is lost, modeling register pressure.
    """

    n_chunks: int
    own_capacity: int = DEFAULT_OWN_CAPACITY
    others_capacity: int = DEFAULT_OTHERS_CAPACITY
    dropped_records: int = 0
    stores_to_shared: int = 0
    loads_from_shared: int = 0

    def __post_init__(self) -> None:
        if self.n_chunks <= 0:
            raise SchemeError("VRStore needs at least one chunk")
        if self.own_capacity < 1:
            raise SchemeError("own_capacity must be at least 1")
        if self.others_capacity < 0:
            raise SchemeError("others_capacity must be non-negative")
        # The record slots and their fill counters (see the module
        # docstring); plain attributes, so repr/eq stay on the parameters.
        slots = (self.n_chunks, self.own_capacity + self.others_capacity)
        self._start = np.full(slots, EMPTY, dtype=np.int64)
        self._end = np.zeros(slots, dtype=np.int64)
        self._own = np.zeros(slots, dtype=bool)
        self._n_own = np.zeros(self.n_chunks, dtype=np.int64)
        self._n_others = np.zeros(self.n_chunks, dtype=np.int64)

    # ------------------------------------------------------------------
    def add(self, chunk: int, start: int, end: int, *, own: bool) -> bool:
        """Record a (start, end) execution on ``chunk``.

        Returns True if the record was stored, False if capacity forced a
        drop.  Duplicate starts update nothing (the first result stands —
        executions are deterministic so they agree anyway).
        """
        start = int(start)
        n_own = int(self._n_own[chunk])
        n_others = int(self._n_others[chunk])
        slot = n_own + n_others
        if slot and start in self._start[chunk, :slot].tolist():
            return True
        if own:
            if n_own >= self.own_capacity:
                self.dropped_records += 1
                return False
            self._n_own[chunk] = n_own + 1
        else:
            if n_others >= self.others_capacity:
                self.dropped_records += 1
                return False
            # Foreign records transit shared memory: one store by the
            # producer, one load by the owner at next verification.
            self.stores_to_shared += 1
            self.loads_from_shared += 1
            self._n_others[chunk] = n_others + 1
        self._start[chunk, slot] = start
        self._end[chunk, slot] = int(end)
        self._own[chunk, slot] = own
        return True

    def add_batch(self, chunks, starts, ends, *, own) -> None:
        """Fold a batch of results in: ``add(chunks[i], starts[i], ends[i],
        own=own[i])`` for every ``i`` in order, without a Python call per
        record.  ``own`` is one flag for the batch or one per record.

        Only records of the *same* chunk interact (first write wins, the
        later ones are the ones capacity drops), so the batch is stored in
        passes — every chunk's first record, then every chunk's second, …
        — each pass one vectorized step over distinct chunks.
        """
        if np.ndim(own) == 0:
            own = np.full(len(chunks), bool(own))
        if len(chunks) < _SCALAR_BATCH:
            for c, s, e, o in zip(
                *(np.asarray(column).tolist() for column in (chunks, starts, ends, own))
            ):
                self.add(c, s, e, own=o)
            return
        chunks = np.asarray(chunks, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        own = np.asarray(own, dtype=bool)
        order = np.argsort(chunks, kind="stable")
        ordered = chunks[order]
        first_of_run = np.flatnonzero(
            np.concatenate(([True], ordered[1:] != ordered[:-1]))
        )
        run_lengths = np.diff(np.append(first_of_run, ordered.size))
        n_passes = int(run_lengths.max())
        if n_passes == 1:
            self._add_distinct(chunks, starts, ends, own)
            return
        # rank[i]: how many earlier records of the batch target chunks[i].
        rank = np.empty(chunks.size, dtype=np.int64)
        rank[order] = np.arange(chunks.size) - np.repeat(first_of_run, run_lengths)
        for r in range(n_passes):
            sel = rank == r
            self._add_distinct(chunks[sel], starts[sel], ends[sel], own[sel])

    def _add_distinct(self, chunks, starts, ends, own) -> None:
        """Vectorized :meth:`add` of one record each to *distinct* chunks."""
        n_own = self._n_own[chunks]
        n_others = self._n_others[chunks]
        new = ~(self._start[chunks] == starts[:, None]).any(axis=1)
        room = np.where(
            own, n_own < self.own_capacity, n_others < self.others_capacity
        )
        self.dropped_records += int(np.count_nonzero(new & ~room))
        store = new & room
        foreign = store & ~own
        n_foreign = int(np.count_nonzero(foreign))
        self.stores_to_shared += n_foreign
        self.loads_from_shared += n_foreign
        rows, slots = chunks[store], (n_own + n_others)[store]
        self._start[rows, slots] = starts[store]
        self._end[rows, slots] = ends[store]
        self._own[rows, slots] = own[store]
        self._n_own[chunks[store & own]] += 1
        self._n_others[chunks[foreign]] += 1

    def lookup(self, chunk: int, start: int) -> Optional[int]:
        """End state recorded for running ``chunk`` from ``start`` (or None).

        One chunk's share of :meth:`scan`; the simulated cost of the
        register-file scan is charged per record via :meth:`charge_check`.
        """
        try:
            slot = self._start[chunk, : self.count(chunk)].tolist().index(int(start))
        except ValueError:
            return None
        return int(self._end[chunk, slot])

    def rows(self, first: int, stop: int) -> Tuple[list, list, list]:
        """Chunks ``first … stop - 1`` as lists, for a host loop over them:
        each chunk's record starts (padded with :data:`EMPTY` to the widest
        of them), its record count and its number of foreign records."""
        n_others = self._n_others[first:stop].tolist()
        counts = [
            own + others
            for own, others in zip(self._n_own[first:stop].tolist(), n_others)
        ]
        width = max(counts, default=0)
        return self._start[first:stop, :width].tolist(), counts, n_others

    def scan(
        self, chunks: np.ndarray, starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Verification scan of the given rows: chunk ``chunks[i]`` scans its
        records for the state ``starts[i]`` forwarded to it.

        ``chunks`` are row indices and ``starts`` non-negative states, one
        per row.  Returns ``(found, hit)`` aligned with ``chunks``:
        ``found[i]`` says whether the chunk holds a record started from
        ``starts[i]``, ``hit[i]`` is that record's end state (meaningful
        only where ``found``).
        """
        match = self._start[chunks] == np.asarray(starts, dtype=np.int64)[:, None]
        slot = match.argmax(axis=1)
        return match[np.arange(slot.size), slot], self._end[chunks, slot]

    def scan_cost(self) -> Tuple[int, int]:
        """Compares one :meth:`scan` makes: per (lockstep) thread — the
        deepest chunk's record count — and in total over all chunks."""
        counts = self.counts
        return int(counts.max()), int(counts.sum())

    @property
    def counts(self) -> np.ndarray:
        """``(n_chunks,)`` number of stored records per chunk."""
        return self._n_own + self._n_others

    def count(self, chunk: int) -> int:
        """Number of stored records for ``chunk``."""
        return int(self._n_own[chunk] + self._n_others[chunk])

    def others_full(self, chunk: int) -> bool:
        """True when ``VR_chunk^others`` has no free register slot.

        Capacity-aware recovery scheduling checks this before dequeuing a
        candidate: executing a recovery whose record cannot be stored is
        pure waste (the Fig. 7 trade-off's left arm comes from *capacity*
        limiting coverage, not from blindly dropping finished work).
        """
        return bool(self._n_others[chunk] >= self.others_capacity)

    # ------------------------------------------------------------------
    def charge_check(self, stats: KernelStats, chunk: int, phase: str) -> None:
        """Charge one verification scan of ``chunk``'s records.

        The owner thread compares the forwarded end state against every
        stored record — ``count(chunk)`` compares — plus the shared-memory
        loads needed to refresh ``VR^others`` staged by other threads.
        """
        n = self.count(chunk)
        stats.charge_verify(phase, checks_per_thread=n, total_checks=n)

    def charge_shared_traffic(self, stats: KernelStats, phase: str, device: Optional[DeviceSpec] = None) -> None:
        """Charge accumulated shared-memory staging traffic and reset it."""
        dev = device if device is not None else stats.device
        ops = self.stores_to_shared + self.loads_from_shared
        if ops:
            stats.charge(phase, float(ops * dev.shared_cycles))
            stats.shared_accesses += ops
        self.stores_to_shared = 0
        self.loads_from_shared = 0
