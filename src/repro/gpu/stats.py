"""Kernel-level accounting: the cycle ledger every scheme reports through.

:class:`KernelStats` is both the counter set the executor charges into and
the result object benchmarks read.  It deliberately exposes exactly the
quantities the paper reports: kernel time (simulated cycles / ms), transition
counts (total and redundant), memory-access breakdown, verification and
communication operation counts, recovery rounds, and the average number of
threads active during recovery (Table III's last columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.gpu.device import DeviceSpec
from repro.errors import SimulationError


@dataclass
class KernelStats:
    """Mutable cycle/operation ledger for one scheme execution.

    Attributes
    ----------
    cycles:
        Total simulated kernel cycles (the primary metric).
    phase_cycles:
        Per-phase breakdown, keyed by phase name (``"predict"``,
        ``"speculative_execution"``, ``"verify_recover"`` …).
    transitions:
        Total state transitions executed (useful work + redundant).
    redundant_transitions:
        Transitions that did not end up on the ground-truth path (spec-k
        extra paths, discarded recoveries…).
    shared_accesses / global_accesses:
        Transition-table lookups served by shared vs. global memory.
    comm_ops / verify_ops / sync_ops:
        Inter-thread end-state forwards, record checks, barriers.
    recovery_rounds:
        Number of frontier-advance (or sequential-recovery) rounds executed.
    active_thread_samples:
        One entry per recovery round: number of threads that executed a
        recovery task that round.  ``avg_active_threads`` averages it.
    warp_steps / divergent_warp_steps:
        Lockstep executor warp steps (a warp steps while any of its lanes
        works), and those mixing hot and cold lanes — the memory
        divergence the frequency transformation shrinks.  Charged by every
        sim batch; not part of :meth:`summary`.
    """

    device: DeviceSpec
    n_threads: int = 0
    cycles: float = 0.0
    phase_cycles: Dict[str, float] = field(default_factory=dict)
    transitions: int = 0
    redundant_transitions: int = 0
    shared_accesses: int = 0
    global_accesses: int = 0
    comm_ops: int = 0
    verify_ops: int = 0
    sync_ops: int = 0
    recovery_rounds: int = 0
    recoveries_executed: int = 0
    #: cycles spent purely on recovery chunk re-execution (no comm/verify)
    recovery_exec_cycles: float = 0.0
    active_thread_samples: List[int] = field(default_factory=list)
    mismatches: int = 0
    matches: int = 0
    warp_steps: int = 0
    divergent_warp_steps: int = 0

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge(self, phase: str, cycles: float) -> None:
        """Add ``cycles`` to the total and to ``phase``'s bucket."""
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        self.cycles += cycles
        self.phase_cycles[phase] = self.phase_cycles.get(phase, 0.0) + cycles

    def charge_sync(self, phase: str, count: int = 1) -> None:
        """Charge ``count`` barrier synchronizations."""
        self.sync_ops += count
        self.charge(phase, count * self.device.sync_cycles)

    def charge_comm(self, phase: str, count: int) -> None:
        """Charge ``count`` inter-thread end-state forwards (they overlap
        across threads, so time is one comm latency; volume is counted)."""
        self.comm_ops += count
        if count > 0:
            self.charge(phase, self.device.comm_cycles)

    def charge_verify(self, phase: str, checks_per_thread: int, total_checks: int) -> None:
        """Charge record verification: lockstep threads each run
        ``checks_per_thread`` compares; ``total_checks`` is the op count."""
        self.verify_ops += total_checks
        if checks_per_thread > 0:
            self.charge(phase, checks_per_thread * self.device.verify_cycles)

    def record_recovery_round(self, active_threads: int) -> None:
        """Record one verification/recovery round and its thread activity."""
        self.recovery_rounds += 1
        self.active_thread_samples.append(int(active_threads))

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------
    @property
    def time_ms(self) -> float:
        """Simulated kernel time in milliseconds."""
        return self.device.cycles_to_ms(self.cycles)

    @property
    def recovery_cycles_per_round(self) -> float:
        """Recovery execution time per frontier round — the latency one
        recovered chunk adds to the critical path (Fig. 9's quantity)."""
        if self.recovery_rounds == 0:
            return 0.0
        return self.recovery_exec_cycles / self.recovery_rounds

    @property
    def avg_active_threads(self) -> float:
        """Average #threads active per recovery round (Table III)."""
        if not self.active_thread_samples:
            return 0.0
        return sum(self.active_thread_samples) / len(self.active_thread_samples)

    @property
    def total_memory_accesses(self) -> int:
        return self.shared_accesses + self.global_accesses

    @property
    def hot_access_fraction(self) -> float:
        """Fraction of table lookups served from shared memory."""
        total = self.total_memory_accesses
        return self.shared_accesses / total if total else 0.0

    @property
    def runtime_speculation_accuracy(self) -> float:
        """Match frequency observed during verification (Table III)."""
        total = self.matches + self.mismatches
        return self.matches / total if total else 1.0

    @property
    def redundancy_ratio(self) -> float:
        """Redundant transitions / total transitions."""
        return self.redundant_transitions / self.transitions if self.transitions else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline figures (handy for tables/benchmarks)."""
        return {
            "cycles": self.cycles,
            "time_ms": self.time_ms,
            "transitions": float(self.transitions),
            "redundant_transitions": float(self.redundant_transitions),
            "shared_accesses": float(self.shared_accesses),
            "global_accesses": float(self.global_accesses),
            "recovery_rounds": float(self.recovery_rounds),
            "avg_active_threads": self.avg_active_threads,
            "speculation_accuracy": self.runtime_speculation_accuracy,
        }
