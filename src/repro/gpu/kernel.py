"""Kernel-launch facade: ties a DFA to the device, memory model and executor.

Schemes talk to :class:`GpuSimulator` instead of wiring the pieces manually:
it derives the hot-table placement from a frequency profile (optionally
applying the frequency-based transformation), builds the lockstep
executor and the execution backend, and opens fresh
:class:`~repro.gpu.stats.KernelStats` ledgers with the launch overhead
pre-charged.  Everything above the backend speaks the submitted DFA's
state numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile
from repro.automata.transform import TransformedDFA, frequency_transform
from repro.engine import FastBackend, SimBackend
from repro.engine.base import resolve_backend_name
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.executor import LockstepExecutor
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats
from repro.selfcheck.audit import selfcheck_enabled
from repro.errors import SimulationError


class KernelPhase:
    """Canonical phase names used in ledgers across all schemes."""

    PREDICT = "predict"
    SPECULATIVE_EXECUTION = "speculative_execution"
    VERIFY_RECOVER = "verify_recover"
    MERGE = "merge"
    LAUNCH = "launch"
    #: SFA's speculation-free chunk mapping construction (state→state
    #: transition functions instead of one guessed path per chunk).
    MAPPING = "mapping"


@dataclass
class GpuSimulator:
    """A DFA loaded onto the simulated device, ready to launch kernels.

    This is the one place a table layout is derived.  The hot set is
    sized by :meth:`MemoryModel.for_dfa` and filled hottest-first from
    ``profile``'s order: under the RANK layout (``use_transformation``)
    the executor's table is renumbered so hotness rank is the state id
    (Fig. 4); otherwise PM's hash-table layout guards the hottest rows.
    The renumbering is a memory layout of the simulated device, so it is
    handed (``transformed``) to :class:`~repro.engine.sim.SimBackend`,
    which maps states at its edge: ``engine`` takes and returns states of
    ``dfa`` on either backend, and nothing above it translates.

    Parameters
    ----------
    dfa:
        The automaton to execute.
    device:
        Simulated GPU (defaults to the paper's RTX 3090).
    profile:
        The state-frequency profile the hot set is ranked by; required
        for the RANK layout.  Without one, the HASH layout caches the
        lowest state ids.
    backend / selfcheck:
        The runtime switches, resolved at construction like
        :class:`~repro.framework.GSpecPalConfig`'s (``None`` →
        ``$REPRO_BACKEND`` → ``"sim"``; ``None`` → ``$REPRO_SELFCHECK``)
        and stored resolved.  The schemes and the fused engine built on
        this simulator read them from here.
    """

    dfa: DFA
    device: DeviceSpec = RTX3090
    use_transformation: bool = True
    profile: Optional[StateFrequencyProfile] = None
    backend: Optional[str] = None
    selfcheck: Optional[bool] = None

    def __post_init__(self) -> None:
        self.backend = resolve_backend_name(self.backend)
        self.selfcheck = selfcheck_enabled(self.selfcheck)
        hot = MemoryModel.for_dfa(
            self.device, self.dfa.n_states, self.dfa.n_symbols
        ).hot_state_count
        self.transformed: Optional[TransformedDFA] = None
        if self.use_transformation:
            if self.profile is None:
                raise SimulationError("the frequency transformation needs a profile")
            self.transformed = frequency_transform(self.dfa, self.profile)
            table = self.transformed.dfa.table
            memory = MemoryModel(
                device=self.device, hot_state_count=hot, layout=TableLayout.RANK
            )
        else:
            table = self.dfa.table
            hot_ids = (
                self.profile.hot_states(hot)
                if self.profile is not None
                else range(hot)
            )
            memory = MemoryModel(
                device=self.device,
                hot_state_count=hot,
                layout=TableLayout.HASH,
                hot_state_ids=frozenset(int(s) for s in hot_ids),
            )
        self.memory: MemoryModel = memory
        self.executor = LockstepExecutor(table, memory, self.device)
        #: the handle every transition step routes through, in ``dfa``'s
        #: numbering.  ``sim`` wraps the executor above and hides its
        #: renumbered table behind it; ``fast`` steps ``dfa``'s table and
        #: skips cycle accounting entirely.
        self.engine = (
            SimBackend(self.executor, self.transformed)
            if self.backend == "sim"
            else FastBackend(self.dfa.table)
        )

    # ------------------------------------------------------------------
    def new_stats(self, n_threads: int) -> KernelStats:
        """Open a fresh ledger with the kernel-launch overhead charged."""
        stats = KernelStats(device=self.device, n_threads=n_threads)
        stats.charge(KernelPhase.LAUNCH, self.device.launch_overhead_cycles)
        return stats
