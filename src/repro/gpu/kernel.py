"""Kernel-launch facade: ties a DFA to the device, memory model and executor.

Schemes talk to :class:`GpuSimulator` instead of wiring the pieces manually:
it derives the hot-table placement from a frequency profile (optionally
applying the frequency-based transformation), builds the lockstep
executor, and opens fresh :class:`~repro.gpu.stats.KernelStats` ledgers
with the launch overhead pre-charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile
from repro.automata.transform import TransformedDFA, frequency_transform
from repro.engine import FastBackend, SimBackend
from repro.engine.base import resolve_backend_name, validate_starts
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
    the table is renumbered so hotness rank is the state id (Fig. 4);
    otherwise PM's hash-table layout guards the hottest rows.

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
            exec_dfa = self.transformed.dfa
            memory = MemoryModel(
                device=self.device, hot_state_count=hot, layout=TableLayout.RANK
            )
        else:
            exec_dfa = self.dfa
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
        self.exec_dfa: DFA = exec_dfa
        self.memory: MemoryModel = memory
        self.executor = LockstepExecutor(exec_dfa.table, memory, self.device)
        #: the handle every transition step routes through.  ``sim`` wraps
        #: the executor above (ledger unchanged); ``fast`` skips cycle
        #: accounting entirely.
        self.engine = (
            SimBackend(self.executor)
            if self.backend == "sim"
            else FastBackend(exec_dfa.table)
        )

    # ------------------------------------------------------------------
    # state-id translation between caller space and execution space
    # ------------------------------------------------------------------
    def to_exec_state(self, state: int) -> int:
        """Translate an original-DFA state id into executor space."""
        if not 0 <= state < self.dfa.n_states:  # scalar test: no numpy per feed
            self.to_exec_states([state])  # raises the range error
        if self.transformed is None:
            return int(state)
        return self.transformed.map_state_to_new(state)

    def to_user_state(self, state: int) -> int:
        """Translate an executor-space state id back to the original DFA."""
        if self.transformed is None:
            return int(state)
        return self.transformed.map_state_to_old(state)

    def to_exec_states(self, states: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_exec_state`.  Both range-check the caller's
        starts, which a transformed table would otherwise read silently as
        ``to_new[-1]``, or reject with a raw ``IndexError`` past the end."""
        states = np.asarray(states)
        validate_starts(states, n_states=self.dfa.n_states, backend=self.backend)
        if self.transformed is None:
            return states
        return self.transformed.to_new[states]

    def to_user_states(self, states: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_user_state`."""
        states = np.asarray(states)
        if self.transformed is None:
            return states
        return self.transformed.to_old[states]

    @property
    def exec_start_state(self) -> int:
        """The initial state in executor space."""
        return self.exec_dfa.start

    # ------------------------------------------------------------------
    def new_stats(self, n_threads: int) -> KernelStats:
        """Open a fresh ledger with the kernel-launch overhead charged."""
        stats = KernelStats(device=self.device, n_threads=n_threads)
        stats.charge(KernelPhase.LAUNCH, self.device.launch_overhead_cycles)
        return stats
