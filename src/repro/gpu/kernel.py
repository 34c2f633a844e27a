"""Kernel-launch facade: ties a DFA to the device and its execution backend.

Schemes talk to :class:`GpuSimulator` instead of wiring the pieces manually:
it checks the frequency profile, builds the execution backend (which, on
``sim``, derives the table layout from that profile), and opens fresh
:class:`~repro.gpu.stats.KernelStats` ledgers with the launch overhead
pre-charged.  Everything above the backend speaks the submitted DFA's
state numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile
from repro.engine import FastBackend, SimBackend
from repro.engine.base import resolve_backend_name
from repro.gpu.device import RTX3090, DeviceSpec
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

    The table layout is the sim backend's alone: ``sim`` builds a
    :class:`~repro.engine.sim.SimBackend`, which sizes the hot set, ranks
    the table's rows by ``profile`` and charges the RANK (``state < H``,
    ``use_transformation``) or HASH check; ``fast`` steps ``dfa``'s table
    and derives nothing.  ``engine`` takes and returns states of ``dfa`` on
    either backend, and nothing above it translates.

    Parameters
    ----------
    dfa:
        The automaton to execute.
    device:
        Simulated GPU (defaults to the paper's RTX 3090).
    profile:
        The state-frequency profile the hot set is ranked by; required
        for the RANK layout, and checked against ``dfa`` on either
        backend.  Without one, the HASH layout caches the lowest state ids.
    backend / selfcheck:
        The runtime switches, resolved at construction like
        :class:`~repro.framework.GSpecPalConfig`'s (``None`` →
        ``$REPRO_BACKEND`` → ``"sim"``; ``None`` → ``$REPRO_SELFCHECK``)
        and stored resolved.  The schemes built on this simulator read
        them from here.
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
        if self.use_transformation and self.profile is None:
            raise SimulationError("the frequency transformation needs a profile")
        if self.profile is not None:
            self.profile.check_fits(self.dfa.n_states)
        #: the handle every transition step routes through, in ``dfa``'s
        #: numbering.
        self.engine = (
            SimBackend(self.dfa, self.device, self.profile, self.use_transformation)
            if self.backend == "sim"
            else FastBackend(self.dfa.table)
        )

    # ------------------------------------------------------------------
    def new_stats(self, n_threads: int) -> KernelStats:
        """Open a fresh ledger with the kernel-launch overhead charged."""
        stats = KernelStats(device=self.device, n_threads=n_threads)
        stats.charge(KernelPhase.LAUNCH, self.device.launch_overhead_cycles)
        return stats
