"""Framework configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine import resolve_backend_name
from repro.gpu.device import RTX3090, DeviceSpec
from repro.selfcheck.audit import selfcheck_enabled
from repro.errors import SchemeError


@dataclass(frozen=True)
class GSpecPalConfig:
    """Tunables of the GSpecPal framework.

    The paper's fixed parameters are constants, not fields: PM's
    ``SPEC_K`` = 4 paths, the 16/16 ``VR`` register budgets and the
    default ``SelectorThresholds``.  Sweeps set them on the scheme or
    selector objects.

    Attributes
    ----------
    n_threads:
        GPU threads == input chunks ``N``.
    use_transformation:
        Apply the frequency-based DFA transformation (§IV-B).  Turning it
        off falls back to PM's hash-table hot layout (the ablation knob).
    training_fraction:
        Slice of the input used for offline profiling when no explicit
        training input is given (paper: 1 MB of 10 MB × 20 ≈ 0.5%).
    min_training_symbols:
        Lower bound on the profiling slice.
    device:
        Simulated GPU.
    backend:
        Execution backend name: ``"sim"`` (cycle-accurate) or ``"fast"``
        (answer-only serving path, no cycle ledger).  ``None`` resolves
        to ``$REPRO_BACKEND``, else ``"sim"``.
    selfcheck:
        Runtime invariant audits (:mod:`repro.selfcheck`); ``None``
        resolves to ``$REPRO_SELFCHECK``.

    ``backend`` and ``selfcheck`` are runtime switches, not compile
    inputs: they stay out of the plan's config hash.  Both are resolved
    once, here, and stored resolved, so every layer built from a config
    reads the same values whatever the environment does later.
    """

    n_threads: int = 256
    use_transformation: bool = True
    training_fraction: float = 0.005
    min_training_symbols: int = 2048
    device: DeviceSpec = RTX3090
    backend: Optional[str] = None
    selfcheck: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.n_threads < 2:
            raise SchemeError("GSpecPal needs at least 2 threads/chunks")
        if not (0.0 < self.training_fraction <= 1.0):
            raise SchemeError("training_fraction must be in (0, 1]")
        # Resolved once (a typo fails now, not at first kernel launch).
        object.__setattr__(self, "backend", resolve_backend_name(self.backend))
        object.__setattr__(self, "selfcheck", selfcheck_enabled(self.selfcheck))
