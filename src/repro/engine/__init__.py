"""Pluggable execution backends: the algorithm/engine split.

The speculation pipeline (predict → speculate → verify/recover → merge)
is pure algorithm; *how* each batch of transitions actually executes — and
whether simulated cycles are accounted — is a backend:

* ``"sim"`` — :class:`~repro.engine.sim.SimBackend`: the cycle-accurate
  lockstep executor with the memory model and warp timing.  The
  default; what every paper figure is measured with.
* ``"fast"`` — :class:`~repro.engine.fast.FastBackend`: an answer-only
  flattened-gather numpy path for production serving, where simulated
  cycles are irrelevant and wall clock is everything.

Both have ``run_batch``, ``run_gathered`` and ``run_mappings`` under one
batch contract, stated once in :mod:`repro.engine.base`:
``validate_batch_inputs`` checks every batch (shape of ``chunks`` and of
each per-lane array, lengths, start states, executed symbols) and
``gather_chunks`` range-checks ``run_gathered``'s chunk ids, so a malformed
batch raises the same :class:`~repro.errors.SimulationError` on either
backend.  End states are bit-identical across backends for every scheme
(enforced by the differential and hypothesis suites); only ``sim``
populates the cycle ledger.

Where the switch is resolved: :class:`~repro.framework.GSpecPalConfig`
(and a directly built :class:`~repro.gpu.kernel.GpuSimulator`) resolves
``backend`` once at construction — the explicit name, else
``$REPRO_BACKEND``, else ``"sim"`` — and stores the result; the simulator
builds the backend from it, and every scheme and stream session on that
simulator shares it.  Above the config, ``from_plan`` and
``MatcherPool`` take a ``backend=`` that beats the config's, and the CLI's
``--backend`` flag feeds that argument.
"""

from __future__ import annotations

from repro.engine.base import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    resolve_backend_name,
)
from repro.engine.fast import FastBackend
from repro.engine.fused import FusedBatchEngine
from repro.engine.sim import SimBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "FastBackend",
    "FusedBatchEngine",
    "SimBackend",
    "resolve_backend_name",
]

