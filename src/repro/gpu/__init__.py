"""Simulated SIMT GPU substrate.

The paper evaluates on an Nvidia GeForce RTX 3090.  No GPU is available in
this environment, so this subpackage provides a faithful *model* of the
quantities the paper's results depend on:

* device geometry (SMs, warp width, shared-memory capacity) — :mod:`device`;
* the memory hierarchy cost model (register / shared / global latencies,
  hot-table placement, PM's hash-table layout vs. the paper's rank layout) —
  :mod:`memory`;
* a vectorized lockstep executor that runs the actual DFA transitions for
  all simulated threads at once while charging warp-lockstep cycles (a
  warp advances at the pace of its slowest lane; idle lanes do not shorten
  it) — :mod:`executor`;
* kernel-level accounting (cycle ledger, utilization, active threads) —
  :mod:`stats` and :mod:`kernel`.

Simulated *cycles* are the primary metric; they play the role of the paper's
CUDA-event kernel time.
"""

from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.executor import LockstepExecutor
from repro.gpu.kernel import GpuSimulator, KernelPhase
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.presets import A100, DEVICE_PRESETS, EMBEDDED, RTX2080TI, V100
from repro.gpu.stats import KernelStats

__all__ = [
    "A100",
    "DEVICE_PRESETS",
    "DeviceSpec",
    "EMBEDDED",
    "RTX2080TI",
    "V100",
    "GpuSimulator",
    "KernelPhase",
    "KernelStats",
    "LockstepExecutor",
    "MemoryModel",
    "RTX3090",
    "TableLayout",
]
