"""GSpecPal reproduction: speculation-centric FSM parallelization on a
simulated GPU.

Public API tour
---------------
* :mod:`repro.automata` — DFAs/NFAs, a regex compiler, minimization and the
  frequency-based DFA transformation.
* :mod:`repro.gpu` — the simulated SIMT device (warps, shared/global memory
  cost model) and the vectorized lockstep executor.
* :mod:`repro.speculation` — input chunking, the all-state lookback-2
  predictor and verification-record storage.
* :mod:`repro.schemes` — the parallelization schemes: PM, SRE, RR, NF, the
  speculation-free SFA, plus sequential baselines.
* :mod:`repro.selector` — offline feature profiling, the Eq. 1–4 cost model
  and the Fig. 6 decision tree.
* :mod:`repro.framework` — the :class:`~repro.framework.GSpecPal` front end
  tying everything together.
* :mod:`repro.workloads` — synthetic Snort/ClamAV/PowerEN-style suites and
  trace generators standing in for ANMLZoo/AutomataZoo.

Quickstart
----------
>>> from repro import GSpecPal
>>> from repro.workloads import classic
>>> dfa = classic.div7()
>>> pal = GSpecPal(dfa)
>>> result = pal.run(b"10101" * 200)
>>> result.end_state == dfa.run(b"10101" * 200)
True
"""

from repro.automata import (
    DFA,
    NFA,
    compile_disjunction,
    compile_regex,
    minimize_dfa,
)
from repro.framework import GSpecPal, GSpecPalConfig
from repro.gpu import RTX3090, DeviceSpec, GpuSimulator, KernelStats
from repro.plan import CompiledPlan, compile_plan, load_plan, save_plan
from repro.schemes import (
    NFScheme,
    PMScheme,
    RRScheme,
    SchemeResult,
    SequentialScheme,
    SpecSequentialScheme,
    SREScheme,
)
from repro.selector import DecisionTreeSelector, FSMFeatures, profile_features
from repro.serving import MatcherPool, PlanCache

__version__ = "1.0.0"

__all__ = [
    "CompiledPlan",
    "DFA",
    "NFA",
    "DecisionTreeSelector",
    "DeviceSpec",
    "FSMFeatures",
    "GSpecPal",
    "GSpecPalConfig",
    "GpuSimulator",
    "KernelStats",
    "MatcherPool",
    "PlanCache",
    "NFScheme",
    "PMScheme",
    "RRScheme",
    "RTX3090",
    "SREScheme",
    "SchemeResult",
    "SequentialScheme",
    "SpecSequentialScheme",
    "compile_disjunction",
    "compile_plan",
    "compile_regex",
    "load_plan",
    "minimize_dfa",
    "profile_features",
    "save_plan",
]
