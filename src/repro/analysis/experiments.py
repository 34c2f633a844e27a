"""Shared experiment runners used by the benchmark harness and examples.

Each paper experiment boils down to "run scheme(s) S over member(s) M with
parameters P and aggregate"; these helpers centralize that loop so every
bench file stays a thin declaration of its figure/table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.framework.config import GSpecPalConfig
from repro.framework.gspecpal import GSpecPal
from repro.schemes.base import SchemeResult
from repro.selector.features import FSMFeatures
from repro.workloads.suites import SuiteMember

#: Evaluation defaults: scaled-down analogue of the paper's 10 MB inputs /
#: thousands of threads, sized so the whole 36-FSM sweep runs in minutes on
#: a laptop while preserving the chunk-length-to-thread-count ratio regime.
DEFAULT_INPUT_LENGTH = 65_536
DEFAULT_N_THREADS = 256
DEFAULT_TRAINING_LENGTH = 8_192


@dataclass
class MemberRun:
    """All scheme results for one suite member on one input."""

    member: SuiteMember
    features: FSMFeatures
    results: Dict[str, SchemeResult]
    selected: str

    def speedup_over(self, baseline: str = "pm") -> Dict[str, float]:
        """Per-scheme speedup relative to ``baseline`` (simulated cycles)."""
        base = self.results[baseline].cycles
        return {
            name: base / res.cycles if res.cycles > 0 else float("inf")
            for name, res in self.results.items()
        }

    @property
    def best_scheme(self) -> str:
        return min(self.results, key=lambda n: self.results[n].cycles)


def run_member(
    member: SuiteMember,
    *,
    schemes: Sequence[str] = ("pm", "sre", "rr", "nf"),
    input_length: int = DEFAULT_INPUT_LENGTH,
    training_length: int = DEFAULT_TRAINING_LENGTH,
    n_threads: int = DEFAULT_N_THREADS,
    seed: int = 0,
    config: Optional[GSpecPalConfig] = None,
    tracer=None,
) -> MemberRun:
    """Profile a member, run the requested schemes, record the selection.

    ``tracer`` is forwarded to the framework so benchmark runs can dump
    span timelines (see ``benchmarks/conftest.py``).
    """
    training = member.training_input(training_length, seed=10_000 + seed)
    data = member.generate_input(input_length, seed=seed)
    cfg = config if config is not None else GSpecPalConfig(n_threads=n_threads)
    pal = GSpecPal(member.dfa, cfg, training_input=training, tracer=tracer)
    features = pal.profile()
    selected = pal.select_scheme()
    results = pal.compare_schemes(data, schemes=schemes)
    # The selector's pick reuses the already-computed result when possible.
    if selected not in results:
        results[selected] = pal.run(data, scheme=selected)
    return MemberRun(
        member=member, features=features, results=results, selected=selected
    )


def verify_against_sequential(run: MemberRun, data) -> bool:
    """Cross-check every scheme's end state against the plain DFA run."""
    truth = run.member.dfa.run(data)
    return all(res.end_state == truth for res in run.results.values())
