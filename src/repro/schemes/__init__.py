"""Parallelization schemes.

* :class:`SequentialScheme` — the single-thread reference (``seq``).
* :class:`SpecSequentialScheme` — Algorithm 2: speculation + strictly
  sequential verification/recovery (``spec-seq``).
* :class:`PMScheme` — Parallel Merge with spec-k enumerative speculation,
  the state-of-the-art baseline (served as ``pm-spec4``, :data:`SPEC_K`).
* :class:`SREScheme` — Algorithm 3: immediate speculative recovery from
  forwarded predecessor end states (``sre``).
* :class:`RRScheme` — Algorithm 4: aggressive recovery, round-robin
  scheduling of idle threads over rear chunks (``rr``).
* :class:`NFScheme` — Algorithm 5: aggressive recovery, nearest-frontier
  queue draining (``nf``).
* :class:`SFAScheme` — simultaneous finite automata: misprediction-free
  full state→state mapping composition (``sfa``).

:data:`SCHEME_REGISTRY` maps every served scheme name to how it is built
from a framework config; ``GSpecPal.KNOWN_SCHEMES`` (and so the CLI's
``--scheme`` choices) is its key order.  Every scheme's
:meth:`~repro.schemes.base.Scheme.run` returns a
:class:`~repro.schemes.base.SchemeResult` whose ``end_state`` provably equals
the sequential reference — speculation changes cost, never answers.
"""

from typing import Callable, Dict

from repro.schemes.base import Scheme, SchemeResult
from repro.schemes.nf import NFScheme
from repro.schemes.pm import SPEC_K, PMScheme
from repro.schemes.rr import RRScheme
from repro.schemes.sequential import SequentialScheme
from repro.schemes.sfa import SFAScheme
from repro.schemes.spec_seq import SpecSequentialScheme
from repro.schemes.sre import SREScheme


def _parallel(cls) -> Callable[..., Scheme]:
    """A scheme on the config's ``n_threads`` and its own paper defaults
    (PM's :data:`SPEC_K`, the 16/16 ``VR`` register budgets)."""
    return lambda sim, cfg, tracer: cls(sim, n_threads=cfg.n_threads, tracer=tracer)


#: Every served scheme name → ``build(sim, config, tracer)``, which
#: constructs it on a simulator under a ``GSpecPalConfig``.
SCHEME_REGISTRY: Dict[str, Callable[..., Scheme]] = {
    "pm": _parallel(PMScheme),
    "sre": _parallel(SREScheme),
    "rr": _parallel(RRScheme),
    "nf": _parallel(NFScheme),
    "sfa": _parallel(SFAScheme),
    "seq": lambda sim, cfg, tracer: SequentialScheme(sim, n_threads=1, tracer=tracer),
    "spec-seq": _parallel(SpecSequentialScheme),
}


__all__ = [
    "NFScheme",
    "PMScheme",
    "RRScheme",
    "SCHEME_REGISTRY",
    "SPEC_K",
    "SFAScheme",
    "Scheme",
    "SchemeResult",
    "SequentialScheme",
    "SpecSequentialScheme",
    "SREScheme",
]
