"""Parallelization schemes.

* :class:`SequentialScheme` — the single-thread reference (``seq``).
* :class:`SpecSequentialScheme` — Algorithm 2: speculation + strictly
  sequential verification/recovery (``spec-seq``).
* :class:`PMScheme` — Parallel Merge with spec-k enumerative speculation,
  the state-of-the-art baseline (``pm-spec4`` by default).
* :class:`SREScheme` — Algorithm 3: immediate speculative recovery from
  forwarded predecessor end states (``sre``).
* :class:`RRScheme` — Algorithm 4: aggressive recovery, round-robin
  scheduling of idle threads over rear chunks (``rr``).
* :class:`NFScheme` — Algorithm 5: aggressive recovery, nearest-frontier
  queue draining (``nf``).
* :class:`SFAScheme` — simultaneous finite automata: misprediction-free
  full state→state mapping composition (``sfa``).

:data:`SCHEME_REGISTRY` maps every served scheme name to its class;
``GSpecPal.KNOWN_SCHEMES`` is its key order.  Every scheme's
:meth:`~repro.schemes.base.Scheme.run` returns a
:class:`~repro.schemes.base.SchemeResult` whose ``end_state`` provably equals
the sequential reference — speculation changes cost, never answers.
"""

from typing import Dict, Type

from repro.schemes.base import Scheme, SchemeResult
from repro.schemes.nf import NFScheme
from repro.schemes.pm import PMScheme
from repro.schemes.rr import RRScheme
from repro.schemes.sequential import SequentialScheme
from repro.schemes.sfa import SFAScheme
from repro.schemes.spec_seq import SpecSequentialScheme
from repro.schemes.sre import SREScheme

SCHEME_REGISTRY: Dict[str, Type[Scheme]] = {
    "pm": PMScheme,
    "sre": SREScheme,
    "rr": RRScheme,
    "nf": NFScheme,
    "sfa": SFAScheme,
    "seq": SequentialScheme,
    "spec-seq": SpecSequentialScheme,
}


__all__ = [
    "NFScheme",
    "PMScheme",
    "RRScheme",
    "SCHEME_REGISTRY",
    "SFAScheme",
    "Scheme",
    "SchemeResult",
    "SequentialScheme",
    "SpecSequentialScheme",
    "SREScheme",
]
