"""SRE: Speculative Recovery activated by the Ending state from the
predecessor (Algorithm 3, after Qiu et al. ASPLOS'21).

Threads forward their end states; a thread re-executes its own chunk from the
forwarded state when that state is new to it (no matching record).  Per the
fidelity note in :mod:`repro.schemes.recovery_common`, a non-frontier thread
only does so when the forwarded state is *stable* — its producer did not
change it in the previous round — while the frontier's must-be-done recovery
always runs.  One-to-one thread↔chunk binding is preserved: SRE never
re-executes somebody else's chunk, which is exactly the utilization ceiling
RR/NF later break.
"""

from __future__ import annotations

from repro.schemes.recovery_common import FrontierLoopScheme


class SREScheme(FrontierLoopScheme):
    """Algorithm 3 with end-state-forwarded speculative recovery: the
    frontier loop's rear-thread rule alone, every idle thread stays idle."""

    name = "sre"
