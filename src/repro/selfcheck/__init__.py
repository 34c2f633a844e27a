"""Self-checking execution: runtime invariant audits + a differential fuzzer.

Two complementary tools keep the codebase honest about the paper's core
contract (every speculative scheme bit-matches the sequential oracle):

* :mod:`repro.selfcheck.audit` — opt-in runtime audits, enabled via
  ``GSpecPalConfig(selfcheck=True)`` or ``REPRO_SELFCHECK=1`` (an
  explicit config value wins), that verify the paper-level invariants at
  every scheme-run boundary (and every frontier round) and raise a
  structured :class:`~repro.errors.SelfCheckError` on violation.  The
  switch is resolved once, by ``GSpecPalConfig`` or a directly built
  ``GpuSimulator``; schemes read the simulator's ``selfcheck``, the
  serving pool's fused pass its config's;
* :mod:`repro.selfcheck.fuzz` — a differential DFA fuzzer (``repro fuzz``)
  that generates random automata, inputs and segmentations, runs all
  schemes × both backends × streaming vs one-shot against ``DFA.run``, and
  shrinks any failure to a minimal repro written to disk.

Only the audit symbols are exported here; import the fuzzer explicitly
(``from repro.selfcheck.fuzz import ...``) — it pulls in the full framework
stack, which the audit layer (imported by ``schemes.base``) must not.
"""

from repro.selfcheck.audit import (
    SELFCHECK_ENV_VAR,
    audit_scheme_run,
    selfcheck_enabled,
)

__all__ = [
    "SELFCHECK_ENV_VAR",
    "audit_scheme_run",
    "selfcheck_enabled",
]
