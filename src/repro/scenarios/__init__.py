"""Seeded traffic scenarios for the network gateway.

A *scenario* is a declarative YAML/JSON document describing a serving
workload — tenant×FSM mix, arrival process (poisson / uniform / bursty),
segment-length distribution, pool sizing, retry policy, warmup/measure
windows and CI regression gates.  The same document with the same seed
always produces the same request schedule, so results are comparable
across runs and backends.

* :mod:`repro.scenarios.schema` — frozen dataclasses + validation
  (:class:`Scenario` and friends), file/text loaders, and the named
  :data:`BUILTIN_SCENARIOS` used by CI — the gateway smokes plus the
  serving soaks (``soak`` / ``soak-fused`` / ``equivalent-mix`` /
  ``drift``);
* :mod:`repro.scenarios.runner` — :func:`run_scenario`, the asyncio
  client fleet that drives a gateway over real sockets, audits every
  closed stream against the ``dfa.run`` oracle and the embedded serving
  tier's own counters, writes JSONL results and returns a gated
  :class:`ScenarioReport`.  It is the one seeded traffic harness above
  the scheme layer.
"""

from repro.scenarios.runner import (
    RequestRecord,
    ScenarioReport,
    build_schedule,
    run_scenario,
)
from repro.scenarios.schema import (
    ARRIVAL_KINDS,
    BUILTIN_SCENARIOS,
    FSM_KINDS,
    ArrivalSpec,
    GateSpec,
    PoolSpec,
    RetrySpec,
    Scenario,
    SegmentsSpec,
    TenantSpec,
    builtin_scenario,
    equivalent_variants,
    load_scenario,
    scenario_from_text,
)

__all__ = [
    "ARRIVAL_KINDS",
    "BUILTIN_SCENARIOS",
    "FSM_KINDS",
    "ArrivalSpec",
    "GateSpec",
    "PoolSpec",
    "RequestRecord",
    "RetrySpec",
    "Scenario",
    "ScenarioReport",
    "SegmentsSpec",
    "TenantSpec",
    "build_schedule",
    "builtin_scenario",
    "equivalent_variants",
    "load_scenario",
    "run_scenario",
    "scenario_from_text",
]
