"""Declarative traffic scenarios: seeded YAML/JSON documents.

A scenario describes one repeatable burst of multi-tenant serving
traffic — who connects, which automata they submit, how fast streams
arrive, how long they live — plus the regression gates CI holds the run
to.  The schema follows the seeded-workload / JSONL-results pattern of
the animica benchmark harness (SNIPPETS.md snippet 2): a small document,
a ``seed`` making the whole workload reproducible, and structured
per-request results suitable for time-series tracking.

Example (YAML and JSON are interchangeable; YAML needs PyYAML)::

    id: smoke
    label: "2-tenant poisson mix over the TCP gateway"
    seed: 42
    clients: 4                 # concurrent client connections
    requests: 48               # measured stream lifecycles
    warmup_requests: 8         # excluded from latency/throughput stats
    arrival:
      kind: poisson            # poisson | uniform | bursty
      rate_per_s: 200
    tenants:
      - name: kw-token
        weight: 0.6
        fsm: {kind: keyword, keyword: token}
      - name: div7
        weight: 0.4
        fsm: {kind: divisibility, modulus: 7}
    segments: {min_len: 32, max_len: 160,
               per_stream_min: 1, per_stream_max: 4}
    pool: {max_streams: 32, open_timeout: 0.5}
    gates: {p99_feed_ms: 500.0, min_throughput_sym_per_s: 1000.0}

Tenant ``fsm`` specs name :mod:`repro.workloads.classic` generators
(``keyword`` / ``divisibility`` / ``parity`` / ``cyclic_rotator`` /
``drifting_phase``), so a scenario file fully determines every automaton
without shipping transition tables.  Validation failures raise
:class:`~repro.errors.ScenarioError` naming the offending field.

The frozen dataclasses *are* the schema: :func:`_load` reads allowed
keys, defaults and types off :func:`dataclasses.fields`, and each
``__post_init__`` holds only the section's range checks.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.automata.dfa import DFA
from repro.errors import ScenarioError
from repro.workloads import classic

ARRIVAL_KINDS = ("poisson", "uniform", "bursty")

#: ``fsm.kind`` → the :mod:`repro.workloads.classic` generator it names;
#: the spec's other keys are its keyword arguments.
_FSM_GENERATORS = {
    "keyword": lambda keyword, **kw: classic.keyword_scanner(
        keyword.encode("utf-8") if isinstance(keyword, str) else bytes(keyword),
        **kw,
    ),
    "divisibility": lambda modulus, **kw: classic.divisibility(int(modulus), **kw),
    "parity": classic.parity,
    "cyclic_rotator": lambda n_states, **kw: classic.cyclic_rotator(
        int(n_states), **kw
    ),
    "drifting_phase": classic.drifting_phase,
}
FSM_KINDS = tuple(_FSM_GENERATORS)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ScenarioError(message)


def _at_least(spec: Any, bound: int, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        _check(value >= bound, f"{name} must be >= {bound}, got {value}")


def _coerce(value: Any, hint: Any, where: str) -> Any:
    """``value`` as the field type ``hint``, or a ScenarioError at ``where``."""
    if type(None) in get_args(hint):  # Optional[X]
        if value is None:
            return None
        hint = next(a for a in get_args(hint) if a is not type(None))
    section = where.removeprefix("scenario.")
    if dataclasses.is_dataclass(hint):
        return _load(hint, value, section)
    if get_origin(hint) is tuple:  # a list of sub-documents
        _check(isinstance(value, (list, tuple)), f"{where} must be a list")
        return tuple(
            _load(get_args(hint)[0], item, f"{section}[{i}]")
            for i, item in enumerate(value)
        )
    if get_origin(hint) is not None:  # Mapping[str, Any]: free-form object
        _check(isinstance(value, Mapping), f"{where} must be an object")
        return dict(value)
    if hint in (bool, str) and isinstance(value, hint):
        return value
    if hint in (int, float) and not isinstance(value, bool):
        try:
            return hint(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{where} must be a {hint.__name__}, got {value!r}")


def _load(cls, data: Any, context: str):
    """Build the dataclass ``cls`` from the document section ``data``.

    Allowed keys, defaults and types come from the dataclass itself; a
    range-check failure in its ``__post_init__`` is re-raised prefixed
    with ``context`` so the message names ``section.field``.
    """
    _check(isinstance(data, Mapping), f"{context} must be a mapping/object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields}, key=repr)
    _check(
        not unknown,
        f"{context}: unknown field(s) {', '.join(map(repr, unknown))} "
        f"(allowed: {', '.join(sorted(f.name for f in fields))})",
    )
    for f in fields:
        has_default = (f.default, f.default_factory) != (MISSING, MISSING)
        _check(
            has_default or f.name in data,
            f"{context}: missing required field {f.name!r}",
        )
    hints = get_type_hints(cls)
    values = {
        name: _coerce(value, hints[name], f"{context}.{name}")
        for name, value in data.items()
    }
    try:
        return cls(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{context}.{exc}") from None


def equivalent_variants(dfa: DFA, count: int, seed: int) -> Tuple[DFA, ...]:
    """``count`` language-equivalent DFAs with distinct content
    fingerprints over one canonical fingerprint; ``dfa`` itself first.

    Odd variants are seeded state relabellings.  Even ones append a copy
    ``d`` of a random state ``s`` (accepting iff ``s`` is) and reroute
    about half the transitions into ``s`` to ``d``: the two are
    behaviourally identical, so the language is unchanged while the
    state count and the content fingerprint differ.
    """
    rng = np.random.default_rng(seed)
    row = [dfa]
    for v in range(1, count):
        if v % 2 == 1:
            row.append(
                dfa.renumbered(
                    rng.permutation(dfa.n_states),
                    name=f"{dfa.name}~relabel{v}",
                )
            )
            continue
        n = dfa.n_states
        s = int(rng.integers(0, n))
        table = np.vstack([np.asarray(dfa.table), dfa.table[s : s + 1]])
        body = table[:n]
        body[(body == s) & (rng.random(body.shape) < 0.5)] = n
        accepting = set(dfa.accepting) | ({n} if s in dfa.accepting else set())
        row.append(
            DFA(
                table=table,
                start=dfa.start,
                accepting=frozenset(accepting),
                name=f"{dfa.name}~inflate{v}",
            )
        )
    return tuple(row)


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop request arrival process.

    ``poisson`` draws exponential inter-arrival gaps at ``rate_per_s``;
    ``uniform`` spaces arrivals evenly; ``bursty`` releases
    ``burst_size`` back-to-back arrivals then pauses ``burst_pause_s``.
    ``jitter`` multiplies every gap by ``U(1-j, 1+j)``.
    """

    kind: str = "poisson"
    rate_per_s: float = 100.0
    jitter: float = 0.0
    burst_size: int = 8
    burst_pause_s: float = 0.05

    def __post_init__(self) -> None:
        _check(
            self.kind in ARRIVAL_KINDS,
            f"kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}",
        )
        _check(self.rate_per_s > 0, f"rate_per_s must be > 0, got {self.rate_per_s}")
        _check(0 <= self.jitter < 1, f"jitter must be in [0, 1), got {self.jitter}")
        if self.kind == "bursty":
            _at_least(self, 1, "burst_size")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class: an FSM spec, a traffic weight, an optional
    forced scheme.

    ``variants > 1`` submits the class as that many language-equivalent
    DFAs (:func:`equivalent_variants`; which one a request opens is part
    of the seeded schedule), so the plan cache must dedupe them onto one
    compile.  The oracle then audits ``accepts`` and the symbol/segment
    accounting but not ``end_state``, which the server reports in the
    first submitter's state numbering.
    """

    fsm: Mapping[str, Any]
    name: str = ""  # Scenario fills in "tenant-<index>"
    weight: float = 1.0
    scheme: Optional[str] = None
    variants: int = 1

    def __post_init__(self) -> None:
        kind = self.fsm.get("kind")
        _check(
            kind in FSM_KINDS,
            f"fsm.kind must be one of {FSM_KINDS}, got {kind!r}",
        )
        _check(self.weight > 0, f"weight must be > 0, got {self.weight}")
        _at_least(self, 1, "variants")

    def build_dfa(self) -> DFA:
        """Instantiate the tenant's automaton from its FSM spec."""
        fsm = dict(self.fsm)
        kind = fsm.pop("kind")
        try:
            return _FSM_GENERATORS[kind](**fsm)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(
                f"tenant {self.name!r}: invalid fsm spec for kind "
                f"{kind!r}: {exc}"
            ) from exc


@dataclass(frozen=True)
class SegmentsSpec:
    """Per-stream segmentation: how many segments, how long each."""

    min_len: int = 32
    max_len: int = 160
    per_stream_min: int = 1
    per_stream_max: int = 4

    def __post_init__(self) -> None:
        _check(
            1 <= self.min_len <= self.max_len,
            "min_len..max_len: need 1 <= min_len <= max_len, got "
            f"{self.min_len}..{self.max_len}",
        )
        _check(
            1 <= self.per_stream_min <= self.per_stream_max,
            "per_stream_min..per_stream_max: need 1 <= per_stream_min <= "
            f"per_stream_max, got {self.per_stream_min}..{self.per_stream_max}",
        )


@dataclass(frozen=True)
class PoolSpec:
    """Serving-pool knobs for the embedded gateway.

    ``fused`` builds a gang-scheduling pool *and* makes every client
    connection drive its streams as gangs fed with ``feed_many``;
    ``drift`` turns on drift detection, whose one fixed policy is
    :mod:`repro.serving.drift`'s.
    """

    max_streams: int = 32
    open_timeout: Optional[float] = 0.5
    fused: bool = False
    cache_capacity: int = 16
    drift: bool = False

    def __post_init__(self) -> None:
        _at_least(self, 1, "max_streams")


@dataclass(frozen=True)
class RetrySpec:
    """Client reaction to retryable ``capacity`` rejects."""

    max_attempts: int = 4
    backoff_s: float = 0.02

    def __post_init__(self) -> None:
        _at_least(self, 1, "max_attempts")


@dataclass(frozen=True)
class GateSpec:
    """CI regression gates evaluated over the measure window.

    A gate's name says what it bounds: ``min_<m>`` is a floor on the
    report's ``<m>``, ``max_<m>`` a ceiling on it, and any other name a
    ceiling on the report field of that name.  ``None`` disables a gate.
    Oracle exactness, error-freedom and the embedded run's resource
    audits are always enforced — gates only bound the performance
    envelope.
    """

    p99_open_ms: Optional[float] = None
    p99_feed_ms: Optional[float] = None
    min_throughput_sym_per_s: Optional[float] = None
    min_throughput_req_per_s: Optional[float] = None
    max_reject_rate: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    """One validated traffic scenario (see module docstring)."""

    id: str
    label: str = ""
    seed: int = 0
    clients: int = 4
    requests: int = 32
    warmup_requests: int = 0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    tenants: Tuple[TenantSpec, ...] = ()
    segments: SegmentsSpec = field(default_factory=SegmentsSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    retry: RetrySpec = field(default_factory=RetrySpec)
    gates: GateSpec = field(default_factory=GateSpec)
    backend: Optional[str] = None
    n_threads: int = 8
    training_len: int = 512
    require_all_completed: bool = True
    #: Share of the schedule after which ``drifting_phase`` tenants' segments
    #: turn from pure calm to pure drifted-hot (None: lowercase noise, as all).
    drift_at: Optional[float] = None

    def __post_init__(self) -> None:
        _check(bool(self.tenants), "tenants must be a non-empty list")
        _check(
            self.backend in (None, "sim", "fast"),
            f"backend must be 'sim', 'fast' or null, got {self.backend!r}",
        )
        _at_least(self, 1, "clients", "requests")
        _at_least(self, 0, "warmup_requests")
        _check(
            self.drift_at is None or 0.0 <= self.drift_at <= 1.0,
            f"drift_at must be in [0, 1] or null, got {self.drift_at}",
        )
        named = (
            t if t.name else dataclasses.replace(t, name=f"tenant-{i}")
            for i, t in enumerate(self.tenants)
        )
        object.__setattr__(self, "tenants", tuple(named))

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        return _load(cls, data, "scenario")

    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Warmup + measured stream lifecycles."""
        return self.warmup_requests + self.requests

    def replace(self, **overrides: Any) -> "Scenario":
        """A copy with ``overrides`` applied (e.g. backend/seed flips)."""
        return dataclasses.replace(self, **overrides)

    def tenant_weights(self) -> np.ndarray:
        weights = np.asarray([t.weight for t in self.tenants], dtype=float)
        return weights / weights.sum()

    def build_fleet(self) -> Tuple[Tuple[Tuple[DFA, ...], ...], Tuple[bytes, ...]]:
        """``(fleet, trainings)``, one entry per tenant, seeded by the
        scenario; ``fleet[i]`` is tenant ``i``'s ``variants``
        language-equivalent automata, the FSM spec's own DFA first.

        ``drifting_phase`` tenants train on calm traffic (matching the
        drift-workload convention); everything else trains on seeded
        lowercase bytes.
        """
        fleet, trainings = [], []
        for i, tenant in enumerate(self.tenants):
            seed = self.seed * 31 + i
            fleet.append(
                equivalent_variants(tenant.build_dfa(), tenant.variants, seed)
            )
            if tenant.fsm.get("kind") == "drifting_phase":
                trainings.append(
                    classic.drifting_phase_input(
                        max(self.training_len, 256), drift_at=1.0, seed=seed
                    )
                )
            else:
                noise = np.random.default_rng(seed).integers(
                    97, 123, size=self.training_len
                )
                trainings.append(bytes(noise.astype(np.uint8)))
        return tuple(fleet), tuple(trainings)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def scenario_from_text(text: str, *, source: str = "<string>") -> Scenario:
    """Parse scenario text: JSON always, YAML when PyYAML is available."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{source}: invalid JSON: {exc}") from exc
    else:
        try:
            import yaml  # optional dependency, gated on purpose
        except ImportError as exc:  # pragma: no cover - env dependent
            raise ScenarioError(
                f"{source}: YAML scenarios need PyYAML (pip install pyyaml) "
                "— or write the scenario as JSON"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{source}: invalid YAML: {exc}") from exc
    return Scenario.from_dict(data)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load and validate a scenario document from ``path``."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"no scenario file at {path}")
    return scenario_from_text(path.read_text(), source=str(path))


# ----------------------------------------------------------------------
# builtins (the CI regression scenarios; gates sized with generous
# headroom so shared runners do not flake)
# ----------------------------------------------------------------------
def _tenant(name: str, weight: float, **fsm: Any) -> Dict[str, Any]:
    return {"name": name, "weight": weight, "fsm": fsm}


def _segments(min_len: int, max_len: int, lo: int, hi: int) -> Dict[str, int]:
    return dict(min_len=min_len, max_len=max_len, per_stream_min=lo, per_stream_max=hi)


#: The serving soak every stress document derives from: 8 connections
#: (8 pool threads behind the gateway's ``to_thread`` hop) over keyword
#: scanners (sticky accepts) alternating with divisibility counters
#: (dense, never converging).  ``burst_size == clients`` gives the first
#: ``clients`` arrivals a zero gap, so every cold open races; the pool is
#: roomy enough (clients × gang width) that nothing is ever rejected.
_SOAK: Dict[str, Any] = {
    "seed": 20260805,
    "clients": 8,
    "requests": 64,
    "arrival": {"kind": "bursty", "burst_size": 8, "burst_pause_s": 0.005},
    "tenants": [
        _tenant("kw0", 1.0, kind="keyword", keyword="kw0end"),
        _tenant("div3", 1.0, kind="divisibility", modulus=3),
        _tenant("kw2", 1.0, kind="keyword", keyword="kw2end"),
        _tenant("div5", 1.0, kind="divisibility", modulus=5),
    ],
    "segments": _segments(16, 160, 2, 6),
    "pool": {"max_streams": 32, "open_timeout": 1.0},
    "training_len": 1024,
}


def _soak(scenario_id: str, label: str, **overrides: Any) -> Dict[str, Any]:
    return {**_SOAK, "id": scenario_id, "label": label, **overrides}


BUILTIN_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "id": "smoke",
        "label": "2-tenant poisson mix, end-to-end over localhost",
        "seed": 42,
        "clients": 4,
        "requests": 32,
        "warmup_requests": 8,
        "arrival": {"kind": "poisson", "rate_per_s": 400.0},
        "tenants": [
            _tenant("kw-token", 0.6, kind="keyword", keyword="token"),
            _tenant("div7", 0.4, kind="divisibility", modulus=7),
        ],
        "segments": _segments(32, 128, 1, 3),
        "pool": {"max_streams": 32, "open_timeout": 1.0},
        "gates": {
            "p99_open_ms": 5_000.0,
            "p99_feed_ms": 2_000.0,
            "min_throughput_sym_per_s": 200.0,
        },
    },
    "capacity": {
        "id": "capacity",
        "label": "admission backpressure: tiny pool, bursty arrivals, retries",
        "seed": 7,
        "clients": 6,
        "requests": 36,
        "warmup_requests": 0,
        "arrival": {
            "kind": "bursty",
            "rate_per_s": 600.0,
            "burst_size": 6,
            "burst_pause_s": 0.02,
        },
        "tenants": [_tenant("kw-flood", 1.0, kind="keyword", keyword="flood")],
        "segments": _segments(24, 64, 1, 2),
        "pool": {"max_streams": 2, "open_timeout": 0.0},
        "retry": {"max_attempts": 16, "backoff_s": 0.01},
        "gates": {"max_reject_rate": 0.95},
        "require_all_completed": False,
    },
    "bursty-mix": {
        "id": "bursty-mix",
        "label": "4-tenant bursty mix incl. a drifting-phase class",
        "seed": 1234,
        "clients": 6,
        "requests": 40,
        "warmup_requests": 8,
        "arrival": {
            "kind": "bursty",
            "rate_per_s": 300.0,
            "burst_size": 5,
            "burst_pause_s": 0.03,
            "jitter": 0.2,
        },
        "tenants": [
            _tenant("kw-alpha", 0.35, kind="keyword", keyword="alpha"),
            _tenant("div11", 0.25, kind="divisibility", modulus=11),
            _tenant("rotator", 0.2, kind="cyclic_rotator", n_states=48),
            _tenant("drifty", 0.2, kind="drifting_phase", n_states=64),
        ],
        "segments": _segments(48, 192, 2, 5),
        "pool": {"max_streams": 48, "open_timeout": 1.0},
        "gates": {
            "p99_feed_ms": 3_000.0,
            "min_throughput_sym_per_s": 200.0,
        },
    },
    "soak": _soak("soak", "8 racing clients x 4 classes: one compile each"),
    "soak-fused": _soak(
        "soak-fused",
        "the soak in gangs of 4 fed with feed_many into a fused pool",
        arrival={**_SOAK["arrival"], "burst_size": 32},
        pool={**_SOAK["pool"], "fused": True},
    ),
    "equivalent-mix": _soak(
        "equivalent-mix",
        "3 classes x 3 language-equivalent variants: one compile per class",
        tenants=[{**t, "variants": 3} for t in _SOAK["tenants"][:3]],
    ),
    "drift": _soak(
        "drift",
        "calm-trained two-phase classes turn hot mid-run: revise + hot-swap",
        requests=40,
        drift_at=0.5,
        tenants=[
            _tenant(f"phase{n}", 1.0, kind="drifting_phase", n_states=n, multiplier=m)
            for n, m in ((128, 5), (144, 5), (160, 3))  # m coprime to n
        ],
        # Long enough that each run verifies a few chunk boundaries, so
        # the monitors gather accuracy evidence at a useful rate.
        segments=_segments(96, 192, 4, 10),
        pool={**_SOAK["pool"], "drift": True},
        training_len=2048,
    ),
}


def builtin_scenario(name: str) -> Scenario:
    """A validated copy of one of :data:`BUILTIN_SCENARIOS`."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"unknown builtin scenario {name!r} "
            f"(have: {', '.join(sorted(BUILTIN_SCENARIOS))})"
        )
    return Scenario.from_dict(BUILTIN_SCENARIOS[name])


__all__ = [
    "ARRIVAL_KINDS",
    "BUILTIN_SCENARIOS",
    "FSM_KINDS",
    "ArrivalSpec",
    "GateSpec",
    "PoolSpec",
    "RetrySpec",
    "Scenario",
    "SegmentsSpec",
    "TenantSpec",
    "builtin_scenario",
    "equivalent_variants",
    "load_scenario",
    "scenario_from_text",
]
