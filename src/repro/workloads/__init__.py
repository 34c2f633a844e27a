"""Workload substrate: synthetic benchmark suites, traces and classic FSMs.

These stand in for the paper's ANMLZoo/AutomataZoo rule sets and the
tcpdump/binary/PowerEN input traces (see DESIGN.md §2 for the substitution
rationale).
"""

from repro.workloads import classic
from repro.workloads.components import (
    Component,
    counter_component,
    funnel_component,
    product_dfa,
    scanner_component,
    window_component,
)
from repro.workloads.suites import (
    REGIME_LAYOUT,
    SUITES,
    SuiteMember,
    build_member,
    build_suite,
)
from repro.workloads.traces import (
    TracePhase,
    TraceSpec,
    ascii_text_weights,
    binary_weights,
    network_weights,
)

__all__ = [
    "Component",
    "REGIME_LAYOUT",
    "SUITES",
    "SuiteMember",
    "TracePhase",
    "TraceSpec",
    "ascii_text_weights",
    "binary_weights",
    "build_member",
    "build_suite",
    "classic",
    "counter_component",
    "funnel_component",
    "network_weights",
    "product_dfa",
    "scanner_component",
    "window_component",
]
