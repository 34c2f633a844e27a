"""Finite automata substrate: DFAs, NFAs, a regex compiler and DFA tooling.

This subpackage is a self-contained replacement for the pipeline the paper
builds on RE2: regular expressions are parsed into Thompson NFAs, determinized
with a vectorized bitset subset construction, minimized with vectorized
partition refinement (canonically renumbered, so language-equivalent DFAs
share bit-identical minimal tables), and materialized as dense numpy
transition tables ready for the lockstep GPU executor.
"""

from repro.automata.dfa import DFA, run_lockstep
from repro.automata.nfa import NFA, nfa_to_dfa
from repro.automata.regex import compile_regex, compile_disjunction, parse_regex
from repro.automata.minimize import canonical_fingerprint, canonical_form, minimize_dfa
from repro.automata.properties import (
    StateFrequencyProfile,
    are_equivalent,
    convergence_profile,
    profile_state_frequencies,
    reachable_states,
    unique_states_after,
)

__all__ = [
    "DFA",
    "NFA",
    "StateFrequencyProfile",
    "are_equivalent",
    "canonical_fingerprint",
    "canonical_form",
    "compile_disjunction",
    "compile_regex",
    "convergence_profile",
    "minimize_dfa",
    "nfa_to_dfa",
    "parse_regex",
    "profile_state_frequencies",
    "reachable_states",
    "run_lockstep",
    "unique_states_after",
]
