"""Frequency-based DFA transformation (paper §IV-B, Fig. 4).

The transformation re-labels states so that hotness rank *is* the state id:
after profiling, state 0 is the most frequently visited state, state 1 the
next, and so on.  Two benefits on (simulated) GPU hardware:

1. The hot prefix of the transition table — the rows belonging to the first
   ``H`` states, where ``H`` is chosen so ``H × n_symbols`` entries fit in
   shared memory — can be copied to shared memory once before the kernel
   runs.
2. The "is this transition cached?" check degenerates to ``state < H``
   instead of a hash-table lookup (the approach PM used), removing one shared
   memory access and one hash computation per input symbol.

This module does the renumbering only.  Sizing ``H`` is the device's
concern: :meth:`repro.gpu.memory.MemoryModel.for_dfa` holds the one formula,
and :class:`repro.gpu.kernel.GpuSimulator` pairs the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile
from repro.errors import AutomatonError


@dataclass(frozen=True)
class TransformedDFA:
    """A frequency-transformed DFA plus its state-mapping rules.

    Attributes
    ----------
    dfa:
        The re-labelled DFA (semantically equivalent to the original).
    to_new:
        ``to_new[q_old] -> q_new`` mapping rule.
    to_old:
        Inverse mapping, ``to_old[q_new] -> q_old``: the states in hotness
        order, hottest first.
    """

    dfa: DFA
    to_new: np.ndarray
    to_old: np.ndarray


def frequency_transform(dfa: DFA, profile: StateFrequencyProfile) -> TransformedDFA:
    """Apply the frequency-based transformation of Fig. 4: renumber ``dfa``
    so that state ``i`` is the ``i``-th hottest state of ``profile``."""
    if profile.counts.shape[0] != dfa.n_states:
        raise AutomatonError(
            "profile was collected on a DFA with a different state count"
        )
    order = profile.order  # hottest first
    to_new = np.empty(dfa.n_states, dtype=np.int64)
    to_new[order] = np.arange(dfa.n_states)
    transformed = dfa.renumbered(to_new, name=f"{dfa.name}/freq-transformed")
    return TransformedDFA(dfa=transformed, to_new=to_new, to_old=order.copy())
