"""Analytical cost model — Equations 1–4 of the paper (§III-C).

The model predicts, from profiled features and device constants, the
execution time of each parallelization scheme:

.. math::

    T_{spec} &= T_{pred} + T_{par} + T_{v\\&r}                    \\\\
    T_{PM}   &= C + T_{p1}·α_k + Σ_{i=1}^{\\log N}(T_{comm}(k)+T_{ver}(k))
                + Σ_{i=2}^{N} P_i^{PM}·(T_{comm}(1)+T_{ver}(k)+T_{p1}) \\\\
    T_{SR}   &= C + T_{p1} + Σ_{i=2}^{N}(T_{comm}(1)+T_{ver}(1)
                + P_i^{SR}·T_{p1})                                 \\\\
    P_i^{SR} &= 1 - (accu_i^{spec-1} + Δ_i^{End} + Δ_i^{Specs})

The paper stops short of a closed-form selector ("FSM transition behaviors
are complex and diverse") and uses the model only to *guide* a coarse
decision tree; we expose it anyway — it is useful for ablations and for the
``estimate → rank`` analysis in the benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.gpu.device import RTX3090, DeviceSpec
from repro.selector.features import FSMFeatures


@dataclass(frozen=True)
class CostModelInputs:
    """Workload parameters the equations need besides the FSM features."""

    input_length: int
    n_threads: int = 256
    k: int = 4
    hot_fraction: float = 1.0  # fraction of lookups served by shared memory
    others_capacity: int = 16  # VR registers for other chunks' speculations


class CostModel:
    """Evaluate Eqs. 1–4 for every scheme and rank them."""

    def __init__(self, device: DeviceSpec = RTX3090):
        self.device = device

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def transition_cycles(self, hot_fraction: float) -> float:
        """Expected per-transition latency given the hot-access fraction."""
        dev = self.device
        return (
            hot_fraction * dev.shared_cycles
            + (1.0 - hot_fraction) * dev.global_cycles
            + dev.transition_compute_cycles
        )

    def t_p1(self, inputs: CostModelInputs) -> float:
        """Parallel spec-1 execution time: one chunk of transitions."""
        chunk_len = -(-inputs.input_length // inputs.n_threads)
        return chunk_len * self.transition_cycles(inputs.hot_fraction)

    def t_comm(self, k: int) -> float:
        """Forwarding ``k`` end states to the successor.

        The forward is pipelined: the first state pays the full
        inter-thread communication latency, every additional state rides
        the pipe for one shuffle slot — so cost grows with ``k`` instead
        of paying ``k`` full round trips (and instead of ignoring ``k``
        entirely, the bug this replaces).
        """
        k = max(1, k)
        return float(self.device.comm_cycles) + (k - 1) * float(
            self.device.shuffle_cycles
        )

    def t_ver(self, k: int) -> float:
        """Runtime checks for ``k`` received end states."""
        return float(self.device.verify_cycles) * max(1, k)

    # ------------------------------------------------------------------
    # per-scheme estimates
    # ------------------------------------------------------------------
    def predict_cost(self) -> float:
        """The constant C: the lookback-2 replay is two lockstep steps."""
        return 2.0 * (self.device.shared_cycles + self.device.transition_compute_cycles)

    def estimate_pm(self, features: FSMFeatures, inputs: CostModelInputs) -> float:
        """Eq. 2 with ``P_i^PM = 1 - accu(spec-k)`` and ``α_k = k``.

        ``P_mismatch`` is the spec-``k`` accuracy
        (:meth:`~repro.selector.features.FSMFeatures.accuracy_at`) at the
        *configured* ``k`` — a ``k = 16`` PM config is costed with spec-16
        accuracy, not stuck at the spec-4 anchor for every ``k >= 4``.
        """
        n, k = inputs.n_threads, inputs.k
        tp1 = self.t_p1(inputs)
        alpha_k = float(k)
        p_mismatch = 1.0 - features.accuracy_at(k)
        tree = math.ceil(math.log2(max(2, n))) * (self.t_comm(k) + self.t_ver(k))
        recovery = (n - 1) * p_mismatch * (self.t_comm(1) + self.t_ver(k) + tp1)
        return self.predict_cost() + tp1 * alpha_k + tree + recovery

    def estimate_sr(
        self,
        features: FSMFeatures,
        inputs: CostModelInputs,
        *,
        delta_end: float,
        delta_specs: float,
    ) -> float:
        """Eq. 3 with the scheme-specific accuracy increments of Eq. 4."""
        n = inputs.n_threads
        tp1 = self.t_p1(inputs)
        p_recover = max(
            0.0,
            1.0 - (features.spec1_accuracy + delta_end + delta_specs),
        )
        per_round = self.t_comm(1) + self.t_ver(1) + self.device.sync_cycles
        return self.predict_cost() + tp1 + (n - 1) * (per_round + p_recover * tp1)

    # ------------------------------------------------------------------
    # Δ terms from profiled properties
    # ------------------------------------------------------------------
    def delta_end(self, features: FSMFeatures) -> float:
        """Accuracy gained from end-state forwarding: large when states
        converge fast.  Maps ``#uniqStates(10 trans.)`` onto [0, 1] — one
        surviving state means forwarding is essentially always right."""
        c = max(1.0, features.convergence_states)
        return max(0.0, 1.0 - features.spec1_accuracy) * (1.0 / c)

    def delta_specs(self, features: FSMFeatures, others_capacity: int = 16) -> float:
        """Accuracy gained from idle threads enumerating more queue states —
        bounded by how often the truth hides in the top-``capacity``.

        Reads the profiled accuracy curve
        (:meth:`~repro.selector.features.FSMFeatures.accuracy_at`) at the
        actual register budget.  Budgets beyond 16 clamp to the deepest
        profile; a zero budget means no extra speculations and no gain —
        this is what makes the Fig. 7 register sweep move.
        """
        gain = features.accuracy_at(others_capacity) - features.spec1_accuracy
        return max(0.0, gain)

    def estimate_sfa(self, features: FSMFeatures, inputs: CostModelInputs) -> float:
        """SFA: mapping construction + ``log N`` composition, zero recovery.

        Construction runs ``width`` lanes per chunk (the profiled
        ``reachable_width`` active-state count, falling back to
        ``n_states`` when unprofiled), so the spec-1 chunk time scales by
        the lane oversubscription the lockstep executor would charge:
        ``total warps / device concurrency``, floored at 1 when the wider
        launch still fits.  Composition is a ``log N`` tree whose merges
        forward ``width``-entry mappings; there is no prediction constant,
        no verification term, and no recovery term at all.
        """
        n = inputs.n_threads
        width = (
            features.reachable_width
            if features.reachable_width > 0
            else float(features.n_states)
        )
        width = max(1.0, width)
        tp1 = self.t_p1(inputs)
        dev = self.device
        lane_warps = dev.warps_for_threads(int(math.ceil(n * width)))
        base_warps = dev.warps_for_threads(n)
        capacity = float(max(1, dev.max_concurrent_warps))
        oversubscription = max(
            1.0,
            (lane_warps / capacity) / max(1.0, base_warps / capacity),
        )
        construction = tp1 * oversubscription
        rounds = math.ceil(math.log2(max(2, n)))
        compose = rounds * (
            float(dev.comm_cycles) + (width - 1.0) * float(dev.shuffle_cycles)
        )
        return construction + compose

    # ------------------------------------------------------------------
    def estimate_all(self, features: FSMFeatures, inputs: CostModelInputs) -> Dict[str, float]:
        """Estimated cycles for each selectable scheme."""
        d_end = self.delta_end(features)
        d_specs = self.delta_specs(features, inputs.others_capacity)
        return {
            "pm": self.estimate_pm(features, inputs),
            "sre": self.estimate_sr(features, inputs, delta_end=d_end, delta_specs=0.0),
            "rr": self.estimate_sr(features, inputs, delta_end=d_end, delta_specs=d_specs),
            "nf": self.estimate_sr(
                features, inputs, delta_end=d_end, delta_specs=d_specs * 1.05
            ),
            "sfa": self.estimate_sfa(features, inputs),
        }

    def best_scheme(self, features: FSMFeatures, inputs: CostModelInputs) -> str:
        """The scheme with the lowest estimated time."""
        estimates = self.estimate_all(features, inputs)
        return min(estimates, key=estimates.get)


def estimate_costs(features: FSMFeatures, config, input_length: int) -> Dict[str, float]:
    """Eqs. 1–4 for every selectable scheme under a ``GSpecPalConfig``.

    The one place the configuration's workload parameters — ``n_threads``,
    ``spec_k`` and the ``others_registers`` budget the Δ-specs term depends
    on (Fig. 7) — are threaded into :class:`CostModelInputs`; plan
    compilation, online revision and ``GSpecPal.estimate_costs`` all
    evaluate the model through here.
    """
    inputs = CostModelInputs(
        input_length=int(input_length),
        n_threads=config.n_threads,
        k=config.spec_k,
        others_capacity=config.others_registers,
    )
    estimates = CostModel(config.device).estimate_all(features, inputs)
    return {name: float(cycles) for name, cycles in estimates.items()}
