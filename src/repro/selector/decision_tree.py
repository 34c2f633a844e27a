"""The Fig. 6 decision tree: coarse-grained parallel-scheme selection.

The tree asks two families of questions, exactly as the figure's color
coding describes — *speculation quality* (orange nodes) and *FSM convergence*
(gray nodes):

0. Is speculation *hopeless* — even the deepest profiled enumeration
   (spec-16, interpolated at the register budget) almost never covers the
   truth?  The measurement is corroborated by the noise-free
   ``reachable_width`` ceiling (a 16-deep queue covers at most
   ``16 / width`` of a width-wide state image) when the sampled accuracy
   sits borderline above the floor.  → **SFA**: every speculative scheme
   degrades toward its sequential worst case here, so build full
   state→state mappings instead and pay a bounded, misprediction-free
   cost.
1. Is enumerative speculation (spec-k) accurate enough that recovery is
   generally unnecessary, while spec-1 alone is not?  → **PM**: the spec-k
   redundancy is cheaper than any recovery.
2. Otherwise, does the FSM converge fast (few unique states after 10
   transitions)?  → **SRE**: forwarded end states are almost surely right,
   so the cheap conservative recovery suffices.
3. Otherwise, can enumerating deeper speculation candidates raise accuracy
   at all (Eq. 4's Δ_Specs: the spec-16 vs spec-1 gain)?  If **not**, the
   aggressive heuristics' extra executions are pure waste → **SRE**, the
   scheme that keeps threads idle rather than busy-wrong.
4. Otherwise, is the speculation highly input-sensitive?  → **NF**:
   concentrate the idle threads on the chunks right after the frontier,
   where many candidates may need trying.
5. Otherwise → **RR**: spread speculative recoveries evenly.

Thresholds are the tunable leaves of the tree; the defaults were calibrated
on the synthetic suites (mirroring the paper, whose coarse tree picks the
best scheme for ~80% of FSMs and loses ~3% on the rest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.selector.features import FSMFeatures


@dataclass(frozen=True)
class SelectorThresholds:
    """Decision-tree cut points (see module docstring for the semantics)."""

    speck_accurate: float = 0.9  # spec-4 accuracy above which PM wins
    spec1_accurate: float = 0.75  # spec-1 accuracy above which recovery is rare
    fast_convergence: float = 4.0  # #uniqStates(10) at or below → SRE
    enumeration_gain: float = 0.25  # spec-16 minus spec-1 below which → SRE
    input_sensitive: float = 0.15  # std of per-portion spec-1 accuracy
    speculation_floor: float = 0.15  # spec-16 accuracy below which → SFA


class DecisionTreeSelector:
    """The GSpecPal scheme selector (Fig. 6)."""

    SCHEMES = ("pm", "sre", "rr", "nf", "sfa")

    def __init__(self, thresholds: SelectorThresholds = SelectorThresholds()):
        self.thresholds = thresholds

    def select(self, features: FSMFeatures, span=None) -> str:
        """Return the chosen scheme name for the profiled FSM."""
        return self.decide(features, span=span)[0]

    def decide(self, features: FSMFeatures, span=None):
        """Like :meth:`select`, but also return the visited node labels.

        Plan compilation records the ``(scheme, decision_path)`` pair in the
        immutable artifact so the serve path can replay the selection
        without re-walking (or re-profiling) anything.  ``span``, when
        truthy, receives the feature vector, the sequence of tree nodes
        visited (``path``) and the final ``decision``.
        """
        name, path = self._walk(features)
        if span:
            span.set_attr("features", dict(features.as_dict()))
            span.set_attr("path", path)
            span.set_attr("decision", name)
        return name, path

    #: queue depth of the deepest profiled accuracy anchor (spec-16).
    ANCHOR_DEPTH = 16.0

    @classmethod
    def _speculation_hopeless(
        cls, features: FSMFeatures, t: SelectorThresholds
    ) -> bool:
        """Node-0 predicate: measured floor breach, or a width-implied
        enumeration ceiling below the floor corroborating a borderline
        measurement."""
        if features.spec16_accuracy < t.speculation_floor:
            return True
        if features.reachable_width <= 0:
            return False  # unprofiled (legacy plan): trust the measurement
        ceiling = cls.ANCHOR_DEPTH / features.reachable_width
        return (
            ceiling < t.speculation_floor
            and features.spec16_accuracy < 2.0 * t.speculation_floor
        )

    def _walk(self, features: FSMFeatures):
        """The tree itself: returns ``(scheme, visited-node labels)``."""
        t = self.thresholds
        path = []
        # Orange node 0: is speculation hopeless?  When even the deepest
        # enumeration almost never covers the truth, every speculative
        # scheme pays near-worst-case recovery — switch to SFA's exact
        # misprediction-free mapping composition instead.  The measured
        # spec-16 accuracy is sampled from few chunk boundaries, so near
        # the floor it is noisy; the profiled ``reachable_width`` gives a
        # noise-free corroboration — a 16-deep queue can cover at most
        # ``16 / width`` of a width-wide image — and tips the decision
        # when the measurement alone is borderline (under 2x the floor).
        path.append("speculation_floor")
        if self._speculation_hopeless(features, t):
            return "sfa", path
        # Orange node 1: does enumerative speculation make recovery rare,
        # where plain spec-1 would not?
        path.append("speck_accurate")
        if (
            features.spec4_accuracy >= t.speck_accurate
            and features.spec1_accuracy < t.spec1_accurate
        ):
            return "pm", path
        # Gray node: fast state convergence makes end-forwarding win.
        path.append("fast_convergence")
        if features.convergence_states <= t.fast_convergence:
            return "sre", path
        # Orange node 2: when deeper enumeration cannot lift accuracy
        # (Δ_Specs ≈ 0), aggressive recovery only burns memory bandwidth.
        path.append("enumeration_gain")
        if features.spec16_accuracy - features.spec1_accuracy < t.enumeration_gain:
            return "sre", path
        # Orange node 3: input-sensitive speculation needs concentrated
        # recovery resources near the frontier.
        path.append("input_sensitive")
        if features.sensitivity >= t.input_sensitive:
            return "nf", path
        return "rr", path

    def explain(self, features: FSMFeatures) -> str:
        """Human-readable trace of the decision path (for reports)."""
        t = self.thresholds
        lines = [f"FSM {features.name!r}:"]
        lines.append(
            f"  spec-16 accuracy {features.spec16_accuracy:.2f} "
            f"(floor {t.speculation_floor}, "
            f"reachable width {features.reachable_width:.1f})"
        )
        if self._speculation_hopeless(features, t):
            lines.append(
                "  -> speculation hopeless; misprediction-free mappings: SFA"
            )
            return "\n".join(lines)
        lines.append(
            f"  spec-4 accuracy {features.spec4_accuracy:.2f} "
            f"(threshold {t.speck_accurate}) / spec-1 {features.spec1_accuracy:.2f}"
        )
        if (
            features.spec4_accuracy >= t.speck_accurate
            and features.spec1_accuracy < t.spec1_accurate
        ):
            lines.append("  -> spec-k covers the truth; recovery unnecessary: PM")
            return "\n".join(lines)
        lines.append(
            f"  convergence #uniqStates(10) = {features.convergence_states:.1f} "
            f"(threshold {t.fast_convergence})"
        )
        if features.convergence_states <= t.fast_convergence:
            lines.append("  -> fast convergence; end-state forwarding wins: SRE")
            return "\n".join(lines)
        gain = features.spec16_accuracy - features.spec1_accuracy
        lines.append(
            f"  enumeration gain (spec-16 - spec-1) = {gain:.2f} "
            f"(threshold {t.enumeration_gain})"
        )
        if gain < t.enumeration_gain:
            lines.append("  -> deeper candidates do not help; stay conservative: SRE")
            return "\n".join(lines)
        lines.append(
            f"  sensitivity {features.sensitivity:.2f} (threshold {t.input_sensitive})"
        )
        if features.sensitivity >= t.input_sensitive:
            lines.append("  -> input-sensitive speculation: NF")
        else:
            lines.append("  -> default aggressive recovery: RR")
        return "\n".join(lines)
