"""EXPERIMENTS report generator.

Collects the text blocks the benchmark harness wrote to
``benchmarks/results/`` and assembles them — together with the paper's
reference numbers — into a single Markdown report.  Run after the harness::

    pytest benchmarks/ --benchmark-only
    python -m repro.cli report [--output output.md]

(EXPERIMENTS.md in the repository root is a curated snapshot of this
output with added commentary.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

#: Experiment id → (results file stem, paper reference summary).
EXPERIMENTS: Dict[str, tuple] = {
    "Fig. 3 — spec-k execution overhead": (
        "fig3_speck_overhead",
        "Paper: overhead grows with k (4/6/8 paths); values unlabeled. "
        "Model: α_k ≈ k for serialized per-thread paths.",
    ),
    "Fig. 7 — VR_others register sweep": (
        "fig7_register_sweep",
        "Paper: best at 16 registers (Snort/ClamAV), 18 for PowerEN within "
        "1%; cost rises slightly beyond.",
    ),
    "Fig. 8 — overall speedups over PM(spec-4)": (
        "fig8_overall",
        "Paper: RR 6.25x / NF 6.76x average, selector 7.2x, range "
        "0.11x-20x; PM best on *1-2, SRE best on converging members.",
    ),
    "Fig. 9 — per-chunk recovery cost vs SRE": (
        "fig9_recovery_cost",
        "Paper: RR/NF cost more per recovered chunk than SRE (contention); "
        "NF cheaper than RR (locality).",
    ),
    "Table II — suite characteristics": (
        "table2_characteristics",
        "Paper: Snort [423,42k]/10k states; spec-1 means 16-29%; spec-4 "
        "means 30-39%; 3/5/6 input-sensitive; uniq(10) means 9.7-12.3.",
    ),
    "Table III — accuracy & active threads (Snort)": (
        "table3_accuracy_threads",
        "Paper: PM ~100% on easy / ~0.1% on hard; RR/NF >92% with 1-2 "
        "orders of magnitude more active threads.",
    ),
    "Selector accuracy (Fig. 6 tree)": (
        "selector_accuracy",
        "Paper: 29/36 = 80.6% exact picks, ~3% mean loss vs ideal.",
    ),
    "DFA-transformation ablation (§IV-B)": (
        "ablation_transform",
        "Paper: ~15% average improvement.",
    ),
    "Adaptive spec-k (extension)": (
        "ablation_adaptive_speck",
        "Extension of §II-C's static-k critique; no paper counterpart.",
    ),
    "Thread-count scaling (reconciliation)": (
        "scaling_threads",
        "Explains magnitude compression vs the paper's GPU-scale N.",
    ),
    "Latency vs throughput orientation": (
        "latency_vs_throughput",
        "Quantifies §I/II-B's framing; no paper counterpart.",
    ),
    "Predictor trade-off (extension)": (
        "predictors",
        "Explores §IV-A's accuracy/overhead trade-off; no paper counterpart.",
    ),
    "Device sweep (extension)": (
        "device_sweep",
        "Architecture-robustness check; no paper counterpart.",
    ),
    "Input-to-input stability (§V-A methodology)": (
        "input_variance",
        "Paper: ~1% run variance on hardware; here, cross-input stability.",
    ),
    "Chunk-granularity trade-off (extension)": (
        "chunk_granularity",
        "U-shaped total vs N for fixed input; no paper counterpart.",
    ),
}


def build_report(results_dir: Optional[Path] = None) -> str:
    """Assemble the Markdown report from the harness outputs."""
    if results_dir is None:
        results_dir = Path(__file__).parents[3] / "benchmarks" / "results"
    lines = [
        "# Experiment report (auto-generated)",
        "",
        "Produced by `python -m repro.cli report` from the outputs of",
        "`pytest benchmarks/ --benchmark-only`.",
        "",
    ]
    missing = []
    for title, (stem, reference) in EXPERIMENTS.items():
        lines.append(f"## {title}")
        lines.append("")
        lines.append(f"*Reference:* {reference}")
        lines.append("")
        path = results_dir / f"{stem}.txt"
        if path.exists():
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(stem)
            lines.append("_(no results yet — run the benchmark harness)_")
        lines.append("")
    if missing:
        lines.append(
            f"Missing results: {', '.join(missing)} — run "
            "`pytest benchmarks/ --benchmark-only` to generate them."
        )
    return "\n".join(lines)

