"""Untimed sim-backend replay: the modelled-GPU side of a workload.

Three of the four workloads serve on the answer-only backend, which keeps
no cycle ledger, so the paper's own metric — modelled RTX 3090 cycles per
input symbol — is taken here: the workload's reference traffic goes
through an in-process ``MatcherPool`` on the sim backend, each tenant
under its own compiled plan and selected scheme.  The simulator is
deterministic and the reference traffic is fixed, so the figures repeat
bit for bit from run to run.
"""

from __future__ import annotations

from collections import Counter
from math import exp, log
from typing import Dict

from repro.gpu.kernel import KernelPhase
from repro.serving import MatcherPool, PlanCache

PHASES = (
    KernelPhase.PREDICT,
    KernelPhase.SPECULATIVE_EXECUTION,
    KernelPhase.VERIFY_RECOVER,
    KernelPhase.MERGE,
    KernelPhase.LAUNCH,
    KernelPhase.MAPPING,
)

#: The paper's four schemes, forced per member for the selector metrics.
FORCED = ("pm", "sre", "rr", "nf")


def _serve(pool, tenant, segments, audit, scheme=None):
    """Feed ``segments`` through one stream; returns (cycles, phase cycles)."""
    sid = pool.open(tenant.dfa, training_input=tenant.training, scheme=scheme)
    cycles, phases, state = 0.0, Counter(), tenant.oracle.start
    for segment in segments:
        result = pool.feed(sid, segment)
        state = tenant.oracle.run(segment, start=state)
        audit.check(result.end_state == state, f"replay {tenant.name}: wrong end state")
        cycles += result.stats.cycles
        phases.update(result.stats.phase_cycles)
    summary = pool.close(sid)
    return cycles, phases, summary.scheme


def replay(workload, audit, *, with_selector: bool) -> Dict[str, float]:
    tenants = workload.tenants
    pool = MatcherPool(
        PlanCache(capacity=len(tenants), config=workload.config),
        config=workload.config,
        backend="sim",
    )
    traffic = workload.reference_traffic()
    total, phases, symbols = 0.0, Counter(), 0
    selected = {}
    for t, segments in traffic:
        cycles, tenant_phases, scheme = _serve(pool, tenants[t], segments, audit)
        selected[t] = (scheme, cycles)
        total += cycles
        phases.update(tenant_phases)
        symbols += sum(len(s) for s in segments)
    audit.check(
        abs(sum(phases[p] for p in PHASES) - total) <= 1e-6 * total,
        "ledger phases do not tile the cycle total",
    )
    out = {"sim_cycles_per_symbol": total / symbols}
    for phase in PHASES:
        out[f"gpu.cycles.{phase}_per_symbol"] = phases[phase] / symbols
    out.update(
        _selector(pool, workload, traffic, selected, audit)
        if with_selector and workload.backend == "sim"
        else {"selector.exact_picks": 0.0, "selector.regret_pct": 0.0,
              "selector.geomean_speedup_vs_pm": 0.0}
    )
    return out


def _selector(pool, workload, traffic, selected, audit) -> Dict[str, float]:
    """How the compiled selection compares with forcing each scheme."""
    exact, regrets, speedups = 0, [], []
    for t, segments in traffic:
        scheme, chosen = selected[t]
        forced = {
            name: _serve(pool, workload.tenants[t], segments, audit, scheme=name)[0]
            for name in FORCED
        }
        best = min(*forced.values(), chosen)
        exact += chosen <= best
        regrets.append((chosen / best - 1) * 100)
        speedups.append(forced["pm"] / chosen)
    return {
        "selector.exact_picks": float(exact),
        "selector.regret_pct": sum(regrets) / len(regrets),
        "selector.geomean_speedup_vs_pm": exp(sum(map(log, speedups)) / len(speedups)),
    }
