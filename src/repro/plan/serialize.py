"""Plan (de)serialization: JSON metadata + NPZ arrays, one file.

Follows the DFA serializer's container (NumPy ``.npz``) and stores the
embedded automaton with its encoding
(:func:`~repro.automata.serialization.dfa_arrays`), so plans need no new
dependencies: dense arrays (transition table, accepting set, frequency
profile) are stored as compressed arrays, and every
scalar decision — features, selection, cost estimates, predictor stats,
config snapshot and both hashes — rides in one embedded JSON document.

``load_plan`` re-verifies both the content fingerprint and the canonical
(language-level) fingerprint of the embedded DFA against the stored ones,
so a corrupted or hand-edited artifact is rejected before it can serve a
single byte.  It is the one place the canonical fingerprint is re-derived.

The table layout is not stored: it is derived from the frequency order
when the plan is served.  Files of versions 2 and 3 also carry a
``permutation`` array and ``hot_state_count`` / ``has_permutation``
entries; they are functions of that order and the device, and
``load_plan`` never reads them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.automata.serialization import dfa_arrays, dfa_from_arrays, existing_npz
from repro.errors import PlanError
from repro.plan.artifact import (
    PLAN_FORMAT_VERSION,
    SUPPORTED_PLAN_VERSIONS,
    CompiledPlan,
)
from repro.selector.features import FSMFeatures


def save_plan(plan: CompiledPlan, path: Union[str, Path]) -> Path:
    """Write ``plan`` to ``path`` (``.npz``); returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays, dfa_header = dfa_arrays(plan.dfa)
    meta = json.dumps(
        {
            "version": PLAN_FORMAT_VERSION,
            "fingerprint": plan.fingerprint,
            "canonical_fingerprint": plan.canonical_fingerprint,
            "stage_timings_ms": plan.stage_timings_ms,
            "config_hash": plan.config_hash,
            "config": plan.config,
            "features": plan.features.as_dict(),
            "scheme": plan.scheme,
            "decision_path": list(plan.decision_path),
            "cost_estimates": plan.cost_estimates,
            "predictor_stats": plan.predictor_stats,
            "training_symbols": plan.training_symbols,
            "revision": plan.revision,
            "live_provenance": plan.live_provenance,
            "dfa": dfa_header,
        },
        sort_keys=True,
    )
    np.savez_compressed(
        path,
        frequency_counts=plan.frequency_counts,
        frequency_order=plan.frequency_order,
        meta=np.asarray(meta),
        **arrays,
    )
    return existing_npz(path, PlanError, "plan")


def load_plan(path: Union[str, Path]) -> CompiledPlan:
    """Load and verify a plan previously written by :func:`save_plan`.

    Raises
    ------
    PlanError
        When the file is missing, the format version is unsupported, the
        frequency order is not a permutation of the states, or the
        embedded DFA no longer hashes to the stored fingerprint or no
        longer canonicalizes to the stored canonical fingerprint.
    """
    path = existing_npz(path, PlanError, "plan")
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
        except (KeyError, json.JSONDecodeError) as exc:
            raise PlanError(f"malformed plan metadata in {path}: {exc}") from exc
        if meta.get("version") not in SUPPORTED_PLAN_VERSIONS:
            raise PlanError(
                f"unsupported plan version {meta.get('version')!r} in {path} "
                f"(this build reads versions {SUPPORTED_PLAN_VERSIONS})"
            )
        plan = CompiledPlan(
            dfa=dfa_from_arrays(data, meta["dfa"]),
            fingerprint=str(meta["fingerprint"]),
            canonical_fingerprint=str(meta["canonical_fingerprint"]),
            config_hash=str(meta["config_hash"]),
            config=meta["config"],
            features=FSMFeatures(**meta["features"]),
            scheme=str(meta["scheme"]),
            decision_path=tuple(meta["decision_path"]),
            cost_estimates={k: float(v) for k, v in meta["cost_estimates"].items()},
            frequency_counts=data["frequency_counts"],
            frequency_order=data["frequency_order"],
            training_symbols=int(meta["training_symbols"]),
            predictor_stats=meta["predictor_stats"],
            stage_timings_ms={
                k: float(v) for k, v in meta.get("stage_timings_ms", {}).items()
            },
            # v2 artifacts predate online adaptation: default the revision
            # counter and provenance (upgrade-on-load; saved back as v4).
            revision=int(meta.get("revision", 0)),
            live_provenance=meta.get("live_provenance", {}) or {},
        )
    # Fingerprint verification on load: a plan whose embedded automaton no
    # longer hashes or canonicalizes to what was recorded must never serve.
    plan.verify()
    actual = plan.dfa.canonical_fingerprint()
    if actual != plan.canonical_fingerprint:
        raise PlanError(
            "plan canonical fingerprint mismatch: artifact says "
            f"{plan.canonical_fingerprint[:12]}…, embedded DFA canonicalizes "
            f"to {actual[:12]}… (corrupt or tampered plan)"
        )
    return plan
