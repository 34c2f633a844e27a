"""Synthetic benchmark suites: the ANMLZoo/AutomataZoo stand-ins.

Each suite (``snort``, ``clamav``, ``poweren``) has 12 members, mirroring the
paper's 12 FSMs per application.  A member couples a product DFA (counter ×
funnel × regex scanner, see :mod:`repro.workloads.components`) with a
:class:`~repro.workloads.traces.TraceSpec`, because the properties that
decide which scheme wins are *joint* FSM+input properties.

Members are generated in four **regimes** spanning the paper's observed
space (the per-suite regime mix follows Table II's input-sensitive counts
and the Fig. 8 narrative — ``*1-2`` PM-friendly, next few SRE-friendly,
the rest split RR/NF):

* ``pm``   — small counter (r=4) without syncs: the lookback-2 queue's top-4
  covers the truth (spec-4 high) while spec-1 misses; no convergence, so
  recovery-based schemes pay for their misses and PM's spec-k redundancy is
  the cheapest insurance.
* ``sre``  — sync-dense traces: the counter forgets its state within a few
  symbols, so forwarded end states are almost surely correct and SRE's
  conservative recovery wins.
* ``rr``   — wide counter (r ≈ 12–24), no syncs, keyword-dense traces that
  keep the scanner off its root state: the truth hides deep in the
  speculation queue (beyond spec-4, inside ~top-16), where only aggressive
  enumeration by idle threads finds it.
* ``nf``   — like ``rr`` but with *phased* sync density, making speculation
  accuracy strongly input-dependent (the sensitivity trigger for NF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.regex import compile_disjunction
from repro.workloads.components import (
    counter_component,
    funnel_component,
    product_dfa,
    scanner_component,
)
from repro.workloads.patterns import PATTERN_GENERATORS
from repro.workloads.traces import (
    TracePhase,
    TraceSpec,
    ascii_text_weights,
    binary_weights,
    network_weights,
    numeric_log_weights,
)
from repro.errors import ReproError

SUITES = ("snort", "clamav", "poweren")

#: Upper bound on product-DFA state counts (keeps tables laptop-sized while
#: spanning the paper's hundreds-to-tens-of-thousands range).
MAX_PRODUCT_STATES = 40_000

#: Bump when the generators change — invalidates the on-disk member cache.
CACHE_VERSION = 2

#: Regime assignment per member index (1-based), per suite.  Mirrors the
#: paper: *1-2 PM-friendly everywhere (ClamAV 1-3), *3-4/5 SRE-friendly,
#: and input-sensitive counts of 3/5/6 (Table II) drive the NF share.
REGIME_LAYOUT: Dict[str, Tuple[str, ...]] = {
    "snort": ("pm", "pm", "sre", "sre", "nf", "nf", "nf", "rr", "rr", "rr", "rr", "rr"),
    "clamav": ("pm", "pm", "pm", "sre", "sre", "nf", "nf", "nf", "nf", "nf", "rr", "rr"),
    "poweren": ("pm", "pm", "sre", "nf", "nf", "nf", "nf", "nf", "nf", "rr", "rr", "rr"),
}

_SUITE_WEIGHTS = {
    "snort": network_weights,
    "clamav": binary_weights,
    "poweren": ascii_text_weights,
}

#: Scanner sizes per suite (pattern counts): Snort largest, PowerEN smallest,
#: echoing Table II's state-count ordering.
_SUITE_PATTERN_COUNT = {"snort": 8, "clamav": 6, "poweren": 4}

#: Sync symbols per suite — bytes that plausibly "reset" stream context
#: (newline/NUL-ish delimiters).
_SUITE_SYNC_SYMBOLS = {
    "snort": (0x0A, 0x0D),
    "clamav": (0x00, 0xCC),
    "poweren": (0x0A, 0x2E),  # newline, '.'
}


@dataclass(frozen=True)
class SuiteMember:
    """One benchmark FSM plus its input model."""

    suite: str
    index: int  # 1-based, as in "Snort3"
    regime: str
    dfa: DFA
    trace: TraceSpec

    @property
    def name(self) -> str:
        return f"{self.suite}{self.index}"

    def generate_input(self, length: int, seed: int = 0) -> np.ndarray:
        """One evaluation input (the paper has twenty 10 MB inputs each)."""
        return self.trace.generate(length, seed=seed + self.index * 7919)

    def training_input(self, length: int = 8192, seed: int = 10_000) -> np.ndarray:
        """The offline-profiling slice (0.5% of an input in the paper)."""
        return self.trace.generate(length, seed=seed + self.index * 104729)


def _member_seed(suite: str, index: int) -> int:
    # zlib.crc32 is stable across processes (unlike hash()).
    import zlib

    return zlib.crc32(f"{suite}:{index}".encode()) % (2**31)


def default_cache_dir() -> "Path":
    """Directory for compiled-scanner caching (override with
    ``REPRO_CACHE_DIR``; set it to ``0`` to disable caching)."""
    import os
    from pathlib import Path

    env = os.environ.get("REPRO_CACHE_DIR")
    if env == "0":
        return None  # type: ignore[return-value]
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-gspecpal"


def _build_scanner(suite: str, index: int, seed: int) -> DFA:
    """Compile (or load from cache) the member's scanner DFA.

    Regex → NFA → subset construction → minimization is the slow step of
    member construction, so compiled scanners are cached on disk keyed by
    (suite, index, CACHE_VERSION); everything else rebuilds in milliseconds.
    """
    from repro.automata.serialization import load_dfa, save_dfa

    cache_dir = default_cache_dir()
    cache_file = None
    if cache_dir is not None:
        cache_file = cache_dir / f"{suite}{index}-scanner-v{CACHE_VERSION}.npz"
        if cache_file.exists():
            try:
                return load_dfa(cache_file)
            except Exception:
                pass  # stale/corrupt cache: rebuild below
    from repro.errors import AutomatonError, ReproError

    gen = PATTERN_GENERATORS[suite]
    count = _SUITE_PATTERN_COUNT[suite]
    scanner = None
    # Random pattern sets can occasionally blow up determinization
    # (overlapping bounded gaps); back off by re-drawing and shrinking.
    for attempt in range(6):
        patterns = gen(max(2, count - attempt), seed=seed + 97 * attempt)
        try:
            scanner = compile_disjunction(
                patterns, n_symbols=256, name=f"{suite}{index}-scanner"
            )
            break
        except AutomatonError:
            continue
    if scanner is None:
        raise ReproError(f"could not build a tractable scanner for {suite}{index}")
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        save_dfa(scanner, cache_file)
    return scanner


def _regime_params(regime: str, rng: np.random.Generator) -> dict:
    """Counter size / sync / trace dials per regime."""
    if regime == "pm":
        return {
            "r": 4,
            "funnel_m": int(rng.integers(6, 10)),
            "sync": False,
            "sync_density": 0.0,
            "phases": (),
            # Miss-dominated streams: a completed (sticky) match would move
            # the truth out of the queue's top block and break the
            # spec-4-covers-truth property that defines this regime.
            "keyword_density": 0.0,
        }
    if regime == "sre":
        return {
            "r": int(rng.integers(10, 16)),
            "funnel_m": int(rng.integers(6, 10)),
            "sync": True,
            "sync_density": 0.4,
            "phases": (),
            "keyword_density": 0.0015,
        }
    if regime == "rr":
        return {
            "r": int(rng.integers(12, 20)),
            "funnel_m": int(rng.integers(6, 10)),
            "sync": False,
            "sync_density": 0.0,
            "phases": (),
            "keyword_density": 0.02,
        }
    if regime == "nf":
        return {
            "r": int(rng.integers(12, 20)),
            "funnel_m": int(rng.integers(6, 10)),
            "sync": True,
            "sync_density": 0.0,  # set per phase below
            # One short easy (sync-rich) span inside a mostly-hard stream:
            # speculation accuracy swings strongly across portions (the NF
            # trigger) while convergence helps too rarely for SRE to win.
            "phases": (
                TracePhase(fraction=0.25, sync_density=0.55),
                TracePhase(fraction=0.75, sync_density=0.0),
            ),
            "keyword_density": 0.02,
        }
    raise ReproError(f"unknown regime {regime!r}")


def build_member(suite: str, index: int) -> SuiteMember:
    """Construct one suite member (deterministic in (suite, index))."""
    if suite not in SUITES:
        raise ReproError(f"unknown suite {suite!r}; available: {SUITES}")
    if not (1 <= index <= 12):
        raise ReproError(f"member index must be in 1..12, got {index}")
    regime = REGIME_LAYOUT[suite][index - 1]
    seed = _member_seed(suite, index)
    rng = np.random.default_rng(seed)
    params = _regime_params(regime, rng)

    scanner = _build_scanner(suite, index, seed)
    sync_symbols = _SUITE_SYNC_SYMBOLS[suite] if params["sync"] else ()
    counter = counter_component(
        params["r"],
        sync_symbols=sync_symbols,
        seed=seed + 1,
        name=f"{suite}{index}-counter",
    )
    # Size governor: keep the product under ~MAX_PRODUCT_STATES by trimming
    # the funnel factor when the scanner came out large.
    funnel_m = params["funnel_m"]
    budget = MAX_PRODUCT_STATES // max(1, params["r"] * scanner.n_states)
    funnel_m = max(2, min(funnel_m, budget))
    funnel = funnel_component(
        funnel_m, seed=seed + 2, name=f"{suite}{index}-funnel"
    )

    # Acceptance: a scanner match *and* a checksum condition on the counter
    # (keeps every factor semantically live, so the product is irreducible).
    scanner_accept = scanner.accepting_mask

    def accepting(factors):
        x_idx, _y_idx, s_idx = factors
        return scanner_accept[s_idx] & (x_idx == 0)

    dfa = product_dfa(
        [counter, funnel, scanner_component(scanner)],
        accepting_fn=accepting,
        name=f"{suite}{index}",
    )

    # Trace spec: suite-flavoured background + the member's dials.  Traces
    # embed literal byte strings (not regexes) to drive scanner activity.
    # PowerEN's PM-regime members model rule-miss-dominated log streams —
    # on plain English text the dictionary-word scanners sit mid-pattern too
    # often for spec-4 to cover the truth (the regime's defining property).
    keywords = tuple(_literal_keywords(suite, rng))
    if suite == "poweren" and regime == "pm":
        weights = numeric_log_weights()
    else:
        weights = _SUITE_WEIGHTS[suite]()
    trace = TraceSpec(
        weights=weights,
        sync_symbols=sync_symbols,
        sync_density=params["sync_density"],
        keywords=keywords,
        keyword_density=params["keyword_density"],
        phases=params["phases"],
        name=f"{suite}{index}-trace",
    )
    return SuiteMember(suite=suite, index=index, regime=regime, dfa=dfa, trace=trace)


def _literal_keywords(suite: str, rng: np.random.Generator) -> List[bytes]:
    """Literal byte strings the traces embed (drive scanner activity)."""
    # Keyword pools are chosen to *exercise* the scanners' prefixes without
    # completing a match: a completed sticky match would park the truth in
    # the absorbing state's queue block for the rest of the stream.
    if suite == "snort":
        pool = [b"GET /index", b"POST /login", b"User-Agent: curl",
                b"SELECT * FROM", b"Host: internal", b"Cookie: session"]
    elif suite == "clamav":
        pool = [bytes(rng.integers(0x01, 0xF0, size=int(rng.integers(4, 10))).tolist())
                for _ in range(6)]
    else:
        pool = [b"delivery note", b"balance 1042", b"ledger entry",
                b"audit trail", b"receipt copy"]
    count = int(rng.integers(3, min(6, len(pool)) + 1))
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


def build_suite(suite: str) -> List[SuiteMember]:
    """All 12 members of one suite."""
    return [build_member(suite, i) for i in range(1, 13)]
