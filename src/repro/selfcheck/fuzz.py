"""Differential DFA fuzzer: random automata × schemes × backends vs the oracle.

Every iteration draws a seeded random case — a DFA (random transition
table, a compiled pattern disjunction, or a classic workload), an input
stream, a thread count, a scheme, a backend, and optionally a streaming
segmentation — runs it with the selfcheck audits enabled, and cross-checks
the result against the sequential ``DFA.run`` oracle.  Any violation (a
wrong answer, a :class:`~repro.errors.SelfCheckError`, or an unexpected
exception such as a raw ``IndexError`` escaping a backend) is **shrunk** to
a minimal failing case and written to disk as a JSON repro that
:func:`replay` can re-execute.

This module imports the full framework stack — import it explicitly
(``from repro.selfcheck.fuzz import run_fuzz``); ``repro.selfcheck``'s
package init deliberately does not, so the audit layer stays import-light.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.engine import BACKEND_NAMES
from repro.errors import ReproError, SchemeError, SelfCheckError, SimulationError
from repro.framework.config import GSpecPalConfig
from repro.framework.gspecpal import GSpecPal

#: Schemes the random loop exercises (every speculative path plus the
#: misprediction-free SFA composition).
FUZZ_SCHEMES: Tuple[str, ...] = ("pm", "sre", "rr", "nf", "sfa", "spec-seq")
FUZZ_BACKENDS: Tuple[str, ...] = ("sim", "fast")


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
@dataclass
class FuzzCase:
    """One fully-serializable differential test case."""

    table: list  # (n_states, n_symbols) nested lists
    start: int
    accepting: list
    dfa_name: str
    input: list  # symbol ints
    training: list
    n_threads: int
    scheme: str
    backend: str
    segments: list = field(default_factory=list)  # lengths; [] = one-shot
    seed: int = 0

    @property
    def streaming(self) -> bool:
        return bool(self.segments)

    def dfa(self) -> DFA:
        return DFA(
            table=np.asarray(self.table, dtype=np.int64),
            start=int(self.start),
            accepting=frozenset(int(s) for s in self.accepting),
            name=self.dfa_name,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzCase":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class FuzzFailure:
    """A failing case plus the message explaining what went wrong."""

    case: FuzzCase
    message: str


def check_case(case: FuzzCase) -> Optional[str]:
    """Run one case with audits on; return a failure message or ``None``."""
    dfa = case.dfa()
    symbols = np.asarray(case.input, dtype=np.int64)
    training = np.asarray(case.training, dtype=np.int64)
    try:
        pal = GSpecPal(
            dfa,
            GSpecPalConfig(
                n_threads=case.n_threads,
                backend=case.backend,
                selfcheck=True,
            ),
            training_input=training,
        )
        if case.streaming:
            session = pal.stream(scheme=case.scheme)
            pos = 0
            for seg_len in case.segments:
                session.feed(symbols[pos : pos + seg_len])
                pos += seg_len
            end, accepts = session.state, session.accepts
        else:
            result = pal.run(symbols, scheme=case.scheme)
            end, accepts = result.end_state, result.accepts
    except SelfCheckError as exc:
        return f"selfcheck violation: {exc}"
    except ReproError as exc:
        return f"unexpected {type(exc).__name__}: {exc}"
    except Exception as exc:  # raw numpy errors etc. must never escape
        return f"raw {type(exc).__name__} escaped the framework: {exc}"
    oracle_end = dfa.run(symbols)
    if int(end) != int(oracle_end):
        return (
            f"end state {end} != sequential oracle {oracle_end} "
            f"(scheme={case.scheme}, backend={case.backend}, "
            f"streaming={case.streaming})"
        )
    if bool(accepts) != (oracle_end in dfa.accepting):
        return f"accepts={accepts} disagrees with oracle (scheme={case.scheme})"
    identity = _check_identity_layer(dfa, symbols)
    if identity is not None:
        return f"identity layer: {identity} (backend={case.backend})"
    return None


def _check_identity_layer(dfa: DFA, symbols: np.ndarray) -> Optional[str]:
    """Differential gate for the minimization / canonical-form layer.

    Runs on every fuzz case (so the random DFA corpus exercises it on both
    backends): the vectorized :func:`minimize_dfa` must agree with the
    pre-refactor Hopcroft worklist (``_minimize_reference``) up to
    isomorphism, minimization must be idempotent at the byte level, and
    canonical forms of language-equivalent relabellings must be
    bit-identical.
    """
    from repro.automata.minimize import (
        _minimize_reference,
        canonical_form,
        minimize_dfa,
    )
    from repro.automata.properties import are_equivalent

    minimized = minimize_dfa(dfa)
    reference = _minimize_reference(dfa)
    if minimized.n_states != reference.n_states:
        return (
            f"minimize_dfa gives {minimized.n_states} states, "
            f"_minimize_reference gives {reference.n_states}"
        )
    if not are_equivalent(minimized, reference):
        return "minimize_dfa and _minimize_reference disagree on the language"
    if not are_equivalent(minimized, dfa):
        return "minimize_dfa changed the language"
    again = minimize_dfa(minimized)
    if (
        not np.array_equal(again.table, minimized.table)
        or again.start != minimized.start
        or again.accepting != minimized.accepting
    ):
        return "minimize_dfa is not idempotent"
    relabelled = dfa.renumbered(list(reversed(range(dfa.n_states))))
    c_orig, c_relab = canonical_form(dfa), canonical_form(relabelled)
    if (
        not np.array_equal(c_orig.table, c_relab.table)
        or c_orig.start != c_relab.start
        or c_orig.accepting != c_relab.accepting
    ):
        return "canonical forms of a relabelling are not bit-identical"
    if symbols.size and minimized.accepts(symbols) != dfa.accepts(symbols):
        return "minimized DFA disagrees with the original on the case input"
    return None


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _random_dfa(rng: np.random.Generator) -> DFA:
    kind = rng.choice(["table", "regex", "classic"])
    if kind == "table":
        n_states = int(rng.integers(2, 41))
        n_symbols = int(rng.integers(2, 13))
        table = rng.integers(0, n_states, size=(n_states, n_symbols))
        n_accepting = int(rng.integers(0, max(1, n_states // 3) + 1))
        accepting = rng.choice(n_states, size=n_accepting, replace=False)
        return DFA(
            table=table,
            start=int(rng.integers(0, n_states)),
            accepting=frozenset(int(s) for s in accepting),
            name=f"rand{n_states}x{n_symbols}",
        )
    if kind == "regex":
        from repro.automata.regex import compile_disjunction
        from repro.workloads.patterns import snort_patterns

        count = int(rng.integers(1, 4))
        patterns = snort_patterns(count, seed=int(rng.integers(0, 1 << 16)))
        return compile_disjunction(patterns, n_symbols=128, name="fuzz-regex")
    from repro.workloads import classic

    pick = rng.choice(["rotator", "div", "keyword"])
    if pick == "rotator":
        return classic.cyclic_rotator(int(rng.integers(3, 13)), n_symbols=64)
    if pick == "div":
        return classic.divisibility(int(rng.integers(2, 12)), base=2)
    keyword = bytes(rng.integers(97, 123, size=int(rng.integers(2, 6))).astype(np.uint8))
    return classic.keyword_scanner(keyword, n_symbols=128)


def _random_input(rng: np.random.Generator, n_symbols: int, length: int) -> np.ndarray:
    # Symbols must stay in uint8 range: the framework's training-input path
    # round-trips through bytes.
    hi = min(n_symbols, 256)
    style = rng.choice(["uniform", "skewed", "constant", "bursty"])
    if style == "uniform":
        return rng.integers(0, hi, size=length)
    if style == "constant":
        return np.full(length, int(rng.integers(0, hi)), dtype=np.int64)
    if style == "skewed":
        pool = rng.integers(0, hi, size=max(2, hi // 4))
        return pool[rng.integers(0, pool.size, size=length)]
    # bursty: long runs of one symbol interleaved with uniform noise
    out = rng.integers(0, hi, size=length)
    pos = 0
    while pos < length:
        run = int(rng.integers(4, 32))
        out[pos : pos + run] = int(rng.integers(0, hi))
        pos += run + int(rng.integers(4, 64))
    return out


def random_case(seed: int, schemes=FUZZ_SCHEMES, backends=FUZZ_BACKENDS) -> FuzzCase:
    """Draw one seeded case (deterministic for a given seed)."""
    rng = np.random.default_rng(seed)
    dfa = _random_dfa(rng)
    n_threads = int(rng.choice([2, 3, 4, 8, 16]))
    # Length just above n_threads occasionally, to hit the balanced-fallback
    # partition; otherwise a few hundred symbols.
    if rng.random() < 0.15:
        length = n_threads + int(rng.integers(1, 4))
    else:
        length = int(rng.integers(64, 513))
    length = max(length, n_threads)
    symbols = _random_input(rng, dfa.n_symbols, length)
    training = _random_input(rng, dfa.n_symbols, int(rng.integers(32, 129)))
    segments: List[int] = []
    if rng.random() < 0.4:
        # Streaming: split into 2–4 segments, each at least n_threads long.
        n_seg = int(rng.integers(2, 5))
        if length >= n_seg * n_threads:
            sizes = np.full(n_seg, n_threads, dtype=np.int64)
            extra = length - n_seg * n_threads
            for _ in range(int(extra)):
                sizes[int(rng.integers(0, n_seg))] += 1
            segments = [int(s) for s in sizes]
    return FuzzCase(
        table=dfa.table.tolist(),
        start=int(dfa.start),
        accepting=sorted(int(s) for s in dfa.accepting),
        dfa_name=dfa.name,
        input=[int(s) for s in symbols],
        training=[int(s) for s in training],
        n_threads=n_threads,
        scheme=str(rng.choice(list(schemes))),
        backend=str(rng.choice(list(backends))),
        segments=segments,
        seed=int(seed),
    )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_case(
    case: FuzzCase,
    check: Callable[[FuzzCase], Optional[str]] = check_case,
    max_checks: int = 150,
) -> FuzzFailure:
    """Greedily minimize a failing case while it keeps failing.

    Order: drop streaming, shrink the thread count, then ddmin-style input
    reduction (drop halves, then quarters, then eighths) and training
    truncation.  Bounded by ``max_checks`` re-executions.
    """
    budget = [max_checks]
    message = check(case) or "original failure no longer reproduces"

    def attempt(candidate: FuzzCase) -> Optional[str]:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return check(candidate)

    def replace(**kw) -> FuzzCase:
        d = asdict(case)
        d.update(kw)
        return FuzzCase.from_dict(d)

    # 1. streaming → one-shot
    if case.segments:
        msg = attempt(replace(segments=[]))
        if msg:
            case, message = replace(segments=[]), msg

    # 2. fewer threads
    for n in (2, 3, 4):
        if n < case.n_threads and len(case.input) >= n:
            cand = replace(n_threads=n, segments=[])
            msg = attempt(cand)
            if msg:
                case, message = cand, msg
                break

    # 3. input reduction: drop contiguous blocks while still failing
    for denom in (2, 4, 8):
        shrunk = True
        while shrunk and budget[0] > 0:
            shrunk = False
            data = case.input
            block = max(1, len(data) // denom)
            if len(data) - block < case.n_threads:
                break
            for lo in range(0, len(data), block):
                cand_input = data[:lo] + data[lo + block :]
                if len(cand_input) < case.n_threads:
                    continue
                cand = replace(input=cand_input, segments=case.segments)
                msg = attempt(cand)
                if msg:
                    case, message = cand, msg
                    shrunk = True
                    break

    # 4. shorter training slice
    if len(case.training) > 16:
        cand = replace(training=case.training[:16])
        msg = attempt(cand)
        if msg:
            case, message = cand, msg

    return FuzzFailure(case=case, message=message)


# ----------------------------------------------------------------------
# the loop, repros, replay
# ----------------------------------------------------------------------
def save_repro(failure: FuzzFailure, out_dir) -> Path:
    """Write the shrunk failing case to ``out_dir`` as a JSON repro."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"repro-seed{failure.case.seed}.json"
    payload = asdict(failure.case)
    payload["message"] = failure.message
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_repro(path) -> FuzzCase:
    return FuzzCase.from_dict(json.loads(Path(path).read_text()))


def replay(path) -> Optional[str]:
    """Re-run a saved repro; returns the failure message or ``None``."""
    return check_case(load_repro(path))


def _check_pool(kind: str, names: Sequence[str], known, error) -> None:
    """Refuse a pool that names an unknown ``kind``."""
    unknown = [n for n in names if n not in known]
    if unknown:
        raise error(
            f"fuzz {kind} pool {list(names)}: unknown {unknown}; "
            f"known {kind}s: {', '.join(known)}"
        )


def run_fuzz(
    iterations: int = 200,
    seed: int = 0,
    out_dir="fuzz-repros",
    schemes: Sequence[str] = FUZZ_SCHEMES,
    backends: Sequence[str] = FUZZ_BACKENDS,
    log: Callable[[str], None] = lambda s: None,
) -> Optional[Path]:
    """Run the fuzz campaign; returns the repro path on failure, else None.

    The pools are checked before any case is drawn: an unknown scheme
    raises :class:`~repro.errors.SchemeError` and an unknown backend
    :class:`~repro.errors.SimulationError`, so a typo is a usage error,
    never a shrunk "failure".
    """
    _check_pool("scheme", schemes, GSpecPal.KNOWN_SCHEMES, SchemeError)
    _check_pool("backend", backends, BACKEND_NAMES, SimulationError)
    log(f"fuzzing {iterations} cases from seed {seed}")
    for i in range(iterations):
        case_seed = seed + i
        case = random_case(case_seed, schemes=schemes, backends=backends)
        message = check_case(case)
        if message is None:
            if (i + 1) % 50 == 0:
                log(f"{i + 1}/{iterations} cases clean")
            continue
        log(f"seed {case_seed} FAILED: {message}; shrinking…")
        failure = shrink_case(case)
        path = save_repro(failure, out_dir)
        log(
            f"shrunk to {len(failure.case.input)} symbols "
            f"(scheme={failure.case.scheme}, backend={failure.case.backend}); "
            f"repro written to {path}"
        )
        return path
    log(f"{iterations} cases clean")
    return None
