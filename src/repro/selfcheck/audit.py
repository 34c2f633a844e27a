"""Runtime invariant audits for scheme executions.

The paper's contract is absolute: speculation changes *when* work happens,
never *what* the answer is.  This module re-checks that contract — plus the
structural invariants of the speculation machinery — in every
``Scheme.run`` when self-checking is enabled (``REPRO_SELFCHECK=1`` or
``GSpecPalConfig(selfcheck=True)``).

An audited run walks its input sequentially once: :func:`oracle_chain`
chains ``DFA.run`` over the run's chunks before the scheme's algorithm
starts, and every oracle check below reads that one chain.

Invariants audited:

``end_state_oracle``
    The scheme's end state (and accept flag) equals the sequential
    ``DFA.run`` oracle from the same start state.
``chunk_end_chain``
    Every ``chunk_ends`` entry equals the oracle's end of that chunk,
    chained from its predecessor — the chain is correct link by link, not
    just the last link.
``frontier_oracle``
    Inside the frontier loop (SRE/RR/NF), after round ``f`` every verified
    chunk end ``0..f`` equals the oracle chain, so corruption is caught at
    the round that introduced it.  Raised by the loop itself.
``vr_capacity``
    No chunk's VR store holds more own/others records than its configured
    register budget (capacity enforcement was not bypassed).
``queue_accounting``
    No speculation queue's dequeue cursor ran past its states (nothing was
    dequeued after exhaustion).
``sfa_mapping_oracle``
    When the run stashed SFA chunk mappings, a state sample of every unique
    chunk's state→state mapping equals re-running the chunk from each start
    state with ``DFA.run``.
``ledger_tiling``
    When the backend accounts cycles: the per-phase cycle buckets tile the
    total exactly, and redundant transitions never exceed total transitions.

A violation raises :class:`~repro.errors.SelfCheckError` naming the
invariant, scheme, backend, frontier round and offending lanes.  The checks
are pure python over data the run already produced — O(input length) like
the run itself — so they are cheap enough for CI but still opt-in for
production serving.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.automata.dfa import _as_symbol_array
from repro.errors import SelfCheckError
from repro.speculation.records import EMPTY

#: Environment variable turning the audits on process-wide.
SELFCHECK_ENV_VAR = "REPRO_SELFCHECK"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def selfcheck_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the self-check switch: explicit flag beats the environment."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(SELFCHECK_ENV_VAR, "").strip().lower() in _TRUTHY


def _fail(scheme, invariant: str, message: str, **kw) -> None:
    raise SelfCheckError(
        message,
        invariant=invariant,
        scheme=scheme.name,
        backend=scheme.engine.name,
        **kw,
    )


def audit_scheme_run(scheme, data, start_state, result) -> None:
    """Audit one completed ``Scheme.run`` against the paper's invariants.

    ``scheme`` is the scheme instance (its ``_audit_stash`` may hold the
    run's oracle chain and partition/prediction/vr, stashed by the run);
    ``data`` and ``start_state`` are the run's inputs; ``result`` its
    :class:`~repro.schemes.base.SchemeResult`.
    """
    symbols = _as_symbol_array(data)
    dfa = scheme.sim.dfa
    user_start = dfa.start if start_state is None else int(start_state)
    stash = getattr(scheme, "_audit_stash", None) or {}
    chain = stash.get("oracle_chain")
    if chain is None:  # audited after the run: chain the scheme's chunks
        chain = oracle_chain(scheme, symbols, scheme._partition(symbols), start_state)

    # --- end state == sequential oracle -------------------------------
    oracle_end = int(chain[-1])
    if int(result.end_state) != oracle_end:
        _fail(
            scheme,
            "end_state_oracle",
            f"end state {result.end_state} != sequential oracle {oracle_end} "
            f"({symbols.size} symbols from state {user_start})",
        )
    oracle_accepts = oracle_end in dfa.accepting
    if bool(result.accepts) != oracle_accepts:
        _fail(
            scheme,
            "end_state_oracle",
            f"accepts={result.accepts} disagrees with oracle "
            f"accepts={oracle_accepts} in end state {oracle_end}",
        )

    # --- chunk_ends chain to the oracle, link by link -----------------
    ends = np.asarray(result.chunk_ends)
    if ends.shape == chain.shape:
        bad = np.flatnonzero(ends != chain).tolist()
    else:  # a chain of the wrong length fails every link
        bad = list(range(max(ends.size, chain.size)))
    if bad:
        _fail(
            scheme,
            "chunk_end_chain",
            "chunk_ends disagree with re-running chunks from their "
            "verified predecessor ends",
            lanes=bad,
        )

    # --- VR-store capacity was never exceeded -------------------------
    vr = stash.get("vr")
    if vr is not None:
        # Count the filled slots themselves, not the store's fill counters:
        # a write that bypassed ``add`` need not have kept those in step.
        filled = vr._start != EMPTY
        own = np.count_nonzero(filled & vr._own, axis=1)
        others = np.count_nonzero(filled & ~vr._own, axis=1)
        bad = np.flatnonzero(
            (own > vr.own_capacity) | (others > vr.others_capacity)
        ).tolist()
        if bad:
            _fail(
                scheme,
                "vr_capacity",
                f"VR store holds more records than its register budget "
                f"(own<= {vr.own_capacity}, others<= {vr.others_capacity})",
                lanes=bad,
            )

    # --- speculation queues never dequeued past exhaustion ------------
    prediction = stash.get("prediction")
    if prediction is not None:
        cursors = prediction.cursors
        bad = np.flatnonzero((cursors < 0) | (cursors > prediction.sizes)).tolist()
        if bad:
            _fail(
                scheme,
                "queue_accounting",
                "speculation queue cursor ran past the queue's states",
                lanes=bad,
            )

    # --- SFA mappings are the chunks' true transition functions -------
    mappings = stash.get("sfa_mappings")
    if mappings is not None:
        partition = stash.get("partition")
        reps = stash.get("sfa_reps")
        if partition is not None and reps is not None:
            mappings = np.asarray(mappings, dtype=np.int64)
            n_states = dfa.n_states
            # Re-run a row sample of every unique chunk's mapping against
            # the oracle; small automata are checked in full, large ones
            # on an evenly spaced state sample so the audit stays O(run
            # cost).
            if n_states <= 32:
                rows = np.arange(n_states)
            else:
                rows = np.unique(
                    np.linspace(0, n_states - 1, 32).astype(np.int64)
                )
            bad = []
            for g, rep in enumerate(np.asarray(reps, dtype=np.int64)):
                chunk = partition.chunk(int(rep))
                for s in rows:
                    if int(mappings[g, s]) != int(dfa.run(chunk, start=int(s))):
                        bad.append(int(rep))
                        break
            if bad:
                _fail(
                    scheme,
                    "sfa_mapping_oracle",
                    "SFA chunk mappings disagree with re-running the chunk "
                    "from each start state",
                    lanes=bad,
                )

    # --- ledger tiling (cycle-accounting backends only) ---------------
    if scheme.engine.accounts_cycles and result.stats is not None:
        stats = result.stats
        total = float(stats.cycles)
        tiled = float(sum(stats.phase_cycles.values()))
        if abs(tiled - total) > 1e-6 * max(1.0, abs(total)):
            _fail(
                scheme,
                "ledger_tiling",
                f"phase cycle buckets sum to {tiled}, ledger total is {total}",
            )
        if stats.redundant_transitions > stats.transitions:
            _fail(
                scheme,
                "ledger_tiling",
                f"redundant transitions ({stats.redundant_transitions}) "
                f"exceed total transitions ({stats.transitions})",
            )


def audit_fused_dispatch(dfa, segments, starts, result, *, backend) -> None:
    """Audit one fused cross-stream dispatch, per stream.

    The fused paths (:class:`~repro.engine.fused.FusedBatchEngine` and the
    serving pool's :class:`~repro.engine.fused.FusedUnion`) bypass the
    scheme layer, so the scheme-run audits above never see them; this
    audit restores the answer guarantee at the dispatch boundary, on the
    answers of the same kernel an unaudited dispatch runs:

    ``fused_end_state_oracle``
        Every stream's fused end state equals the
        sequential ``DFA.run`` oracle over that stream's own segment from
        its own carried state — the per-stream answer contract.

    ``dfa`` is the automaton the streams run (one class of a union
    dispatch), ``segments`` and ``starts`` the dispatch inputs in its
    numbering, ``result`` its :class:`~repro.engine.fused.FusedDispatchResult`
    and ``backend`` the name of the backend whose kernel ran.  The lanes
    a violation names index ``segments``.
    """
    bad_ends = []
    for i, (segment, start) in enumerate(zip(segments, starts)):
        symbols = _as_symbol_array(segment)
        oracle_end = int(dfa.run(symbols, start=int(start)))
        if int(result.end_states[i]) != oracle_end:
            bad_ends.append(i)
    if bad_ends:
        raise SelfCheckError(
            "fused end states disagree with the per-stream sequential "
            "oracle",
            invariant="fused_end_state_oracle",
            scheme="fused",
            backend=backend,
            lanes=bad_ends,
        )


def oracle_chain(scheme, symbols, partition, start_state) -> np.ndarray:
    """The run's sequential oracle: the end state after each of
    ``partition``'s chunks, chained from ``start_state`` (default the DFA's
    initial state) with ``DFA.run``.

    Chunks are cut from ``symbols`` itself at the partition's lengths, and
    the last one runs to the input's end, so the last entry is the whole
    input's end state however the scheme materialized its chunks.  An
    audited ``Scheme.run`` computes it once; ``end_state_oracle``,
    ``chunk_end_chain`` and the frontier loop's ``frontier_oracle`` all
    read it.
    """
    dfa = scheme.sim.dfa
    state = dfa.start if start_state is None else int(start_state)
    cuts = np.cumsum(partition.lengths[:-1])
    ends = np.empty(partition.n_chunks, dtype=np.int64)
    for i, piece in enumerate(np.split(symbols, cuts)):
        state = dfa.run(piece, start=state)
        ends[i] = state
    return ends
