"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single except clause while still being able
to distinguish the common cases (bad regex, malformed automaton, invalid
simulator configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AutomatonError(ReproError):
    """An automaton definition is structurally invalid.

    Construction-size failures are structured so callers (the regex
    compiler, the serving tier, operators reading logs) can react to the
    numbers instead of parsing the message:

    Attributes
    ----------
    state_count:
        How many states the offending construction had produced when it
        was aborted, or ``None`` for errors that are not size-related.
    limit:
        The configured ceiling that was exceeded (``max_states`` for the
        subset construction), or ``None``.
    automaton:
        Name of the offending automaton, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        state_count: "int | None" = None,
        limit: "int | None" = None,
        automaton: "str | None" = None,
    ):
        self.state_count = state_count
        self.limit = limit
        self.automaton = automaton
        super().__init__(message)


class RegexSyntaxError(ReproError):
    """A regular expression could not be parsed.

    Attributes
    ----------
    pattern:
        The offending pattern.
    position:
        Index into ``pattern`` where parsing failed, or ``None`` when the
        error is not tied to a specific character.
    """

    def __init__(self, message: str, pattern: str = "", position: "int | None" = None):
        self.pattern = pattern
        self.position = position
        if position is not None:
            message = f"{message} (at position {position} in {pattern!r})"
        super().__init__(message)


class SimulationError(ReproError):
    """The GPU simulator was configured or driven inconsistently."""


class SchemeError(ReproError):
    """A parallelization scheme was invoked with invalid parameters."""


class PlanError(ReproError):
    """A compiled plan artifact is invalid, stale, or mismatched.

    Raised when a plan file fails format/fingerprint verification on load,
    or when a plan is bound to a DFA or configuration other than the one it
    was compiled for.
    """


class ServingError(ReproError):
    """The serving layer (:mod:`repro.serving`) was driven inconsistently.

    Covers pool misuse: unknown or already-closed stream ids, feeding past
    the pool's capacity, and similar multi-tenant bookkeeping violations.

    The error is structured so front-ends can react programmatically
    instead of parsing messages:

    Attributes
    ----------
    code:
        Machine-readable failure class:

        - ``"capacity"`` — admission control rejected an open because
          ``max_streams`` sessions are already active (retryable);
        - ``"unknown_stream"`` — the stream id was never issued or its
          stream is already closed and forgotten;
        - ``"stream_closed"`` — the stream was closed concurrently while
          this call was in flight (the feed/close race);
        - ``"no_training_input"`` — a cold-cache miss had nothing to
          compile from;
        - ``"invalid_argument"`` — structurally bad call (missing dfa/plan,
          non-positive capacity, ...);
        - ``"invalid_symbol"`` — a segment or training input holds a symbol
          outside the automaton's alphabet; the stream is left untouched,
          so the client can resend a corrected segment.

        The network gateway (:mod:`repro.gateway`) passes these codes
        through the wire verbatim and adds its own:

        - ``"bad_request"`` — malformed JSON line, unknown op, or a
          missing/ill-typed request field;
        - ``"not_owner"`` — a connection addressed a stream id that a
          different connection opened;
        - ``"connection_closed"`` / ``"protocol_error"`` — client-side
          codes for a torn connection or a response that does not match
          its request.
    retryable:
        Whether the same call can sensibly be retried later (true for
        ``"capacity"``: close a stream or wait, then reopen).
    stream_id / fingerprint:
        The offending stream id / plan fingerprint, when applicable.
    """

    def __init__(
        self,
        message: str,
        *,
        code: "str | None" = None,
        retryable: bool = False,
        stream_id: "int | None" = None,
        fingerprint: "str | None" = None,
    ):
        self.code = code
        self.retryable = bool(retryable)
        self.stream_id = stream_id
        self.fingerprint = fingerprint
        context = []
        if code is not None:
            context.append(f"code={code}")
        if retryable:
            context.append("retryable")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class ScenarioError(ReproError):
    """A traffic scenario document is invalid (:mod:`repro.scenarios`).

    Raised when a YAML/JSON scenario fails schema validation — unknown
    arrival kind, weights that do not sum to a distribution, a tenant FSM
    spec naming an unknown workload — or when a scenario file cannot be
    parsed.  The message always names the offending field.
    """


class SelfCheckError(ReproError):
    """A runtime invariant audit failed (``repro.selfcheck``).

    Raised at scheme-run boundaries (and, inside the frontier loop, per
    verification round) when an execution violates one of the paper-level
    invariants — end-state/oracle agreement, chunk-end chaining, VR-store
    capacity, speculation-queue accounting, or ledger phase tiling.  The
    structured attributes identify exactly where the violation happened so
    a fuzzer (or an operator reading logs) can reproduce it.

    Attributes
    ----------
    invariant:
        Short machine-readable name of the violated invariant
        (``"end_state_oracle"``, ``"chunk_end_chain"``, ...).
    scheme / backend:
        Scheme name and execution-backend name of the offending run.
    frontier:
        Frontier round (chunk index) at which the violation was detected,
        or ``None`` when the audit ran at the run boundary.
    lanes:
        Offending lane/chunk indices, or ``None`` when not lane-specific.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: "str | None" = None,
        scheme: "str | None" = None,
        backend: "str | None" = None,
        frontier: "int | None" = None,
        lanes: "list | None" = None,
    ):
        self.invariant = invariant
        self.scheme = scheme
        self.backend = backend
        self.frontier = frontier
        self.lanes = list(lanes) if lanes is not None else None
        context = []
        if invariant is not None:
            context.append(f"invariant={invariant}")
        if scheme is not None:
            context.append(f"scheme={scheme}")
        if backend is not None:
            context.append(f"backend={backend}")
        if frontier is not None:
            context.append(f"frontier={frontier}")
        if self.lanes is not None:
            context.append(f"lanes={self.lanes}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class MissingTrainingInputWarning(UserWarning):
    """The frequency transformation was silently disabled.

    Emitted when a convenience constructor is asked for the transformed
    (RANK) hot layout but no training input is available to profile state
    frequencies, so execution falls back to the hash layout.  Callers who
    want the fallback silently can pass ``use_transformation=False``
    explicitly or filter this category.
    """
