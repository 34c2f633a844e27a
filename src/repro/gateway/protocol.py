"""Wire protocol for the network gateway: newline-delimited JSON.

One request or response per line, UTF-8 JSON, ``\\n`` terminated.  The
protocol is deliberately boring — any language with a socket and a JSON
parser is a client — and maps one-to-one onto the
:class:`~repro.serving.MatcherPool` surface:

Requests (``op`` selects the verb, ``id`` is echoed in the response)::

    {"op": "open",      "id": 1, "dfa": {...}, "training_b64": "...",
     "scheme": null}
    {"op": "feed",      "id": 2, "stream": 0, "segment_b64": "..."}
    {"op": "feed_many", "id": 3, "feeds": [{"stream": 0,
                                            "segment_b64": "..."}, ...]}
    {"op": "close",     "id": 4, "stream": 0}
    {"op": "stats",     "id": 5}

``stats`` answers the gateway's, pool's and cache's counts and, under
``"metrics"``, the full flat export of the registry they are views of.

Responses carry ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": {...}}`` on failure, where the error
object is the wire form of a structured
:class:`~repro.errors.ServingError` — ``code`` / ``retryable`` /
``message`` (+ ``stream_id`` / ``fingerprint`` when applicable).  A
rejected open at capacity therefore arrives as
``{"code": "capacity", "retryable": true}``: the wire-level backpressure
signal (cheap by construction — admission runs before any compile), and
a byte outside the submitted automaton's alphabet as
``{"code": "invalid_symbol"}`` (per outcome inside a ``feed_many``; the
stream is untouched and the connection stays usable).
The gateway adds two codes of its own on top of the serving tier's:
``"bad_request"`` (malformed JSON, unknown op, missing/ill-typed field)
and ``"not_owner"`` (a connection addressed a stream another connection
opened).

Automata travel inline: ``dfa`` is the dense-table JSON form produced by
:func:`dfa_to_wire` (``table`` / ``start`` / ``accepting`` / ``name``),
so a tenant submits its machine with its first ``open``.  Byte segments
and training inputs are base64 (``*_b64`` fields).  ``NaN`` cycle totals
(answer-only backends) are mapped to JSON ``null`` — the wire never
carries bare ``NaN`` tokens.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.automata.dfa import DFA
from repro.errors import ServingError

#: Protocol revision, reported by the ``stats`` op.
PROTOCOL_VERSION = 1

#: Ops a well-formed request may carry.
KNOWN_OPS = ("open", "feed", "feed_many", "close", "stats")

#: Upper bound on one request line (guards the reader against a rogue
#: client streaming an unbounded line; DFA tables dominate real sizes).
MAX_LINE_BYTES = 32 * 1024 * 1024


def bad_request(message: str) -> ServingError:
    """A structurally invalid request (never retryable)."""
    return ServingError(message, code="bad_request")


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
def segment_to_wire(segment) -> str:
    """Base64 form of a byte segment (accepts bytes or uint8 arrays)."""
    if isinstance(segment, np.ndarray):
        segment = segment.astype(np.uint8, copy=False).tobytes()
    return base64.b64encode(bytes(segment)).decode("ascii")


def segment_from_wire(value: Any, field: str = "segment_b64") -> bytes:
    """Decode a base64 segment field, raising ``bad_request`` on junk."""
    if not isinstance(value, str):
        raise bad_request(f"{field} must be a base64 string")
    try:
        return base64.b64decode(value.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise bad_request(f"{field} is not valid base64: {exc}") from exc


def dfa_to_wire(dfa: DFA) -> Dict[str, Any]:
    """JSON-safe dense-table form of ``dfa``."""
    return {
        "table": np.asarray(dfa.table).tolist(),
        "start": int(dfa.start),
        "accepting": sorted(int(s) for s in dfa.accepting),
        "name": str(dfa.name),
    }


def dfa_from_wire(payload: Any) -> DFA:
    """Rebuild a :class:`DFA` from its wire form (``bad_request`` on junk)."""
    if not isinstance(payload, Mapping):
        raise bad_request("dfa must be an object with table/start/accepting")
    try:
        table = np.asarray(payload["table"], dtype=np.int64)
        start = int(payload["start"])
        accepting = frozenset(int(s) for s in payload.get("accepting", ()))
        name = str(payload.get("name", "wire-dfa"))
    except (KeyError, TypeError, ValueError) as exc:
        raise bad_request(f"malformed dfa payload: {exc}") from exc
    if table.ndim != 2:
        raise bad_request(
            f"dfa table must be 2-D, got {table.ndim}-D"
        )
    try:
        return DFA(table=table, start=start, accepting=accepting, name=name)
    except Exception as exc:  # AutomatonError: invalid machine
        raise bad_request(f"invalid dfa: {exc}") from exc


def error_to_wire(exc: ServingError) -> Dict[str, Any]:
    """Wire form of a structured serving error."""
    out: Dict[str, Any] = {
        "code": exc.code or "internal",
        "retryable": bool(exc.retryable),
        "message": str(exc),
    }
    if exc.stream_id is not None:
        out["stream_id"] = exc.stream_id
    if exc.fingerprint is not None:
        out["fingerprint"] = exc.fingerprint
    return out


def error_from_wire(payload: Mapping) -> ServingError:
    """Rebuild the structured error a failed response carries."""
    return ServingError(
        str(payload.get("message", "gateway error")),
        code=payload.get("code"),
        retryable=bool(payload.get("retryable", False)),
        stream_id=payload.get("stream_id"),
        fingerprint=payload.get("fingerprint"),
    )


# ----------------------------------------------------------------------
# line framing
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and non-finite floats into portable JSON."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def encode_line(message: Mapping) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON line."""
    return (
        json.dumps(
            _jsonable(message), separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        + b"\n"
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict (``bad_request`` on junk)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad_request(f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise bad_request("each line must be one JSON object")
    return message


def require_int(message: Mapping, field: str) -> int:
    """A required integer field, with a structured error when missing."""
    value = message.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise bad_request(f"request field {field!r} must be an integer")
    return value


def stream_stats_to_wire(stats) -> Dict[str, Any]:
    """Wire form of a :class:`~repro.serving.StreamStats` close summary."""
    return _jsonable(
        {
            "stream": int(stats.stream_id),
            "fingerprint": stats.fingerprint,
            "canonical_fingerprint": stats.canonical_fingerprint,
            "scheme": stats.scheme,
            "segments": int(stats.segments),
            "total_symbols": int(stats.total_symbols),
            "total_cycles": stats.total_cycles,
            "end_state": int(stats.end_state),
            "accepts": bool(stats.accepts),
            "scheme_switches": int(stats.scheme_switches),
            "decision_path": list(stats.decision_path),
        }
    )


__all__ = [
    "KNOWN_OPS",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "bad_request",
    "decode_line",
    "dfa_from_wire",
    "dfa_to_wire",
    "encode_line",
    "error_from_wire",
    "error_to_wire",
    "require_int",
    "segment_from_wire",
    "segment_to_wire",
    "stream_stats_to_wire",
]
