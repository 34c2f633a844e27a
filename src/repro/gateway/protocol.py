"""Wire protocol for the network gateway: newline-delimited JSON.

One request or response per line, UTF-8 JSON, ``\\n`` terminated.  The
protocol is deliberately boring — any language with a socket and a JSON
parser is a client — and maps one-to-one onto the
:class:`~repro.serving.MatcherPool` surface:

Requests (``op`` selects the verb, ``id`` is echoed in the response)::

    {"op": "open",      "id": 1, "dfa": {"table_b64": "...", "dtype": "<u1",
                                         "shape": [254, 256], "start": 0,
                                         "accepting": [7], "name": "..."},
     "training_b64": "...", "scheme": null}
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
``"bad_request"`` (malformed JSON, unknown op or scheme, missing/ill-typed
field, a line over the reader limit — that one also drops the connection,
its framing being lost) and ``"not_owner"`` (a connection addressed a
stream another connection opened).

Automata travel inline, so a tenant submits its machine with its first
``open``.  ``dfa`` carries ``start`` (integer), ``accepting`` (list of
integers), an optional ``name`` and the dense ``n_states x n_symbols``
transition table in one of two forms:

* **packed** (what :func:`dfa_to_wire` writes): ``table_b64`` is the
  base64 of the table's C-order bytes, ``dtype`` the unsigned
  little-endian type of one entry and ``shape`` ``[n_states, n_symbols]``.
  The writer picks the narrowest type that holds ``n_states - 1`` —
  ``"<u1"`` up to 256 states, ``"<u2"`` up to 65 536, else ``"<u4"`` —
  and the reader accepts any of the three, provided the byte count is
  exactly ``n_states * n_symbols * itemsize``;
* **list**: ``table`` is a JSON list of ``n_states`` rows of
  ``n_symbols`` integers — the form a client without a byte-packing
  library can write.  Only decoded, never written, by this package.

Both forms are one automaton: they decode to the same table, hence the
same content fingerprint and the same cached plan.  A float, a boolean or
an out-of-range entry anywhere in ``dfa`` is ``bad_request``; nothing is
truncated or wrapped into range.  Byte segments and training inputs are
base64 (``*_b64`` fields).  ``NaN`` cycle totals (answer-only backends)
are mapped to JSON ``null`` — the wire never carries bare ``NaN`` tokens.

Versions (``protocol_version`` in the ``stats`` reply): 1 — list tables
only; 2 — packed tables understood, every version-1 request still valid.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.automata.dfa import DFA
from repro.errors import ServingError

#: Protocol revision, reported by the ``stats`` op (history in the module
#: docstring).
PROTOCOL_VERSION = 2

#: Ops a well-formed request may carry.
KNOWN_OPS = ("open", "feed", "feed_many", "close", "stats")

#: Upper bound on one request line (guards the reader against a rogue
#: client streaming an unbounded line; DFA tables dominate real sizes).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Entry types a packed table may declare, narrowest first.
TABLE_DTYPES = ("<u1", "<u2", "<u4")


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
    """Decode a base64 (``*_b64``) field, raising ``bad_request`` on junk."""
    if not isinstance(value, str):
        raise bad_request(f"{field} must be a base64 string")
    try:
        return base64.b64decode(value.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise bad_request(f"{field} is not valid base64: {exc}") from exc


def _is_int(value: Any) -> bool:
    """A JSON integer (``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def dfa_to_wire(dfa: DFA) -> Dict[str, Any]:
    """JSON-safe packed form of ``dfa`` (the module docstring's grammar)."""
    n_states, n_symbols = dfa.table.shape
    dtype = next(
        d for d in TABLE_DTYPES if n_states <= 1 << 8 * np.dtype(d).itemsize
    )
    return {
        "table_b64": base64.b64encode(
            np.ascontiguousarray(dfa.table, dtype=dtype)
        ).decode("ascii"),
        "dtype": dtype,
        "shape": [n_states, n_symbols],
        "start": int(dfa.start),
        "accepting": sorted(int(s) for s in dfa.accepting),
        "name": str(dfa.name),
    }


def _table_from_wire(payload: Mapping) -> np.ndarray:
    """The transition table of a ``dfa`` payload, in either wire form."""
    if "table_b64" not in payload:
        table = np.asarray(payload["table"])
        if table.dtype.kind not in "iu":
            raise bad_request("dfa table must be rows of integers")
        if table.ndim != 2:
            raise bad_request(f"dfa table must be 2-D, got {table.ndim}-D")
        return table
    dtype, shape = payload.get("dtype"), payload.get("shape")
    if dtype not in TABLE_DTYPES:
        raise bad_request(
            f"dfa dtype must be one of {', '.join(TABLE_DTYPES)}, got {dtype!r}"
        )
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(_is_int(n) and n > 0 for n in shape)
    ):
        raise bad_request(
            "dfa shape must be [n_states, n_symbols], both positive integers"
        )
    raw = segment_from_wire(payload["table_b64"], "table_b64")
    rows, cols = shape
    expected = rows * cols * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise bad_request(
            f"table_b64 holds {len(raw)} bytes, shape {rows}x{cols} of "
            f"{dtype} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(rows, cols)


def dfa_from_wire(payload: Any) -> DFA:
    """Rebuild a :class:`DFA` from its wire form (``bad_request`` on junk)."""
    if not isinstance(payload, Mapping):
        raise bad_request("dfa must be an object with a table, start, accepting")
    try:
        table = _table_from_wire(payload)
        start = payload["start"]
        accepting = tuple(payload.get("accepting", ()))
        name = str(payload.get("name", "wire-dfa"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise bad_request(f"malformed dfa payload: {exc}") from exc
    if not (_is_int(start) and all(map(_is_int, accepting))):
        raise bad_request("dfa start and accepting states must be integers")
    try:
        return DFA(
            table=table, start=start, accepting=frozenset(accepting), name=name
        )
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
    if not _is_int(value):
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
    "TABLE_DTYPES",
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
