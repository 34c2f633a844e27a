"""Outside-in layer spans for the traced benchmark run.

Nothing under ``src/`` knows about these spans: while a :class:`Recorder`
is installed, the public entry points of each layer (wire codec, pool,
plan cache, compile, session, scheme, predictor, engine, lockstep
executor) are replaced *from here* with wrappers that record name, layer,
start, end and parent.  In-program tracing is a later change (ROADMAP
item 2); this file is the instrument that change will be checked against.

One request is one tree:

* the driver opens the **root** span around the ``GatewayClient`` call
  (client send → parsed reply) and registers it as the connection's
  in-flight request;
* the parent travels in a :mod:`contextvars` variable, so it survives the
  gateway's ``asyncio.to_thread`` hop for free;
* the server runs in another task, so its ``decode_line`` wrapper
  re-attaches the handler task to the root the client registered for that
  connection (one request in flight per connection is the gateway's own
  contract, which is what makes the lookup unambiguous).

Self time is duration minus the part of the interval that child spans
cover (children clipped to the parent, overlaps counted once).  With one
request in flight per connection siblings never overlap, so the self times
of a tree add up to its root; :func:`tiling_gap_ns` reports by how much
they do not.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

#: the span new spans become children of (None outside any request).
CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)


class Span:
    """One timed call into a layer (or, for roots, one wire request)."""

    __slots__ = ("name", "layer", "parent", "root", "t0", "t1", "children", "attrs", "_self")

    def __init__(self, name: str, layer: str, parent: Optional["Span"]):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.root: "Span" = parent.root if parent is not None else self
        self.children: List["Span"] = []
        self.attrs: Optional[dict] = None
        self.t1: Optional[int] = None
        self._self: Optional[int] = None
        if parent is not None:
            parent.children.append(self)
        self.t0 = perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        return self.t1 - self.t0

    def self_ns(self) -> int:
        """Duration minus the union of the children's intervals (computed
        once: spans do not change after the run)."""
        if self._self is not None:
            return self._self
        covered = 0
        edge = self.t0
        for child in sorted(self.children, key=lambda s: s.t0):
            lo = max(child.t0, edge)
            hi = min(child.t1, self.t1)
            if hi > lo:
                covered += hi - lo
                edge = hi
        self._self = self.duration_ns - covered
        return self._self

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Recorder:
    """In-memory span store for one benchmark run."""

    def __init__(self) -> None:
        #: finished request trees, in completion order.
        self.roots: List[Span] = []
        #: connection index → the request currently on the wire.
        self._inflight: Dict[int, Span] = {}
        #: server handler task → connection index (bound on first sight).
        self._server_conn: Dict[asyncio.Task, int] = {}
        #: label stamped on every root: ``(round, trial or "setup")``.
        self.section: tuple = (0, "setup")

    def new_server(self) -> None:
        """Forget handler-task bindings (each round starts a fresh gateway)."""
        self._server_conn.clear()
        self._inflight.clear()

    @contextmanager
    def request(self, conn: int, verb: str):
        """Root span of one client request on connection ``conn``."""
        root = Span(f"request.{verb}", "gateway.server", None)
        root.attrs = {
            "conn": conn,
            "verb": verb,
            "section": self.section,
            "task": asyncio.current_task(),
            "wire_bytes": 0,
        }
        self._inflight[conn] = root
        token = CURRENT.set(root)
        try:
            yield root
        finally:
            root.t1 = perf_counter_ns()
            CURRENT.reset(token)
            del self._inflight[conn]
            del root.attrs["task"]
            self.roots.append(root)

    def _server_root(self) -> Optional[Span]:
        """The in-flight root of the connection this handler task serves."""
        task = asyncio.current_task()
        conn = self._server_conn.get(task)
        if conn is None:
            unbound = [
                c for c in self._inflight if c not in self._server_conn.values()
            ]
            if len(unbound) != 1:
                return None  # cannot attribute: stay untraced, gap will show
            conn = self._server_conn[task] = unbound[0]
        return self._inflight.get(conn)

    # ------------------------------------------------------------------
    def dump_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        ids: Dict[int, int] = {}
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for root in self.roots:
                request = f"c{root.attrs['conn']}:{root.attrs.get('wire_id')}"
                for span in root.walk():
                    ids[id(span)] = count
                    attrs = span.attrs
                    if span is root:
                        attrs = {k: v for k, v in attrs.items() if k != "section"}
                    out.write(
                        json.dumps(
                            {
                                "id": count,
                                "parent": (
                                    ids[id(span.parent)]
                                    if span.parent is not None
                                    else None
                                ),
                                "request": request,
                                "section": list(root.attrs["section"]),
                                "name": span.name,
                                "layer": span.layer,
                                "start_ns": span.t0,
                                "end_ns": span.t1,
                                "attrs": attrs,
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
                    count += 1
        return count


def tiling_gap_ns(root: Span) -> int:
    """Root duration minus the sum of every self time in its tree (~0)."""
    return root.duration_ns - sum(span.self_ns() for span in root.walk())


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _traced(fn: Callable, name: str, layer: str, note: Optional[Callable] = None):
    """Wrap ``fn`` so calls made inside an open request record a span.

    ``note(span, args, kwargs, result)`` runs after the span closed (its
    cost lands in the parent's self time, so notes stay O(1)-ish).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = CURRENT.get()
        if parent is None or parent.root.t1 is not None:
            return fn(*args, **kwargs)
        span = Span(name, layer, parent)
        token = CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = perf_counter_ns()
            CURRENT.reset(token)
        if note is not None:
            note(span, args, kwargs, result)
        return result

    return wrapper


def _traced_encode_line(fn: Callable):
    """``encode_line``: requests are the client's, responses the server's."""

    @functools.wraps(fn)
    def wrapper(message):
        parent = CURRENT.get()
        if parent is None or parent.root.t1 is not None:
            return fn(message)
        client_side = "op" in message
        if client_side:
            parent.root.attrs["wire_id"] = message.get("id")
        span = Span(
            "protocol.client_encode" if client_side else "protocol.server_encode",
            "gateway.protocol",
            parent,
        )
        try:
            line = fn(message)
        finally:
            span.t1 = perf_counter_ns()
        parent.root.attrs["wire_bytes"] += len(line)
        return line

    return wrapper


def _traced_decode_line(fn: Callable, recorder: Recorder):
    """``decode_line``: on the server side, re-attach to the client's root."""

    @functools.wraps(fn)
    def wrapper(line):
        parent = CURRENT.get()
        client_side = (
            parent is not None
            and parent.root.t1 is None
            and parent.root.attrs.get("task") is asyncio.current_task()
        )
        if not client_side:
            parent = recorder._server_root()
            if parent is None:
                return fn(line)
            # Not reset: the handler task keeps serving this request, and
            # the to_thread hop copies the context with the root in it.
            CURRENT.set(parent)
        span = Span(
            "protocol.client_decode" if client_side else "protocol.server_decode",
            "gateway.protocol",
            parent,
        )
        try:
            return fn(line)
        finally:
            span.t1 = perf_counter_ns()

    return wrapper


def _lane_steps(lengths, active, n_lanes: int, width: int) -> int:
    if lengths is None:
        if active is None:
            return n_lanes * width
        return int(np.count_nonzero(active)) * width
    lengths = np.asarray(lengths)
    if active is not None:
        lengths = lengths[np.asarray(active, dtype=bool)]
    return int(lengths.sum())


def _note_run_batch(span, args, kwargs, _result) -> None:
    n_lanes, width = np.shape(args[1])
    span.attrs = {
        "lane_steps": _lane_steps(
            kwargs.get("lengths"), kwargs.get("active"), n_lanes, width
        )
    }


def _note_run_streams(span, args, _kwargs, _result) -> None:
    span.attrs = {"lane_steps": int(np.asarray(args[3]).sum())}


def _note_run_mappings(span, args, kwargs, _result) -> None:
    n_chunks, width = np.shape(args[1])
    steps = _lane_steps(kwargs.get("lengths"), None, n_chunks, width)
    span.attrs = {"lane_steps": steps * args[0].n_states}


def _note_scheme_run(span, _args, _kwargs, result) -> None:
    obs = result.observations
    span.attrs = {
        "scheme": result.scheme,
        "spec_hits": obs.spec_hits,
        "spec_misses": obs.spec_misses,
        "recovery_rounds": obs.recovery_rounds,
    }


def _note_compile(span, _args, _kwargs, plan) -> None:
    span.attrs = {"stage_ms": dict(plan.stage_timings_ms), "scheme": plan.scheme}


def _scheme_classes():
    from repro.schemes.base import Scheme

    stack = [Scheme]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and not getattr(cls.run, "__isabstractmethod__", False):
            yield cls


@contextmanager
def installed(recorder: Recorder):
    """Replace each layer's public entry points with recording wrappers.

    Everything is restored on exit, so untraced trials of a traced run
    execute exactly the code an untraced run does.
    """
    import repro.schemes.base as scheme_base
    import repro.serving.cache as cache_module
    from repro.engine.fast import FastBackend
    from repro.engine.fused import FusedBatchEngine
    from repro.engine.sim import SimBackend
    from repro.framework.gspecpal import StreamSession
    from repro.gateway import protocol
    from repro.gpu.executor import LockstepExecutor
    from repro.serving.cache import PlanCache
    from repro.serving.pool import MatcherPool

    plain = [
        # (owner, attribute, span name, layer, note)
        (protocol, "dfa_to_wire", "protocol.client_encode", "gateway.protocol", None),
        (protocol, "segment_to_wire", "protocol.client_encode", "gateway.protocol", None),
        (protocol, "error_from_wire", "protocol.client_decode", "gateway.protocol", None),
        (protocol, "dfa_from_wire", "protocol.server_decode", "gateway.protocol", None),
        (protocol, "segment_from_wire", "protocol.server_decode", "gateway.protocol", None),
        (protocol, "stream_stats_to_wire", "protocol.server_encode", "gateway.protocol", None),
        (protocol, "error_to_wire", "protocol.server_encode", "gateway.protocol", None),
        (MatcherPool, "open", "pool.open", "serving.pool", None),
        (MatcherPool, "feed", "pool.feed", "serving.pool", None),
        (MatcherPool, "feed_many", "pool.feed_many", "serving.pool", None),
        (MatcherPool, "close", "pool.close", "serving.pool", None),
        (PlanCache, "get_or_compile", "cache.get_or_compile", "serving.cache", None),
        (cache_module, "compile_plan", "plan.compile", "plan", _note_compile),
        (StreamSession, "feed", "session.feed", "framework", None),
        (StreamSession, "apply_fused", "session.apply_fused", "framework", None),
        (scheme_base, "predict_start_states", "speculation.predict", "speculation", None),
        (FusedBatchEngine, "dispatch", "engine.dispatch", "engine", None),
        (FastBackend, "run_batch", "engine.run_batch", "engine", _note_run_batch),
        (FastBackend, "run_gathered", "engine.run_batch", "engine", None),
        (FastBackend, "run_mappings", "engine.run_batch", "engine", _note_run_mappings),
        (FastBackend, "run_streams", "engine.run_streams", "engine", _note_run_streams),
        (SimBackend, "run_batch", "engine.run_batch", "engine", None),
        (SimBackend, "run_gathered", "engine.run_batch", "engine", None),
        (SimBackend, "run_mappings", "engine.run_batch", "engine", None),
        # Every sim-backend transition funnels through here (run_gathered
        # and run_mappings call it), so lane steps are counted once.
        (LockstepExecutor, "run", "gpu.executor", "gpu", _note_run_batch),
    ]
    plain.extend(
        (cls, "run", "scheme.run", "schemes", _note_scheme_run)
        for cls in _scheme_classes()
    )
    originals = []
    try:
        for owner, attr, name, layer, note in plain:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _traced(original, name, layer, note))
        for attr, wrap in (
            ("encode_line", _traced_encode_line),
            ("decode_line", functools.partial(_traced_decode_line, recorder=recorder)),
        ):
            original = protocol.__dict__[attr]
            originals.append((protocol, attr, original))
            setattr(protocol, attr, wrap(original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
