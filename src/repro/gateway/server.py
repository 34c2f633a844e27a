"""Asyncio TCP front-end serving a :class:`~repro.serving.MatcherPool`.

:class:`GatewayServer` is the first layer of the system that leaves the
process: remote tenants speak the newline-delimited-JSON protocol of
:mod:`repro.gateway.protocol` over a plain TCP socket, and every verb
lands on one shared, thread-safe :class:`~repro.serving.MatcherPool` —
so N connections multiplex over the same plan cache, warmed matchers,
admission control, and drift monitors the in-process serving tier
already provides.

Design contract
---------------
* **One event loop, pool work off-loop.**  The asyncio loop only parses
  and frames; every pool call (``open`` compiles, ``feed`` runs a
  scheme — both CPU-bound and blocking) runs in a worker thread via
  :func:`asyncio.to_thread`.  The pool is thread-safe by construction
  (PR 5), so concurrent connections genuinely execute concurrently.
* **Per-connection stream ownership.**  A stream id belongs to the
  connection that opened it; feeds/closes from any other connection get
  a structured ``code="not_owner"`` error.  When a connection drops —
  mid-feed included — its orphaned streams are closed server-side
  (counted by ``gateway.orphans_closed``), so a flaky client can never
  leak pool capacity.
* **Requests are sequential per connection**, pipelined across
  connections: the handler awaits each response before reading the next
  line, which preserves per-stream feed order with zero extra locking.
  Clients that want parallelism open more connections.
* **Backpressure is the pool's admission control.**  An ``open`` beyond
  ``max_streams`` waits up to the pool's ``open_timeout`` for a slot and
  then fails with the retryable ``code="capacity"`` error — which the
  admission-before-compile ordering guarantees cost no compile work —
  so the wire-level reject is cheap and honest.
* **Graceful drain.**  :meth:`stop` stops accepting, drops every
  client connection, waits for the requests still in flight to finish
  their pool calls, then closes every remaining stream (``close_all``).
  Drift revises run inside the feed that fires them, so once the
  handlers are done no pool work is left running.

Metrics (the ``gateway.*`` family, see ``docs/observability.md``) go into
the pool's registry unless another is given, so one export — carried by
the ``stats`` op as ``stats["metrics"]`` — covers every serving + gateway
count.  Instruments are safe to record from the loop and the worker
threads alike; ``_glock`` guards only the ownership map.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter
from typing import Dict, Optional

from repro.errors import SchemeError, ServingError
from repro.gateway import protocol
from repro.serving.pool import MatcherPool


def _refusal(request_id, exc: ServingError) -> Dict:
    """The failure response carrying ``exc`` in its wire form."""
    return {"id": request_id, "ok": False, "error": protocol.error_to_wire(exc)}


class GatewayServer:
    """Serve a :class:`MatcherPool` over TCP (newline-delimited JSON).

    Parameters
    ----------
    pool:
        The shared pool to serve.
    host / port:
        Bind address; ``port=0`` picks a free port (``self.port`` holds
        the bound one after :meth:`start` — the tests and the embedded
        scenario runner rely on this).
    metrics:
        The :class:`~repro.observability.MetricsRegistry` receiving the
        ``gateway.*`` family; defaults to the pool's so one export covers
        both tiers.  :meth:`stats` is a view of it, and a registry is the
        scope of its counts: servers sharing one report its totals.
    max_line_bytes:
        Reader limit per request line (a rogue client cannot balloon
        memory; overruns answer ``bad_request`` and drop the connection).
    log:
        Optional ``print``-like callable for lifecycle messages.
    """

    def __init__(
        self,
        pool: MatcherPool,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics=None,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        log=None,
    ):
        self.pool = pool
        self.host = host
        self._requested_port = int(port)
        self.metrics = metrics or pool.metrics
        self.max_line_bytes = int(max_line_bytes)
        self.log = log
        self._server: Optional[asyncio.AbstractServer] = None
        #: connection handler task → its writer (aborted by :meth:`stop`).
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: stream id → connection id (ownership map; gateway-level state).
        self._owners: Dict[int, int] = {}
        self._next_conn_id = 0
        self._stopping = False
        #: guards the ownership map and the connection-id cursor.
        self._glock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    def stats(self) -> Dict[str, object]:
        """A view of the registry's ``gateway.*`` counts, the wrapped
        pool's stats and the registry's full export (``metrics``, taken
        last so it holds every count the view read)."""
        count = self.metrics.counter
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "connections": int(count("gateway.connections").value),
            "active_connections": len(self._handlers),
            "requests": int(count("gateway.requests").value),
            "rejects": int(count("gateway.rejects").value),
            "orphans_closed": int(count("gateway.orphans_closed").value),
            "drained_streams": int(count("gateway.drained_streams").value),
            "pool": self.pool.stats(),
            "metrics": self.metrics.as_dict(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=self.max_line_bytes,
        )
        if self.log is not None:
            self.log(f"gateway listening on {self.host}:{self.port}")

    async def serve_forever(self) -> None:
        """Block serving until cancelled (``repro serve`` runs this)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> int:
        """Graceful drain: stop accepting, finish in-flight requests, close
        every stream.

        Each connection's transport is aborted, so an idle handler reads
        EOF and one blocked writing to a client that stopped reading is
        released (a plain ``close`` would wait to flush that client's
        unread responses, forever).  The handlers are then awaited, not
        cancelled, so one inside a pool call (a compiling ``open``, a
        ``feed`` running a drift revise) finishes that call before
        ``close_all`` runs — no stream or admission slot outlives the
        drain.  Nothing is left running afterwards, so the result is
        always 0; it stays an ``int`` for callers that audit a clean stop.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for writer in tuple(self._handlers.values()):
            writer.transport.abort()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        closed = await asyncio.to_thread(self.pool.close_all)
        self.metrics.counter("gateway.drained_streams").inc(len(closed))
        with self._glock:
            self._owners.clear()
        if self.log is not None:
            self.log(f"gateway drained: {len(closed)} streams closed")
        return 0

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = writer
        with self._glock:
            conn_id = self._next_conn_id
            self._next_conn_id += 1
        self.metrics.counter("gateway.connections").inc()
        self.metrics.gauge("gateway.active_connections").set(len(self._handlers))
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break  # torn connection
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: the framing is unrecoverable, so say
                    # why (best effort) and drop the client.
                    await self._send(
                        writer,
                        _refusal(
                            None,
                            protocol.bad_request(
                                "request line exceeds "
                                f"{self.max_line_bytes} bytes"
                            ),
                        ),
                    )
                    break
                if not line:
                    break  # EOF: client hung up, or stop() closed us
                if not line.strip():
                    continue
                response = await self._handle_line(conn_id, line)
                if not await self._send(writer, response):
                    break
        except asyncio.CancelledError:
            # The event loop is shutting down.  Not re-raised: Python
            # 3.11's stream-server callback calls ``exception()`` on the
            # finished task, which raises on a cancelled one.
            pass
        finally:
            if task is not None:
                self._handlers.pop(task, None)
            try:
                writer.close()
            except Exception:
                pass
            await self._cleanup_connection(conn_id)
            self.metrics.gauge("gateway.active_connections").set(
                len(self._handlers)
            )

    @staticmethod
    async def _send(writer, response: Dict) -> bool:
        """Write one response line; False when the client is gone."""
        try:
            writer.write(protocol.encode_line(response))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            return False
        return True

    async def _cleanup_connection(self, conn_id: int) -> None:
        """Close every stream the dropped connection still owned."""
        with self._glock:
            orphaned = [
                sid for sid, owner in self._owners.items() if owner == conn_id
            ]
            for sid in orphaned:
                del self._owners[sid]
            if self._stopping:
                # Graceful shutdown: the drain's close_all closes these
                # (counted as drained, not orphaned).
                return
        for sid in orphaned:
            try:
                await asyncio.to_thread(self.pool.close, sid)
            except ServingError:
                pass  # already closed (e.g. the drain got there first)
            else:
                self.metrics.counter("gateway.orphans_closed").inc()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _handle_line(self, conn_id: int, line: bytes) -> Dict:
        request_id = None
        started = perf_counter()
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in protocol.KNOWN_OPS:
                raise protocol.bad_request(
                    f"unknown op {op!r} (expected one of "
                    f"{', '.join(protocol.KNOWN_OPS)})"
                )
            self.metrics.counter("gateway.requests").inc()
            self.metrics.counter(f"gateway.requests.{op}").inc()
            handler = getattr(self, f"_op_{op}")
            body = await handler(conn_id, message)
        except ServingError as exc:
            if exc.code == "capacity":
                self.metrics.counter("gateway.rejects").inc()
            return _refusal(request_id, exc)
        except Exception as exc:  # noqa: BLE001 - fault barrier per request
            return {
                "id": request_id,
                "ok": False,
                "error": {
                    "code": "internal",
                    "retryable": False,
                    "message": f"{type(exc).__name__}: {exc}",
                },
            }
        finally:
            self.metrics.histogram("gateway.request_ms").observe(
                (perf_counter() - started) * 1e3
            )
        body["id"] = request_id
        body["ok"] = True
        return body

    def _owned_stream(self, conn_id: int, message) -> int:
        """The request's stream id, verified against the ownership map."""
        sid = protocol.require_int(message, "stream")
        with self._glock:
            owner = self._owners.get(sid)
        if owner is not None and owner != conn_id:
            raise ServingError(
                f"stream {sid} belongs to another connection",
                code="not_owner",
                stream_id=sid,
            )
        # Unknown ids fall through: the pool classifies them exactly
        # (unknown_stream vs stream_closed).
        return sid

    # -- verbs ----------------------------------------------------------
    async def _op_open(self, conn_id: int, message) -> Dict:
        dfa = protocol.dfa_from_wire(message.get("dfa"))
        training = None
        if message.get("training_b64") is not None:
            training = protocol.segment_from_wire(
                message["training_b64"], "training_b64"
            )
        scheme = message.get("scheme")
        if scheme is not None and not isinstance(scheme, str):
            raise protocol.bad_request("scheme must be a string or null")
        started = perf_counter()
        try:
            sid = await asyncio.to_thread(
                lambda: self.pool.open(
                    dfa, training_input=training, scheme=scheme
                )
            )
        except SchemeError as exc:  # an unknown scheme name
            raise protocol.bad_request(str(exc)) from exc
        with self._glock:
            self._owners[sid] = conn_id
        self.metrics.histogram("gateway.open_ms").observe(
            (perf_counter() - started) * 1e3
        )
        return {"stream": sid}

    async def _op_feed(self, conn_id: int, message) -> Dict:
        sid = self._owned_stream(conn_id, message)
        segment = protocol.segment_from_wire(message.get("segment_b64"))
        started = perf_counter()
        result = await asyncio.to_thread(self.pool.feed, sid, segment)
        self.metrics.histogram("gateway.feed_ms").observe(
            (perf_counter() - started) * 1e3
        )
        return {
            "end_state": int(result.end_state),
            "accepts": bool(result.accepts),
            "symbols": len(segment),
        }

    async def _op_feed_many(self, conn_id: int, message) -> Dict:
        feeds = message.get("feeds")
        if not isinstance(feeds, list):
            raise protocol.bad_request("feeds must be a list of objects")
        batch = []
        for i, item in enumerate(feeds):
            if not isinstance(item, dict):
                raise protocol.bad_request(f"feeds[{i}] must be an object")
            sid = self._owned_stream(conn_id, item)
            batch.append(
                (sid, protocol.segment_from_wire(item.get("segment_b64")))
            )
        started = perf_counter()
        outcomes = await asyncio.to_thread(self.pool.feed_many, batch)
        self.metrics.histogram("gateway.feed_ms").observe(
            (perf_counter() - started) * 1e3
        )
        return {
            "outcomes": [
                {
                    "stream": outcome.stream_id,
                    "ok": outcome.ok,
                    "end_state": outcome.end_state,
                    "accepts": outcome.accepts,
                    "symbols": outcome.symbols,
                    "fused": outcome.fused,
                    "error": (
                        protocol.error_to_wire(outcome.error)
                        if outcome.error is not None
                        else None
                    ),
                }
                for outcome in outcomes
            ]
        }

    async def _op_close(self, conn_id: int, message) -> Dict:
        sid = self._owned_stream(conn_id, message)
        stats = await asyncio.to_thread(self.pool.close, sid)
        with self._glock:
            self._owners.pop(sid, None)
        return {"stats": protocol.stream_stats_to_wire(stats)}

    async def _op_stats(self, conn_id: int, message) -> Dict:
        return {"stats": self.stats()}


__all__ = ["GatewayServer"]
