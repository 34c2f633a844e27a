"""TCP gateway integration: real sockets, oracle-exact, drain-clean.

Every test drives a live :class:`~repro.gateway.GatewayServer` bound to
a free localhost port through real :class:`~repro.gateway.GatewayClient`
connections — nothing is mocked.  The acceptance contract:

* concurrent clients stay answer-identical to the sequential ``dfa.run``
  oracle through the full wire round-trip;
* a capacity reject crosses the wire as the structured retryable
  ``code="capacity"`` error and costs zero compiles;
* a connection dropped mid-feed has its orphaned streams reaped;
* a graceful stop lets every in-flight request finish its pool call,
  then closes every stream.
"""

import asyncio
import base64
import contextlib
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.errors import ServingError
from repro.framework import GSpecPalConfig
from repro.gateway import GatewayClient, GatewayServer, protocol
from repro.observability import MetricsRegistry
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=8)


@pytest.fixture()
def fsms():
    return (classic.keyword_scanner(b"token"), classic.divisibility(7))


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


def make_server(config, **pool_kwargs):
    registry = MetricsRegistry()
    pool = MatcherPool(
        PlanCache(capacity=8, config=config, metrics=registry),
        config=config,
        metrics=registry,
        **pool_kwargs,
    )
    return GatewayServer(pool, metrics=registry)


@contextlib.asynccontextmanager
async def serving(server):
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


# ----------------------------------------------------------------------
# oracle equivalence over the wire
# ----------------------------------------------------------------------
def test_concurrent_clients_match_oracle(config, fsms, training, rng):
    """4 clients × 2 streams each, interleaved feeds, audited at close."""
    segments = {
        (c, s): [
            bytes(rng.integers(97, 123, size=96).astype(np.uint8))
            for _ in range(3)
        ]
        for c in range(4)
        for s in range(2)
    }

    async def client_task(server, c):
        dfa = fsms[c % 2]
        async with await GatewayClient.connect("127.0.0.1", server.port) as cl:
            sids = [
                await cl.open(dfa, training=training) for _ in range(2)
            ]
            for round_ in range(3):
                for s, sid in enumerate(sids):
                    out = await cl.feed(sid, segments[(c, s)][round_])
                    assert out["symbols"] == 96
            for s, sid in enumerate(sids):
                fed = b"".join(segments[(c, s)])
                summary = await cl.close_stream(sid)
                expected = dfa.run(fed)
                assert summary["end_state"] == expected
                assert summary["accepts"] == (expected in dfa.accepting)
                assert summary["segments"] == 3
                assert summary["total_symbols"] == len(fed)

    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            await asyncio.gather(*(client_task(srv, c) for c in range(4)))
            # 8 wire streams, 2 automata: one compile per fingerprint.
            assert srv.pool.cache.stats()["compiles"] == 2
            assert srv.pool.active == 0
        assert srv.stats()["orphans_closed"] == 0

    asyncio.run(main())


def test_feed_many_gang_feeds_over_the_wire(config, fsms, training, rng):
    async def main():
        server = make_server(config, fused=True)
        dfa = fsms[0]
        async with serving(server) as srv:
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl:
                sids = [
                    await cl.open(dfa, training=training) for _ in range(3)
                ]
                fed = {sid: b"" for sid in sids}
                for _ in range(2):
                    batch = [
                        (
                            sid,
                            bytes(
                                rng.integers(97, 123, size=64).astype(
                                    np.uint8
                                )
                            ),
                        )
                        for sid in sids
                    ]
                    outcomes = await cl.feed_many(batch)
                    assert [o["stream"] for o in outcomes] == sids
                    for (sid, segment), outcome in zip(batch, outcomes):
                        fed[sid] += segment
                        assert outcome["ok"]
                        assert outcome["error"] is None
                        assert outcome["end_state"] == dfa.run(fed[sid])
                for sid in sids:
                    summary = await cl.close_stream(sid)
                    assert summary["end_state"] == dfa.run(fed[sid])

    asyncio.run(main())


# ----------------------------------------------------------------------
# capacity backpressure round-trip
# ----------------------------------------------------------------------
def test_capacity_reject_round_trip_costs_no_compile(config, fsms, training):
    """The wire-level reject is the pool's structured capacity error —
    and, with admission ordered before the cache, it compiles nothing."""

    async def main():
        server = make_server(config, max_streams=1)
        async with serving(server) as srv:
            a = await GatewayClient.connect("127.0.0.1", srv.port)
            b = await GatewayClient.connect("127.0.0.1", srv.port)
            try:
                sid = await a.open(fsms[0], training=training)
                with pytest.raises(ServingError) as excinfo:
                    await b.open(fsms[1], training=training)
                assert excinfo.value.code == "capacity"
                assert excinfo.value.retryable
                # The rejected tenant's automaton was never compiled.
                assert srv.pool.cache.stats()["compiles"] == 1
                assert srv.stats()["rejects"] == 1
                # Free the slot; the same open now succeeds.
                await a.close_stream(sid)
                sid_b = await b.open(fsms[1], training=training)
                await b.close_stream(sid_b)
                assert srv.pool.cache.stats()["compiles"] == 2
            finally:
                await a.aclose()
                await b.aclose()

    asyncio.run(main())


# ----------------------------------------------------------------------
# orphan reaping
# ----------------------------------------------------------------------
def test_mid_feed_disconnect_reaps_orphaned_streams(config, fsms, training):
    async def main():
        server = make_server(config, max_streams=2)
        async with serving(server) as srv:
            cl = await GatewayClient.connect("127.0.0.1", srv.port)
            sid = await cl.open(fsms[0], training=training)
            await cl.feed(sid, b"mid-feed traffic")
            assert srv.pool.active == 1
            # Vanish without closing the stream.
            await cl.aclose()
            deadline = time.monotonic() + 5.0
            while srv.pool.active and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert srv.pool.active == 0
            assert srv.stats()["orphans_closed"] == 1
            # The reaped slot is reusable immediately.
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl2:
                sid2 = await cl2.open(fsms[0], training=training)
                await cl2.close_stream(sid2)
        exported = srv.metrics.as_dict()
        assert exported["gateway.orphans_closed"] == 1

    asyncio.run(main())


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_stop_closes_streams_left_open(config, fsms, training):
    async def main():
        server = make_server(config, max_streams=4)
        await server.start()
        cl = await GatewayClient.connect("127.0.0.1", server.port)
        for _ in range(2):
            sid = await cl.open(fsms[0], training=training)
            await cl.feed(sid, b"left open on purpose")
        assert await server.stop() == 0
        assert server.pool.active == 0
        assert server.stats()["drained_streams"] == 2
        await cl.aclose()

    asyncio.run(main())


def test_stop_waits_for_an_open_in_flight(
    config, fsms, training, monkeypatch
):
    """A stop that lands while an ``open`` is compiling lets the open
    finish, then closes its stream: no stream or admission slot outlives
    the drain."""
    import repro.serving.cache as cache_module

    release = threading.Event()
    compile_plan = cache_module.compile_plan

    def gated(*args, **kwargs):
        assert release.wait(timeout=30)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(cache_module, "compile_plan", gated)

    async def main():
        server = make_server(config)
        await server.start()
        cl = await GatewayClient.connect("127.0.0.1", server.port)
        opening = asyncio.ensure_future(cl.open(fsms[0], training=training))
        deadline = time.monotonic() + 10.0
        while server.pool.stats()["reserved"] != 1:
            assert time.monotonic() < deadline
            await asyncio.sleep(0.005)
        stopping = asyncio.ensure_future(server.stop())
        await asyncio.sleep(0.1)
        release.set()
        assert await stopping == 0
        # Let an open that stop() did not wait for land, so a leak shows.
        while server.pool.stats()["reserved"] and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        assert server.pool.active == 0
        assert server.stats()["drained_streams"] == 1
        await asyncio.gather(opening, return_exceptions=True)
        await cl.aclose()

    asyncio.run(main())


def test_stop_releases_a_handler_blocked_on_a_client_that_never_reads(config):
    """A client that pipelines requests and never reads the replies leaves
    its handler blocked writing; stop() still returns."""
    import socket

    async def main():
        server = make_server(config)
        await server.start()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.setblocking(False)
        burst = protocol.encode_line({"op": "stats", "id": 0}) * 64
        # Pipeline until the request count stalls: the handler is then
        # stuck in drain() behind replies nobody reads.
        deadline = time.monotonic() + 20
        seen, stalled_since = -1, time.monotonic()
        while time.monotonic() - stalled_since < 0.3:
            assert time.monotonic() < deadline
            with contextlib.suppress(BlockingIOError):
                sock.send(burst)
            await asyncio.sleep(0.01)
            if server.stats()["requests"] != seen:
                seen, stalled_since = server.stats()["requests"], time.monotonic()
        assert await asyncio.wait_for(server.stop(), timeout=10) == 0
        sock.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# protocol errors
# ----------------------------------------------------------------------
def test_feeding_another_connections_stream_is_not_owner(
    config, fsms, training
):
    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            a = await GatewayClient.connect("127.0.0.1", srv.port)
            b = await GatewayClient.connect("127.0.0.1", srv.port)
            try:
                sid = await a.open(fsms[0], training=training)
                for attempt in (b.feed(sid, b"stolen"), b.close_stream(sid)):
                    with pytest.raises(ServingError) as excinfo:
                        await attempt
                    assert excinfo.value.code == "not_owner"
                # The rightful owner is unaffected.
                await a.feed(sid, b"still mine")
                await a.close_stream(sid)
            finally:
                await a.aclose()
                await b.aclose()

    asyncio.run(main())


def test_malformed_lines_answer_bad_request_without_dropping(config):
    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                response = protocol.decode_line(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert response["id"] is None
                # Same connection survives and handles a proper request.
                writer.write(protocol.encode_line({"op": "bogus", "id": 7}))
                await writer.drain()
                response = protocol.decode_line(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert response["id"] == 7
                writer.write(protocol.encode_line({"op": "stats", "id": 8}))
                await writer.drain()
                response = protocol.decode_line(await reader.readline())
                assert response["ok"] is True
                assert (
                    response["stats"]["protocol_version"]
                    == protocol.PROTOCOL_VERSION
                )
            finally:
                writer.close()
                await writer.wait_closed()

    asyncio.run(main())


@pytest.mark.parametrize("training_bytes", [9, 0])
def test_training_bytes_from_the_wire_never_surface_raw_exceptions(
    config, fsms, training, rng, training_bytes
):
    """Training is outside input.  A sample shorter than the profiling
    window still opens and answers oracle-exact; an empty one is the
    structured ``no_training_input`` — neither may come back as
    ``code="internal"`` wrapping a library exception."""
    segment = bytes(rng.integers(97, 123, size=96).astype(np.uint8))

    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl:
                if training_bytes:
                    sid = await cl.open(
                        fsms[0], training=training[:training_bytes]
                    )
                else:
                    with pytest.raises(ServingError) as excinfo:
                        await cl.open(fsms[0], training=b"")
                    assert excinfo.value.code == "no_training_input"
                    assert not excinfo.value.retryable
                    assert srv.pool.stats()["reserved"] == 0
                    # The connection survived; the same tenant opens once
                    # it brings something to compile from.
                    sid = await cl.open(fsms[0], training=training)
                out = await cl.feed(sid, segment)
                assert out["end_state"] == fsms[0].run(segment)
                summary = await cl.close_stream(sid)
                assert summary["end_state"] == fsms[0].run(segment)
                stats = srv.pool.stats()
                assert stats["reserved"] == 0 and stats["active_streams"] == 0
                assert srv.pool.cache.stats()["compiles"] == 1

    asyncio.run(main())


def test_stats_op_exposes_gateway_and_pool_counters(config, fsms, training):
    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl:
                sid = await cl.open(fsms[0], training=training)
                stats = await cl.stats()
                assert stats["protocol_version"] == protocol.PROTOCOL_VERSION
                assert stats["active_connections"] == 1
                assert stats["pool"]["active_streams"] == 1
                assert stats["requests"] >= 2
                await cl.close_stream(sid)

    asyncio.run(main())


def test_out_of_alphabet_bytes_are_invalid_symbol_on_the_wire(config, rng):
    """A byte outside the submitted automaton's alphabet is the structured
    ``invalid_symbol`` — never ``internal`` — at open, feed and inside a
    feed_many; the connection and the refused stream both stay usable."""
    dfa = classic.cyclic_rotator(6, n_symbols=4)
    training = bytes(rng.integers(0, 4, size=512).astype(np.uint8))
    good = bytes(rng.integers(0, 4, size=128).astype(np.uint8))
    bad = good[:77] + b"\xff" + good[78:]

    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl:
                with pytest.raises(ServingError) as excinfo:
                    await cl.open(dfa, training=training + b"\x04")
                assert excinfo.value.code == "invalid_symbol"
                assert srv.pool.stats()["reserved"] == 0
                sid = await cl.open(dfa, training=training)
                other = await cl.open(dfa, training=training)
                with pytest.raises(ServingError) as excinfo:
                    await cl.feed(sid, bad)
                assert excinfo.value.code == "invalid_symbol"
                assert excinfo.value.stream_id == sid
                assert not excinfo.value.retryable
                outcomes = await cl.feed_many([(sid, bad), (other, good)])
                assert [o["ok"] for o in outcomes] == [False, True]
                assert outcomes[0]["error"]["code"] == "invalid_symbol"
                assert outcomes[1]["end_state"] == dfa.run(good)
                # The refused stream then takes a good segment, and closes
                # on the oracle state of only what was accepted.
                out = await cl.feed(sid, good)
                assert out["end_state"] == dfa.run(good)
                summary = await cl.close_stream(sid)
                assert summary["end_state"] == dfa.run(good)
                assert summary["total_symbols"] == len(good)
                await cl.close_stream(other)
        assert srv.pool.active == 0

    asyncio.run(main())


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_feed_shorter_than_the_thread_count_answers_the_oracle(config, backend):
    """A wire ``feed`` of 0 … n_threads − 1 bytes used to answer
    ``code="internal"`` (the partition refused it); it now answers the
    sequential oracle, the stream stays usable and no slot leaks."""
    dfa = classic.divisibility(7)
    digits = b"31415926535897932384626433832795"

    async def main():
        server = make_server(config, backend=backend)
        async with serving(server) as srv:
            async with await GatewayClient.connect("127.0.0.1", srv.port) as cl:
                sid = await cl.open(dfa, training=digits * 16)
                fed = b""
                for n in (2, 0, 1, config.n_threads - 1, len(digits), 3):
                    fed += digits[:n]
                    out = await cl.feed(sid, digits[:n])
                    assert out["end_state"] == dfa.run(fed), n
                    assert out["accepts"] == (dfa.run(fed) in dfa.accepting)
                summary = await cl.close_stream(sid)
                assert summary["end_state"] == dfa.run(fed)
                assert summary["total_symbols"] == len(fed)
                assert summary["segments"] == 6
        stats = srv.pool.stats()
        assert (srv.pool.active, stats["reserved"]) == (0, 0)

    asyncio.run(main())


def test_every_stats_count_is_a_view_of_the_registry(config, fsms, training):
    """One count, one store: after a mixed run every counter key of the
    three ``stats()`` views equals its entry in the registry export."""

    async def main():
        server = make_server(config, max_streams=2)
        async with serving(server) as srv:
            a = await GatewayClient.connect("127.0.0.1", srv.port)
            b = await GatewayClient.connect("127.0.0.1", srv.port)
            sid = await a.open(fsms[0], training=training)
            left_open = await b.open(fsms[1], training=training)
            await a.feed(sid, b"one feed")
            outcomes = await a.feed_many([(sid, b"and a gang of one")])
            assert outcomes[0]["ok"]
            for attempt, code in (
                (a.open(fsms[0], training=training), "capacity"),
                (a.feed(left_open, b"stolen"), "not_owner"),
            ):
                with pytest.raises(ServingError) as excinfo:
                    await attempt
                assert excinfo.value.code == code
            await b.aclose()  # dropped with ``left_open`` still open
            deadline = time.monotonic() + 5.0
            while srv.pool.active > 1 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            await a.close_stream(sid)
            await a.aclose()
        return srv

    srv = asyncio.run(main())
    stats = srv.stats()
    exported = stats["metrics"]
    assert exported == srv.metrics.as_dict()
    views = (
        ("gateway", stats, ("active_connections", "protocol_version")),
        ("serving.pool", stats["pool"], ("active_streams", "reserved", "matchers")),
        ("serving.cache", stats["pool"]["cache"], ("size", "capacity", "aliases", "in_flight")),
    )
    for family, view, live in views:
        counts = {
            key: value
            for key, value in view.items()
            if key not in live and not isinstance(value, dict)
        }
        assert counts and all(type(v) is int for v in counts.values())
        assert counts == {
            key: exported[f"{family}.{key}"] for key in counts
        }, family
    assert stats["connections"] == 2 and stats["rejects"] == 1
    assert stats["orphans_closed"] == 1 and stats["drained_streams"] == 0
    assert stats["pool"]["opened"] == stats["pool"]["closed"] == 2
    assert stats["pool"]["rejected"] == 1
    assert stats["pool"]["cache"]["compiles"] == 2
    assert srv.pool.active == 0


# ----------------------------------------------------------------------
# the wire boundary: packed and list tables, malformed payloads, line cap
# ----------------------------------------------------------------------
def random_table_dfa(rng, n_states, n_symbols=1, *, widest_last=False):
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    if widest_last:
        table[-1, 0] = n_states - 1  # the widest entry a packed dtype must hold
    return DFA(
        table=table,
        start=int(rng.integers(n_states)),
        accepting=frozenset(rng.integers(0, n_states, size=3).tolist()),
        name=f"random{n_states}",
    )


def assert_same_machine(got, dfa):
    assert got.table.dtype == dfa.table.dtype
    assert np.array_equal(got.table, dfa.table)
    assert (got.start, got.accepting) == (dfa.start, dfa.accepting)
    assert got.fingerprint() == dfa.fingerprint()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_wire_dfa_round_trip_keeps_the_fingerprint(n_states, n_symbols, seed):
    """Through a real line, packed and as the list a v1 client writes."""
    dfa = random_table_dfa(np.random.default_rng(seed), n_states, n_symbols)
    wire = protocol.dfa_to_wire(dfa)
    assert wire["dtype"] == "<u1" and wire["shape"] == [n_states, n_symbols]
    as_list = {**wire, "table": dfa.table.tolist()}
    del as_list["table_b64"]
    for payload in (wire, as_list):
        line = protocol.encode_line({"op": "open", "id": 0, "dfa": payload})
        got = protocol.dfa_from_wire(protocol.decode_line(line)["dfa"])
        assert_same_machine(got, dfa)
        assert got.name == dfa.name


@pytest.mark.parametrize(
    "n_states, dtype",
    [
        (1, "<u1"),
        (256, "<u1"),
        (257, "<u2"),
        (65536, "<u2"),
        (65537, "<u4"),
    ],
)
def test_wire_dfa_packs_into_the_narrowest_dtype(rng, n_states, dtype):
    dfa = random_table_dfa(rng, n_states, widest_last=True)
    wire = protocol.dfa_to_wire(dfa)
    assert wire["dtype"] == dtype
    raw = base64.b64decode(wire["table_b64"])
    assert len(raw) == n_states * np.dtype(dtype).itemsize
    assert_same_machine(protocol.dfa_from_wire(wire), dfa)


def packed(entries, dtype="<u1", shape=None, **fields):
    raw = np.asarray(entries, dtype=dtype)
    return {
        "table_b64": base64.b64encode(raw.tobytes()).decode("ascii"),
        "dtype": dtype,
        "shape": list(raw.shape) if shape is None else shape,
        "start": 0,
        "accepting": [0],
        **fields,
    }


def listed(**fields):
    return {"table": [[0, 1], [1, 0]], "start": 0, "accepting": [0], **fields}


MALFORMED_DFAS = {
    # packed form
    "dtype-signed": packed([[0, 1], [1, 0]], dtype="<i4"),
    "dtype-big-endian": packed([[0, 1], [1, 0]], dtype=">u2"),
    "dtype-missing": packed([[0, 1], [1, 0]], dtype=None),
    "shape-not-a-list": packed([[0, 1], [1, 0]], shape="2x2"),
    "shape-negative": packed([[0, 1], [1, 0]], shape=[-2, -2]),
    "shape-zero": packed([[0, 1], [1, 0]], shape=[4, 0]),
    "shape-3-element": packed([[0, 1], [1, 0]], shape=[2, 2, 1]),
    "shape-float": packed([[0, 1], [1, 0]], shape=[2.0, 2]),
    "shape-bool": packed([[0]], shape=[True, 1]),
    "bytes-short": packed([[0, 1], [1, 0]], shape=[2, 3]),
    "bytes-long": packed([[0, 1], [1, 0]], dtype="<u2", shape=[2, 1]),
    "base64-invalid": packed([[0]], table_b64="!not base64!"),
    "base64-not-a-string": packed([[0]], table_b64=[0]),
    "entry-equals-n-states": packed([[0, 2], [1, 0]]),
    "u4-entry-wraps-to-minus-one": packed([[0, 0xFFFFFFFF]], dtype="<u4"),
    "u4-entry-2**31": packed([[0, 2**31]], dtype="<u4"),
    # list form
    "list-entry-beyond-int64": {"table": [[2**70, 0]], "start": 0},
    "list-entry-wraps-to-zero": {"table": [[2**32, 0]], "start": 0},
    "list-entry-float": {"table": [[0.5, 0]], "start": 0},
    "list-entry-bool": {"table": [[False, True], [True, False]], "start": 0},
    "list-ragged": {"table": [[0, 1], [1]], "start": 0},
    "list-1-D": {"table": [0, 0], "start": 0},
    "table-missing": {"start": 0},
    # either form (one code path; written as lists, which the parent took)
    "start-float": listed(start=0.9),
    "start-infinite": listed(start=float("inf")),
    "start-bool": listed(start=True),
    "start-out-of-range": listed(start=2**70),
    "start-missing": {"table": [[0]]},
    "accepting-infinite": listed(accepting=[float("inf")]),
    "accepting-float-twin": listed(accepting=[1, 1.0]),
    "accepting-not-a-list": listed(accepting=1),
    "accepting-out-of-range": packed([[0, 1], [1, 0]], accepting=[2]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DFAS))
def test_wire_malformed_dfa_is_bad_request(name):
    with pytest.raises(ServingError) as excinfo:
        protocol.dfa_from_wire(MALFORMED_DFAS[name])
    assert excinfo.value.code == "bad_request"
    assert not excinfo.value.retryable


def foreign_line(message):
    """A line no ``encode_line`` would write: ``1e400`` parses as infinity."""
    return json.dumps(message).replace("Infinity", "1e400").encode() + b"\n"


async def exchange(reader, writer, line):
    writer.write(line)
    await writer.drain()
    return protocol.decode_line(await reader.readline())


def test_wire_malformed_opens_leave_the_connection_and_pool_clean(
    config, fsms, training
):
    """Every bad ``open`` is ``bad_request`` over a live socket — a 1e400
    arrives as JSON's infinity, an unknown scheme as the pool's own
    ``SchemeError`` — and the same connection then opens for real."""
    training_b64 = protocol.segment_to_wire(training)
    requests = [
        {"dfa": dfa, "training_b64": training_b64}
        for _, dfa in sorted(MALFORMED_DFAS.items())
    ]
    requests.append(
        {
            "dfa": protocol.dfa_to_wire(fsms[0]),
            "training_b64": training_b64,
            "scheme": "nope",
        }
    )

    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            try:
                for i, fields in enumerate(requests):
                    response = await exchange(
                        reader,
                        writer,
                        foreign_line({"op": "open", "id": i, **fields}),
                    )
                    assert response["id"] == i and response["ok"] is False
                    assert response["error"]["code"] == "bad_request", fields
                    assert response["error"]["retryable"] is False
                stats = srv.pool.stats()
                assert stats["reserved"] == 0 and stats["active_streams"] == 0
                assert stats["cache"]["compiles"] == 0
                response = await exchange(
                    reader,
                    writer,
                    protocol.encode_line(
                        {"op": "open", "id": "last", **requests[-1], "scheme": "pm"}
                    ),
                )
                assert response["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()
        assert srv.pool.active == 0

    asyncio.run(main())


def test_wire_v1_list_table_and_packed_table_are_one_fingerprint(config):
    """A hand-written version-1 ``open`` still works, and the same machine
    sent packed lands on the plan the list upload compiled."""
    dfa = DFA(table=[[0, 1], [1, 0]], start=0, accepting=frozenset({1}))
    segment = bytes([0, 1, 1, 0, 1] * 20)
    training_b64 = protocol.segment_to_wire(bytes([0, 1] * 128))
    v1_open = (
        b'{"op": "open", "id": 1, "dfa": {"table": [[0, 1], [1, 0]], '
        b'"start": 0, "accepting": [1]}, "training_b64": "%s"}\n'
        % training_b64.encode()
    )

    async def main():
        server = make_server(config)
        async with serving(server) as srv:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            try:
                response = await exchange(reader, writer, v1_open)
                assert response["ok"] is True, response
                feed = await exchange(
                    reader,
                    writer,
                    protocol.encode_line(
                        {
                            "op": "feed",
                            "id": 2,
                            "stream": response["stream"],
                            "segment_b64": protocol.segment_to_wire(segment),
                        }
                    ),
                )
                assert feed["end_state"] == dfa.run(segment)
            finally:
                writer.close()
                await writer.wait_closed()
            async with await GatewayClient.connect(
                "127.0.0.1", srv.port
            ) as cl:
                sid = await cl.open(dfa, training=bytes([0, 1] * 128))
                summary = await cl.close_stream(sid)
                assert summary["fingerprint"] == dfa.fingerprint()
            cache = srv.pool.cache.stats()
            assert (cache["compiles"], cache["hits"]) == (1, 1)
            assert (cache["aliases"], cache["alias_hits"]) == (1, 0)

    asyncio.run(main())


def test_wire_oversize_line_answers_bad_request_then_drops_only_that_client(
    config, fsms, training
):
    async def main():
        registry = MetricsRegistry()
        pool = MatcherPool(config=config, metrics=registry)
        server = GatewayServer(pool, metrics=registry, max_line_bytes=4096)
        async with serving(server) as srv:
            bystander = await GatewayClient.connect("127.0.0.1", srv.port)
            sid = await bystander.open(
                classic.cyclic_rotator(3, n_symbols=4), training=b"\x00\x01"
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            try:
                # fsms[0]'s open is ~2.8 KiB of table and 0.7 KiB of
                # training: under the cap.  Padded, it is one line over it.
                message = {
                    "op": "open",
                    "id": 1,
                    "dfa": protocol.dfa_to_wire(fsms[0]),
                    "training_b64": protocol.segment_to_wire(training),
                }
                response = await exchange(
                    reader, writer, protocol.encode_line(message)
                )
                assert response["ok"] is True
                message["pad"] = "x" * 4096
                response = await exchange(
                    reader, writer, protocol.encode_line(message)
                )
                assert response["id"] is None and response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert "4096" in response["error"]["message"]
                assert await reader.readline() == b""  # then EOF
            finally:
                writer.close()
                await writer.wait_closed()
            # The dropped client's stream is reaped; the bystander's is not.
            deadline = time.monotonic() + 5.0
            while srv.pool.active > 1 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert srv.pool.active == 1
            fed = await bystander.feed(sid, b"\x01\x02" * 8)
            assert fed["end_state"] == 16 % 3
            await bystander.close_stream(sid)
            await bystander.aclose()
            assert srv.pool.active == 0
            assert srv.stats()["orphans_closed"] == 1

    asyncio.run(main())


def test_wire_open_line_stays_near_the_packed_table_size(rng):
    """A 254-state x 256 byte scanner is a 63.5 KiB ``<u1`` table; base64
    makes that 4/3.  The same open with a JSON list of ints is 217 529 B."""
    dfa = random_table_dfa(rng, 254, 256)
    training_b64 = protocol.segment_to_wire(bytes(8192))
    line = protocol.encode_line(
        {
            "op": "open",
            "id": 0,
            "dfa": protocol.dfa_to_wire(dfa),
            "training_b64": training_b64,
            "scheme": None,
        }
    )
    assert len(line) <= 1.4 * 254 * 256 + len(training_b64) + 512
