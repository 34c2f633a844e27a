"""TCP gateway integration: real sockets, oracle-exact, drain-clean.

Every test drives a live :class:`~repro.gateway.GatewayServer` bound to
a free localhost port through real :class:`~repro.gateway.GatewayClient`
connections — nothing is mocked.  The acceptance contract:

* concurrent clients stay answer-identical to the sequential ``dfa.run``
  oracle through the full wire round-trip;
* a capacity reject crosses the wire as the structured retryable
  ``code="capacity"`` error and costs zero compiles;
* a connection dropped mid-feed has its orphaned streams reaped;
* a graceful stop closes every stream and leaves no live revise thread.
"""

import asyncio
import contextlib
import threading
import time

import numpy as np
import pytest

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
def test_stop_closes_streams_and_drains_revise_threads(
    config, fsms, training
):
    async def main():
        server = make_server(config, max_streams=4)
        await server.start()
        cl = await GatewayClient.connect("127.0.0.1", server.port)
        for _ in range(2):
            sid = await cl.open(fsms[0], training=training)
            await cl.feed(sid, b"left open on purpose")
        # A background revise still in flight when the drain starts.
        fake = threading.Thread(target=time.sleep, args=(0.2,))
        fake.start()
        server.pool._revising[9999] = fake
        stragglers = await server.stop()
        assert stragglers == 0
        assert not fake.is_alive()  # drain joined it
        assert server.pool.active == 0
        stats = server.stats()
        assert stats["drained_streams"] == 2
        assert stats["drain_stragglers"] == 0
        await cl.aclose()

    asyncio.run(main())


def test_stop_reports_stragglers_past_the_shared_deadline(config):
    async def main():
        server = GatewayServer(
            MatcherPool(config=config), drain_timeout=0.1
        )
        await server.start()
        release = threading.Event()
        slow = threading.Thread(target=release.wait)
        slow.start()
        server.pool._revising[1] = slow
        started = time.monotonic()
        stragglers = await server.stop()
        elapsed = time.monotonic() - started
        release.set()
        slow.join()
        assert stragglers == 1
        assert elapsed < 2.0  # one shared deadline, not per-thread
        assert server.stats()["drain_stragglers"] == 1

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
                assert response["stats"]["protocol_version"] == 1
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
                assert stats["protocol_version"] == 1
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
        ("serving.pool", stats["pool"], ("active_streams", "reserved", "matchers", "revising")),
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
