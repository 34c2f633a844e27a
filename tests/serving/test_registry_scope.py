"""The serving registry holds the server's own counts and nothing below them.

A sim-backend pool's matchers run the lockstep executor, but the simulated
work of a feed is that feed's ``KernelStats`` ledger: neither the pool's
registry nor the gateway's ``stats`` op carries an ``executor.*``,
``memory.*`` or ``sfa.*`` key, while every serving-tier count the scenario
audits (``_serving_audits``) and the end-to-end harness read is recorded.
"""

import asyncio

from repro.framework import GSpecPalConfig
from repro.gateway import GatewayClient, GatewayServer
from repro.observability import MetricsRegistry
from repro.serving import MatcherPool, PlanCache
from repro.workloads.suites import build_member

DEVICE_FAMILIES = ("executor.", "memory.", "sfa.")

#: Registry keys the audits and the harness read with no default: this
#: traffic (opens, feeds, a fused gang, a one-stream gang) records each.
RECORDED = (
    "serving.cache.compiles",
    "serving.pool.opened",
    "serving.pool.closed",
    "serving.pool.feeds",
    "serving.pool.fused_dispatches",
    "serving.pool.fused_batch_width.count",
    "serving.pool.fused_batch_width.mean",
    "serving.pool.fused_fallbacks",
    "drift.observations",
    "gateway.requests",
)
#: ``drift.revises`` / ``drift.revise_errors`` and ``gateway.rejects`` are
#: read with a zero default and count only when a revise or a reject
#: happens; ``test_concurrency.py`` and ``test_gateway.py`` see them land.

#: The ``stats`` op's view keys the audits and the harness read.
GATEWAY_VIEW = ("requests", "rejects", "orphans_closed", "drained_streams")
POOL_VIEW = ("active_streams", "reserved")
CACHE_VIEW = ("compiles", "evictions", "disk_loads")


def test_sim_pool_registry_holds_only_serving_tier_counts():
    config = GSpecPalConfig(n_threads=32, backend="sim")
    members = [build_member("poweren", index) for index in (1, 2)]
    registry = MetricsRegistry()
    pool = MatcherPool(
        PlanCache(capacity=4, config=config, metrics=registry),
        config=config,
        backend="sim",
        fused=True,
        drift=True,
        metrics=registry,
    )
    server = GatewayServer(pool, metrics=registry)

    async def main():
        await server.start()
        try:
            async with await GatewayClient.connect(
                "127.0.0.1", server.port
            ) as client:
                streams = {}
                for member in members:
                    training = member.training_input(1024)
                    streams[member.name] = [
                        await client.open(member.dfa, training=training)
                        for _ in range(2)
                    ]
                for member in members:
                    for seed, sid in enumerate(streams[member.name]):
                        data = member.generate_input(2048, seed=seed)
                        await client.feed(sid, data)
                first, second = (streams[m.name] for m in members)
                payload = members[0].generate_input(1024, seed=9)
                # Two streams of one class gang-feed; one alone falls back.
                outcomes = await client.feed_many(
                    [(sid, payload) for sid in first] + [(second[0], payload)]
                )
                assert all(outcome["ok"] for outcome in outcomes)
                wire_stats = await client.stats()
                for sid in first + second:
                    await client.close_stream(sid)
                return wire_stats
        finally:
            await server.stop()

    wire_stats = asyncio.run(main())
    for exported in (registry.as_dict(), wire_stats["metrics"]):
        leaked = sorted(k for k in exported if k.startswith(DEVICE_FAMILIES))
        assert leaked == []
    exported = wire_stats["metrics"]
    missing = [key for key in RECORDED if key not in exported]
    assert missing == [], missing
    assert exported["serving.pool.fused_dispatches"] >= 1
    assert exported["serving.pool.fused_fallbacks"] >= 1
    for keys, view in (
        (GATEWAY_VIEW, wire_stats),
        (POOL_VIEW, wire_stats["pool"]),
        (CACHE_VIEW, wire_stats["pool"]["cache"]),
    ):
        assert all(type(view[key]) is int for key in keys), keys
    assert wire_stats["pool"]["cache"]["compiles"] == len(members)
