"""Property-based online-adaptation audit: drifting serving vs the oracle.

Hypothesis drives a random serving schedule — interleaved opens (selected
and forced-sequential streams), calm feeds, drifted-hot feeds, hot bursts
(several hot feeds to one stream in a row, enough to fire the monitor),
and closes — over a drift-enabled :class:`MatcherPool` running the one shipped
policy, so revises and segment-boundary hot-swaps fire *inside* the
schedule whenever the traffic collapses accuracy for long enough; an
explicit hot schedule, served from a freshly compiled plan, must revise.
Every generated schedule opens a selected stream first, so its feed ops
land.
Whatever the schedule and however many swaps land, every stream's final
state at close must equal ``dfa.run`` over exactly the bytes that stream
was fed, in order — on both backends.

Half the examples serve from a fresh cache (the calm-trained plan, which
a burst revises); the other half share one module cache whose resident
plan earlier examples' revises mutate (that is the point), so they also
exercise serving from an already-revised artifact.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.framework import GSpecPalConfig
from repro.observability import MetricsRegistry
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

CONFIG = GSpecPalConfig(n_threads=8)
DFA = classic.drifting_phase(64)
TRAINING = classic.drifting_phase_input(1024, drift_at=1.0, seed=3)
#: Warm, shared across the examples that do not draw a fresh cache.
SHARED_CACHE = PlanCache(capacity=2, config=CONFIG)

seed = st.integers(min_value=0, max_value=2**31 - 1)
# Per-stream feeds partition each segment into n_threads chunks, so a
# segment must carry at least n_threads symbols (pre-existing contract —
# the fused path is the one that accepts ragged/empty segments).
length = st.integers(min_value=8, max_value=96)

op = st.one_of(
    st.tuples(st.just("open"), st.booleans()),
    st.tuples(st.just("calm"), st.integers(0, 63), length, seed),
    st.tuples(st.just("hot"), st.integers(0, 63), length, seed),
    # Five to eight 96-symbol hot feeds: seven boundaries each at 8 lanes,
    # so a burst to a selected stream passes the 32-sample warm-up and
    # breaches twice in a row.
    st.tuples(st.just("burst"), st.integers(0, 63), st.integers(5, 8), seed),
    st.tuples(st.just("close"), st.integers(0, 63)),
)

#: Every schedule opens a selected stream first, so its feed ops land.
schedules = st.lists(op, min_size=1, max_size=24).map(
    lambda ops: [("open", False)] + ops
)


def segments(action):
    """The segments one feed op sends to its stream, in order."""
    kind, _, n, s = action
    if kind == "burst":
        return [
            classic.drifting_phase_input(96, drift_at=0.0, seed=s + i)
            for i in range(n)
        ]
    return [
        classic.drifting_phase_input(
            n, drift_at=1.0 if kind == "calm" else 0.0, seed=s
        )
    ]


#: Sustained drifted-hot feeds on one selected stream (seven boundaries
#: each at 8 lanes, so the fifth passes the warm-up), beside a forced
#: stream that is fed hot too, then calm traffic after the swap.
HOT_SCHEDULE = (
    [("open", False), ("open", True)]
    + [("hot", 0, 96, 10 + i) for i in range(6)]
    + [("hot", 1, 64, 20), ("calm", 0, 96, 30), ("close", 1)]
)


@pytest.mark.parametrize("backend", ["fast", "sim"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(schedule=HOT_SCHEDULE, fresh=True)
@given(schedule=schedules, fresh=st.booleans())
def test_drifting_schedule_matches_oracle(backend, schedule, fresh):
    metrics = MetricsRegistry()
    pool = MatcherPool(
        PlanCache(capacity=2, config=CONFIG) if fresh else SHARED_CACHE,
        config=CONFIG,
        backend=backend,
        max_streams=16,
        drift=True,
        metrics=metrics,
    )
    #: [stream_id, bytearray of everything fed, forced?]
    open_streams = []

    def check_close(slot):
        sid, fed, forced = open_streams.pop(slot)
        stats = pool.close(sid)
        expected = int(DFA.run(bytes(fed)))
        assert stats.end_state == expected
        assert stats.accepts == (expected in DFA.accepting)
        assert stats.total_symbols == len(fed)
        if forced:
            assert stats.decision_path == ("forced",)
            assert stats.scheme_switches == 0

    for action in schedule:
        if action[0] == "open":
            if len(open_streams) >= 16:
                continue
            forced = action[1]
            sid = pool.open(
                DFA,
                training_input=TRAINING,
                scheme="seq" if forced else None,
            )
            open_streams.append([sid, bytearray(), forced])
        elif action[0] in ("calm", "hot", "burst"):
            if not open_streams:
                continue
            entry = open_streams[action[1] % len(open_streams)]
            for segment in segments(action):
                result = pool.feed(entry[0], segment)
                entry[1] += segment
                assert result.end_state == int(DFA.run(bytes(entry[1])))
        else:  # close
            if not open_streams:
                continue
            check_close(action[1] % len(open_streams))

    while open_streams:
        check_close(len(open_streams) - 1)
    assert pool.active == 0
    if schedule == HOT_SCHEDULE:
        assert metrics.as_dict().get("drift.revises", 0) >= 1
