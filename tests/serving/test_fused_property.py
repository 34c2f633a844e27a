"""Property-based gang-scheduling audit: fused serving vs the DFA oracle.

Hypothesis drives a random serving schedule — interleaved opens, gang
feeds of ragged (empty included) segments, duplicate stream ids inside one
``feed_many`` call, and closes — over a fused :class:`MatcherPool` with
mixed fingerprints.  Whatever the schedule, every stream's final state at
close must equal ``dfa.run`` over exactly the bytes that stream was fed,
in order.  One-stream groups take the per-stream fallback and wider ones
the fused dispatch; their answers are identical, so both are held to the
same oracle.

Plans are compiled once into a module-shared cache; each example gets a
fresh pool over the warm cache, so examples stay cheap enough to shrink.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.framework import GSpecPalConfig
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

CONFIG = GSpecPalConfig(n_threads=8, backend="fast")
DFAS = (classic.keyword_scanner(b"prop"), classic.divisibility(11))
_TRAIN_RNG = np.random.default_rng(20260808)
TRAININGS = tuple(
    bytes(_TRAIN_RNG.integers(97, 123, size=512).astype(np.uint8))
    for _ in DFAS
)
#: Warm, shared across examples: each fingerprint compiles exactly once
#: for the whole module, not once per shrink attempt.
SHARED_CACHE = PlanCache(capacity=len(DFAS), config=CONFIG)

segment = st.binary(max_size=48)

op = st.one_of(
    st.tuples(st.just("open"), st.integers(min_value=0, max_value=1)),
    st.tuples(
        st.just("gang"),
        st.lists(segment, min_size=1, max_size=6),
    ),
    st.tuples(st.just("dup"), segment, segment),
    st.tuples(st.just("close"), st.integers(min_value=0, max_value=63)),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=st.lists(op, min_size=1, max_size=24))
def test_fused_schedule_matches_oracle(schedule):
    pool = MatcherPool(
        SHARED_CACHE,
        config=CONFIG,
        fused=True,
        max_streams=32,
    )
    #: [stream_id, dfa index, bytearray of everything fed]
    open_streams = []

    def check_close(slot):
        sid, didx, fed = open_streams.pop(slot)
        stats = pool.close(sid)
        expected = DFAS[didx].run(bytes(fed))
        assert stats.end_state == expected
        assert stats.accepts == (expected in DFAS[didx].accepting)
        assert stats.total_symbols == len(fed)

    for action in schedule:
        if action[0] == "open":
            didx = action[1]
            if len(open_streams) >= 32:
                continue
            sid = pool.open(DFAS[didx], training_input=TRAININGS[didx])
            open_streams.append([sid, didx, bytearray()])
        elif action[0] == "gang":
            if not open_streams:
                continue
            segments = action[1]
            feeds = [
                (open_streams[i % len(open_streams)][0], seg)
                for i, seg in enumerate(segments)
            ]
            outcomes = pool.feed_many(feeds)
            for i, (seg, outcome) in enumerate(zip(segments, outcomes)):
                assert outcome.ok, outcome
                assert outcome.symbols == len(seg)
                open_streams[i % len(open_streams)][2] += seg
        elif action[0] == "dup":
            # The same stream id twice in one call: segments must apply
            # in input order (wave splitting), never interleaved or lost.
            if not open_streams:
                continue
            first, second = action[1], action[2]
            sid = open_streams[0][0]
            outcomes = pool.feed_many([(sid, first), (sid, second)])
            assert all(o.ok for o in outcomes)
            open_streams[0][2] += first + second
            # After both segments the carried state reflects first+second.
            didx = open_streams[0][1]
            assert outcomes[1].end_state == DFAS[didx].run(
                bytes(open_streams[0][2])
            )
        else:  # close
            if not open_streams:
                continue
            check_close(action[1] % len(open_streams))

    while open_streams:
        check_close(len(open_streams) - 1)
    assert pool.active == 0


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(
        st.integers(min_value=0, max_value=200), min_size=2, max_size=16
    ),
    data=st.data(),
)
def test_fused_ragged_widths_match_oracle(lengths, data):
    """One gang dispatch over maximally ragged lengths (0..200) stays
    bit-identical to running each stream's bytes through ``dfa.run``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    pool = MatcherPool(
        SHARED_CACHE,
        config=CONFIG,
        fused=True,
        max_streams=len(lengths),
    )
    sids, fed = [], []
    for n in lengths:
        sids.append(pool.open(DFAS[0], training_input=TRAININGS[0]))
        fed.append(bytes(rng.integers(97, 123, size=n).astype(np.uint8)))
    outcomes = pool.feed_many(list(zip(sids, fed)))
    assert all(o.ok and o.fused for o in outcomes)
    for sid, payload in zip(sids, fed):
        assert pool.close(sid).end_state == DFAS[0].run(payload)
