"""``PoolState`` driven directly: a hypothesis state machine over the pool's
bookkeeping transitions, with no threads, no locks and no matchers.

Stand-ins replace what the pool hands the state: plans are named tuples
keyed like real ones, a class record's matcher only remembers its plan,
and residency in the plan cache is a set the machine evicts from.  A model
beside the state tracks the open and closed ids, the reservations and the
plan each class answers in; :meth:`PoolState.check` runs after every step.
CI's fuzz job reruns this file under the ``fuzz`` hypothesis profile
(``tests/conftest.py``) for a larger example budget.
"""

from __future__ import annotations

from collections import namedtuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ServingError
from repro.serving.state import ClassRecord, PoolState

Plan = namedtuple("Plan", "fingerprint canonical_fingerprint config_hash revision")

MAX_STREAMS = 4
MAX_UNIONS = 2
CLASSES = ("c0", "c1", "c2")
CONFIGS = ("k0", "k1")
#: Never handed out: a run opens far fewer streams.
UNKNOWN_IDS = st.one_of(st.integers(max_value=-1), st.integers(min_value=10**6))
#: Equal to an id ``open`` may have returned, but not an ``int``.
NON_INT_IDS = st.one_of(
    st.booleans(),
    st.integers(0, 8).map(float),
    st.integers(0, 8).map(str),
    st.none(),
)


class Matcher:
    """A matcher reduced to the plan it serves."""

    def __init__(self, plan):
        self.plan = plan

    def adopt_plan(self, plan):
        assert plan.fingerprint == self.plan.fingerprint
        assert plan.config_hash == self.plan.config_hash
        self.plan = plan


class Monitor:
    def rearm(self, plan) -> int:
        return 0


class Refused(Exception):
    """A build or session open that fails inside ``admit``."""


def expect_error(code, call, *args):
    try:
        call(*args)
    except ServingError as exc:
        assert exc.code == code, (exc.code, code)
    else:
        raise AssertionError(f"expected a {code} error")


class PoolStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.resident = set()
        self.state = PoolState(MAX_STREAMS, self.resident.__contains__, MAX_UNIONS)
        self.reserved = 0
        self.open = {}  # stream id -> class key
        self.closed = set()
        self.issued = 0
        #: class key -> the plan its answers use: the first variant
        #: opened, then each revision adopted; kept across prunes.
        self.serving = {}
        #: every record the state has held, pruned ones included.
        self.records = []

    # -- admission --
    @rule()
    def reserve(self):
        free = len(self.open) + self.reserved < MAX_STREAMS
        assert self.state.reserve() is free
        self.reserved += free

    @precondition(lambda self: self.reserved)
    @rule()
    def abandon(self):
        self.state.release()
        self.reserved -= 1

    @precondition(lambda self: self.reserved)
    @rule(
        canonical=st.sampled_from(CLASSES),
        config=st.sampled_from(CONFIGS),
        variant=st.integers(0, 2),
        forced=st.booleans(),
        failure=st.sampled_from([None, "build", "session"]),
    )
    def admit(self, canonical, config, variant, forced, failure):
        key = (canonical, config)
        plan = Plan(f"{canonical}/{variant}", canonical, config, 0)
        self.resident.add(canonical)  # the open compiled or put its plan

        def build(build_key, start):
            assert build_key == key
            if failure == "build":
                raise Refused
            return ClassRecord(build_key, Matcher(start), Monitor())

        def open_session(matcher):
            if failure is not None:
                raise Refused
            return object()

        before = (dict(self.state.entries), dict(self.state.classes), self.issued)
        try:
            stream_id = self.state.admit(plan, build, open_session, forced)
        except Refused:
            assert failure is not None
            after = (dict(self.state.entries), dict(self.state.classes), self.issued)
            assert after == before
        else:
            assert failure is None
            assert stream_id == self.issued
            self.issued += 1
            self.open[stream_id] = key
            record = self.state.classes[key]
            assert record.matcher.plan is self.serving.setdefault(key, plan)
            if record not in self.records:
                self.records.append(record)
            assert self.state.entries[stream_id].forced is forced
        self.reserved -= 1

    # -- streams --
    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def close(self, data):
        stream_id = data.draw(st.sampled_from(sorted(self.open)))
        entry = self.state.retire(stream_id)
        assert entry.record.key == self.open.pop(stream_id)
        self.closed.add(stream_id)

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def lookup_open(self, data):
        stream_id = data.draw(st.sampled_from(sorted(self.open)))
        assert self.state.lookup(stream_id).record.key == self.open[stream_id]

    @precondition(lambda self: self.closed)
    @rule(data=st.data())
    def lookup_closed(self, data):
        stream_id = data.draw(st.sampled_from(sorted(self.closed)))
        expect_error("stream_closed", self.state.lookup, stream_id)

    @rule(stream_id=UNKNOWN_IDS)
    def lookup_unknown(self, stream_id):
        expect_error("unknown_stream", self.state.lookup, stream_id)

    @rule(stream_id=NON_INT_IDS)
    def lookup_non_int(self, stream_id):
        expect_error("unknown_stream", self.state.lookup, stream_id)

    # -- class records --
    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def evict_then_prune(self, data):
        canonical = data.draw(st.sampled_from(sorted(self.resident)))
        self.resident.discard(canonical)
        live = dict(self.state.classes)
        self.state.prune()
        for key, record in live.items():
            kept = record.streams or key[0] in self.resident
            assert (key in self.state.classes) == bool(kept)
            if not kept:
                assert self.state.pruned[key] is self.serving[key]

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def adopt_revision(self, data):
        stream_id = data.draw(st.sampled_from(sorted(self.open)))
        record = self.state.lookup(stream_id).record
        revised = record.matcher.plan._replace(
            revision=record.matcher.plan.revision + 1
        )
        assert self.state.adopt(record, revised) == 0
        assert record.matcher.plan is revised
        self.serving[record.key] = revised

    # -- fused unions --
    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def keep_union(self, data):
        chosen = data.draw(st.sets(st.sampled_from(self.records), min_size=1))
        records = tuple(sorted(chosen, key=lambda record: record.key))
        live = all(self.state.classes.get(r.key) is r for r in records)
        before = list(self.state.unions)
        union = object()
        self.state.keep(records, union)
        if live:
            assert list(self.state.unions)[-1] == records
            assert self.state.unions[records] is union
            kept = [rs for rs in before if rs != records] + [records]
            assert list(self.state.unions) == kept[-MAX_UNIONS:]
        else:  # a set naming a pruned record is never looked up again
            assert list(self.state.unions) == before

    @precondition(lambda self: self.state.unions)
    @rule(data=st.data())
    def look_up_union(self, data):
        records = data.draw(st.sampled_from(list(self.state.unions)))
        union = self.state.unions[records]
        assert self.state.union(records) is union
        assert list(self.state.unions)[-1] == records

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def miss_union(self, data):
        records = (data.draw(st.sampled_from(self.records)),)
        if records not in self.state.unions:
            before = list(self.state.unions)
            assert self.state.union(records) is None
            assert list(self.state.unions) == before

    # -- invariants --
    @invariant()
    def consistent(self):
        self.state.check()
        assert self.state.reserved == self.reserved
        assert self.state.next_id == self.issued
        assert {
            stream_id: entry.record.key
            for stream_id, entry in self.state.entries.items()
        } == self.open

    def teardown(self):
        # Each open still compiling gives its slot back; then close_all.
        for _ in range(self.state.reserved):
            self.state.release()
        for stream_id in tuple(self.state.entries):
            self.state.retire(stream_id)
        self.state.check()
        assert self.state.active == self.state.reserved == 0


TestPoolState = PoolStateMachine.TestCase
TestPoolState.settings = settings(deadline=None)
