"""The serving pool's bookkeeping as one thread-free state object.

:class:`PoolState` holds everything :class:`~repro.serving.MatcherPool`
guards with its lock — admission slots, the open streams, the class
records with their stream counts, the plans of pruned records, and the
fused unions of recent class sets — and changes it only through one
method per transition.  It takes no lock and
starts no thread: the pool applies each transition under its lock, and a
test drives it directly (``tests/serving/test_pool_state.py``).  Like a
register updated as ``(state | into) & ~out``, each transition's
docstring names what it *sets* and what it *clears*:

========  =============================================  =======================
reserve   one reservation (refused at capacity)          —
release   —                                              one reservation
admit     an entry; its record's ``streams`` + 1;        one reservation; the
          ``next_id`` + 1; a record for a new class      class's retained plan
retire    — (then prunes)                                the entry; its
                                                         record's ``streams`` − 1
lookup    —                                              —
adopt     the record's plan; its monitor's anchors       the monitor's latch
union     the hit union as the most recently used        —
keep      a class set's union, if its records are live   the least recently
                                                         used union past
                                                         ``max_unions``
prune     the retained plan of each dropped record       each record no stream
                                                         holds whose plan the
                                                         cache evicted; each
                                                         union naming one
========  =============================================  =======================

:meth:`PoolState.check` states the invariants every transition keeps.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ServingError

#: A class record's key: (canonical fingerprint, config hash).
ClassKey = Tuple[str, str]


def closed_error(stream_id, fingerprint: Optional[str] = None) -> ServingError:
    """The structured error for a feed or close of a closed stream."""
    return ServingError(
        f"stream {stream_id} is closed",
        code="stream_closed", stream_id=stream_id, fingerprint=fingerprint,
    )


class ClassRecord:
    """One language class under one compile config: its warmed matcher
    and, with drift detection on, its monitor (``None`` otherwise).

    Held by every stream opened on its ``key``, which is also the
    gang-scheduling unit: streams sharing a record run one transition
    table.  ``streams`` counts those holders.
    """

    __slots__ = ("key", "matcher", "monitor", "streams")

    def __init__(self, key: ClassKey, matcher, monitor=None):
        self.key = key
        self.matcher = matcher
        self.monitor = monitor
        self.streams = 0


class StreamEntry:
    """One open stream: its session, the content fingerprint of the plan
    it was opened with, and the class record that serves it.

    ``lock`` serializes feed/close on this stream only; ``closed`` flips
    exactly once, under that lock, so a feed that raced the close observes
    it instead of touching the released session.  ``forced`` marks a
    stream opened with a forced scheme: its accuracy describes that
    scheme, not the plan's selection, so it feeds no drift evidence.
    """

    __slots__ = ("session", "fingerprint", "record", "forced", "lock", "closed")

    def __init__(self, session, fingerprint: str, record: ClassRecord, forced: bool):
        self.session = session
        self.fingerprint = fingerprint
        self.record = record
        self.forced = forced
        self.lock = threading.Lock()
        self.closed = False


class PoolState:
    """Admission slots, open streams, class records, retained plans and
    fused unions.

    ``resident(canonical_fingerprint)`` answers whether the plan cache
    still holds a class's plan; :meth:`prune` asks it (the pool passes
    the cache's ``__contains__``, keeping the pool → cache lock order).
    At most ``max_unions`` unions are kept (the pool passes the plan
    cache's capacity).  Attributes are the read API; change them only
    through the transitions.
    """

    def __init__(
        self, max_streams: int, resident: Callable[[str], bool], max_unions: int
    ):
        self.max_streams = max_streams
        self.resident = resident
        self.max_unions = max_unions
        #: slots held by opens still compiling: they count against
        #: ``max_streams`` but have no entry yet.
        self.reserved = 0
        self.entries: Dict[int, StreamEntry] = {}
        #: the next stream id; ids are handed out in order, never reused.
        self.next_id = 0
        self.classes: Dict[ClassKey, ClassRecord] = {}
        #: key of a pruned record → the plan it served; a rebuild starts
        #: from it, so the class keeps the numbering of its first variant.
        self.pruned: Dict[ClassKey, object] = {}
        #: class set (its records in key order) → the fused union its
        #: ``feed_many`` waves step, least recently used first; every
        #: record in a kept set is live.
        self.unions: Dict[Tuple[ClassRecord, ...], object] = {}

    @property
    def active(self) -> int:
        """Number of open streams."""
        return len(self.entries)

    def reserve(self) -> bool:
        """Sets one reservation if a slot is free; at capacity sets
        nothing and returns False."""
        if len(self.entries) + self.reserved >= self.max_streams:
            return False
        self.reserved += 1
        return True

    def release(self) -> None:
        """Clears one reservation: its open failed before :meth:`admit`."""
        self.reserved -= 1

    def admit(self, plan, build, open_session, forced: bool) -> int:
        """Turns one reservation into an open stream on ``plan``'s class;
        returns the stream id.

        Sets the entry, its record's ``streams`` + 1 and ``next_id`` + 1;
        a key with no live record first gets one from ``build(key,
        plan)``, fed the key's retained plan if it has one.  Clears the
        reservation and the key's retained plan, then prunes.  If
        ``build`` or ``open_session(matcher)`` raises, it clears the
        reservation and sets nothing.
        """
        key = (plan.canonical_fingerprint, plan.config_hash)
        try:
            record = self.classes.get(key) or build(key, self.pruned.get(key, plan))
            session = open_session(record.matcher)
        except BaseException:
            self.reserved -= 1
            raise
        self.classes[key] = record
        self.pruned.pop(key, None)
        self.reserved -= 1
        stream_id = self.next_id
        self.next_id += 1
        self.entries[stream_id] = StreamEntry(session, plan.fingerprint, record, forced)
        record.streams += 1
        self.prune()
        return stream_id

    def retire(self, stream_id: int) -> StreamEntry:
        """Clears an open stream's entry and its hold on its record
        (``streams`` − 1), then prunes; returns the entry."""
        entry = self.entries.pop(stream_id)
        entry.record.streams -= 1
        self.prune()
        return entry

    def lookup(self, stream_id) -> StreamEntry:
        """The open stream ``stream_id``; sets and clears nothing.

        A miss is classified exactly: an ``int`` below ``next_id`` was
        opened and has closed (``code="stream_closed"``); anything else —
        a ``bool``, a float, an id never handed out — is
        ``code="unknown_stream"``.
        """
        if type(stream_id) is int:
            entry = self.entries.get(stream_id)
            if entry is not None:
                return entry
            if 0 <= stream_id < self.next_id:
                raise closed_error(stream_id)
        raise ServingError(
            f"unknown stream id {stream_id}", code="unknown_stream", stream_id=stream_id
        )

    def adopt(self, record: ClassRecord, plan) -> int:
        """Sets ``record``'s plan to its revision ``plan`` and re-anchors
        its monitor; clears the monitor's latch and evidence.  Returns the
        segments observed between the trigger and this re-arm."""
        record.matcher.adopt_plan(plan)
        return record.monitor.rearm(plan)

    def union(self, records: Tuple[ClassRecord, ...]):
        """The union kept for the class set ``records``, else ``None``;
        sets a hit as the most recently used."""
        union = self.unions.pop(records, None)
        if union is not None:
            self.unions[records] = union
        return union

    def keep(self, records: Tuple[ClassRecord, ...], union) -> None:
        """Sets ``union`` as the class set's, most recently used, if every
        record in the set is live (a set naming a pruned record is never
        looked up again); clears the least recently used unions past
        ``max_unions``."""
        if all(self.classes.get(record.key) is record for record in records):
            self.unions.pop(records, None)  # re-inserted as the most recent
            self.unions[records] = union
            while len(self.unions) > self.max_unions:
                del self.unions[next(iter(self.unions))]

    def prune(self) -> None:
        """Clears every record no stream holds whose plan the cache no
        longer holds, and each union naming one; sets each dropped
        record's retained plan (the plan its matcher served)."""
        dropped = set()
        for key, record in list(self.classes.items()):
            if not record.streams and not self.resident(key[0]):
                self.pruned[key] = record.matcher.plan
                del self.classes[key]
                dropped.add(record)
        for records in [rs for rs in self.unions if dropped.intersection(rs)]:
            del self.unions[records]

    def check(self) -> None:
        """Raise ``AssertionError`` naming every broken invariant."""
        held = Counter(entry.record for entry in self.entries.values())
        room = self.max_streams - len(self.entries)
        invariants = {
            "0 <= reserved <= max_streams - active": 0 <= self.reserved <= room,
            "each record's streams counts the entries holding it": all(
                record.streams == held[record] for record in self.classes.values()
            ),
            "no key is both live and pruned": not self.classes.keys() & self.pruned,
            "every entry's record is live": all(
                self.classes.get(record.key) is record for record in held
            ),
            "every stream id is below next_id": all(
                0 <= sid < self.next_id for sid in self.entries
            ),
            "every kept union's records are live": all(
                self.classes.get(record.key) is record
                for records in self.unions
                for record in records
            ),
            "at most max_unions unions are kept": len(self.unions)
            <= self.max_unions,
        }
        broken = [name for name, holds in invariants.items() if not holds]
        if broken:
            raise AssertionError("pool state: " + "; ".join(broken))
