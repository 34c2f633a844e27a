"""The four gateway workloads: tenants, seeded traffic and oracle answers.

A workload is a set of tenants (DFA + training bytes; they are the tenant,
not the traffic, so they do not depend on ``--seed``) and a generator that
turns a seed into the complete list of wire operations of a run — set-up,
trials and teardown of every round — with the answer ``DFA.run`` gives for
each.  Everything here runs before any clock starts; the program under
test only ever sees the bytes.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README; the docstrings below say how each one is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.regex import compile_disjunction
from repro.framework.config import GSpecPalConfig
from repro.workloads import classic
from repro.workloads.patterns import PATTERN_GENERATORS
from repro.workloads.suites import build_member
from repro.workloads.traces import ascii_text_weights, binary_weights


@dataclass(frozen=True)
class Tenant:
    """One client of the gateway: the DFA it submits and its training bytes.

    ``answers_in`` is the DFA whose state numbering the served
    ``end_state`` uses: the pool keeps one matcher per language class,
    built from the first variant opened, so a state-renumbered twin gets
    its answers in its sibling's numbering (``accepts`` is the same in
    both).
    """

    name: str
    dfa: DFA
    training: bytes
    answers_in: Optional[DFA] = None

    @property
    def oracle(self) -> DFA:
        return self.answers_in if self.answers_in is not None else self.dfa


@dataclass
class Op:
    """One wire request and the reply the oracle expects.

    ``slot`` names a stream within its round (the server hands out the
    real ids at run time).  ``expect`` is ``None`` for ``open``,
    ``(end_state, accepts)`` for ``feed``, one such pair per item for
    ``feed_many``, and ``(end_state, accepts, segments, symbols)`` for
    ``close``.
    """

    verb: str
    slot: int = -1
    tenant: int = -1
    segment: bytes = b""
    feeds: Sequence[Tuple[int, bytes]] = ()
    expect: object = None

    @property
    def symbols(self) -> int:
        if self.verb == "feed":
            return len(self.segment)
        if self.verb == "feed_many":
            return sum(len(seg) for _, seg in self.feeds)
        return 0


#: One stretch between two calibration readings, ~0.1–0.3 s of work: an op
#: list per connection, started together.
Slice = List[List[Op]]


def _slices(ops: List[Op], size: int) -> List[Slice]:
    """Cut one connection's op list into slices of ``size`` requests."""
    return [[ops[i : i + size]] for i in range(0, len(ops), size)]


@dataclass
class Round:
    """One set-up → trials → teardown cycle, as slices of wire requests."""

    setup: List[Slice]
    trials: List[List[Slice]]
    teardown: Slice
    #: expected ``PlanCache.stats()`` of the round's cache at teardown.
    cache_expect: Dict[str, int] = field(default_factory=dict)


class _Streams:
    """Oracle-side carried state of every open stream of one round."""

    def __init__(self, tenants: Sequence[Tenant]):
        self.tenants = tenants
        self._open: Dict[int, list] = {}
        self._next_slot = 0

    def open(self, tenant: int) -> Op:
        slot = self._next_slot
        self._next_slot += 1
        self._open[slot] = [tenant, self.tenants[tenant].oracle.start, 0, 0]
        return Op("open", slot=slot, tenant=tenant)

    def advance(self, slot: int, segment: bytes, mapping=None) -> Tuple[int, bool]:
        entry = self._open[slot]
        oracle = self.tenants[entry[0]].oracle
        if mapping is None:
            entry[1] = oracle.run(segment, start=entry[1])
        else:
            entry[1] = int(mapping[entry[1]])
        entry[2] += 1
        entry[3] += len(segment)
        return entry[1], entry[1] in oracle.accepting

    def feed(self, slot: int, segment: bytes) -> Op:
        return Op("feed", slot=slot, segment=segment, expect=self.advance(slot, segment))

    def close(self, slot: int) -> Op:
        tenant, state, segments, symbols = self._open.pop(slot)
        accepts = state in self.tenants[tenant].oracle.accepting
        return Op("close", slot=slot, expect=(state, accepts, segments, symbols))

    def state(self, slot: int) -> int:
        return self._open[slot][1]

    @property
    def slots(self) -> List[int]:
        return list(self._open)


def _draw(rng: np.random.Generator, n: int, probs: np.ndarray) -> np.ndarray:
    return rng.choice(256, size=n, p=probs).astype(np.uint8)


def _probs(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum()


class Workload:
    """Base: subclasses set the knobs and implement tenants + rounds."""

    name = ""
    #: the request kind per-request layer times are reported for.
    main_verb = "feed"
    #: the request kind feed latencies are taken from.
    feed_verb = "feed"
    backend = "fast"
    n_threads = 256
    fused = False
    cache_capacity = 64
    connections = 1
    rounds = 3
    trials_per_round = 4
    #: segments per tenant in the untimed sim-backend replay.
    reference_segments = 2

    def __init__(self) -> None:
        self.config = GSpecPalConfig(n_threads=self.n_threads)
        self.tenants: List[Tenant] = self.build_tenants()

    def build_tenants(self) -> List[Tenant]:
        raise NotImplementedError

    def generate(self, seed: int, rounds: int, trials: int) -> List[Round]:
        """Every round of a run, from ``seed`` alone."""
        rng = np.random.default_rng([seed, 0xE2E])
        self.prepare(rng)
        return [self.generate_round(rng, trials) for _ in range(rounds)]

    def prepare(self, rng: np.random.Generator) -> None:
        """Per-seed state shared by the rounds (none by default)."""

    def generate_round(self, rng: np.random.Generator, trials: int) -> Round:
        raise NotImplementedError

    def reference_traffic(self) -> List[Tuple[int, List[bytes]]]:
        """``(tenant, segments)`` fed to the sim-backend replay.

        Drawn by the workload's own segment generator, the same amount for
        every tenant, from a constant seed: like the tenants, the
        reference traffic is part of the workload, not of the run, so the
        modelled cycles of two commits compare exactly whatever seeds and
        sizes they were run with."""
        rng = np.random.default_rng(0x51A)
        return [
            (t, [self.reference_segment(rng, t) for _ in range(self.reference_segments)])
            for t in self.reference_tenants()
        ]

    def reference_tenants(self) -> List[int]:
        return list(range(len(self.tenants)))

    def reference_segment(self, rng: np.random.Generator, tenant: int) -> bytes:
        return bytes(_draw(rng, self.segment_symbols, self._probs))


# ----------------------------------------------------------------------
class SmallFeeds(Workload):
    """32 tiny tenants, 2 connections, open → 24 feeds of 64–512 B → close.

    Every trial serves every tenant once (16 per connection, seeded order),
    so all trials do the same kind of work.  24 of the tenants run ``sre``
    (keyword scanners, the rotator) and 8 run ``rr`` (divisibility), at
    about 1 ms and 2 ms per feed: p50 falls inside the ``sre`` mode and
    p90 inside the ``rr`` mode, neither on the 75 % boundary.
    """

    name = "gw_small_feeds"
    n_threads = 8
    connections = 2
    rounds = 5
    trials_per_round = 3
    feeds_per_stream = 24
    training_symbols = 32768
    reference_segments = 4

    def build_tenants(self) -> List[Tenant]:
        rng = np.random.default_rng(0x5EED)
        self._probs = _probs(ascii_text_weights())
        training = bytes(_draw(rng, self.training_symbols, self._probs))
        dfas = []
        seen = set()
        while len(dfas) < 23:
            word = bytes(rng.integers(97, 123, size=int(rng.integers(5, 13))).astype(np.uint8))
            if word not in seen:
                seen.add(word)
                dfas.append(classic.keyword_scanner(word))
        dfas.append(classic.cyclic_rotator(48))
        dfas.extend(
            classic.divisibility(m, base=10) for m in (7, 11, 13, 17, 19, 23, 29, 31)
        )
        return [Tenant(d.name, d, training) for d in dfas]

    def _segment(self, rng: np.random.Generator) -> bytes:
        return bytes(_draw(rng, int(rng.integers(64, 513)), self._probs))

    def _lifecycle(self, streams, rng, tenant: int, feeds: int) -> List[Op]:
        op = streams.open(tenant)
        ops = [op]
        ops.extend(streams.feed(op.slot, self._segment(rng)) for _ in range(feeds))
        ops.append(streams.close(op.slot))
        return ops

    def generate_round(self, rng, trials):
        streams = _Streams(self.tenants)
        n, conns = len(self.tenants), self.connections
        setup = [  # four cold opens to a slice, two per connection
            [
                [op for t in range(i + c, i + 4, conns)
                 for op in self._lifecycle(streams, rng, t, 0)]
                for c in range(conns)
            ]
            for i in range(0, n, 4)
        ]
        rounds_trials = []
        for _ in range(trials):
            order = [int(t) for t in rng.permutation(n)]
            rounds_trials.append(
                [  # one stream lifecycle per connection to a slice
                    [
                        self._lifecycle(streams, rng, order[i + c], self.feeds_per_stream)
                        for c in range(conns)
                    ]
                    for i in range(0, n, conns)
                ]
            )
        return Round(setup, rounds_trials, [[] for _ in range(conns)])

    def reference_segment(self, rng, tenant):
        return self._segment(rng)


# ----------------------------------------------------------------------
class GangFused(Workload):
    """2 language classes × 12 streams, one ``feed_many`` of 24 × 4 KiB.

    All 24 streams are opened in set-up (2 cold, 22 warm) and carried
    through the round's trials.  Segments come from a per-seed pool whose
    state→state mappings (``DFA.run_all_states``, the vectorized form of
    ``DFA.run``) give the oracle in O(1) per feed — a run answers some
    10^8 symbols, which the scalar oracle cannot re-run.
    """

    name = "gw_gang_fused"
    main_verb = feed_verb = "feed_many"
    fused = True
    rounds = 4
    trials_per_round = 9
    streams_per_class = 12
    requests_per_trial = 24
    requests_per_slice = 8
    segment_symbols = 4096
    pool_segments = 48

    def build_tenants(self) -> List[Tenant]:
        rng = np.random.default_rng(0x6A46)
        self._probs = _probs(ascii_text_weights())
        training = bytes(_draw(rng, 8192, self._probs))
        return [
            Tenant(d.name, d, training)
            for d in (classic.affine_permutation(256, 256, 5), classic.drifting_phase(256))
        ]

    def prepare(self, rng):
        self._pool = [
            bytes(_draw(rng, self.segment_symbols, self._probs))
            for _ in range(self.pool_segments)
        ]
        self._maps = [
            [tenant.dfa.run_all_states(seg) for seg in self._pool]
            for tenant in self.tenants
        ]
        for tenant, maps in zip(self.tenants, self._maps):  # spot-check vs DFA.run
            assert tenant.dfa.run(self._pool[0]) == maps[0][tenant.dfa.start]

    def generate_round(self, rng, trials):
        streams = _Streams(self.tenants)
        opens = [
            streams.open(t)
            for t in range(len(self.tenants))
            for _ in range(self.streams_per_class)
        ]
        slot_tenant = {op.slot: op.tenant for op in opens}
        rounds_trials = []
        for _ in range(trials):
            ops = []
            for _ in range(self.requests_per_trial):
                feeds, expect = [], []
                for slot in rng.permutation(len(opens)):
                    slot = int(slot)
                    pick = int(rng.integers(self.pool_segments))
                    feeds.append((slot, self._pool[pick]))
                    expect.append(
                        streams.advance(
                            slot, self._pool[pick], self._maps[slot_tenant[slot]][pick]
                        )
                    )
                ops.append(Op("feed_many", feeds=feeds, expect=expect))
            rounds_trials.append(_slices(ops, self.requests_per_slice))
        teardown = [[streams.close(slot) for slot in streams.slots]]
        return Round(_slices(opens, 2), rounds_trials, teardown)


# ----------------------------------------------------------------------
class TenantChurn(Workload):
    """12 regex-scanner classes + renumbered twins over a capacity-8 cache.

    Set-up opens every tenant once (class by class: 12 compiles, 12 alias
    hits, 4 evictions).  A trial is 5 lifecycles — open, 2 feeds of 4 KiB,
    close — of which exactly 3 are warm, 1 is an alias (the resident
    plan's twin) and 1 is cold (a class the LRU has evicted), in seeded
    order.  Which class fills each slot is a Zipf(1) draw among the
    classes that qualify, against a model of the cache's LRU.  The exact
    per-trial mix keeps trials alike; the arrival order still decides what
    is resident.
    """

    name = "gw_tenant_churn"
    main_verb = "open"
    n_threads = 64
    cache_capacity = 8
    rounds = 3
    trials_per_round = 10
    segment_symbols = 4096
    feeds_per_stream = 2
    trial_mix = ("warm", "warm", "warm", "alias", "cold")
    #: (pattern seed, pattern count) of ClamAV-style disjunctions that
    #: determinize to 239–269 states in under 0.2 s each: alike in size,
    #: so which class an arrival draws hardly changes what a trial costs.
    classes = (
        (3, 2), (4, 2), (6, 3), (8, 3), (9, 3), (11, 3),
        (14, 3), (15, 3), (17, 2), (36, 3), (59, 2), (68, 3),
    )

    def build_tenants(self) -> List[Tenant]:
        rng = np.random.default_rng(0xC4A2)
        self._probs = _probs(binary_weights())
        training = bytes(_draw(rng, 8192, self._probs))
        tenants = []
        for seed, count in self.classes:
            dfa = compile_disjunction(
                PATTERN_GENERATORS["clamav"](count, seed=seed),
                n_symbols=256,
                name=f"clamav-{seed}x{count}",
            )
            if not 150 <= dfa.n_states <= 400:
                raise RuntimeError(f"{dfa.name}: {dfa.n_states} states, want 150–400")
            twin = dfa.renumbered(rng.permutation(dfa.n_states), name=dfa.name + "-twin")
            tenants.append(Tenant(dfa.name, dfa, training))
            tenants.append(Tenant(twin.name, twin, training, answers_in=dfa))
        ranks = np.arange(1, len(self.classes) + 1, dtype=np.float64)
        self._zipf = 1.0 / ranks
        return tenants

    def generate_round(self, rng, trials):
        streams = _Streams(self.tenants)
        n_classes = len(self.classes)
        resident: Dict[int, int] = {}  # class → variant, least recent first
        expect = {"compiles": 0, "alias_hits": 0, "evictions": 0, "hits": 0, "misses": 0}

        def lifecycle(cls: int, variant: int, feeds: int) -> List[Op]:
            if cls in resident:
                expect["hits"] += 1
                expect["alias_hits"] += resident[cls] != variant
                resident[cls] = resident.pop(cls)  # refresh recency
            else:
                expect["misses"] += 1
                expect["compiles"] += 1
                resident[cls] = variant
                if len(resident) > self.cache_capacity:
                    del resident[next(iter(resident))]
                    expect["evictions"] += 1
            op = streams.open(2 * cls + variant)
            ops = [op]
            for _ in range(feeds):
                segment = bytes(_draw(rng, self.segment_symbols, self._probs))
                ops.append(streams.feed(op.slot, segment))
            ops.append(streams.close(op.slot))
            return ops

        setup = [  # a class and its twin to a slice
            [lifecycle(cls, 0, 0) + lifecycle(cls, 1, 0)] for cls in range(n_classes)
        ]

        def pick(candidates: List[int]) -> int:
            weights = self._zipf[candidates]
            return int(rng.choice(candidates, p=weights / weights.sum()))

        rounds_trials = []
        for _ in range(trials):
            slices = []  # one lifecycle to a slice
            for kind in rng.permutation(self.trial_mix):
                if kind == "cold":
                    cls = pick([c for c in range(n_classes) if c not in resident])
                    variant = int(rng.integers(2))
                else:
                    cls = pick(list(resident))
                    variant = resident[cls] ^ (kind == "alias")
                slices.append([lifecycle(cls, variant, self.feeds_per_stream)])
            rounds_trials.append(slices)
        return Round(setup, rounds_trials, [[]], cache_expect=dict(expect))

    def reference_tenants(self):
        return list(range(0, len(self.tenants), 2))  # one per language class


# ----------------------------------------------------------------------
class SimSuite(Workload):
    """PowerEN members 1, 2, 3, 4, 10 on the sim backend, 64 KiB feeds.

    The five members (pm, pm, sre, nf, rr) are opened cold in set-up and
    carried; a trial feeds one segment to each, in seeded order.  A
    segment is redrawn until the stream's true state stays outside the
    scanner's sticky match: a completed match parks the stream in another
    cost regime for good, which would make seeds bimodal.  With five
    equal-weight tenants p50 is the middle member's feed and p90 the
    slowest member's.
    """

    name = "gw_sim_suite"
    backend = "sim"
    rounds = 3
    trials_per_round = 5
    members = (1, 2, 3, 4, 10)
    segment_symbols = 65536
    reference_segments = 1

    def build_tenants(self) -> List[Tenant]:
        self._members = [build_member("poweren", i) for i in self.members]
        self._matched = [_closure(m.dfa, m.dfa.accepting) for m in self._members]
        return [
            Tenant(m.name, m.dfa, bytes(m.training_input(8192))) for m in self._members
        ]

    def _segment(self, rng, tenant: int, state: int) -> Tuple[bytes, int]:
        member = self._members[tenant]
        for _ in range(64):
            segment = bytes(
                member.generate_input(self.segment_symbols, seed=int(rng.integers(2**31)))
            )
            end = member.dfa.run(segment, start=state)
            if not self._matched[tenant][end]:
                return segment, end
        raise RuntimeError(f"{member.name}: no match-free segment in 64 draws")

    def generate_round(self, rng, trials):
        streams = _Streams(self.tenants)
        opens = [streams.open(t) for t in range(len(self.tenants))]
        rounds_trials = []
        for _ in range(trials):
            ops = []
            for i in rng.permutation(len(opens)):
                op = opens[int(i)]
                segment, _end = self._segment(rng, op.tenant, streams.state(op.slot))
                ops.append(streams.feed(op.slot, segment))
            rounds_trials.append(_slices(ops, 1))
        teardown = [[streams.close(slot) for slot in streams.slots]]
        return Round(_slices(opens, 1), rounds_trials, teardown)

    def reference_segment(self, rng, tenant):
        return self._segment(rng, tenant, self.tenants[tenant].dfa.start)[0]


def _closure(dfa: DFA, seeds) -> np.ndarray:
    """Mask of the states reachable from ``seeds``.

    A suite member accepts on (scanner matched) ∧ (counter = 0) and the
    scanner's match is sticky, so the closure of the accepting states is
    exactly "the scanner has completed a match".
    """
    mask = np.zeros(dfa.n_states, dtype=bool)
    frontier = np.fromiter(seeds, dtype=np.int64)
    while frontier.size:
        mask[frontier] = True
        reached = np.unique(dfa.table[frontier])
        frontier = reached[~mask[reached]]
    return mask


WORKLOADS = {cls.name: cls for cls in (SmallFeeds, GangFused, TenantChurn, SimSuite)}
