"""StreamSession invariants: carried state, accept tracking, accounting.

``test_streaming_and_matching.py`` checks the matcher semantics; this file
pins down the session object itself — that feeding a stream in k segments is
state-equivalent to one shot for *any* k, that ``accepts``/``segments``
track the carried state, that cycles accumulate per segment, and that a
traced session nests one ``stream.feed`` span per segment.
"""

import numpy as np
import pytest

from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer


@pytest.fixture()
def pal(scanner_dfa, rng):
    training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
    return GSpecPal(
        scanner_dfa, GSpecPalConfig(n_threads=8), training_input=training
    )


def segment(data, k):
    """Split ``data`` into k near-equal contiguous pieces (all non-empty)."""
    n = len(data)
    bounds = np.linspace(0, n, k + 1).astype(int)
    return [data[bounds[i] : bounds[i + 1]] for i in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_k_segment_state_equals_one_shot(pal, scanner_dfa, rng, k):
    data = bytes(rng.integers(97, 123, size=640).astype(np.uint8))
    session = pal.stream(scheme="rr")
    for piece in segment(data, k):
        session.feed(piece)
    assert session.state == scanner_dfa.run(data)
    assert session.segments == k
    assert session.total_symbols == len(data)


def test_accepts_property_tracks_carried_state(scanner_dfa, rng):
    training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
    pal = GSpecPal(
        scanner_dfa, GSpecPalConfig(n_threads=4), training_input=training
    )
    session = pal.stream(scheme="sre")
    assert not session.accepts  # fresh session sits at q0
    filler = bytes(rng.integers(101, 119, size=64).astype(np.uint8))
    session.feed(filler)
    assert not session.accepts
    # Sticky accept: once "abc" matches mid-segment, the state stays final.
    session.feed(b"abc" + filler)
    assert session.accepts
    session.feed(filler)
    assert session.accepts


def test_cycles_accumulate_per_segment(pal, rng):
    from repro.engine import resolve_backend_name

    data = bytes(rng.integers(97, 123, size=480).astype(np.uint8))
    session = pal.stream(scheme="nf")
    per_segment = [session.feed(piece).cycles for piece in segment(data, 3)]
    if resolve_backend_name(None) == "sim":
        assert all(c > 0 for c in per_segment)
        assert session.total_cycles == pytest.approx(sum(per_segment))
    else:
        # Answer-only backend: the accumulated figure would be a lie, so
        # the session reports NaN instead.
        assert np.isnan(session.total_cycles)


def test_each_scheme_preserves_segmented_equivalence(scanner_dfa, rng):
    data = bytes(rng.integers(97, 123, size=400).astype(np.uint8))
    training = bytes(rng.integers(97, 123, size=200).astype(np.uint8))
    truth = scanner_dfa.run(data)
    for scheme in GSpecPal.SELECTABLE + ("seq", "spec-seq"):
        pal = GSpecPal(
            scanner_dfa, GSpecPalConfig(n_threads=8), training_input=training
        )
        session = pal.stream(scheme=scheme)
        for piece in segment(data, 4):
            session.feed(piece)
        assert session.state == truth, scheme


def test_session_reuses_one_scheme_instance(pal, rng, monkeypatch):
    """Regression: feeding N same-scheme segments must build the scheme
    exactly once — per-segment re-instantiation was pure constructor waste
    (schemes hold no cross-run state)."""
    calls = []
    original = pal.build_scheme

    def counting(name):
        calls.append(name)
        return original(name)

    monkeypatch.setattr(pal, "build_scheme", counting)
    session = pal.stream(scheme="rr")
    for _ in range(5):
        session.feed(bytes(rng.integers(97, 123, size=128).astype(np.uint8)))
    assert calls == ["rr"]
    assert session.segments == 5


def test_session_rebuilds_on_scheme_change(pal, rng, monkeypatch):
    calls = []
    original = pal.build_scheme

    def counting(name):
        calls.append(name)
        return original(name)

    monkeypatch.setattr(pal, "build_scheme", counting)
    session = pal.stream(scheme="rr")
    data = bytes(rng.integers(97, 123, size=128).astype(np.uint8))
    session.feed(data)
    session._scheme = "nf"  # simulate a per-segment selection flip
    session.feed(data)
    session.feed(data)
    assert calls == ["rr", "nf"]


def test_traced_session_emits_one_feed_span_per_segment(scanner_dfa, rng):
    training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
    tracer = Tracer()
    pal = GSpecPal(
        scanner_dfa,
        GSpecPalConfig(n_threads=8),
        training_input=training,
        tracer=tracer,
    )
    data = bytes(rng.integers(97, 123, size=320).astype(np.uint8))
    session = pal.stream(scheme="rr")
    for piece in segment(data, 3):
        session.feed(piece)
    feeds = tracer.find_all("stream.feed")
    assert len(feeds) == 3
    assert [s.attrs["segment"] for s in feeds] == [0, 1, 2]
    # Each feed span carries the state handoff and nests the scheme run.
    for i, span in enumerate(feeds):
        assert span.attrs["scheme"] == "rr"
        assert any(c.name.startswith("scheme:") for c in span.children)
        if i:
            assert span.attrs["carried_state"] == feeds[i - 1].attrs["end_state"]


def test_scheme_property_exposes_run_scheme(pal, rng):
    """The public ``scheme`` property: None before an unforced session has
    consulted the selector, the forced name immediately when forced, and
    the actually-run scheme once fed (no private attribute reaching)."""
    unforced = pal.stream()
    assert unforced.scheme is None
    unforced.feed(bytes(rng.integers(97, 123, size=128).astype(np.uint8)))
    assert unforced.scheme is not None

    forced = pal.stream(scheme="rr")
    assert forced.scheme == "rr"  # known before any segment runs
    forced.feed(b"abc" * 16)
    assert forced.scheme == "rr"


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("length", [0, 1, 7, 8])
def test_segment_shorter_than_the_thread_count_runs_sequentially(
    scanner_dfa, rng, backend, length
):
    """Fewer symbols than threads cannot be partitioned: on ``sim`` the
    segment takes one ``seq`` lane from the carried state; on ``fast``
    every segment here is below the speculation crossover and is one
    walk.  Either way the stream goes on under its selected scheme with no
    switch counted."""
    training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
    pal = GSpecPal(
        scanner_dfa,
        GSpecPalConfig(n_threads=8, backend=backend),
        training_input=training,
    )
    head = bytes(rng.integers(97, 123, size=40).astype(np.uint8))
    short = b"abcabcab"[:length]
    session = pal.stream()
    session.feed(head)
    selected = session.scheme
    result = session.feed(short)
    assert result.end_state == session.state == scanner_dfa.run(head + short)
    assert result.accepts == session.accepts
    if backend == "fast":
        assert result.scheme == "walk"
        assert selected == pal.plan.scheme
    else:
        assert result.scheme == ("seq" if length < 8 else selected)
    if length < 8 or backend == "fast":
        # no boundary was verified: nothing for the drift monitor to sample
        assert result.observations.spec_hits == result.observations.spec_misses == 0
    session.feed(head)
    assert session.state == scanner_dfa.run(head + short + head)
    assert (session.scheme, session.scheme_switches) == (selected, 0)
    assert (session.segments, session.total_symbols) == (3, 80 + length)


def test_short_first_feed_needs_no_training_input(scanner_dfa):
    """ROADMAP item 5's one-line repro: used to raise ``SchemeError: input
    of 2 symbols cannot be split into 8 chunks``."""
    session = GSpecPal(
        scanner_dfa, GSpecPalConfig(n_threads=8, backend="fast")
    ).stream()
    assert session.feed(b"ab").end_state == scanner_dfa.run(b"ab")
    assert session.feed(b"cabcabcabc").end_state == scanner_dfa.run(b"abcabcabcabc")
