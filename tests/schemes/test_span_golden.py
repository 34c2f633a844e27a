"""Golden of every registered scheme's span tree on the sim backend.

For each ``SCHEME_REGISTRY`` scheme, on the non-converging rotator
(mismatch-heavy: recovery rounds every frontier) and on a converging
scanner, the ``scheme:<name>`` tree is pinned span by span: name, depth,
``cycle_start``/``cycle_end`` and attributes.  Twelve threads give RR
rounds with fewer idle threads than rear chunks and with more.  A refactor of the
scheme layer must leave this file untouched.

Regenerate (only when the modelled algorithm changes on purpose) with
``PYTHONPATH=src python -m tests.schemes.test_span_golden``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.automata import compile_disjunction
from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer
from repro.observability.tracer import _json_default
from repro.schemes import SCHEME_REGISTRY
from repro.workloads import classic

GOLDEN_PATH = Path(__file__).with_name("span_golden.json")
N_THREADS = 12


def _cases():
    """FSM name -> (dfa, training bytes, data bytes)."""
    rng = np.random.default_rng(2024)
    rotator = classic.cyclic_rotator(12, n_symbols=64)
    scanner = compile_disjunction(
        ["abc", "a(b|c){2,4}d", "xy+z"], n_symbols=128, name="test-scanner"
    )

    def stream(length, lo, hi):
        return bytes(rng.integers(lo, hi, size=length).astype(np.uint8))

    return {
        "rotator": (rotator, stream(160, 0, 64), stream(420, 0, 64)),
        "scanner": (scanner, stream(160, 97, 123), stream(420, 97, 123)),
    }


def _tree(span):
    record = {
        "name": span.name,
        "depth": span.depth,
        "cycle_start": span.cycle_start,
        "cycle_end": span.cycle_end,
        "attrs": span.attrs,
    }
    yield json.loads(json.dumps(record, default=_json_default))
    for child in span.children:
        yield from _tree(child)


def capture():
    """``{"<fsm>/<scheme>": [span record, ...]}`` for every case."""
    out = {}
    for fsm, (dfa, training, data) in _cases().items():
        tracer = Tracer()
        pal = GSpecPal(
            dfa,
            GSpecPalConfig(n_threads=N_THREADS, backend="sim"),
            training_input=training,
            tracer=tracer,
        )
        for name in SCHEME_REGISTRY:
            tracer.clear()
            pal.build_scheme(name).run(data)
            (root,) = [s for s in tracer.roots if s.name.startswith("scheme:")]
            out[f"{fsm}/{name}"] = list(_tree(root))
    return out


CASES = [f"{fsm}/{name}" for fsm in ("rotator", "scanner") for name in SCHEME_REGISTRY]


@pytest.fixture(scope="module")
def captured():
    return capture()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_registered_scheme(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_span_tree_matches_golden(captured, golden, case):
    assert captured[case] == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
