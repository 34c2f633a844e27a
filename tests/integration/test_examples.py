"""Examples must at least import (every name they import must exist); the
quickstart's core path is executed end-to-end at a reduced size."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    """Every example guards ``main``, so importing runs only its imports."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "intrusion_detection.py", "virus_scanning.py",
            "scheme_explorer.py", "latency_story.py"} <= names


def test_quickstart_core_path():
    """The quickstart's flow at 1/8 scale."""
    from repro import GSpecPal, GSpecPalConfig
    from repro.workloads import classic

    rng = np.random.default_rng(42)
    dfa = classic.div7()
    stream = rng.integers(ord("0"), ord("1") + 1, size=8_192).astype(np.uint8)
    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=64))
    result = pal.run(stream)
    assert result.end_state == dfa.run(stream)
    comparison = pal.compare_schemes(stream)
    assert len(comparison) == 5  # pm, sre, rr, nf, sfa
