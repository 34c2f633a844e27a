"""Golden of the in-process path: ``GSpecPal(...).run`` cycle-for-cycle.

Captured on commit 018ebed (the last one with a profiling path of its own
inside ``GSpecPal``) *before* the framework became sugar over
``compile_plan``: every forced scheme and the selector's pick, on two
``workloads.classic`` FSMs, with and without the Fig. 4 transformation,
trained on an explicit sample and on the leading slice of the data.  The
device is small enough that the hot set matters, and the explicit sample is
calmer than the data, so the frequency profile, the permutation and the
selection all reach the cycle figures.  The e2e benchmark's
``sim_cycles_per_symbol`` pins the pool path only; this pins the library
path.
"""

import pytest

from repro.framework import GSpecPal, GSpecPalConfig
from repro.gpu.device import DeviceSpec
from repro.workloads import classic

DEVICE = DeviceSpec(
    name="test-gpu",
    n_sms=4,
    cores_per_sm=32,
    warp_size=8,
    shared_memory_bytes_per_sm=16 * 1024,
    max_resident_warps_per_sm=8,
)
DFAS = {
    "rotator": lambda: classic.cyclic_rotator(24),
    "drifting": lambda: classic.drifting_phase(64),
}

#: (fsm, use_transformation, training, requested) -> (scheme, end_state, cycles)
GOLDEN = {
    ('rotator', True, 'explicit', 'pm'): ('pm-spec4', 8, 500697.0),
    ('rotator', True, 'explicit', 'sre'): ('sre', 8, 150703.0),
    ('rotator', True, 'explicit', 'rr'): ('rr', 8, 191562.0),
    ('rotator', True, 'explicit', 'nf'): ('nf', 8, 191598.0),
    ('rotator', True, 'explicit', 'sfa'): ('sfa', 8, 77739.0),
    ('rotator', True, 'explicit', 'spec-seq'): ('spec-seq', 8, 392920.0),
    ('rotator', True, 'explicit', 'auto'): ('rr', 8, 191562.0),
    ('rotator', True, 'sliced', 'pm'): ('pm-spec4', 8, 500697.0),
    ('rotator', True, 'sliced', 'sre'): ('sre', 8, 150703.0),
    ('rotator', True, 'sliced', 'rr'): ('rr', 8, 191562.0),
    ('rotator', True, 'sliced', 'nf'): ('nf', 8, 191598.0),
    ('rotator', True, 'sliced', 'sfa'): ('sfa', 8, 77739.0),
    ('rotator', True, 'sliced', 'spec-seq'): ('spec-seq', 8, 392920.0),
    ('rotator', True, 'sliced', 'auto'): ('rr', 8, 191562.0),
    ('rotator', False, 'explicit', 'pm'): ('pm-spec4', 8, 570585.0),
    ('rotator', False, 'explicit', 'sre'): ('sre', 8, 170671.0),
    ('rotator', False, 'explicit', 'rr'): ('rr', 8, 211530.0),
    ('rotator', False, 'explicit', 'nf'): ('nf', 8, 211566.0),
    ('rotator', False, 'explicit', 'sfa'): ('sfa', 8, 85227.0),
    ('rotator', False, 'explicit', 'spec-seq'): ('spec-seq', 8, 447832.0),
    ('rotator', False, 'explicit', 'auto'): ('rr', 8, 211530.0),
    ('rotator', False, 'sliced', 'pm'): ('pm-spec4', 8, 570585.0),
    ('rotator', False, 'sliced', 'sre'): ('sre', 8, 170671.0),
    ('rotator', False, 'sliced', 'rr'): ('rr', 8, 211530.0),
    ('rotator', False, 'sliced', 'nf'): ('nf', 8, 211566.0),
    ('rotator', False, 'sliced', 'sfa'): ('sfa', 8, 85227.0),
    ('rotator', False, 'sliced', 'spec-seq'): ('spec-seq', 8, 447832.0),
    ('rotator', False, 'sliced', 'auto'): ('rr', 8, 211530.0),
    ('drifting', True, 'explicit', 'pm'): ('pm-spec4', 3, 185861.0),
    ('drifting', True, 'explicit', 'sre'): ('sre', 3, 249218.0),
    ('drifting', True, 'explicit', 'rr'): ('rr', 3, 202133.0),
    ('drifting', True, 'explicit', 'nf'): ('nf', 3, 196627.0),
    ('drifting', True, 'explicit', 'sfa'): ('sfa', 3, 78784.5),
    ('drifting', True, 'explicit', 'spec-seq'): ('spec-seq', 3, 241377.0),
    ('drifting', True, 'explicit', 'auto'): ('pm-spec4', 3, 185861.0),
    ('drifting', True, 'sliced', 'pm'): ('pm-spec4', 3, 184916.0),
    ('drifting', True, 'sliced', 'sre'): ('sre', 3, 247818.0),
    ('drifting', True, 'sliced', 'rr'): ('rr', 3, 206313.0),
    ('drifting', True, 'sliced', 'nf'): ('nf', 3, 201481.0),
    ('drifting', True, 'sliced', 'sfa'): ('sfa', 3, 78700.5),
    ('drifting', True, 'sliced', 'spec-seq'): ('spec-seq', 3, 239303.0),
    ('drifting', True, 'sliced', 'auto'): ('pm-spec4', 3, 184916.0),
    ('drifting', False, 'explicit', 'pm'): ('pm-spec4', 3, 205829.0),
    ('drifting', False, 'explicit', 'sre'): ('sre', 3, 304130.0),
    ('drifting', False, 'explicit', 'rr'): ('rr', 3, 227093.0),
    ('drifting', False, 'explicit', 'nf'): ('nf', 3, 221587.0),
    ('drifting', False, 'explicit', 'sfa'): ('sfa', 3, 98926.0),
    ('drifting', False, 'explicit', 'spec-seq'): ('spec-seq', 3, 311265.0),
    ('drifting', False, 'explicit', 'auto'): ('pm-spec4', 3, 205829.0),
    ('drifting', False, 'sliced', 'pm'): ('pm-spec4', 3, 204884.0),
    ('drifting', False, 'sliced', 'sre'): ('sre', 3, 302730.0),
    ('drifting', False, 'sliced', 'rr'): ('rr', 3, 231273.0),
    ('drifting', False, 'sliced', 'nf'): ('nf', 3, 226441.0),
    ('drifting', False, 'sliced', 'sfa'): ('sfa', 3, 98842.0),
    ('drifting', False, 'sliced', 'spec-seq'): ('spec-seq', 3, 309191.0),
    ('drifting', False, 'sliced', 'auto'): ('pm-spec4', 3, 204884.0),
}


def stream(seed, n, density):
    return classic.drifting_phase_input(
        n, drift_at=1.0, calm_hot_density=density, seed=seed
    )


@pytest.mark.parametrize("key", GOLDEN, ids=lambda k: "-".join(map(str, k)))
def test_in_process_run_matches_parent_golden(key):
    name, transform, training, requested = key
    dfa = DFAS[name]()
    data = stream(7, 2048, 0.3)
    config = GSpecPalConfig(
        n_threads=16,
        use_transformation=transform,
        backend="sim",
        device=DEVICE,
        min_training_symbols=256,
    )
    pal = GSpecPal(
        dfa,
        config,
        training_input=stream(99, 256, 0.02) if training == "explicit" else None,
    )
    result = pal.run(data, scheme=None if requested == "auto" else requested)
    assert (result.scheme, int(result.end_state), result.cycles) == GOLDEN[key]
