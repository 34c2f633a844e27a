"""Speculation machinery: chunking, start-state prediction, record storage.

These are the shared moving parts of every speculative scheme: the input is
partitioned (:mod:`chunks`), the all-state lookback-2 predictor ranks start
candidates per chunk (:mod:`predictor`), and verification/recovery results
are stored in the bounded register/shared-memory hierarchy of Fig. 5
(:mod:`records`).
"""

from repro.speculation.chunks import Partition, partition_input
from repro.speculation.observations import LiveObservations
from repro.speculation.predictor import (
    LOOKBACK,
    Prediction,
    predict_adaptive,
    predict_oracle,
    predict_start_states,
    predict_uniform,
    true_start_states,
)
from repro.speculation.records import (
    DEFAULT_OTHERS_CAPACITY,
    DEFAULT_OWN_CAPACITY,
    VRStore,
)

__all__ = [
    "DEFAULT_OTHERS_CAPACITY",
    "DEFAULT_OWN_CAPACITY",
    "LOOKBACK",
    "LiveObservations",
    "Partition",
    "Prediction",
    "VRStore",
    "partition_input",
    "predict_adaptive",
    "predict_oracle",
    "predict_start_states",
    "predict_uniform",
    "true_start_states",
]
