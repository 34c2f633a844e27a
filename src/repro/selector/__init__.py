"""Scheme selection: offline profiling, the Eq. 1–4 cost model and the
Fig. 6 decision tree."""

from repro.selector.cost_model import CostModel, CostModelInputs
from repro.selector.decision_tree import DecisionTreeSelector, SelectorThresholds
from repro.selector.features import FSMFeatures, profile_features

__all__ = [
    "CostModel",
    "CostModelInputs",
    "DecisionTreeSelector",
    "FSMFeatures",
    "SelectorThresholds",
    "profile_features",
]
