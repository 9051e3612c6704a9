"""Recurrent channel predictors trained with truncated BPTT.

PredictorSettings is the one recipe of a predictor, and a trained
RecurrentNet carries its feature layout.  Self contained on numpy:

``layers``    gate equations, layer-major window forward and backward
``network``   layer stack on one flat parameter buffer, flop counts
``optim``     Adam with bias correction on the flat buffer
``data``      tapped delay line features and window iteration
``train``     the recipe, training loop, series prediction, correlation
``model_io``  versioned npz serialization
"""

from .layers import LayerSpec
from .network import RecurrentNet, flops_per_step, flops_simplified
from .optim import AdamState, adam_step
from .data import build_dataset, complex_from_split
from .train import (HIGH_ACCURACY_TRAIN, PredictorSettings, TrainReport,
                    train, train_link_predictor, predict_series,
                    prediction_correlation)
from .model_io import save_model, load_model

__all__ = [
    "LayerSpec",
    "RecurrentNet",
    "flops_per_step",
    "flops_simplified",
    "AdamState",
    "adam_step",
    "build_dataset",
    "complex_from_split",
    "HIGH_ACCURACY_TRAIN",
    "PredictorSettings",
    "TrainReport",
    "train",
    "train_link_predictor",
    "predict_series",
    "prediction_correlation",
    "save_model",
    "load_model",
]
