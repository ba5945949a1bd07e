"""Boosting via online mirror descent over pluggable Bregman geometries."""

from .boosting import (
    Algorithm,
    AlphaMode,
    BoosterConfig,
    BoostResult,
    MadaEta,
    RoundTrace,
    predict,
    run,
)
from .data import Dataset, gen_blobs, gen_combined, gen_noisy, load_csv, load_libsvm
from .geometry import NEGATIVE_ENTROPY, QUADRATIC, Geometry
from .stumps import Stump, StumpIndex, edge, loss_vector, train_stump

__all__ = [
    "Algorithm",
    "AlphaMode",
    "BoosterConfig",
    "BoostResult",
    "Dataset",
    "Geometry",
    "MadaEta",
    "NEGATIVE_ENTROPY",
    "QUADRATIC",
    "RoundTrace",
    "Stump",
    "StumpIndex",
    "edge",
    "gen_blobs",
    "gen_combined",
    "gen_noisy",
    "load_csv",
    "load_libsvm",
    "loss_vector",
    "predict",
    "run",
    "train_stump",
]
