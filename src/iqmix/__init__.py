"""Image-quality rating-level conversions, level-logit scoring, IQA
evaluation metrics, and a two-stage training data-mixture optimizer with
loss-ratio feedback control."""

__version__ = "0.1.0"

from .levels import (
    FIVE_LEVEL_LABELS,
    LevelScale,
    RatingLevel,
    score_to_level,
)
from .scoring import binary_score, score_from_logit_vector, softmax_vector, weighted_score
from .metrics import PairedSample, conversion_precision, plcc, srcc

__all__ = [
    "__version__",
    "FIVE_LEVEL_LABELS",
    "LevelScale",
    "RatingLevel",
    "score_to_level",
    "binary_score",
    "score_from_logit_vector",
    "softmax_vector",
    "weighted_score",
    "PairedSample",
    "conversion_precision",
    "plcc",
    "srcc",
]
