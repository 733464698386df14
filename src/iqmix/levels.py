"""Rating-level vocabulary and bidirectional score/level conversions.

A scale divides its score range [m, M] into equal-width intervals, one per
rating level. A score s maps to level i when
m + (i-1)/n * (M-m) < s <= m + i/n * (M-m); the lone leftover point s = m
is assigned to level 1 so the whole range is covered. Interior edges are
compared bit-exactly, with no epsilon adjustment. Level i stands for the
integer score i, so a score averaged over the levels (as the logit scorer's
probability-weighted score is) lies in [1, n].
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError

FIVE_LEVEL_LABELS = ("bad", "poor", "fair", "good", "excellent")
TWO_LEVEL_LABELS = ("poor", "good")


def _labels_for(count: int) -> tuple[str, ...]:
    if count == 5:
        return FIVE_LEVEL_LABELS
    if count == 2:
        return TWO_LEVEL_LABELS
    return tuple(f"level{i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class RatingLevel:
    """One ordinal rating level; index is 1-based, low quality to high, and
    is also the integer score the level maps back to."""

    index: int
    label: str


@dataclass(frozen=True)
class LevelScale:
    """A score range [min_score, max_score] split into equal-width levels."""

    min_score: float
    max_score: float
    level_count: int = 5

    def __post_init__(self) -> None:
        if not (self.max_score > self.min_score):
            raise ConfigError(
                f"scale requires max_score > min_score, got "
                f"[{self.min_score}, {self.max_score}]"
            )
        # Also false for an infinite bound: the width is then inf or nan.
        if not math.isfinite(self.max_score - self.min_score):
            raise ConfigError(
                f"scale requires finite bounds and a finite width max_score - "
                f"min_score, got [{self.min_score}, {self.max_score}]"
            )
        if self.level_count < 2:
            raise ConfigError(f"level_count must be >= 2, got {self.level_count}")

    @property
    def labels(self) -> tuple[str, ...]:
        return _labels_for(self.level_count)

    @property
    def levels(self) -> tuple[RatingLevel, ...]:
        return tuple(
            RatingLevel(i + 1, label) for i, label in enumerate(self.labels)
        )

    def bin_edges(self) -> tuple[float, ...]:
        """All n+1 edges m + (k/n)(M-m), k = 0..n, strictly increasing; the
        ends are m and M exactly, since (n/n)(M-m) can round M up."""
        m, big_m, n = self.min_score, self.max_score, self.level_count
        return (m, *(m + (k / n) * (big_m - m) for k in range(1, n)), big_m)

    def interior_edges(self) -> tuple[float, ...]:
        return self.bin_edges()[1:-1]


@functools.lru_cache(maxsize=64)
def _edges_and_levels(scale: LevelScale) -> tuple[tuple[float, ...], tuple[RatingLevel, ...]]:
    return scale.interior_edges(), scale.levels


def score_to_level(score: float, scale: LevelScale) -> RatingLevel:
    """Map a score to its rating level on the given scale.

    Interval i is (edge_{i-1}, edge_i], so scores on an interior edge belong
    to the lower interval; score == min maps to the first level.
    """
    if not (scale.min_score <= score <= scale.max_score) or not math.isfinite(score):
        raise DataError(
            f"score {score!r} outside scale [{scale.min_score}, {scale.max_score}]"
        )
    edges, levels = _edges_and_levels(scale)
    # bisect_left counts the edges strictly below the score, so a score on an
    # edge stays in the lower interval.
    return levels[bisect_left(edges, score)]


def quantize_scores(scores: Iterable[float], scale: LevelScale) -> np.ndarray:
    """Vectorized score -> level-index conversion (same edge convention)."""
    arr = np.asarray(list(scores) if not isinstance(scores, np.ndarray) else scores,
                     dtype=np.float64)
    # min() and max() are nan if any score is, and nan fails every comparison
    if arr.size and not (scale.min_score <= arr.min() and arr.max() <= scale.max_score):
        bad = float(arr[~((arr >= scale.min_score) & (arr <= scale.max_score))][0])
        raise DataError(
            f"score {bad!r} outside scale [{scale.min_score}, {scale.max_score}]"
        )
    edges = np.asarray(scale.interior_edges(), dtype=np.float64)
    # side='left' counts edges strictly below s, so s on an edge stays in the
    # lower interval, matching score_to_level.
    return np.searchsorted(edges, arr, side="left").astype(np.int64) + 1
