"""Evaluation arithmetic.

SRCC (Spearman with average-tie ranks), PLCC (raw Pearson, optional
four-parameter logistic pre-mapping), their mean, a conversion-precision
audit for the score->level quantization, multiple-choice accuracy broken
down by question type and quadrant, and description-rating aggregation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateSampleError, MissingDimensionError
from .levels import LevelScale, quantize_scores

QUESTION_TYPES = ("yes-or-no", "what", "how")
QUADRANTS = ("distortion", "other", "in-context distortion", "in-context other")
DESCRIPTION_DIMENSIONS = ("completeness", "precision", "relevance")


@dataclass(frozen=True, eq=False)  # array fields break the generated __eq__
class PairedSample:
    """Aligned prediction / ground-truth values as float64 arrays."""

    predictions: np.ndarray
    ground_truth: np.ndarray

    def __post_init__(self) -> None:
        for name in ("predictions", "ground_truth"):  # a private copy of each
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
        if len(self.predictions) != len(self.ground_truth):
            raise DegenerateSampleError(
                f"length mismatch: {len(self.predictions)} predictions vs "
                f"{len(self.ground_truth)} ground-truth values"
            )
        if len(self.predictions) < 2:
            raise DegenerateSampleError("need at least 2 paired values")
        if not (np.isfinite(self.predictions).all() and np.isfinite(self.ground_truth).all()):
            raise DegenerateSampleError("paired sample contains non-finite values")

    @classmethod
    def from_arrays(cls, predictions: Sequence[float] | np.ndarray,
                    ground_truth: Sequence[float] | np.ndarray) -> "PairedSample":
        """A sample from two equal-length sequences of numbers."""
        return cls(predictions, ground_truth)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank, bit-identical to
    scipy.stats.rankdata(method="average"), whose import would add about a
    second to every SRCC command. A tie group at sorted positions [lo, hi)
    has average rank (lo + hi - 1) / 2 + 1."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    lo = np.searchsorted(ordered, ordered, side="left")
    hi = np.searchsorted(ordered, ordered, side="right")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = 0.5 * (lo + hi - 1) + 1.0
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray, what: str) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    if denom == 0.0 or not np.isfinite(denom):
        raise DegenerateSampleError(f"zero variance in {what}; correlation undefined")
    return float(np.sum(xc * yc) / denom)


def srcc(sample: PairedSample) -> float:
    """Spearman rank correlation with average-tie ranks."""
    return _pearson(_average_ranks(sample.predictions),
                    _average_ranks(sample.ground_truth), "ranks")


def _fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Four-parameter logistic pre-mapping used in IQA evaluation."""
    import warnings

    from scipy.optimize import OptimizeWarning, curve_fit

    def logistic(v, b1, b2, b3, b4):
        return (b1 - b2) / (1.0 + np.exp(-(v - b3) / abs(b4))) + b2

    p0 = [float(y.max()), float(y.min()), float(x.mean()), float(x.std() or 1.0)]
    try:
        with warnings.catch_warnings():
            # only the fitted values are used, not the parameter covariance
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(logistic, x, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise DegenerateSampleError(f"logistic pre-mapping failed to converge: {exc}")
    return logistic(x, *popt)


def plcc(sample: PairedSample, *, logistic: bool = False) -> float:
    """Pearson linear correlation; logistic pre-mapping is off by default."""
    x, y = sample.predictions, sample.ground_truth
    if logistic:
        if float(np.var(x)) == 0.0 or float(np.var(y)) == 0.0:
            raise DegenerateSampleError("zero variance; correlation undefined")
        x = _fit_logistic(x, y)
    return _pearson(x, y, "a sequence")


def conversion_precision(scores: Sequence[float], scale: LevelScale) -> tuple[float, float]:
    """SRCC/PLCC between scores and their quantize-then-invert round trip."""
    arr = np.asarray(scores, dtype=np.float64)
    requantized = quantize_scores(arr, scale).astype(np.float64)
    sample = PairedSample.from_arrays(arr, requantized)
    return srcc(sample), plcc(sample)


# Multiple-choice scoring ----------------------------------------------------

_LETTER_RE = re.compile(r"^\(?([a-z])[\).:,]?(?:\s|$)")


@dataclass(frozen=True)
class McqRecord:
    question_id: str
    question_type: str
    quadrant: str
    choices: tuple[str, ...]
    gold: str
    predicted: str

    def __post_init__(self) -> None:
        if self.question_type not in QUESTION_TYPES:
            raise DataError(
                f"{self.question_id}: unknown question type {self.question_type!r}"
            )
        if self.quadrant not in QUADRANTS:
            raise DataError(f"{self.question_id}: unknown quadrant {self.quadrant!r}")
        if self.gold not in self.choices:
            raise DataError(
                f"{self.question_id}: gold {self.gold!r} not among declared choices"
            )


def match_choice(predicted: str, choices: Sequence[str]) -> int | None:
    """Resolve a free-form prediction to a choice index, or None.

    Case-fold and trim, then try a leading choice letter (a, b), (c), d.)
    first and the full choice text second.
    """
    text = predicted.strip().casefold()
    m = _LETTER_RE.match(text)
    if m:
        idx = ord(m.group(1)) - ord("a")
        if 0 <= idx < len(choices):
            return idx
    for idx, choice in enumerate(choices):
        if text == choice.strip().casefold():
            return idx
    return None


@dataclass
class CategoryAccuracy:
    total: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class McqReport:
    overall: CategoryAccuracy
    by_type: dict[str, CategoryAccuracy]
    by_quadrant: dict[str, CategoryAccuracy]

    def to_dict(self) -> dict:
        def cat(c: CategoryAccuracy) -> dict:
            return {"total": c.total, "correct": c.correct, "accuracy": c.accuracy}

        return {
            "overall": cat(self.overall),
            "by_type": {k: cat(v) for k, v in self.by_type.items()},
            "by_quadrant": {k: cat(v) for k, v in self.by_quadrant.items()},
        }

    def as_text(self) -> str:
        rows = [("overall", self.overall)]
        rows += [(k, v) for k, v in self.by_type.items()]
        rows += [(k, v) for k, v in self.by_quadrant.items()]
        width = max(len(name) for name, _ in rows)
        lines = [f"{'category'.ljust(width)}  correct/total  accuracy"]
        for name, c in rows:
            lines.append(
                f"{name.ljust(width)}  {c.correct:>7d}/{c.total:<5d}  {c.accuracy:.4f}"
            )
        return "\n".join(lines)


def mcq_report(records: Sequence[McqRecord]) -> McqReport:
    """Overall plus per-type and per-quadrant accuracy.

    A prediction is correct when it resolves to the gold choice; unmatched
    predictions count as incorrect.
    """
    if not records:
        raise DataError("no MCQ records to score")
    overall = CategoryAccuracy()
    by_type = {t: CategoryAccuracy() for t in QUESTION_TYPES}
    by_quadrant = {q: CategoryAccuracy() for q in QUADRANTS}
    for rec in records:
        gold_idx = rec.choices.index(rec.gold)
        correct = match_choice(rec.predicted, rec.choices) == gold_idx
        for bucket in (overall, by_type[rec.question_type], by_quadrant[rec.quadrant]):
            bucket.total += 1
            bucket.correct += int(correct)
    by_type = {k: v for k, v in by_type.items() if v.total}
    by_quadrant = {k: v for k, v in by_quadrant.items() if v.total}
    return McqReport(overall, by_type, by_quadrant)


# Description-rating aggregation ---------------------------------------------


@dataclass(frozen=True)
class DescriptionRating:
    dimension: str
    rating: int

    def __post_init__(self) -> None:
        if self.dimension not in DESCRIPTION_DIMENSIONS:
            raise DataError(f"unknown description dimension {self.dimension!r}")
        # bool is an int subclass, and True == 1 == 1.0 would pass the range test.
        if isinstance(self.rating, bool) or not isinstance(self.rating, int) \
                or self.rating not in (0, 1, 2):
            raise DataError(
                f"{self.dimension}: rating must be the integer 0, 1 or 2, "
                f"got {self.rating!r}"
            )


@dataclass
class DimensionStats:
    count: int
    frequencies: tuple[float, float, float]  # P0, P1, P2

    @property
    def score(self) -> float:
        return self.frequencies[1] + 2.0 * self.frequencies[2]


@dataclass
class DescriptionReport:
    dimensions: dict[str, DimensionStats] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(d.score for d in self.dimensions.values())

    def to_dict(self) -> dict:
        return {
            "dimensions": {
                name: {
                    "count": d.count,
                    "p0": d.frequencies[0],
                    "p1": d.frequencies[1],
                    "p2": d.frequencies[2],
                    "score": d.score,
                }
                for name, d in self.dimensions.items()
            },
            "sum": self.total,
        }

    def as_text(self) -> str:
        width = max(len(n) for n in self.dimensions)
        lines = [f"{'dimension'.ljust(width)}      P0      P1      P2   score"]
        for name, d in self.dimensions.items():
            p0, p1, p2 = d.frequencies
            lines.append(
                f"{name.ljust(width)}  {p0:.4f}  {p1:.4f}  {p2:.4f}  {d.score:.4f}"
            )
        lines.append(f"{'sum'.ljust(width)}  {self.total:.4f}")
        return "\n".join(lines)


def description_report(ratings: Sequence[DescriptionRating]) -> DescriptionReport:
    """Per-dimension rating frequencies P0/P1/P2, their weighted score, and
    the three-dimension sum."""
    buckets: dict[str, list[int]] = {d: [] for d in DESCRIPTION_DIMENSIONS}
    for r in ratings:
        buckets[r.dimension].append(r.rating)
    missing = [d for d, vals in buckets.items() if not vals]
    if missing:
        raise MissingDimensionError(
            f"no ratings for dimension(s): {', '.join(missing)}"
        )
    report = DescriptionReport()
    for dim in DESCRIPTION_DIMENSIONS:
        vals = buckets[dim]
        n = len(vals)
        freqs = tuple(vals.count(i) / n for i in (0, 1, 2))
        report.dimensions[dim] = DimensionStats(n, freqs)  # type: ignore[arg-type]
    return report
