"""Predicted quality scores from level-token logits.

The closed-set softmax over the rating-level logits gives per-level
probabilities; the predicted score is the probability-weighted average of
the integer level scores, so a five-level scorer emits values in [1, 5].
The two-level variant reduces to a sigmoid of the logit difference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, MalformedLogitsError
from .levels import FIVE_LEVEL_LABELS, LevelScale, _labels_for
from .util import is_number, json_records

# Records score_batch buffers; their five-level rows are softmaxed as one array.
CHUNK_ROWS = 4096


def _check_finite(values: Sequence[float], labels: Sequence[str], item: str) -> None:
    for label, v in zip(labels, values):
        if not math.isfinite(v):
            raise MalformedLogitsError(f"{item}: non-finite logit for level {label!r}")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of each row of a (k, n) array of finite logits;
    equal to the plain softmax in exact arithmetic. Each row is reduced on
    its own, so a row gets the same bits alone as inside a chunk."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _weighted_rows(probabilities: np.ndarray) -> np.ndarray:
    """p0*1 + p1*2 + ... for each row of a (k, n) array, added left to right."""
    total = probabilities[:, 0].copy()
    for i in range(1, probabilities.shape[1]):
        total += probabilities[:, i] * (i + 1)
    return total


def _one_row(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(1, -1)


def softmax_vector(values: Sequence[float]) -> tuple[float, ...]:
    """Closed-set, max-shifted softmax over one ordered logit vector of at
    least two levels; a non-finite logit raises, naming its level."""
    if len(values) < 2:
        raise MalformedLogitsError(f"need at least two level logits, got {len(values)}")
    _check_finite(values, _labels_for(len(values)), "<vector>")
    return tuple(_softmax_rows(_one_row(values))[0].tolist())


def weighted_score(probabilities: Sequence[float]) -> float:
    """Probability-weighted average of the integer level scores 1..n."""
    return float(_weighted_rows(_one_row(probabilities))[0])


def score_from_logit_vector(values: Sequence[float]) -> float:
    """Predicted score in [1, n] for an ordered logit vector of any level
    count n >= 2: the one-row case of score_batch's chunk arithmetic, so
    both give the same bits."""
    return weighted_score(softmax_vector(values))


def binary_score(x_good: float, x_poor: float) -> float:
    """Two-level softmax score: sigmoid(x_good - x_poor), in (0, 1)."""
    if not math.isfinite(x_good) or not math.isfinite(x_poor):
        raise MalformedLogitsError(
            f"non-finite binary logits good={x_good!r} poor={x_poor!r}"
        )
    d = x_good - x_poor
    # Evaluate the stable branch so large |d| cannot overflow.
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def rescale_score(score: float, scale: LevelScale) -> float:
    """Affine map from the native [1, n] scale onto [min, max] of a dataset."""
    n = scale.level_count
    return scale.min_score + (score - 1.0) * (scale.max_score - scale.min_score) / (n - 1)


@dataclass(frozen=True)
class BatchDiagnostic:
    """A malformed input record, reported with its 1-based line number."""

    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


_five_logits = operator.itemgetter(*FIVE_LEVEL_LABELS)


def _parse_five_level(obj: dict, item_id: str) -> Sequence[float]:
    """A record's five logits, taken and type-tested together; a record that
    fails (a bad level, or integer logits) is walked label by label."""
    try:  # a NaN or infinity makes the sum non-finite
        values = bad, poor, fair, good, best = _five_logits(obj["logits"])
        if (type(bad) is type(poor) is type(fair) is type(good) is type(best) is float
                and math.isfinite(sum(values))):
            return values
    except (KeyError, TypeError):  # no logits object, or a level missing from it
        pass
    logits = obj.get("logits")
    if not isinstance(logits, dict):
        raise MalformedLogitsError(f"{item_id}: missing 'logits' object")
    values = []
    try:
        for label in FIVE_LEVEL_LABELS:
            if label not in logits:
                raise MalformedLogitsError(f"{item_id}: missing logit for level {label!r}")
            v = logits[label]
            if not is_number(v):
                raise MalformedLogitsError(f"{item_id}: non-numeric logit for {label!r}")
            values.append(float(v))
    except OverflowError:  # an int too large for a float
        raise MalformedLogitsError(f"{item_id}: logit for {label!r} is too large for a float")
    _check_finite(values, FIVE_LEVEL_LABELS, item_id)
    return values


def _parse_binary(obj: dict, item_id: str) -> tuple[float, float]:
    pair = []
    try:
        for key in ("good", "poor"):
            v = obj.get(key)
            if not is_number(v):
                raise MalformedLogitsError(f"{item_id}: missing or non-numeric {key!r} logit")
            pair.append(float(v))
    except OverflowError:  # an int too large for a float
        raise MalformedLogitsError(f"{item_id}: logit for {key!r} is too large for a float")
    return pair[0], pair[1]


def _score_chunk(
    pending: list[str | tuple[str, float] | BatchDiagnostic], rows: list[Sequence[float]]
) -> Iterator[tuple[str, float] | BatchDiagnostic]:
    """Score the buffered five-level rows with one softmax and yield the
    buffered items in line order, each row id as its (id, score) pair."""
    scores = iter(_weighted_rows(_softmax_rows(np.array(rows, dtype=np.float64))).tolist()
                  if rows else ())
    for item in pending:
        yield (item, next(scores)) if isinstance(item, str) else item


def score_batch(
    lines: Iterable[str],
    *,
    binary: bool = False,
    strict: bool = False,
) -> Iterator[tuple[str, float] | BatchDiagnostic]:
    """Score a stream of line-delimited logit records, preserving order:
    each valid record yields its (id, score) pair.

    Malformed records become BatchDiagnostic entries (with line numbers) in
    lenient mode; in strict mode the first malformed record raises, with
    its diagnostic's text, after the scores of the lines before it have
    been yielded. Results are
    buffered CHUNK_ROWS at a time, and the five-level rows of a chunk are
    scored as one array.
    """
    pending: list[str | tuple[str, float] | BatchDiagnostic] = []
    rows: list[Sequence[float]] = []  # the logits of the ids in pending
    for line_no, obj in json_records(lines):
        try:
            if type(obj) is not dict:  # the text of why the line is not one
                raise MalformedLogitsError(obj)
            item_id = obj.get("id")
            if not isinstance(item_id, str):
                raise MalformedLogitsError("missing or non-string 'id'")
            if binary:
                pending.append((item_id, binary_score(*_parse_binary(obj, item_id))))
            else:
                rows.append(_parse_five_level(obj, item_id))
                pending.append(item_id)
        except DataError as exc:
            diagnostic = BatchDiagnostic(line_no, str(exc))
            if strict:
                yield from _score_chunk(pending, rows)
                raise MalformedLogitsError(str(diagnostic)) from exc
            pending.append(diagnostic)
        if len(pending) == CHUNK_ROWS:
            yield from _score_chunk(pending, rows)
            pending, rows = [], []
    yield from _score_chunk(pending, rows)
