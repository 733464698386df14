"""Evaluation arithmetic.

SRCC (Spearman with average-tie ranks), PLCC (raw Pearson, optional
four-parameter logistic pre-mapping), their mean, a conversion-precision
audit for the score->level quantization, multiple-choice accuracy broken
down by question type and quadrant, and description-rating aggregation.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .levels import LevelScale, quantize_scores
from .util import first_rows, is_number, read_jsonl, record_id

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
            raise DataError(
                f"length mismatch: {len(self.predictions)} predictions vs "
                f"{len(self.ground_truth)} ground-truth values"
            )
        if len(self.predictions) < 2:
            raise DataError("need at least 2 paired values")
        if not (np.isfinite(self.predictions).all() and np.isfinite(self.ground_truth).all()):
            raise DataError("paired sample contains non-finite values")

    @classmethod
    def from_arrays(cls, predictions: Sequence[float] | np.ndarray,
                    ground_truth: Sequence[float] | np.ndarray) -> "PairedSample":
        """A sample from two equal-length sequences of numbers."""
        return cls(predictions, ground_truth)


def _first(flags: np.ndarray) -> int:
    """The index of the first true flag, or the length when none is."""
    return int(flags.argmax()) if flags.any() else len(flags)


def read_scores(path: str | Path) -> tuple[Sequence[str], np.ndarray]:
    """The ids and scores of a scores file, one {"id", "score"} object a
    line, read in one pass and then checked as arrays. An error names the
    line a record-by-record read stops on; within a line, the id (a string,
    or an integer read as its decimal string), then a repeat of an earlier
    id, then the score (a finite number). A read error comes last."""
    records, failure = [], None
    try:
        records.extend((line_no, obj.get("id"), obj.get("score"))
                       for line_no, obj in read_jsonl(path))
    except DataError as exc:
        failure = exc
    line_nos, ids, scores = zip(*records) if records else ((), (), ())
    n = bad_id = len(ids)
    if {*map(type, ids)} != {str}:  # a bool, whose type is bool, stays bad
        ids = [str(v) if type(v) is int else v for v in ids]
        bad_id = _first(~np.fromiter(map(isinstance, ids, itertools.repeat(str)), bool, n))
    first_on = first_rows(ids[:bad_id], np.ones(bad_id, bool))  # a repeat before a bad id
    repeat = _first(first_on < np.arange(bad_id))
    if {*map(type, scores)} <= {float}:
        bad_score = _first(~np.isfinite(np.array(scores, dtype=np.float64)))
    else:  # the range test rejects nan and inf, and cannot overflow on a huge int
        bad_score = _first(np.fromiter(
            (not (is_number(v) and -sys.float_info.max <= v <= sys.float_info.max)
             for v in scores), bool, n))
    first = min(bad_id, repeat, bad_score)
    if first < n:
        where = f"{path}: line {line_nos[first]}"
        if first == bad_id:
            raise DataError(f"{where}: missing or non-string 'id'")
        if first == repeat:
            raise DataError(f"{where}: duplicate id {ids[first]!r} "
                            f"(first on line {line_nos[first_on[first]]})")
        raise DataError(f"{where}: 'score' must be a finite number, got {scores[first]!r}")
    if failure is not None:
        raise failure
    if not n:
        raise DataError(f"{path}: no score records")
    return ids, np.fromiter(map(float, scores), np.float64, n)


def pair_by_id(ids: Sequence[str], predictions: np.ndarray,
               truth: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """The predictions whose id has a truth value, and those (finite) values."""
    values = np.fromiter(map(truth.get, ids, itertools.repeat(math.nan)), np.float64, len(ids))
    shared = ~np.isnan(values)
    return predictions[shared], values[shared]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank: a tie group at sorted
    positions [lo, hi) has average rank (lo + hi - 1) / 2 + 1."""
    order = np.argsort(values)  # a tie group ranks the same in any order
    ordered = values[order]
    lo = np.searchsorted(ordered, ordered, side="left")
    hi = np.searchsorted(ordered, ordered, side="right")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = 0.5 * (lo + hi - 1) + 1.0
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """Pearson's r, scale-free: when the product of the sums of squares leaves
    the normal float range, r is taken again with each side over its largest magnitude."""
    with np.errstate(all="ignore"):  # a product out of range is caught below
        for _ in range(2):
            xc = x - x.mean()
            yc = y - y.mean()
            product = float(np.sum(xc * xc) * np.sum(yc * yc))
            if sys.float_info.min <= product < math.inf:  # a subnormal one loses digits
                return float(np.sum(xc * yc) / np.sqrt(product))
            x, y = x / np.abs(x).max(), y / np.abs(y).max()
    raise DataError(f"zero variance in {what}; correlation undefined")


def srcc(sample: PairedSample) -> float:
    """Spearman rank correlation with average-tie ranks."""
    return _pearson(_average_ranks(sample.predictions),
                    _average_ranks(sample.ground_truth), "ranks")


_FIT_EVALS = 4000  # model evaluations the logistic fit may spend


def _fit_logistic(x: np.ndarray, y: np.ndarray, rescaled: bool = False) -> np.ndarray:
    """The fitted values of IQA evaluation's four-parameter logistic
    (b1 - b2) / (1 + exp(-(x - b3) / |b4|)) + b2: Levenberg-Marquardt least
    squares from (max y, min y, mean x, std x) on the analytic Jacobian, its
    columns scaled by their largest norms yet, until a step cuts the sum of
    squared residuals by at most 1e-10 of it or is at most 1.49e-8 of the
    point. A singular or overflowing step fits again with each side over its
    largest magnitude, as _pearson does; that fit's fitted values are in units
    of the largest y. A second such step, or _FIT_EVALS evaluations, fails."""
    def model(b):
        s = 1.0 / (1.0 + np.exp(-(x - b[2]) / abs(b[3])))  # exp's overflow saturates s at 0
        fit = (b[0] - b[1]) * s + b[1]
        return fit, s, float(np.sum((fit - y) ** 2))

    with np.errstate(all="ignore"):  # an overflow is caught below, as a singular step
        b = np.array([y.max(), y.min(), x.mean(), x.std() or 1.0])
        (fit, s, cost), par, grow, d = model(b), 1e-3, 2.0, np.zeros(4)
        for evals in range(1, _FIT_EVALS + 1):
            if s is not None:  # a new point: its scaled normal equations, in their eigenbasis
                ds = (b[0] - b[1]) * s * (1.0 - s) / abs(b[3])
                jac = np.stack([s, 1.0 - s, -ds, -ds * (x - b[2]) / b[3]], axis=1)
                gram, s = jac.T @ jac, None
                d = np.maximum(d, np.sqrt(np.diag(gram)))
                scaled, grad = gram / np.outer(d, d), jac.T @ (y - fit) / d
                if not np.isfinite(np.append(scaled, [*grad, cost])).all():  # a column of 0s too
                    if not rescaled:
                        return _fit_logistic(x / np.abs(x).max(), y / np.abs(y).max(), True)
                    raise DataError(f"logistic pre-mapping: step {evals} is singular or overflows")
                lam, vecs = np.linalg.eigh(scaled)
                grad = vecs.T @ grad
            step = vecs @ (w := grad / (lam + par)) / d
            new_fit, new_s, new_cost = model(b + step)
            predicted = float(w @ grad + par * (w @ w))
            gain = (cost - new_cost) / predicted if predicted > 0 else 0.0
            done = np.linalg.norm(w) <= 1.49e-8 * np.linalg.norm(d * b)
            if gain > 0:  # accept, and relax the damping by how well the step was predicted
                done |= cost - new_cost <= 1e-10 * cost
                b, fit, s, cost = b + step, new_fit, new_s, new_cost
                par, grow = par * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
            else:
                par, grow = par * grow, 2.0 * grow
            if done:
                return fit
    raise DataError(f"logistic pre-mapping failed to converge in {_FIT_EVALS} evaluations")


def plcc(sample: PairedSample, *, logistic: bool = False) -> float:
    """Pearson linear correlation; logistic pre-mapping is off by default."""
    x, y = sample.predictions, sample.ground_truth
    if logistic:
        if len(x) < 4:
            raise DataError(f"logistic pre-mapping needs at least 4 paired values, got {len(x)}")
        if x.min() == x.max() or y.min() == y.max():  # no arithmetic to over- or underflow
            raise DataError("zero variance; correlation undefined")
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


def mcq_report(path: str | Path) -> dict:
    """Overall, per-type and per-quadrant accuracy of an answers file, each
    as {"total", "correct", "accuracy"}, under "overall", "by_type" and
    "by_quadrant"; a type or quadrant with no record is left out.

    Each record is checked as it is read: its id, a known type and quadrant,
    `choices` a list of strings holding `gold`, and `predicted` a string
    (absent reads as ""). A prediction is correct when it resolves to the
    gold choice; unmatched predictions count as incorrect.
    """
    overall = [0, 0]  # total, correct
    by_type = {t: [0, 0] for t in QUESTION_TYPES}
    by_quadrant = {q: [0, 0] for q in QUADRANTS}
    for line_no, obj in read_jsonl(path):
        where = f"{path}: line {line_no}"
        record_id(obj, where)
        qtype, quadrant = obj.get("type"), obj.get("quadrant")
        choices, gold, predicted = obj.get("choices"), obj.get("gold"), obj.get("predicted", "")
        if qtype not in QUESTION_TYPES:
            raise DataError(f"{where}: unknown question type {qtype!r}")
        if quadrant not in QUADRANTS:
            raise DataError(f"{where}: unknown quadrant {quadrant!r}")
        if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
            raise DataError(f"{where}: 'choices' must be a list of strings, got {choices!r}")
        if gold not in choices:
            raise DataError(f"{where}: gold {gold!r} not among declared choices")
        if not isinstance(predicted, str):
            raise DataError(f"{where}: 'predicted' must be a string, got {predicted!r}")
        correct = match_choice(predicted, choices) == choices.index(gold)
        for bucket in (overall, by_type[qtype], by_quadrant[quadrant]):
            bucket[0] += 1
            bucket[1] += correct
    if not overall[0]:
        raise DataError(f"{path}: no MCQ records to score")

    def category(total: int, correct: int) -> dict:
        return {"total": total, "correct": correct, "accuracy": correct / total}

    return {
        "overall": category(*overall),
        "by_type": {k: category(*v) for k, v in by_type.items() if v[0]},
        "by_quadrant": {k: category(*v) for k, v in by_quadrant.items() if v[0]},
    }


def mcq_text(report: dict) -> str:
    """The MCQ report as a table: one row per category, overall first."""
    rows = [("overall", report["overall"]), *report["by_type"].items(),
            *report["by_quadrant"].items()]
    width = max(len("category"), *(len(name) for name, _ in rows))
    lines = [f"{'category'.ljust(width)}  correct/total  accuracy"]
    lines += [f"{name.ljust(width)}  {c['correct']:>7d}/{c['total']:<5d}  {c['accuracy']:.4f}"
              for name, c in rows]
    return "\n".join(lines)


# Description-rating aggregation ---------------------------------------------


def description_report(path: str | Path) -> dict:
    """Per-dimension rating frequencies p0/p1/p2 of a ratings file, with
    their count and weighted score p1 + 2*p2, under "dimensions", and the
    three-dimension "sum" of the scores. Each record needs a known
    `dimension` and a `rating` that is the JSON integer 0, 1 or 2."""
    buckets: dict[str, list[int]] = {d: [] for d in DESCRIPTION_DIMENSIONS}
    for line_no, obj in read_jsonl(path):
        where = f"{path}: line {line_no}"
        dimension, rating = obj.get("dimension"), obj.get("rating")
        if dimension not in DESCRIPTION_DIMENSIONS:
            raise DataError(f"{where}: unknown description dimension {dimension!r}")
        # bool is an int subclass, and True == 1 == 1.0 would pass the range test.
        if isinstance(rating, bool) or not isinstance(rating, int) or rating not in (0, 1, 2):
            raise DataError(
                f"{where}: {dimension}: rating must be the integer 0, 1 or 2, got {rating!r}"
            )
        buckets[dimension].append(rating)
    missing = [d for d, vals in buckets.items() if not vals]
    if missing:
        raise DataError(
            f"{path}: no ratings for dimension(s): {', '.join(missing)}"
        )
    dimensions = {}
    for dim, vals in buckets.items():
        p0, p1, p2 = (vals.count(i) / len(vals) for i in (0, 1, 2))
        dimensions[dim] = {"count": len(vals), "p0": p0, "p1": p1, "p2": p2,
                           "score": p1 + 2.0 * p2}
    return {"dimensions": dimensions, "sum": sum(d["score"] for d in dimensions.values())}


def description_text(report: dict) -> str:
    """The description report as a table: one row per dimension, then the sum."""
    dimensions = report["dimensions"]
    width = max(len(name) for name in dimensions)
    lines = [f"{'dimension'.ljust(width)}      P0      P1      P2   score"]
    lines += [f"{name.ljust(width)}  {d['p0']:.4f}  {d['p1']:.4f}  {d['p2']:.4f}  "
              f"{d['score']:.4f}" for name, d in dimensions.items()]
    lines.append(f"{'sum'.ljust(width)}  {report['sum']:.4f}")
    return "\n".join(lines)
