"""MOS ingestion, distribution-balancing subsampling, instruction-pair
emission, pool loading, and deterministic mixture sampling.

Pools are tagged D1 (scoring question-answer pairs built from MOS data),
D2 (quality-interpreting instruction data), and D3 (general visual
instruction data). D2/D3 are opaque here: they are produced elsewhere and
only loaded, counted, and sampled.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .levels import LevelScale, score_to_level
from .util import _HashingFile, draw_rows, first_rows, read_jsonl, record_id

log = logging.getLogger(__name__)

POOL_TAGS = ("D1", "D2", "D3")

SCORING_SYSTEM_PREFIX = "Assume you are an image quality evaluator"
D1_QUESTION = "<img> How would you rate the quality of the image."
D1_ANSWER_TEMPLATE = "The quality of the image is {label}."


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_delimiter(delimiter: str) -> None:
    """A csv delimiter is one character; any other value is a config error."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")


def ingest_mos(
    path: str | Path,
    scale: LevelScale | None = None,
    *,
    delimiter: str = ",",
    strict: bool = True,
) -> dict[str, float]:
    """Read a delimited MOS file (header with image_id and mos columns) into
    an image_id -> MOS mapping in file row order.

    The rows are read in one pass, then checked as arrays. A row with too
    few columns, a repeat of a kept image_id, an unparsable or non-finite
    MOS (nan, inf) and, when a scale is given, a MOS outside it (checked in
    that order) raise in strict mode; in lenient mode such a row is skipped
    with a logged row-numbered warning, so a repeated id keeps its first
    kept row. Blank rows are skipped silently. A read error (not UTF-8, an
    oversized field) comes last.
    """
    check_delimiter(delimiter)
    ids, cells, blank, short, header, failure = [], [], set(), set(), None, None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:  # one handler around the reader: nothing is added per row
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            if "image_id" not in header or "mos" not in header:
                raise DataError(f"{path}: header must contain image_id and mos columns, "
                                f"got {header}")
            id_col, mos_col = header.index("image_id"), header.index("mos")
            width = max(id_col, mos_col) + 1
            for row in reader:
                # A blank row has a blank MOS cell, so most rows skip the join.
                if len(row) < width or (not row[mos_col].strip() and not "".join(row).strip()):
                    (short if "".join(row).strip() else blank).add(len(ids))
                    row = header  # a stand-in whose MOS cell, "mos", never parses
                ids.append(row[id_col])
                cells.append(row[mos_col])
        except UnicodeDecodeError as exc:
            failure = DataError(f"{path}: not valid UTF-8 ({exc.reason})")
        except csv.Error as exc:  # such as a field over the csv module's size limit
            failure = DataError(f"{path}: row {len(ids) + 1 + (header is not None)}: {exc}")
    if header is None:  # the header row itself could not be read
        raise failure
    n = len(ids)
    try:
        values = list(map(float, cells))
    except ValueError:
        values = list(map(_float_or_none, cells))
    mos = np.array(values, dtype=np.float64)  # None, where float() refuses, reads as nan
    usable = np.isfinite(mos)
    if scale is not None:
        usable &= (scale.min_score <= mos) & (mos <= scale.max_score)
    first_kept = first_rows(ids, usable)  # each id keeps its first usable row
    repeat = first_kept < np.arange(n)
    kept = usable & ~repeat
    for k in np.flatnonzero(~kept).tolist():
        if k in blank:
            continue
        where, mos_k = f"{path}: row {k + 2}", values[k]
        if k in short:
            problem = DataError(f"{where}: missing columns")
        elif repeat[k]:
            problem = DataError(f"{where}: duplicate image_id {ids[k]!r} "
                                f"(first on row {first_kept[k] + 2})")
        elif mos_k is None or not math.isfinite(mos_k):
            problem = DataError(f"{where}: unparsable mos {cells[k]!r}" if mos_k is None
                                else f"{where}: non-finite mos {mos_k!r}")
        else:
            problem = DataError(
                f"{where}: mos {mos_k!r} outside [{scale.min_score}, {scale.max_score}]")
        if strict:
            raise problem
        log.warning("skipping row: %s", problem)
    if failure is not None:
        raise failure
    mos_by_id = dict(zip(itertools.compress(ids, kept), itertools.compress(values, kept)))
    if not mos_by_id:
        raise DataError(f"{path}: no valid MOS records")
    return mos_by_id


def subsample_balanced(
    mos: Mapping[str, float],
    target_size: int,
    bins: int = 10,
    seed: int = 0,
) -> dict[str, float]:
    """Subsample toward a flat MOS histogram.

    The observed MOS range is split into equal-width bins; each non-empty bin
    gets an equal share of the target (capped at ceil(target/bins occupied)),
    and any unmet quota is redistributed round-robin to bins that still have
    records. Bin b keeps the rows of the smallest keys of the stream
    (seed, "bin{b}"), the rule that sample_mixture applies to a pool (see
    util.draw_rows). The result is a subsequence of the input.
    """
    if target_size < 0:
        raise DataError(f"target_size must be >= 0, got {target_size}")
    if target_size > len(mos):
        raise DataError(
            f"target_size {target_size} exceeds record count {len(mos)}"
        )
    if bins < 2:
        raise DataError(f"bins must be >= 2, got {bins}")
    if target_size == len(mos):
        return dict(mos)

    values = np.fromiter(mos.values(), dtype=np.float64, count=len(mos))
    lo, hi = float(values.min()), float(values.max())
    width = (hi - lo) / bins
    edges = np.asarray([lo + width * k for k in range(1, bins)], dtype=np.float64)
    bin_of = np.searchsorted(edges, values, side="left")
    occupied, sizes = (a.tolist() for a in np.unique(bin_of, return_counts=True))

    base, rem = divmod(target_size, len(occupied))
    take = [min(base + (i < rem), size) for i, size in enumerate(sizes)]
    deficit = target_size - sum(take)
    while deficit > 0:
        for i, size in enumerate(sizes):
            if deficit and take[i] < size:
                take[i] += 1
                deficit -= 1

    members = np.split(np.argsort(bin_of, kind="stable"), np.cumsum(sizes[:-1]))
    keep = np.zeros(len(mos), dtype=bool)
    for b, rows, want in zip(occupied, members, take):  # each bin's rows, in row order
        keep[rows[draw_rows(seed, f"bin{b}", len(rows), want)]] = True
    return dict(itertools.compress(mos.items(), keep))


def emit_d1_pairs(mos: Mapping[str, float], scale: LevelScale) -> list[tuple[str, str]]:
    """The (image_id, level label) of each image_id -> MOS entry, in order:
    one D1 scoring pair each, which write_pairs renders."""
    return [(image_id, score_to_level(value, scale).label) for image_id, value in mos.items()]


def write_pairs(
    pairs: Iterable[tuple[str, str]],
    path: str | Path,
    *,
    inline_system: bool = False,
) -> None:
    """One D1 line per (image_id, label), the id doubling as the image:
    json.dumps of {"id", "image", "system", "conversations"} with
    ensure_ascii=False, or with the prefix opening the question and no
    "system" key under inline_system. Each label's tail is rendered once."""
    head = {} if inline_system else {"system": SCORING_SYSTEM_PREFIX}
    question = f"{SCORING_SYSTEM_PREFIX}\n{D1_QUESTION}" if inline_system else D1_QUESTION
    tails: dict[str, str] = {}  # label -> the line after its id and image
    encode = json.encoder.encode_basestring
    with open(path, "w", encoding="utf-8") as handle:
        for image_id, label in pairs:
            if label not in tails:
                answer = D1_ANSWER_TEMPLATE.format(label=label)
                tails[label] = json.dumps({**head, "conversations": [
                    {"from": "human", "value": question},
                    {"from": "gpt", "value": answer}]}, ensure_ascii=False)[1:]
            quoted = encode(image_id)
            handle.write(f'{{"id": {quoted}, "image": {quoted}, {tails[label]}\n')


def manifest_row(pool_tag: str, source_line: int, pair_id: str) -> str:
    """One manifest line, byte-identical to json.dumps of
    {"pool", "source_line", "id"} with ensure_ascii=False, plus a newline."""
    pair_id = json.encoder.encode_basestring(pair_id)
    return f'{{"pool": "{pool_tag}", "source_line": {source_line}, "id": {pair_id}}}\n'


def _pair_problem(obj: dict, pair_id: str, d1: bool) -> str | None:
    """What keeps a pool record with a good id from being a training pair,
    or None: each check in turn, every turn pair at once on the common path."""
    if not isinstance(obj.get("image"), str):
        return "missing or non-string 'image'"
    system = obj.get("system")
    if system is not None and not isinstance(system, str):
        return "'system' must be a string when present"
    conv = obj.get("conversations")
    if not isinstance(conv, list) or len(conv) < 2 or len(conv) % 2 != 0:
        return "'conversations' must hold alternating human/gpt turns"
    for k in range(0, len(conv), 2):
        human, gpt = conv[k], conv[k + 1]
        if not (isinstance(human, dict) and human.get("from") == "human"
                and isinstance(human.get("value"), str)):
            return f"malformed human turn at position {k}"
        if not (isinstance(gpt, dict) and gpt.get("from") == "gpt"
                and isinstance(gpt.get("value"), str)):
            return f"malformed gpt turn at position {k}"
    if d1 and system != SCORING_SYSTEM_PREFIX:
        return f"{pair_id}: D1 pairs must carry the scoring system prefix verbatim"
    return None


def load_pool(path: str | Path, pool_tag: str, *, digest=None) -> np.ndarray:
    """Check every record of a pool file as a training pair (id, image,
    optional system, alternating human/gpt turns; D1 carries the scoring
    system prefix), then keep only its manifest row. Sampling needs nothing
    else of a pair, so a manifest is a shuffled selection of these rows,
    returned as an object array that sampling indexes in place.
    A hashlib hash given as digest takes the bytes of the file as it is read."""
    if pool_tag not in POOL_TAGS:
        raise DataError(f"unknown pool tag {pool_tag!r}")

    def rows():
        for line_no, obj in read_jsonl(path, digest):
            pair_id = obj.get("id")
            if not isinstance(pair_id, str):  # an integer id, or the error naming the line
                pair_id = record_id(obj, f"{path}: line {line_no}")
            problem = _pair_problem(obj, pair_id, pool_tag == "D1")
            if problem is not None:
                raise DataError(f"{path}: line {line_no}: {problem}")
            yield manifest_row(pool_tag, line_no, pair_id)

    pool = np.fromiter(rows(), dtype=object)  # grown in place: no list to copy
    if not len(pool):
        log.warning("%s: empty pool file for %s", path, pool_tag)
    return pool


# Mixture sampling ------------------------------------------------------------


@dataclass
class PoolSet:
    d1: Sequence[str] = ()  # manifest rows: the object array of load_pool, or a list
    d2: Sequence[str] = ()
    d3: Sequence[str] = ()

    def sizes(self) -> dict[str, int]:
        return {"d1": len(self.d1), "d2": len(self.d2), "d3": len(self.d3)}


@dataclass
class Manifest:
    seed: int
    counts: dict[str, int]
    entries: list[str]  # manifest rows, as rendered by manifest_row


def _ratio_of(counts: Mapping[str, int]) -> dict[str, float]:
    base = counts.get("d1", 0)
    if base <= 0:
        base = next((c for c in counts.values() if c > 0), 1)
    return {k: counts.get(k, 0) / base for k in ("d1", "d2", "d3")}


def sample_mixture(
    pools: PoolSet,
    counts: Mapping[str, int],
    seed: int,
    *,
    with_replacement: bool = False,
) -> Manifest:
    """Sample the requested per-pool counts and shuffle the combined order.

    Sampling is without replacement; a count above the pool size is only
    legal with the replacement flag, in which case that pool alone switches
    to replacement (logged). Each pool draws its rows from its own key
    stream (see util.draw_rows), and the combined rows are put in (key, row)
    order of the key stream (seed, "order"), a tie going to the lower row.
    So the draws depend only on the seed, the pool sizes and the counts, and
    no row is drawn by a Python-level step.
    """
    picks = []
    normalized = {k: int(counts.get(k, 0)) for k in ("d1", "d2", "d3")}
    for tag in POOL_TAGS:
        want = normalized[tag.lower()]
        pool = getattr(pools, tag.lower())
        if want < 0:
            raise DataError(f"{tag}: negative count {want}")
        if want == 0:
            continue
        if not len(pool):
            raise DataError(f"{tag}: cannot sample {want} pairs from an empty pool")
        if want > len(pool) and not with_replacement:
            raise DataError(
                f"{tag}: count {want} exceeds pool size {len(pool)} "
                f"(pass with_replacement to oversample)"
            )
        if want > len(pool):
            log.info("%s: oversampling %d from %d with replacement", tag, want, len(pool))
        try:  # rows left unnamed: one more live array raised mix-adjust's peak RSS 1 MiB
            picks.append(np.asarray(pool, dtype=object)[draw_rows(seed, tag, len(pool), want)])
        except (OverflowError, MemoryError):  # more keys than an index or any memory holds
            raise DataError(f"{tag}: count {want} is too large to draw")
    drawn = np.concatenate(picks) if picks else np.empty(0, dtype=object)
    del picks
    drawn = drawn[draw_rows(seed, "order", len(drawn), len(drawn))]
    return Manifest(seed=seed, counts=normalized, entries=drawn.tolist())


def write_manifest(manifest: Manifest, path: str | Path) -> str:
    """The header line, then the entries, joined 4096 at a time: one string
    of a whole manifest would be the largest allocation of a run. Returns
    the hex sha256 of the bytes, taken as they are written."""
    header = {"seed": manifest.seed, "counts": manifest.counts,
              "ratio": _ratio_of(manifest.counts)}
    entries, digest = manifest.entries, hashlib.sha256()
    raw = _HashingFile(path, digest, "w")
    with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8") as handle:
        handle.write(json.dumps(header, ensure_ascii=False) + "\n")
        for start in range(0, len(entries), 4096):
            handle.write("".join(entries[start:start + 4096]))
    return digest.hexdigest()


def read_manifest_header(path: str | Path) -> dict:
    """Read only the manifest header (seed, counts, ratio)."""
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(next(handle))
        except (StopIteration, json.JSONDecodeError):
            raise DataError(f"{path}: missing or invalid manifest header")
    if not isinstance(header, dict) or "counts" not in header:
        raise DataError(f"{path}: manifest header lacks counts")
    return header
