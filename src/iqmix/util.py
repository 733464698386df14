"""Shared plumbing: deterministic seed derivation, the one seeded-draw rule,
the number test and the number-setting rule, rounding, file digests and
reading JSON-lines records."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import operator
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError


def derive_seed(base: int, *parts: object) -> int:
    """Derive a child seed from a base seed plus context labels.

    blake2b over the repr of the full tuple, truncated to 63 bits, so every
    (stage, point, repeat, ...) combination gets an independent,
    version-stable seed from the one user-facing --seed value.
    """
    payload = repr((base, *parts)).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def draw_keys(seed: int, stream: str, n: int) -> np.ndarray:
    """n little-endian uint64 keys read from the SHAKE-256 output of the text
    repr((seed, stream)): a function of these arguments alone, fixed by
    FIPS 202, so no Python or numpy version moves a draw. Every seeded draw
    of iqmix reads its keys here."""
    text = repr((operator.index(seed), stream)).encode()
    return np.frombuffer(hashlib.shake_256(text).digest(8 * n), dtype="<u8")


def draw_rows(seed: int, stream: str, n: int, want: int) -> np.ndarray:
    """want row indexes of n rows, from the key stream (seed, stream).

    want <= n: the rows of the want smallest of n keys, in (key, row) order.
    Only the rows whose key lies below a bound are sorted, a bound that
    want + 8 * sqrt(want) + 8 of n uniform keys are expected to fall below;
    should fewer than want fall below it, every row is sorted, so the bound
    never changes the result. want > n: key % n for each of want keys, so
    rows repeat.
    """
    if want > n:
        return draw_keys(seed, stream, want) % np.uint64(n)
    keys = draw_keys(seed, stream, n)
    bound = ((want + 8 * math.isqrt(want) + 8) << 64) // max(n, 1)
    if bound < 1 << 64:
        rows = np.flatnonzero(keys < np.uint64(bound))
        if len(rows) >= want:
            return rows[np.argsort(keys[rows], kind="stable")[:want]]
    return np.argsort(keys, kind="stable")[:want]


def is_number(value: object) -> bool:
    """An int or a float, as a JSON or YAML number reads; not a bool, which
    is an int subclass, and not a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_setting(value: object, key: str, cast: type = float) -> float:
    """A config value as cast (int or float). An integer setting takes an
    integer only, a float setting any number; anything else, a bool or a
    numeric string too, is a config error naming its key."""
    try:
        if is_number(value) and (cast is float or isinstance(value, int)):
            return cast(value)
    except OverflowError:  # an int too large for a float
        pass
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def round_half_up(x: float) -> int:
    """Round to nearest integer with .5 going up (not banker's rounding)."""
    return math.floor(x + 0.5)


def file_digest(path: str | Path) -> str:
    """Hex sha256 of a file, read in 64 KiB chunks: no file is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


class _HashingFile(io.FileIO):
    """A binary file that feeds every byte read from it or written to it to a hash."""

    def __init__(self, path: str | Path, digest, mode: str = "r"):
        super().__init__(path, mode)
        self.digest = digest

    def readinto(self, buffer) -> int:
        count = super().readinto(buffer)
        self.digest.update(buffer[:count])
        return count

    def write(self, buffer) -> int:
        count = super().write(buffer)
        self.digest.update(buffer[:count])
        return count


_scan = json.JSONDecoder().scan_once  # raw_decode less its Python frame


def json_records(lines: Iterable[str]) -> Iterator[tuple[int, dict | str]]:
    """(1-based line number, object) for every non-blank line of a JSON-lines
    stream; a line that is not one JSON object yields the text of why not,
    from json.loads, instead. An integer too long to convert and nesting too
    deep to decode are invalid JSON like any other."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = _scan(line, 0)
            if end != len(line):
                raise ValueError
        except (StopIteration, ValueError, RecursionError):
            try:
                json.loads(line)
            except (ValueError, RecursionError) as exc:
                yield line_no, f"invalid JSON ({exc})"
            continue
        yield line_no, obj if type(obj) is dict else "record is not an object"


def read_jsonl(path: str | Path, digest=None) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for every non-blank line of a
    JSON-lines file; a line that is not a JSON object, or a file that is not
    UTF-8, raises a DataError naming the file (and the line, where known).
    A hashlib hash given as digest takes every byte of the file as the one
    pass reads it; lines split and decode as with open(path, encoding="utf-8")."""
    handle = open(path, encoding="utf-8") if digest is None else io.TextIOWrapper(
        io.BufferedReader(_HashingFile(path, digest)), encoding="utf-8")
    with handle:
        try:  # one handler around the loop: nothing is added per line
            for line_no, obj in json_records(handle):
                if type(obj) is not dict:  # the text of why the line is not one
                    raise DataError(f"{path}: line {line_no}: {obj}")
                yield line_no, obj
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc.reason})")


def first_rows(keys: Sequence[str], usable: np.ndarray) -> np.ndarray:
    """For each row, the index of the first usable row with its key, or an
    index not below its own when there is none: a row repeats the row at
    that index when the index is below its own."""
    n = len(keys)
    if len(set(keys)) == n:
        return np.arange(n)
    first = dict(zip(reversed(list(itertools.compress(keys, usable))),
                     reversed(np.flatnonzero(usable).tolist())))
    return np.fromiter(map(first.get, keys, itertools.repeat(n)), np.intp, n)


def record_id(obj: dict, where: str) -> str:
    """A record's 'id': a string, or an integer read as its decimal string
    (not a boolean, though bool is an int subclass)."""
    value = obj.get("id")
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if not isinstance(value, str):
        raise DataError(f"{where}: missing or non-string 'id'")
    return value
