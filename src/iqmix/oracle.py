"""The trainer/evaluator boundary.

An oracle maps (mixture manifest, seed) to task performances and validation
losses. The synthetic oracle evaluates configured concave response surfaces
over the manifest's realized mixture ratios, for desk-scale verification;
the external oracle shells out to a real training command and reads back a
small result file. A Ledger in front of either replays every finished call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import subprocess
import threading
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .datasets import read_manifest_header
from .errors import ConfigError, DataError, OracleError
from .util import draw_keys, is_number, number_setting, read_jsonl

RESPONSE_FIELDS = ("perf_scoring", "perf_interpreting", "loss_scoring", "loss_interpreting")


@dataclass(frozen=True)
class OracleRequest:
    manifest_path: Path
    seed: int
    digest: str  # hex sha256 of the manifest's bytes, as write_manifest returned it
    history: str | None = None  # a mix-adjust epoch's chain of the epochs before it


@dataclass(frozen=True)
class OracleResponse:
    perf_scoring: float
    perf_interpreting: float
    loss_scoring: float
    loss_interpreting: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.perf_scoring <= 1.0:
            raise DataError(f"perf_scoring {self.perf_scoring!r} outside [-1, 1]")
        if not 0.0 <= self.perf_interpreting <= 1.0:
            raise DataError(
                f"perf_interpreting {self.perf_interpreting!r} outside [0, 1]"
            )
        for name in ("loss_scoring", "loss_interpreting"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DataError(f"{name} must be a positive real, got {value!r}")


def _response_from(obj) -> OracleResponse:
    """The response a result object holds; anything else, or a missing,
    non-numeric or out-of-range field, raises a DataError."""
    if not isinstance(obj, dict):
        raise DataError("result is not an object")
    missing = [k for k in RESPONSE_FIELDS if k not in obj]
    if missing:
        raise DataError(f"missing fields {missing}")
    values = [obj[k] for k in RESPONSE_FIELDS]
    try:
        if not all(is_number(v) for v in values):  # not true, nor "0.5"
            raise TypeError(f"result fields must be numbers, got {values}")
        return OracleResponse(*(float(v) for v in values))
    except (TypeError, OverflowError) as exc:
        raise DataError(f"non-numeric result field ({exc})")


class Oracle(Protocol):
    def evaluate(self, request: OracleRequest) -> OracleResponse: ...


def realized_axes(counts: Mapping[str, int]) -> tuple[float, float]:
    """log10 ratios actually realized by integer manifest counts.

    Returns (log10(d2/d3), log10((d2+d3)/d1)); zero counts are floored at 1
    so stage-1 manifests (no D1) stay evaluable.
    """
    d1, d2, d3 = (int(counts.get(k, 0)) for k in ("d1", "d2", "d3"))
    return math.log10(max(d2, 1) / max(d3, 1)), math.log10(max(d2 + d3, 1) / max(d1, 1))


# Config sections --------------------------------------------------------------


def from_config(cls, obj: Mapping, where: str = "oracle"):
    """The dataclass cls read from its config section obj, one key per field:
    a dataclass field from the section under its name, a float field from a
    number, any other field as given, for cls to check; null reads as absent.
    A missing field without a default, a value that is not a number where one
    is due, or one that cls rejects is a config error naming its dotted key.
    A field's type is read from its annotation's text, not evaluated (that
    keeps typing objects alive), and a dataclass type is a class of this module.
    A key that is no field is a config error too, but for the oracle's `kind`
    in a top-level section."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {obj!r}")
    names = {f.name for f in fields(cls)} | ({"kind"} if "." not in where else set())
    unknown = [key for key in obj if key not in names]
    if unknown:
        raise ConfigError(f"unknown key {f'{where}.{unknown[0]}'!r}")
    values = {}
    for f in fields(cls):
        key, value, nested = f"{where}.{f.name}", obj.get(f.name), globals().get(f.type)
        if value is None:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} is missing {f.name!r}")
        elif is_dataclass(nested):
            values[f.name] = from_config(nested, value, key)
        elif "float" in f.type:  # float, or float | None
            values[f.name] = number_setting(value, key)
        else:
            values[f.name] = value
    try:
        return cls(**values)
    except ConfigError as exc:  # a surface names its own terms, an oracle the full key
        if str(exc).startswith(f"{where}."):
            raise
        raise ConfigError(f"{where}.{exc}") from None


def config_keys(cls, where: str = "oracle") -> list[str]:
    """The dotted key of each field that from_config reads for cls."""
    return [key for f in fields(cls) for key in (
        config_keys(globals()[f.type], f"{where}.{f.name}") if is_dataclass(globals().get(f.type))
        else [f"{where}.{f.name}"])]


# Synthetic oracle -------------------------------------------------------------


@dataclass(frozen=True)
class ResponseSurface:
    """Concave polynomial response in a log10-ratio axis.

    value(t) = peak_value - curvature*(t - t0)^2 - quartic*(t - t0)^4 with
    t0 = log10(peak_ratio); staying inside the degree-4 model class keeps
    planted optima exactly recoverable by the sweep's polynomial fit.
    """

    peak_ratio: float
    peak_value: float
    curvature: float
    quartic: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):  # nan and inf would only fail at the first oracle call
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.peak_ratio <= 0:
            raise ConfigError(f"peak_ratio must be positive, got {self.peak_ratio}")
        if self.curvature < 0 or self.quartic < 0:
            raise ConfigError("curvature and quartic terms must be nonnegative")

    def value(self, axis: float) -> float:
        d = axis - math.log10(self.peak_ratio)
        return self.peak_value - self.curvature * d * d - self.quartic * d ** 4


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


@dataclass(frozen=True)
class SyntheticOracle:
    """Deterministic test double: a pure function of (request, settings).

    Planted response surfaces give the performances. Losses follow
    loss = scale * max(count, 1)^(-alpha), with the scoring loss driven by
    the D1 count and the interpreting loss by the D2+D3 count, which gives
    the feedback controller a solvable fixed point. A noise_sigma above 0
    adds normal noise of that std to both performances, drawn from the key
    stream (request.seed, "noise") (see util.draw_keys).
    """

    scoring_surface: ResponseSurface
    interpreting_surface: ResponseSurface
    noise_sigma: float = 0.0
    loss_alpha: float = 0.5
    loss_scale_scoring: float = 30.0
    loss_scale_interpreting: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(
                f"oracle.noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        for key in ("loss_alpha", "loss_scale_scoring", "loss_scale_interpreting"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(
                    f"oracle.{key} must be finite and > 0, got {getattr(self, key)!r}")

    from_dict = classmethod(from_config)

    def evaluate(self, request: OracleRequest) -> OracleResponse:
        header = read_manifest_header(request.manifest_path)
        counts = {k: int(v) for k, v in header["counts"].items()}
        t_d2d3, t_mix = realized_axes(counts)

        perf_scoring = self.scoring_surface.value(t_mix)
        perf_interpreting = self.interpreting_surface.value(t_d2d3)
        if self.noise_sigma > 0:  # Box-Muller: two normals from two keys
            k1, k2 = draw_keys(request.seed, "noise", 2).tolist()
            radius = self.noise_sigma * math.sqrt(-2.0 * math.log((k1 + 1) / 2**64))
            angle = 2.0 * math.pi * k2 / 2**64
            perf_scoring += radius * math.cos(angle)
            perf_interpreting += radius * math.sin(angle)

        d1 = max(counts.get("d1", 0), 1)
        d23 = max(counts.get("d2", 0) + counts.get("d3", 0), 1)
        return OracleResponse(
            perf_scoring=_clamp(perf_scoring, -1.0, 1.0),
            perf_interpreting=_clamp(perf_interpreting, 0.0, 1.0),
            loss_scoring=self.loss_scale_scoring * d1 ** (-self.loss_alpha),
            loss_interpreting=self.loss_scale_interpreting * d23 ** (-self.loss_alpha),
        )


# External-command oracle ------------------------------------------------------


@dataclass(frozen=True)
class ExternalOracle:
    """Run a training command per request: a template with {manifest},
    {seed} and {out} placeholders.

    The command must write a JSON object with the four response fields to
    the {out} path; stdout/stderr are captured only for diagnostics and are
    never parsed for results.
    """

    command: str
    timeout: float | None = None
    env: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.command, str) or "{out}" not in self.command:
            raise ConfigError(f"oracle.command must reference {{out}}, got {self.command!r}")
        try:
            self.argv("manifest", 0, "out")
        except (ValueError, LookupError, AttributeError) as exc:  # a bad quote, brace or field
            raise ConfigError(
                f"oracle.command {self.command!r} has a bad placeholder or quote ({exc!r}); "
                "its placeholders are {manifest}, {seed} and {out}")
        if self.timeout is not None and not 0.0 < self.timeout < math.inf:
            raise ConfigError(f"oracle.timeout must be finite and > 0, got {self.timeout!r}")
        if not isinstance(self.env, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in self.env.items()):
            raise ConfigError(f"oracle.env must map names to strings, got {self.env!r}")

    from_dict = classmethod(from_config)

    def argv(self, manifest: str | Path, seed: int, out: str | Path) -> list[str]:
        """The command's words, with the placeholders filled in."""
        return [token.format(manifest=str(manifest), seed=seed, out=str(out))
                for token in shlex.split(self.command)]

    def evaluate(self, request: OracleRequest) -> OracleResponse:
        out_path = Path(f"{request.manifest_path}.result.json")
        out_path.unlink(missing_ok=True)  # a result left by an earlier run is never read
        tokens = self.argv(request.manifest_path, request.seed, out_path)
        env = {**os.environ, **self.env} if self.env else None
        try:
            proc = subprocess.run(
                tokens,
                capture_output=True,
                text=True,
                timeout=self.timeout,
                env=env,
            )
        except subprocess.TimeoutExpired:
            raise OracleError(f"oracle command timed out after {self.timeout}s: {tokens}")
        except OSError as exc:
            raise OracleError(f"cannot run oracle command {tokens}: {exc}")
        if proc.returncode != 0:
            raise OracleError(
                f"oracle command exited {proc.returncode}: {tokens}\n"
                f"stderr: {proc.stderr.strip()[-2000:]}"
            )
        if not out_path.is_file():
            raise OracleError(f"oracle result file missing: {out_path}")
        try:
            obj = json.loads(out_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not JSON or UTF-8, or too deep
            raise OracleError(f"unreadable oracle result {out_path}: {exc}")
        try:
            return _response_from(obj)
        except DataError as exc:
            raise OracleError(f"{out_path}: {exc}")


# Ledger -----------------------------------------------------------------------


class Ledger:
    """An oracle behind an append-only file of its finished calls. A call's
    key is the sha256 of the JSON array [*context, request.digest, seed],
    with request.history appended when it is set, so no manifest is read
    for it; a key already in the file returns the recorded response and
    runs nothing. Any other call runs the oracle, then appends one line
    {"key", "manifest", "seed", "response"}."""

    def __init__(self, oracle: Oracle, path: str | Path, context: Sequence[str]):
        self.oracle, self.path, self.context = oracle, Path(path), list(context)
        self._lock = threading.Lock()
        self._responses: dict[str, OracleResponse] = {}
        # A last line without its newline is a torn append: cut it off, so
        # that its call runs again and the next append starts a new line.
        with open(self.path, "a+b") as handle:  # an empty ledger if there is none
            handle.seek(0)
            handle.truncate(handle.read().rfind(b"\n") + 1)
        for line_no, record in read_jsonl(self.path):
            try:
                if not isinstance(record.get("key"), str):
                    raise DataError("no string 'key'")
                response = _response_from(record.get("response"))
            except DataError as exc:
                raise DataError(f"{self.path}: line {line_no}: bad ledger record ({exc})")
            self._responses.setdefault(record["key"], response)  # the first record wins

    def evaluate(self, request: OracleRequest) -> OracleResponse:
        parts = [*self.context, request.digest, request.seed]
        if request.history is not None:
            parts.append(request.history)
        key = hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()
        if key in self._responses:
            return self._responses[key]
        response = self.oracle.evaluate(request)
        manifest = os.path.relpath(request.manifest_path, self.path.parent)
        line = json.dumps({"key": key, "manifest": manifest, "seed": request.seed,
                           "response": asdict(response)}, ensure_ascii=False) + "\n"
        with self._lock:
            self._responses.setdefault(key, response)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        return response
