"""Command-line surface.

One binary with subcommands: convert, score, eval-iqa, eval-mcq, eval-desc,
subsample, mix-search, mix-adjust, sample. Exit codes are stable: 0 success,
1 data error, 2 config error, 3 oracle/external failure. Every mutating
command writes a run record alongside its outputs; flags override config
values, and IQMIX_-prefixed environment variables supply flag defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import pickle
import re
import signal
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import __version__
from .controller import check_controls, run_loop
from .datasets import (
    POOL_TAGS,
    PoolSet,
    check_delimiter,
    ingest_mos,
    emit_d1_pairs,
    load_pool,
    sample_mixture,
    subsample_balanced,
    write_manifest,
    write_pairs,
)
from .errors import ConfigError, DataError, IqmixError, OracleError
from .levels import LevelScale
from .metrics import (
    PairedSample,
    description_report,
    description_text,
    mcq_report,
    mcq_text,
    pair_by_id,
    plcc,
    read_scores,
    srcc,
)
from .mixopt import MixRatio, coarse_search
from .oracle import ExternalOracle, Ledger, Oracle, SyntheticOracle, config_keys
from .scoring import BatchDiagnostic, rescale_score, score_batch
from .util import file_digest, is_number, number_setting

log = logging.getLogger(__name__)


# Every key of the config file that `sample`, `mix-search` or `mix-adjust`
# reads, but the oracle's, whose keys are the fields of its class. A row holds
# the key's type and default, the rule its value must meet (None: any value
# of the type) and the words for that rule, the commands that take it as the
# flag --<last part of the key>, and the IQMIX_ variable standing in for that
# flag. Rows are plain tuples: a NamedTuple row class held 8 KiB more
# through every run.
_PATH = (str, None, "a string", None, (), "")
_RATIOS = (list, None, "a list of positive numbers",
           lambda ratios: all(is_number(r) and 0 < r < math.inf for r in ratios), (), "")
SETTINGS = {
    "seed": (int, 0, "", None, ("subsample", "sample", "mix-search", "mix-adjust"), "IQMIX_SEED"),
    "jobs": (int, 1, ">= 1", lambda n: n >= 1, ("mix-search",), "IQMIX_JOBS"),
    "repeats": (int, 3, ">= 1", lambda n: n >= 1, ("mix-search",), ""),
    "scoring_weight": (float, 0.5, "in [0, 1]", lambda w: 0 <= w <= 1, (), ""),
    "out_dir": (str, None, "a string", None, ("mix-search", "mix-adjust"), ""),
    "axis": (str, "log10", "log10 (the only sweep axis)", lambda a: a == "log10", (), ""),
    "pools.d1": _PATH,
    "pools.d2": _PATH,
    "pools.d3": _PATH,
    "grid.stage1": _RATIOS,
    "grid.stage2": _RATIOS,
    "controller.max_epochs": (int, 3, ">= 1", lambda n: n >= 1, ("mix-adjust",), ""),
    "controller.tolerance": (float, 0.1, "in [0, 1)", lambda t: 0 <= t < 1, ("mix-adjust",), ""),
    "controller.factor": (float, 1.1, "finite and > 1", lambda f: 1 < f < math.inf,
                          ("mix-adjust",), ""),
}
_FORMAT = (str, "text", "text or json", lambda f: f in ("text", "json"),
           ("eval-iqa", "eval-mcq", "eval-desc"), "IQMIX_FORMAT")
_ORACLES = {"synthetic": SyntheticOracle, "external": ExternalOracle}


def _value(key: str, setting: tuple, args: argparse.Namespace, flat: dict):
    """A setting's value: its flag, then its IQMIX_ variable, then the config
    file, then its default. A value of the wrong type, or one that breaks the
    setting's rule, is a config error naming the key or the variable."""
    kind, default, must, rule, commands, env = setting
    value = raw = None
    if args.command in commands:
        value = getattr(args, key.rpartition(".")[2])
        raw = os.environ.get(env) if value is None else None
    name = key if raw is None else f"environment variable {env}={raw!r}"
    if raw is not None:
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{name} is not valid")
    value = flat.get(key) if value is None else value
    if value is None:
        return default
    if kind in (int, float):
        value = number_setting(value, key, kind)
    if not (isinstance(value, kind) and (rule is None or rule(value))):
        raise ConfigError(f"{name} must be {must}"
                          + (f", got {value!r}" if raw is None else ""))
    return value


def _known_keys(conf: dict) -> list[str]:
    """Every key the config may hold: the oracle's from the class its kind names,
    or from every class if none (a bad kind is reported when the oracle is built)."""
    section = conf.get("oracle")
    kind = section.get("kind") if isinstance(section, dict) else None
    classes = [cls for name, cls in _ORACLES.items() if name == kind] or _ORACLES.values()
    return [*SETTINGS, "oracle.kind", *(key for cls in classes for key in config_keys(cls))]


def _flatten(doc: dict, known: list[str], prefix: str = "") -> dict:
    """doc's values by dotted key. A section (a key that known keys extend)
    must be a mapping, and null reads as {}; any other key must be known."""
    flat = {}
    for name, value in doc.items():
        key = f"{prefix}{name}"
        section = any(k.startswith(f"{key}.") for k in known)
        if "." in str(name) or not (section or key in known):
            import difflib  # on this path only: importing it costs resident memory
            near = difflib.get_close_matches(key, known, n=1)
            raise ConfigError(f"unknown key {key!r}"
                              + (f"; did you mean {near[0]!r}?" if near else ""))
        if not section:
            flat[key] = value
        elif value is not None and not isinstance(value, dict):
            raise ConfigError(f"{key} must be a mapping, got {value!r}")
        else:
            flat.update(_flatten(value or {}, known, f"{key}."))
    return flat


def _config(args: argparse.Namespace) -> tuple[dict, dict, Oracle | None]:
    """The config file, every setting's value by dotted key, and the oracle
    (None for a `sample` config without one): the whole file is checked
    before any other file is opened or touched."""
    try:
        with open(args.config, encoding="utf-8") as handle:
            conf = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}")
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # not UTF-8, a huge int, deep
        raise ConfigError(f"invalid config {args.config}: {exc}")
    if conf is None:
        conf = {}
    if not isinstance(conf, dict):
        raise ConfigError(f"{args.config}: config root must be a mapping")
    flat = _flatten(conf, _known_keys(conf))
    settings = {key: _value(key, setting, args, flat) for key, setting in SETTINGS.items()}
    section = conf.get("oracle")
    if section is None and args.command == "sample":
        return conf, settings, None
    return conf, settings, _build_oracle(section or {})


# Run records ------------------------------------------------------------------


def _digests(*paths: str | Path) -> list[tuple[str | Path, str]]:
    return [(path, file_digest(path)) for path in paths]


def _config_hash(flags: dict, inputs: Sequence[tuple[str | Path, str]]) -> str:
    """sha256 over the flags as sorted-key JSON and each input's path and digest."""
    digest = hashlib.sha256(json.dumps(flags, sort_keys=True, default=str).encode("utf-8"))
    for path, file_hash in inputs:
        digest.update(f"\x00{path}\x00{file_hash}".encode("utf-8"))
    return digest.hexdigest()


def _write_run_record(
    command: str,
    flags: dict,
    inputs: Sequence[tuple[str | Path, str]],
    outputs: Sequence[str | Path],
    seed: int,
    started: str,
    record_path: Path | None = None,
) -> None:
    """Write the run record to record_path, by default `{first output}.run.json`."""
    record = {
        "command": command,
        "config_hash": _config_hash(flags, inputs),
        "seed": seed,
        "tool_version": __version__,
        "outputs": [str(p) for p in outputs],
        "started": started,
        "finished": _now(),
    }
    record_path = record_path or Path(f"{outputs[0]}.run.json")
    record_path.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n",
                           encoding="utf-8")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# Shared input helpers ----------------------------------------------------------


# A pool file of this many bytes or more, but the largest, loads in a forked
# child while this process loads the rest. Forking paid from about 1 MB on
# two cores; the floor sits where it was measured end to end (README).
FORK_MIN_BYTES = 4 << 20


def _load(path: str, tag: str) -> tuple[np.ndarray, str] | tuple[tuple, Exception]:
    """A pool's rows and the hex sha256 of its file, or no rows and the error its load raised."""
    digest = hashlib.sha256()
    try:
        return load_pool(path, tag, digest=digest), digest.hexdigest()
    except (IqmixError, OSError) as exc:
        return (), exc


def _fork_load(path: str, tag: str):
    """(pid, pipe) of a forked child that pickles to the pipe the row count
    and the digest or error of _load, then the rows, 16384 at a time."""
    read_end, write_end = os.pipe()
    if pid := os.fork():
        os.close(write_end)
        return pid, open(read_end, "rb")
    try:  # the child: nothing of the CLI runs after this, not even atexit
        with open(write_end, "wb") as pipe:
            pool, digest = _load(path, tag)
            pickle.dump((len(pool), digest), pipe)
            for start in range(0, len(pool), 16384):
                pickle.dump(pool[start:start + 16384].tolist(), pipe)
    finally:
        os._exit(0)


def _read_forked(path: str, pipe) -> tuple[np.ndarray, str] | tuple[tuple, Exception]:
    """What _load returned in a _fork_load child, read from its pipe."""
    try:
        count, digest = pickle.load(pipe)
        rows = (row for _ in range(0, count, 16384) for row in pickle.load(pipe))
        return np.fromiter(rows, dtype=object, count=count), digest
    except (EOFError, pickle.UnpicklingError):  # the child died
        return (), IqmixError(f"{path}: the process loading this pool ended before the pool did")


def _load_pools(settings: dict) -> tuple[PoolSet, list[tuple[str | Path, str]]]:
    """The three pools of the config, and their paths and file digests in
    d1, d2, d3 order, which both the ledger and the run record use. Each
    digest is of the bytes its pool was parsed from: one read per file.
    Pools of FORK_MIN_BYTES or more but the largest load in forked children;
    the first error in d1, d2, d3 order is raised, and no child outlives the call."""
    paths = [settings[f"pools.{key}"] for key in ("d1", "d2", "d3")]
    missing = [key for key, path in zip(("d1", "d2", "d3"), paths) if not path]
    if missing:
        raise ConfigError(f"config pools missing path(s): {', '.join(missing)}")
    sizes = [os.path.isfile(path) and os.path.getsize(path) for path in paths]
    largest, children, results = sizes.index(max(sizes)), {}, {}
    try:
        for i in (i for i in range(3) if i != largest and sizes[i] >= FORK_MIN_BYTES):
            children[i] = _fork_load(paths[i], POOL_TAGS[i])
        for i in (i for i in range(3) if i not in children):
            results[i] = _load(paths[i], POOL_TAGS[i])
            if isinstance(results[i][1], Exception):
                break  # no pool after it has an error to raise first
        for i in range(3):
            if i in children:
                results[i] = _read_forked(paths[i], children[i][1])
            if isinstance(results[i][1], Exception):
                raise results[i][1]
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pools, hex_digests = zip(*(results[i] for i in range(3)))
    return PoolSet(*pools), list(zip(paths, hex_digests))


def _fresh_out_dir(args: argparse.Namespace, settings: dict, output: str) -> Path:
    """The run's out-dir, made if absent, less the output and run record of
    an earlier run: deleted after the checks that need no pool and before
    any pool load, so a run that fails leaves neither behind as its own."""
    value = settings["out_dir"]
    out_dir = Path(f"{args.command}-run" if value is None else value)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in (output, "runrecord.json"):
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


def _build_oracle(section: dict) -> Oracle:
    """The oracle of a config's oracle section; a bad one is a config error."""
    for kind, cls in _ORACLES.items():
        if section.get("kind") == kind:
            return cls.from_dict(section)
    raise ConfigError(f"oracle.kind must be synthetic or external, got {section.get('kind')!r}")


def _ledger(oracle: Oracle, conf: dict, out_dir: Path, pool_inputs: Sequence[tuple]) -> Ledger:
    """The oracle behind out_dir's ledger, keyed by the pool digests and the
    oracle section without `timeout` (which never changes a result)."""
    identity = {k: v for k, v in (conf.get("oracle") or {}).items() if k != "timeout"}
    context = [d for _, d in pool_inputs] + [json.dumps(identity, sort_keys=True, default=str)]
    return Ledger(oracle, out_dir / "ledger.jsonl", context)


# Subcommands -------------------------------------------------------------------


def cmd_convert(args: argparse.Namespace) -> int:
    started = _now()
    scale = LevelScale(args.scale_min, args.scale_max)
    mos = ingest_mos(args.mos_file, scale, delimiter=args.delimiter, strict=not args.lenient)
    pairs = emit_d1_pairs(mos, scale)
    out = Path(args.out)
    write_pairs(pairs, out, inline_system=args.inline_system)

    values = np.fromiter(mos.values(), dtype=np.float64, count=len(mos))
    histogram = Counter(label for _, label in pairs)
    print(f"converted {len(pairs)} records "
          f"(mos mean {values.mean():.3f}, std {values.std():.3f})")
    for label in scale.labels:
        print(f"  {label:<10} {histogram[label]}")

    _write_run_record(
        "convert",
        {"scale": [args.scale_min, args.scale_max], "delimiter": args.delimiter,
         "lenient": args.lenient, "inline_system": args.inline_system,
         "out": str(out)},
        _digests(args.mos_file), [out], seed=0, started=started,
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    started = _now()
    binary = args.mode == "binary"
    rescale = None
    if args.rescale is not None:
        if binary:
            raise ConfigError("--rescale applies to five-level mode only")
        rescale = LevelScale(args.rescale[0], args.rescale[1])
        # rescale_score's product (score - 1) * width reaches width * (n - 1).
        width = rescale.max_score - rescale.min_score
        if not math.isfinite(width * (rescale.level_count - 1)):
            raise ConfigError(f"--rescale range {args.rescale} is too wide: "
                              f"scores would overflow to infinity")
    out = Path(args.out)
    diagnostics = 0
    encode_id = json.encoder.encode_basestring_ascii
    with open(args.logits_file, encoding="utf-8") as src, \
            open(out, "w", encoding="utf-8") as dst:
        try:  # one handler around the loop: nothing is added per record
            for item in score_batch(src, binary=binary, strict=args.strict):
                if isinstance(item, BatchDiagnostic):
                    diagnostics += 1
                    print(item, file=sys.stderr)
                    continue
                item_id, score = item
                if rescale is not None:
                    score = rescale_score(score, rescale)
                # repr is the bytes json.dumps writes for a finite float.
                dst.write(f'{{"id": {encode_id(item_id)}, "score": {score!r}}}\n')
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.logits_file}: not valid UTF-8 ({exc.reason})")
    if diagnostics:
        print(f"{diagnostics} malformed record(s) skipped", file=sys.stderr)

    _write_run_record(
        "score",
        {"mode": args.mode, "strict": args.strict, "rescale": args.rescale,
         "out": str(out)},
        _digests(args.logits_file), [out], seed=0, started=started,
    )
    return 0


def _emit_report(doc: dict, text: str, fmt: str) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False) if fmt == "json" else text)


def _join_scores_to_mos(args: argparse.Namespace) -> PairedSample:
    """Scores paired with MOS by id, in score-file order; the id tables are
    freed on return, before the metrics (and the logistic fit) run."""
    check_delimiter(args.delimiter)  # a config error comes before any input is read
    ids, scores = read_scores(args.scores_file)
    mos = ingest_mos(args.mos_file, delimiter=args.delimiter)
    predictions, truth = pair_by_id(ids, scores, mos)
    missing = (len(ids) - len(truth)) + (len(mos) - len(truth))
    if missing:
        log.warning("%d id(s) present on only one side were dropped", missing)
    if len(truth) < 2:
        raise DataError(f"join produced {len(truth)} shared id(s); need at least 2")
    return PairedSample.from_arrays(predictions, truth)


def cmd_eval_iqa(args: argparse.Namespace) -> int:
    sample = _join_scores_to_mos(args)
    count = len(sample.predictions)
    s, p = srcc(sample), plcc(sample, logistic=args.logistic)
    doc = {"count": count, "srcc": s, "plcc": p, "avg": 0.5 * (s + p)}
    text = (f"n      {count}\n"
            f"srcc   {s:.6f}\n"
            f"plcc   {p:.6f}\n"
            f"avg    {0.5 * (s + p):.6f}")
    _emit_report(doc, text, args.format)
    return 0


def cmd_eval_mcq(args: argparse.Namespace) -> int:
    report = mcq_report(args.answers_file)
    _emit_report(report, mcq_text(report), args.format)
    return 0


def cmd_eval_desc(args: argparse.Namespace) -> int:
    report = description_report(args.ratings_file)
    _emit_report(report, description_text(report), args.format)
    return 0


def cmd_subsample(args: argparse.Namespace) -> int:
    started = _now()
    seed = _value("seed", SETTINGS["seed"], args, {})
    mos = ingest_mos(args.mos_file, delimiter=args.delimiter)
    subset = subsample_balanced(mos, args.target, bins=args.bins, seed=seed)
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("image_id", "mos"))
        writer.writerows((image_id, repr(value)) for image_id, value in subset.items())
    print(f"subsampled {len(subset)} of {len(mos)} records into {out}")

    _write_run_record(
        "subsample",
        {"target": args.target, "bins": args.bins, "out": str(out)},
        _digests(args.mos_file), [out], seed=seed, started=started,
    )
    return 0


def _parse_triplet(text: str, what: str) -> tuple[float, float, float]:
    parts = text.replace(",", ":").split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} must be three colon-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"{what} must be numeric, got {text!r}")


def cmd_sample(args: argparse.Namespace) -> int:
    started = _now()
    settings = _config(args)[1]
    if args.counts is not None:
        parts = _parse_triplet(args.counts, "--counts")
        if not all(p >= 0 and p.is_integer() for p in parts):  # nan and inf are not integers
            raise ConfigError(f"--counts must be whole numbers >= 0, got {args.counts!r}")
        counts = dict(zip(("d1", "d2", "d3"), map(int, parts)))
    elif args.ratio is not None:
        ratio = MixRatio(*_parse_triplet(args.ratio, "--ratio"))
    else:
        raise ConfigError("sample requires --counts or --ratio")
    pools, pool_inputs = _load_pools(settings)
    if args.counts is None:
        counts = ratio.counts_for_d1_base(len(pools.d1))
    manifest = sample_mixture(pools, counts, settings["seed"],
                              with_replacement=args.with_replacement)
    out = Path(args.out)
    write_manifest(manifest, out)
    print(f"manifest with {len(manifest.entries)} entries "
          f"(counts {manifest.counts}) written to {out}")

    _write_run_record(
        "sample",
        {"counts": counts, "with_replacement": args.with_replacement, "out": str(out)},
        [*_digests(args.config), *pool_inputs], [out], seed=settings["seed"], started=started,
    )
    return 0


def cmd_mix_search(args: argparse.Namespace) -> int:
    started = _now()
    conf, settings, oracle = _config(args)
    seed, repeats, jobs = (settings[key] for key in ("seed", "repeats", "jobs"))
    grids = {stage: settings[f"grid.{stage}"] for stage in ("stage1", "stage2")}
    for stage, ratios in grids.items():  # a degree-4 fit needs 5 distinct ratios
        if ratios is not None and len(set(ratios)) < 5:
            raise ConfigError(f"grid.{stage} needs 5 distinct ratios for a degree-4 fit, "
                              f"got {ratios!r}")
    out_dir = _fresh_out_dir(args, settings, "coarse_result.json")
    result_path = out_dir / "coarse_result.json"

    pools, pool_inputs = _load_pools(settings)
    ledger = _ledger(oracle, conf, out_dir, pool_inputs)
    doc = coarse_search(ledger, pools, workdir=out_dir, seed=seed, repeats=repeats, jobs=jobs,
                        scoring_weight=settings["scoring_weight"],
                        stage1_ratios=grids["stage1"], stage2_ratios=grids["stage2"])
    weights = doc["mix_ratio"]
    print(f"d2:d3 ratio        {doc['stage1']['ratio']:.6g}")
    print(f"(d2+d3):d1 ratio   {doc['stage2']['ratio']:.6g}")
    print(f"mix ratio d1:d2:d3 {weights['d1']:.4g}:{weights['d2']:.4g}:{weights['d3']:.4g}")
    print(f"reference loss ratio {doc['lambda_loss']:.6g}")
    print(f"result written to {result_path}")

    _write_run_record(
        "mix-search",
        {"seed": seed, "repeats": repeats, "jobs": jobs, "out_dir": str(out_dir)},
        [*_digests(args.config), *pool_inputs], [result_path, ledger.path],
        seed=seed, started=started,
        record_path=out_dir / "runrecord.json",
    )
    return 0


def cmd_mix_adjust(args: argparse.Namespace) -> int:
    started = _now()
    conf, settings, oracle = _config(args)
    seed, max_epochs, tolerance, factor = (settings[key] for key in (
        "seed", "controller.max_epochs", "controller.tolerance", "controller.factor"))
    try:
        coarse = json.loads(Path(args.coarse_result).read_text(encoding="utf-8"))
        check_controls(coarse, max_epochs, tolerance, factor)
    except (OSError, ValueError, RecursionError, DataError) as exc:  # ValueError: not JSON
        raise DataError(f"cannot read coarse result {args.coarse_result}: {exc}")
    out_dir = _fresh_out_dir(args, settings, "trajectory.jsonl")
    trajectory_path = out_dir / "trajectory.jsonl"

    pools, pool_inputs = _load_pools(settings)
    ledger = _ledger(oracle, conf, out_dir, pool_inputs)
    epochs = run_loop(
        ledger, coarse, pools, max_epochs=max_epochs, tolerance=tolerance, factor=factor,
        seed=seed, workdir=out_dir, coarse_ref=str(args.coarse_result),
    )
    for record in epochs:
        print(f"epoch {record['epoch']}: counts {record['counts']} "
              f"ratio {record['ratio']:.6g} -> {record['action']}")
    print(f"trajectory written to {trajectory_path}")

    _write_run_record(
        "mix-adjust",
        {"seed": seed, "max_epochs": max_epochs, "tolerance": tolerance, "factor": factor,
         "out_dir": str(out_dir)},
        [*_digests(args.config, args.coarse_result), *pool_inputs],
        [trajectory_path, ledger.path],
        seed=seed, started=started,
        record_path=out_dir / "runrecord.json",
    )
    return 0


# Parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes every negative number for a value, also in exponent form
    (`--scale-min -1e3`), which argparse's own pattern takes for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iqmix",
        description="Image-quality rating conversions, logit scoring, IQA "
                    "evaluation, and data-mixture optimization.",
    )
    parser.add_argument("--version", action="version", version=f"iqmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a MOS file into scoring QA pairs")
    p.add_argument("mos_file")
    p.add_argument("--scale-min", type=float, required=True,
                   help="lowest score of the dataset scale")
    p.add_argument("--scale-max", type=float, required=True,
                   help="highest score of the dataset scale")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed/out-of-scale rows instead of aborting")
    p.add_argument("--inline-system", action="store_true",
                   help="prepend the system prefix to the question text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("score", help="score level-logit records")
    p.add_argument("logits_file")
    p.add_argument("--mode", choices=["five-level", "binary"], default="five-level")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed record")
    p.add_argument("--rescale", type=float, nargs=2, metavar=("MIN", "MAX"),
                   help="affinely rescale five-level scores onto [MIN, MAX]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval-iqa", help="SRCC/PLCC of scores against MOS")
    p.add_argument("scores_file")
    p.add_argument("mos_file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--logistic", action="store_true",
                   help="apply the four-parameter logistic pre-mapping to PLCC")
    p.set_defaults(func=cmd_eval_iqa)

    p = sub.add_parser("eval-mcq", help="multiple-choice accuracy report")
    p.add_argument("answers_file")
    p.set_defaults(func=cmd_eval_mcq)

    p = sub.add_parser("eval-desc", help="description-rating report")
    p.add_argument("ratings_file")
    p.set_defaults(func=cmd_eval_desc)

    p = sub.add_parser("subsample", help="balance a MOS distribution by subsampling")
    p.add_argument("mos_file")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("sample", help="sample a training manifest from pools")
    p.add_argument("--config", required=True, help="YAML config with pools paths")
    p.add_argument("--counts", help="explicit d1:d2:d3 counts")
    p.add_argument("--ratio", help="d1:d2:d3 ratio scaled to the full D1 pool")
    p.add_argument("--with-replacement", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mix-search", help="coarse-grained optimal mix ratio search")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_mix_search)

    p = sub.add_parser("mix-adjust", help="fine-grained per-epoch mix adjustment")
    p.add_argument("--config", required=True)
    p.add_argument("--coarse-result", required=True)
    p.set_defaults(func=cmd_mix_adjust)

    for key, (kind, _, _, _, commands, _) in [*SETTINGS.items(), ("format", _FORMAT)]:
        for command in commands:
            flag = "--" + key.rpartition(".")[2].replace("_", "-")
            sub.choices[command].add_argument(flag, type=kind)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if "format" in args:  # before any input is read
            args.format = _value("format", _FORMAT, args, {})
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3
    except (IqmixError, OSError) as exc:  # DataError is an IqmixError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
