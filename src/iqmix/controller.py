"""Fine-grained per-epoch data-mix adjustment.

Each epoch's scoring/interpreting validation loss ratio is compared against
the reference ratio captured by the coarse search. A ratio below the
tolerance band grows the combined interpreting pools (split at the D2:D3
ratio of the coarse mix_ratio weights); above the band grows D1; inside the
band holds. Counts only ever grow, matching the one-directional adjustment
rule.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Literal, Mapping

from .datasets import PoolSet, sample_mixture, write_manifest
from .errors import ConfigError, DataError
from .mixopt import CoarseResult
from .oracle import Oracle, OracleRequest
from .util import derive_seed, read_jsonl, round_half_up

log = logging.getLogger(__name__)

Action = Literal["increase_interpreting", "increase_scoring", "hold"]


@dataclass(frozen=True)
class EpochObservation:
    epoch: int
    loss_scoring: float
    loss_interpreting: float

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise DataError(f"epoch must be >= 1, got {self.epoch}")
        for name in ("loss_scoring", "loss_interpreting"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DataError(f"{name} must be strictly positive, got {value!r}")

    @property
    def ratio(self) -> float:
        return self.loss_scoring / self.loss_interpreting


@dataclass(frozen=True)
class AdjustmentDecision:
    action: Action
    factor: float
    new_counts: dict[str, int]


def _check_controls(lambda_loss: float, tolerance: float, factor: float,
                    split: float) -> None:
    """Reject a reference ratio, tolerance, growth factor or D2:D3 split that
    decide() cannot act on; a NaN fails every test."""
    if not 0.0 < lambda_loss < math.inf:
        raise ConfigError(f"lambda_loss must be finite and positive, got {lambda_loss!r}")
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1), got {tolerance!r}")
    if not 1.0 < factor < math.inf:
        raise ConfigError(f"factor must be finite and > 1, got {factor!r}")
    if not 0.0 < split < math.inf:
        raise ConfigError(f"D2:D3 split must be finite and positive, got {split!r}")


def decide(
    obs: EpochObservation,
    lambda_loss: float,
    tolerance: float,
    factor: float,
    current_counts: Mapping[str, int],
    d2_d3_ratio: float,
) -> AdjustmentDecision:
    """One adjustment step against the reference loss ratio.

    ratio < lambda*(1-tol) grows the D2+D3 total by `factor` (re-split at
    the coarse D2:D3 ratio); ratio > lambda*(1+tol) grows D1 by `factor`;
    otherwise hold. Counts round half-up.
    """
    _check_controls(lambda_loss, tolerance, factor, d2_d3_ratio)
    counts = {k: int(current_counts.get(k, 0)) for k in ("d1", "d2", "d3")}
    rho = obs.ratio
    if rho < lambda_loss * (1.0 - tolerance):
        new_total = round_half_up(factor * (counts["d2"] + counts["d3"]))
        share = d2_d3_ratio / (1.0 + d2_d3_ratio)
        d2 = round_half_up(new_total * share)
        return AdjustmentDecision(
            "increase_interpreting", factor,
            {"d1": counts["d1"], "d2": d2, "d3": new_total - d2},
        )
    if rho > lambda_loss * (1.0 + tolerance):
        return AdjustmentDecision(
            "increase_scoring", factor,
            {"d1": round_half_up(factor * counts["d1"]),
             "d2": counts["d2"], "d3": counts["d3"]},
        )
    return AdjustmentDecision("hold", factor, counts)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    counts: dict[str, int]
    losses: dict[str, float]
    ratio: float
    action: Action

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "counts": self.counts,
            "losses": self.losses,
            "ratio": self.ratio,
            "action": self.action,
        }


@dataclass
class Trajectory:
    lambda_loss: float
    tolerance: float
    factor: float
    seed: int
    coarse_ref: str | None = None
    epochs: list[EpochRecord] = field(default_factory=list)

    def header_dict(self) -> dict:
        return {
            "lambda_loss": self.lambda_loss,
            "tolerance": self.tolerance,
            "factor": self.factor,
            "seed": self.seed,
            "coarse_result": self.coarse_ref,
        }


def read_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory file back; a malformed or half-written line raises
    a DataError naming its line."""
    trajectory: Trajectory | None = None
    for line_no, obj in read_jsonl(path):
        try:
            if trajectory is None:
                trajectory = Trajectory(
                    lambda_loss=float(obj["lambda_loss"]),
                    tolerance=float(obj["tolerance"]),
                    factor=float(obj["factor"]),
                    seed=int(obj["seed"]),
                    coarse_ref=obj.get("coarse_result"),
                )
                continue
            trajectory.epochs.append(
                EpochRecord(
                    epoch=int(obj["epoch"]),
                    counts={k: int(v) for k, v in obj["counts"].items()},
                    losses={k: float(v) for k, v in obj["losses"].items()},
                    ratio=float(obj["ratio"]),
                    action=obj["action"],
                )
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DataError(f"{path}: line {line_no}: malformed trajectory record ({exc!r})")
    if trajectory is None:
        raise DataError(f"{path}: missing trajectory header")
    return trajectory


def _append_line(handle: IO[str] | None, obj: dict) -> None:
    if handle is not None:
        handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
        handle.flush()


def run_loop(
    oracle: Oracle,
    coarse: CoarseResult,
    pools: PoolSet,
    *,
    max_epochs: int = 3,
    tolerance: float = 0.1,
    factor: float = 1.1,
    seed: int = 0,
    workdir: str | Path,
    out_path: str | Path | None = None,
    coarse_ref: str | None = None,
) -> Trajectory:
    """Per-epoch adjustment loop.

    Epoch 1 trains at the coarse ratio scaled to the full D1 pool; every
    later epoch applies decide() to the previous epoch's losses and
    resamples the manifest (with replacement once a grown count exceeds its
    pool). Grown D2+D3 totals are split at the D2:D3 ratio of the coarse
    weights. Ends at max_epochs or after two consecutive holds. Every
    control is checked before the first oracle call. The trajectory file is
    append-only, so a mid-run oracle failure leaves the completed epochs
    behind.
    """
    if max_epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {max_epochs}")
    weights = coarse.ratio
    split = weights.d2 / weights.d3 if weights.d3 > 0 else math.inf
    _check_controls(coarse.lambda_loss, tolerance, factor, split)
    manifest_dir = Path(workdir) / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)

    trajectory = Trajectory(
        lambda_loss=coarse.lambda_loss,
        tolerance=tolerance,
        factor=factor,
        seed=seed,
        coarse_ref=coarse_ref,
    )
    handle: IO[str] | None = None
    if out_path is not None:
        handle = open(out_path, "w", encoding="utf-8")
    try:
        _append_line(handle, trajectory.header_dict())
        counts = coarse.ratio.counts_for_d1_base(len(pools.d1))
        sizes = pools.sizes()
        consecutive_holds = 0
        for epoch in range(1, max_epochs + 1):
            epoch_seed = derive_seed(seed, "epoch", epoch)
            oversample = any(counts[k] > sizes[k] for k in counts)
            if oversample:
                log.info("epoch %d: counts exceed pool sizes, sampling with replacement",
                         epoch)
            manifest = sample_mixture(pools, counts, epoch_seed,
                                      with_replacement=oversample)
            path = manifest_dir / f"epoch{epoch:02d}.jsonl"
            write_manifest(manifest, path)
            response = oracle.evaluate(OracleRequest(path, epoch_seed))
            obs = EpochObservation(epoch, response.loss_scoring,
                                   response.loss_interpreting)
            decision = decide(obs, coarse.lambda_loss, tolerance, factor,
                              counts, split)
            record = EpochRecord(
                epoch=epoch,
                counts=dict(counts),
                losses={"scoring": obs.loss_scoring,
                        "interpreting": obs.loss_interpreting},
                ratio=obs.ratio,
                action=decision.action,
            )
            trajectory.epochs.append(record)
            _append_line(handle, record.to_dict())

            consecutive_holds = consecutive_holds + 1 if decision.action == "hold" else 0
            if consecutive_holds >= 2:
                break
            counts = decision.new_counts
    finally:
        if handle is not None:
            handle.close()
    return trajectory
