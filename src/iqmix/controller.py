"""Fine-grained per-epoch data-mix adjustment.

Each epoch's scoring/interpreting validation loss ratio is compared against
the reference ratio captured by the coarse search. A ratio below the
tolerance band grows the combined interpreting pools (split at the D2:D3
ratio of the coarse mix_ratio weights); above the band grows D1; inside the
band holds. Counts only ever grow, matching the one-directional adjustment
rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Literal, Mapping

from .datasets import PoolSet, sample_mixture, write_manifest
from .errors import ConfigError, DataError
from .mixopt import MixRatio, split_d2_d3
from .oracle import Oracle, OracleRequest
from .util import derive_seed, is_number, round_half_up

Action = Literal["increase_interpreting", "increase_scoring", "hold"]


def _check_step(lambda_loss: float, tolerance: float, factor: float, split: float) -> None:
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


def check_controls(coarse: dict, max_epochs: int, tolerance: float,
                   factor: float) -> tuple[MixRatio, float, float]:
    """Check a coarse-result document and the controls before any pool is
    loaded or oracle called: a missing or non-numeric mix_ratio weight or
    lambda_loss is a DataError, a negative weight or a control that
    run_loop() cannot act on a ConfigError. Returns the weights, lambda_loss
    and the D2:D3 split of the weights."""
    try:
        weights = coarse["mix_ratio"]
        values = (weights["d1"], weights["d2"], weights["d3"], coarse["lambda_loss"])
        if not all(is_number(v) for v in values):
            raise TypeError(f"mix_ratio weights and lambda_loss must be numbers, got {values}")
        d1, d2, d3, lambda_loss = (float(v) for v in values)
    except (KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed coarse result ({exc!r})")
    ratio = MixRatio(d1, d2, d3)
    if max_epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {max_epochs}")
    split = ratio.d2 / ratio.d3 if ratio.d3 > 0 else math.inf
    _check_step(lambda_loss, tolerance, factor, split)
    return ratio, lambda_loss, split


def decide(
    rho: float,
    lambda_loss: float,
    tolerance: float,
    factor: float,
    counts: Mapping[str, int],
    d2_d3_ratio: float,
) -> tuple[Action, dict[str, int]]:
    """One adjustment step of the loss ratio rho against the reference ratio;
    returns the action and the counts of the next epoch.

    rho < lambda*(1-tol) grows the D2+D3 total by `factor` (re-split at
    the coarse D2:D3 ratio); rho > lambda*(1+tol) grows D1 by `factor`;
    otherwise hold. Counts round half-up.
    """
    _check_step(lambda_loss, tolerance, factor, d2_d3_ratio)
    d1, d2, d3 = (int(counts.get(k, 0)) for k in ("d1", "d2", "d3"))
    if rho < lambda_loss * (1.0 - tolerance):
        return "increase_interpreting", {
            "d1": d1, **split_d2_d3(_grow("D2+D3", d2 + d3, factor), d2_d3_ratio)}
    if rho > lambda_loss * (1.0 + tolerance):
        return "increase_scoring", {"d1": _grow("D1", d1, factor), "d2": d2, "d3": d3}
    return "hold", {"d1": d1, "d2": d2, "d3": d3}


def _grow(pool: str, count: int, factor: float) -> int:
    """count times factor, rounded half-up."""
    return round_half_up(factor * count, f"{pool}: count {count} times factor {factor!r}")


def run_loop(
    oracle: Oracle,
    coarse: dict,
    pools: PoolSet,
    *,
    max_epochs: int = 3,
    tolerance: float = 0.1,
    factor: float = 1.1,
    seed: int = 0,
    workdir: str | Path,
    coarse_ref: str | None = None,
) -> list[dict]:
    """Per-epoch adjustment loop on a coarse-result document (the dict that
    coarse_search() returns); returns the epochs it ran, each the dict of
    its trajectory line: `epoch`, `counts`, `losses`, `ratio`, `action`.

    Epoch 1 trains at the coarse ratio scaled to the full D1 pool; every
    later epoch applies decide() to the previous epoch's losses and
    resamples the manifest (with replacement once a grown count exceeds its
    pool). Grown D2+D3 totals are split at the D2:D3 ratio of the coarse
    weights. Ends at max_epochs or after two consecutive holds. Every
    control is checked before the first oracle call. The request of epoch
    k >= 2 carries a history: the hex sha256 of the JSON array [history of
    epoch k-1 or null, its manifest digest, its seed], so a ledger never
    replays an epoch reached by another path. workdir/trajectory.jsonl
    gets a header line and then one line per epoch as it finishes, so a
    mid-run oracle failure leaves the completed epochs behind.
    """
    weights, lambda_loss, split = check_controls(coarse, max_epochs, tolerance, factor)
    manifest_dir = Path(workdir) / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)

    epochs: list[dict] = []
    with open(Path(workdir) / "trajectory.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"lambda_loss": lambda_loss, "tolerance": tolerance,
                                 "factor": factor, "seed": seed,
                                 "coarse_result": coarse_ref}, ensure_ascii=False) + "\n")
        counts = weights.counts_for_d1_base(len(pools.d1))
        consecutive_holds, history = 0, None
        for epoch in range(1, max_epochs + 1):
            epoch_seed = derive_seed(seed, "epoch", epoch)
            manifest = sample_mixture(pools, counts, epoch_seed, with_replacement=True)
            path = manifest_dir / f"epoch{epoch:02d}.jsonl"
            request = OracleRequest(path, epoch_seed, write_manifest(manifest, path), history)
            response = oracle.evaluate(request)
            history = hashlib.sha256(json.dumps(
                [history, request.digest, request.seed]).encode("utf-8")).hexdigest()
            rho = response.loss_scoring / response.loss_interpreting
            action, next_counts = decide(rho, lambda_loss, tolerance, factor, counts, split)
            epochs.append({"epoch": epoch, "counts": dict(counts),
                           "losses": {"scoring": response.loss_scoring,
                                      "interpreting": response.loss_interpreting},
                           "ratio": rho, "action": action})
            handle.write(json.dumps(epochs[-1], ensure_ascii=False) + "\n")
            handle.flush()

            consecutive_holds = consecutive_holds + 1 if action == "hold" else 0
            if consecutive_holds >= 2:
                break
            counts = next_counts
    return epochs
