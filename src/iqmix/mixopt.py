"""Coarse-grained optimal data-mix ratio estimation.

Two one-dimensional stages: sweep the D2:D3 ratio with the anchor pool used
in full, fit a fourth-degree polynomial to performance over the log10 ratio
axis, and take its constrained maximizer; then sweep the combined
interpreting pool against D1 the same way. The composed D1:D2:D3 ratio plus
the scoring/interpreting loss ratio measured at a confirmation run feed the
fine-grained per-epoch controller.

Performance points carry the ratio *realized* by the integer manifest
counts, not the nominal grid value, so fits are made against the mixtures
that were actually trained.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .datasets import PoolSet, sample_mixture, write_manifest
from .errors import ConfigError, DataError
from .oracle import Oracle, OracleRequest, OracleResponse, realized_axes
from .util import derive_seed, round_half_up

log = logging.getLogger(__name__)

Stage = Literal["d2_vs_d3", "mixed_vs_d1"]


@dataclass(frozen=True)
class MixRatio:
    """Relative D1:D2:D3 sampling weights (not normalized)."""

    d1: float
    d2: float
    d3: float

    def __post_init__(self) -> None:
        weights = (self.d1, self.d2, self.d3)
        if any(not math.isfinite(w) or w < 0 for w in weights):
            raise ConfigError(f"mix weights must be finite and nonnegative: {weights}")
        if not any(w > 0 for w in weights):
            raise ConfigError("at least one mix weight must be positive")

    @classmethod
    def from_stage_ratios(cls, d2_d3: float, mixed_d1: float) -> "MixRatio":
        """Compose d1=1 weights from the two stage ratios."""
        share = d2_d3 / (1.0 + d2_d3)
        return cls(1.0, mixed_d1 * share, mixed_d1 * (1.0 - share))

    def counts_for_d1_base(self, d1_count: int) -> dict[str, int]:
        """Integer per-pool counts with D1 pinned to d1_count."""
        if self.d1 <= 0:
            raise ConfigError("counts_for_d1_base requires a positive d1 weight")
        scale = d1_count / self.d1
        weights = f"count at weights {self.d1!r}:{self.d2!r}:{self.d3!r} with D1 at {d1_count}"
        return {
            "d1": d1_count,
            "d2": round_half_up(self.d2 * scale, f"D2: {weights}"),
            "d3": round_half_up(self.d3 * scale, f"D3: {weights}"),
        }


def grid_ratios(stage: Stage) -> tuple[float, ...]:
    """Default component-ratio grid for a stage, sorted ascending.

    Stage 1 sweeps D2:D3 from 1:0.1 up to 1:1 (full D2) and from 1:1 up to
    1:10 (full D3), with the shared 1:1 point collapsed. Stage 2 sweeps the
    combined interpreting pool against D1 over 0.1..0.9 then 1..10.
    """
    if stage == "d2_vs_d3":
        ratios = {10.0 / k for k in range(1, 11)} | {k / 10.0 for k in range(1, 11)}
    elif stage == "mixed_vs_d1":
        ratios = {k / 10.0 for k in range(1, 10)} | {float(k) for k in range(1, 11)}
    else:
        raise ConfigError(f"unknown sweep stage {stage!r}")
    return tuple(sorted(ratios))


def compose_counts(
    stage: Stage,
    ratio: float,
    pool_sizes: dict[str, int],
    d2_d3_ratio: float | None = None,
) -> dict[str, int]:
    """Integer per-pool counts realizing one grid ratio.

    Stage 1 keeps the larger-share pool whole (the full D2 dataset on the
    1:<=1 side, the full D3 dataset on the other) and scales the remaining
    pool. Stage 2 uses the whole D1 pool as the base and splits the combined
    interpreting count at the stage-1 ratio.
    """
    if ratio <= 0:
        raise ConfigError(f"grid ratio must be positive, got {ratio}")
    if stage == "d2_vs_d3":
        if ratio >= 1.0:
            d2 = pool_sizes["d2"]
            d3 = max(1, round_half_up(d2 / ratio))
        else:
            d3 = pool_sizes["d3"]
            d2 = max(1, round_half_up(d3 * ratio))
        return {"d1": 0, "d2": d2, "d3": d3}
    if stage == "mixed_vs_d1":
        if d2_d3_ratio is None or d2_d3_ratio <= 0:
            raise ConfigError("stage mixed_vs_d1 requires a positive d2_d3_ratio")
        d1 = pool_sizes["d1"]
        total = round_half_up(d1 * ratio, f"D2+D3: count {d1} times ratio {ratio!r}")
        return {"d1": d1, **split_d2_d3(max(1, total), d2_d3_ratio)}
    raise ConfigError(f"unknown sweep stage {stage!r}")


def split_d2_d3(total: int, d2_d3_ratio: float) -> dict[str, int]:
    """A D2+D3 total split at a D2:D3 ratio: D2 rounds half-up, D3 takes the rest."""
    d2 = round_half_up(total * (d2_d3_ratio / (1.0 + d2_d3_ratio)))
    return {"d2": d2, "d3": total - d2}


def _request(pools: PoolSet, counts: dict[str, int], seed: int, path: Path) -> OracleRequest:
    """Sample the counts under seed, write the manifest to path, return its request."""
    manifest = sample_mixture(pools, counts, seed, with_replacement=True)
    return OracleRequest(path, seed, write_manifest(manifest, path))


def _point_performance(stage: Stage, response: OracleResponse, scoring_weight: float) -> float:
    if stage == "d2_vs_d3":
        return response.perf_interpreting
    return (
        scoring_weight * response.perf_scoring
        + (1.0 - scoring_weight) * response.perf_interpreting
    )


def _evaluate_in_order(
    oracle: Oracle, requests: Sequence[OracleRequest], jobs: int
) -> list[OracleResponse]:
    """Each request's response, evaluated in order with at most `jobs` calls
    in flight.

    A call starts only while no failure has been seen; calls already running
    when one fails still finish. Then the failure of the lowest request
    index is raised as it is.
    """
    futures: list[Future] = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for request in requests:
            running = [future for future in futures if not future.done()]
            if len(running) >= jobs:
                wait(running, return_when=FIRST_COMPLETED)
            if any(future.done() and future.exception() is not None for future in futures):
                break
            futures.append(pool.submit(oracle.evaluate, request))
    return [future.result() for future in futures]  # raises the first failure in order


def sweep(
    oracle: Oracle,
    stage: Stage,
    pools: PoolSet,
    *,
    repeats: int = 3,
    seed: int = 0,
    workdir: str | Path,
    ratios: Sequence[float] | None = None,
    d2_d3_ratio: float | None = None,
    scoring_weight: float = 0.5,
    jobs: int = 1,
) -> list[dict]:
    """Evaluate every grid ratio `repeats` times and average, into one point
    record per ratio: the realized log10 `axis`, the mean `performance`,
    `repeats` and the mean `loss_scoring` and `loss_interpreting`.

    Each (point, repeat) gets its own derived seed, its own sampled manifest
    on disk, and one oracle call; at most `jobs` calls run at once, and
    results are aggregated in grid order. After the first oracle error no
    further call starts; the calls in flight finish, and then that error is
    raised.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    grid = tuple(sorted(ratios)) if ratios else grid_ratios(stage)
    sizes = pools.sizes()
    # Each point's counts and the axis they realize, for its calls and its result.
    plan = [(counts, realized_axes(counts)[0 if stage == "d2_vs_d3" else 1])
            for counts in (compose_counts(stage, r, sizes, d2_d3_ratio) for r in grid)]
    _check_distinct_axes([axis for _, axis in plan])  # close ratios can round alike
    manifest_dir = Path(workdir) / "manifests" / stage
    manifest_dir.mkdir(parents=True, exist_ok=True)
    requests = [_request(pools, counts, derive_seed(seed, stage, point, rep),
                         manifest_dir / f"point{point:02d}_rep{rep}.jsonl")
                for point, (counts, _) in enumerate(plan) for rep in range(repeats)]

    responses = _evaluate_in_order(oracle, requests, jobs)
    points: list[dict] = []
    for point, (_, axis) in enumerate(plan):
        chunk = responses[point * repeats : (point + 1) * repeats]
        perfs = [_point_performance(stage, r, scoring_weight) for r in chunk]
        points.append({
            "axis": axis,
            "performance": float(np.mean(perfs)),
            "repeats": repeats,
            "loss_scoring": float(np.mean([r.loss_scoring for r in chunk])),
            "loss_interpreting": float(np.mean([r.loss_interpreting for r in chunk])),
        })
    return points


def _check_distinct_axes(axes: Sequence[float]) -> None:
    distinct = len(set(axes))
    if distinct < 5:
        raise DataError(
            f"degree-4 fit needs >= 5 distinct axis values, got {distinct}"
        )


def fit_curve(points: Sequence[dict]) -> dict:
    """Least-squares degree-4 fit of the points' performance over their log10
    ratio axis: the ascending `coefficients` c0..c4, the `fit_domain` [min,
    max] of the axis, which the maximizer never leaves, and `residual_rms`."""
    x = np.asarray([p["axis"] for p in points], dtype=np.float64)
    y = np.asarray([p["performance"] for p in points], dtype=np.float64)
    _check_distinct_axes(x.tolist())
    coef = npoly.polyfit(x, y, 4)
    residuals = npoly.polyval(x, coef) - y
    return {
        "coefficients": [float(c) for c in coef],
        "fit_domain": [float(x.min()), float(x.max())],
        "residual_rms": float(np.sqrt(np.mean(residuals * residuals))),
        "axis": "log10",
    }


def argmax_ratio(curve: dict) -> float:
    """Maximizer of the fitted polynomial over its fit domain.

    Candidates are the real roots of the derivative cubic plus both domain
    endpoints (exact for degree 4); ties go to the smaller axis value.
    Near-zero leading derivative coefficients are trimmed before
    root-finding so lower-degree fits stay well conditioned.
    """
    lo, hi = curve["fit_domain"]
    coef = np.asarray(curve["coefficients"], dtype=np.float64)
    dcoef = npoly.polyder(coef)
    # Fit noise, against the polynomial's own coefficient scale: a derivative
    # that is pure fit noise (constant curve) must vanish entirely, and an
    # improvement below it counts as a tie, which goes to the smaller axis value.
    tol = 1e-12 * max(1.0, float(np.max(np.abs(coef))))
    trimmed = np.trim_zeros(np.where(np.abs(dcoef) > tol, dcoef, 0.0), trim="b")
    candidates = [lo, hi]
    if trimmed.size >= 2:
        for root in npoly.polyroots(trimmed):
            if abs(root.imag) < 1e-9 and lo <= root.real <= hi:
                candidates.append(float(root.real))
    candidates.sort()
    best = candidates[0]
    best_value = float(npoly.polyval(best, coef))
    for cand in candidates[1:]:
        value = float(npoly.polyval(cand, coef))
        if value > best_value + tol:
            best, best_value = cand, value
    return best


def _warn_if_boundary(stage: Stage, argmax_axis: float, curve: dict) -> None:
    if argmax_axis in curve["fit_domain"]:
        log.warning(
            "%s: fitted maximum sits on the sweep boundary (axis %.6g); "
            "the performance surface may be flat or monotone over the grid",
            stage, argmax_axis,
        )


def coarse_search(
    oracle: Oracle,
    pools: PoolSet,
    *,
    workdir: str | Path,
    seed: int = 0,
    repeats: int = 3,
    jobs: int = 1,
    scoring_weight: float = 0.5,
    stage1_ratios: Sequence[float] | None = None,
    stage2_ratios: Sequence[float] | None = None,
) -> dict:
    """Run both sweep stages, compose the mix ratio, and record the
    reference loss ratio at a confirmation run of the chosen mixture.

    Writes the result document to workdir/coarse_result.json and returns
    it. A document left there by an earlier run is deleted before the first
    oracle call, so a failed search leaves none behind.
    """
    from . import __version__

    workdir = Path(workdir)
    out = workdir / "coarse_result.json"
    out.unlink(missing_ok=True)
    stages: dict[str, dict] = {}
    for key, stage, grid in (("stage1", "d2_vs_d3", stage1_ratios),
                             ("stage2", "mixed_vs_d1", stage2_ratios)):
        points = sweep(
            oracle, stage, pools,
            repeats=repeats, seed=seed, workdir=workdir, ratios=grid,
            d2_d3_ratio=stages["stage1"]["ratio"] if stages else None,
            scoring_weight=scoring_weight, jobs=jobs,
        )
        curve = fit_curve(points)
        t = argmax_ratio(curve)
        _warn_if_boundary(stage, t, curve)
        stages[key] = {"points": points, "curve": curve, "argmax_axis": t, "ratio": 10.0 ** t}

    ratio = MixRatio.from_stage_ratios(stages["stage1"]["ratio"], stages["stage2"]["ratio"])
    counts = ratio.counts_for_d1_base(len(pools.d1))
    response = oracle.evaluate(_request(pools, counts, derive_seed(seed, "confirm"),
                                        workdir / "manifests" / "confirm.jsonl"))
    doc = {
        "tool_version": __version__, "seed": seed, "repeats": repeats,
        "mix_ratio": {"d1": ratio.d1, "d2": ratio.d2, "d3": ratio.d3},
        "lambda_loss": response.loss_scoring / response.loss_interpreting,
        "confirmation": {
            "counts": counts,
            "loss_scoring": response.loss_scoring,
            "loss_interpreting": response.loss_interpreting,
            "perf_scoring": response.perf_scoring,
            "perf_interpreting": response.perf_interpreting,
        },
        **stages,
    }
    out.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return doc
