"""Acceptance criteria, one test per criterion at its stated tolerance.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.
"""

import itertools
import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
import yaml

from iqmix.cli import main as cli_main
from iqmix.controller import run_loop
from iqmix.datasets import (
    emit_d1_pairs,
    load_pool,
    manifest_row,
    subsample_balanced,
    write_pairs,
)
from iqmix.levels import FIVE_LEVEL_LABELS, LevelScale
from iqmix.metrics import PairedSample, conversion_precision, plcc, srcc
from iqmix.mixopt import coarse_search
from iqmix.scoring import (
    binary_score,
    score_from_logit_vector,
    softmax_vector,
    weighted_score,
)

from conftest import d1_record, make_pools, planted_oracle, read_records

LOG_242 = math.log10(2.42)
LOG_354 = math.log10(3.54)


def test_criterion_01_weighted_score_from_logits():
    start = time.monotonic()
    uniform = score_from_logit_vector((0.0,) * 5)
    assert abs(uniform - 3.0) <= 1e-12

    # exact-rational oracle: weights 1:2:3:4:10, expected sum(i*w)/20 = 4
    weights = (1, 2, 3, 4, 10)
    expected = Fraction(sum(i * w for i, w in enumerate(weights, start=1)),
                        sum(weights))
    assert expected == Fraction(4)
    logits = tuple(math.log(w) for w in weights)
    assert abs(score_from_logit_vector(logits) - float(expected)) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_criterion_02_binary_two_level_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        x_poor, x_good = (float(v) for v in rng.normal(0.0, 10.0, 2))
        two_level = score_from_logit_vector((x_poor, x_good))
        assert abs((two_level - 1.0) - binary_score(x_good, x_poor)) <= 1e-12


def test_criterion_03_shift_invariance():
    rng = np.random.default_rng(1337)
    for _ in range(1000):
        values = rng.normal(0.0, 8.0, 5)
        shift = float(rng.uniform(-50.0, 50.0))
        base = weighted_score(softmax_vector(tuple(values)))
        shifted = weighted_score(softmax_vector(tuple(values + shift)))
        assert abs(base - shifted) <= 1e-12


def test_criterion_04_conversion_precision_monte_carlo():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    scores = rng.uniform(1.0, 5.0, 100_000)
    s, p = conversion_precision(scores, LevelScale(1.0, 5.0))
    analytic = 0.4 / math.sqrt(1.0 / 6.0)  # Pearson of uniform scores vs levels
    assert abs(s - 0.98) <= 0.01
    assert abs(p - 0.98) <= 0.01
    assert abs(p - analytic) <= 0.005
    assert abs(s - analytic) <= 0.005
    assert time.monotonic() - start < 5.0


def test_criterion_05_correlation_oracle_equivalence():
    start = time.monotonic()
    for n in range(2, 9):
        x = tuple(range(1, n + 1))
        mean_x = sum(x) / n
        var_x = sum((a - mean_x) ** 2 for a in x)
        denom = n * (n * n - 1)
        for perm in itertools.permutations(x):
            sample = PairedSample.from_arrays(x, perm)
            d2 = sum((a - b) ** 2 for a, b in zip(x, perm))
            spearman_expected = 1.0 - 6.0 * d2 / denom
            assert abs(srcc(sample) - spearman_expected) <= 1e-12
            cov = sum((a - mean_x) * (b - mean_x) for a, b in zip(x, perm))
            pearson_expected = cov / math.sqrt(var_x * var_x)
            assert abs(plcc(sample) - pearson_expected) <= 1e-12
    assert time.monotonic() - start < 10.0


def test_criterion_06_planted_optimum_recovery(tmp_path):
    start = time.monotonic()

    # noise-free: D1 sized so every swept mixed count splits 2.42 exactly
    pools = make_pools(1710, 2000, 2000)
    result = coarse_search(planted_oracle(), pools, workdir=tmp_path / "exact", seed=42,
                           repeats=1)
    assert abs(math.log10(result["stage1"]["ratio"]) - LOG_242) <= 1e-6
    assert abs(math.log10(result["stage2"]["ratio"]) - LOG_354) <= 1e-6
    composed = tuple(result["mix_ratio"][k] for k in ("d1", "d2", "d3"))
    for got, want in zip(composed, (1.00, 2.50, 1.04)):
        assert abs(got - want) / want <= 0.05

    # noisy: sigma 0.01 with 3 repeats recovers within 0.05 axis units
    noisy_pools = make_pools(600, 600, 600)
    noisy = coarse_search(planted_oracle(noise_sigma=0.01), noisy_pools,
                          workdir=tmp_path / "noisy", seed=42, repeats=3)
    assert abs(math.log10(noisy["stage1"]["ratio"]) - LOG_242) <= 0.05
    assert abs(math.log10(noisy["stage2"]["ratio"]) - LOG_354) <= 0.05
    assert time.monotonic() - start < 10.0


def test_criterion_07_controller_convergence(tmp_path):
    start = time.monotonic()
    lam = 1.0 / 4.66
    pools = make_pools(500, 1500, 600)
    # alpha = 0.5 loss model whose epoch-1 ratio sits 20% above the reference
    c_s = 1.2 * lam / math.sqrt(1770.0 / 500.0)
    oracle = planted_oracle(loss_scale_scoring=c_s, loss_scale_interpreting=1.0,
                            loss_alpha=0.5)
    coarse = {"mix_ratio": {"d1": 1.0, "d2": 2.50, "d3": 1.04}, "lambda_loss": lam}
    epochs = run_loop(oracle, coarse, pools, max_epochs=3, tolerance=0.1,
                      factor=1.1, seed=7, workdir=tmp_path)

    # closed-form iteration of the same loss model, computed independently
    d1, d23 = 500, 1770
    expected = []
    for _ in range(3):
        rho = (c_s * d1 ** -0.5) / (d23 ** -0.5)
        if rho > lam * 1.1:
            action = "increase_scoring"
            d1_next = math.floor(1.1 * d1 + 0.5)
        elif rho < lam * 0.9:
            action = "increase_interpreting"
            d1_next = d1
        else:
            action = "hold"
            d1_next = d1
        expected.append((d1, rho, action))
        d1 = d1_next

    observed = [(e["counts"]["d1"], e["ratio"], e["action"]) for e in epochs]
    assert observed == expected
    in_band = [lam * 0.9 <= e["ratio"] <= lam * 1.1 for e in epochs]
    assert any(in_band[:3])
    assert time.monotonic() - start < 1.0


def _write_search_inputs(tmp_path, seed=3, noise=0.0):
    from conftest import make_pairs, write_records

    pool_paths = {}
    for tag, n in (("d1", 120), ("d2", 400), ("d3", 400)):
        path = tmp_path / f"{tag}.jsonl"
        if not path.exists():
            write_records(make_pairs(tag.upper(), n), path)
        pool_paths[tag] = str(path)
    conf = {
        "pools": pool_paths,
        "oracle": {
            "kind": "synthetic",
            "scoring_surface": {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25},
            "interpreting_surface": {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25},
            "noise_sigma": noise,
        },
        "seed": seed,
        "repeats": 1,
    }
    config_path = tmp_path / f"config_seed{seed}.yaml"
    config_path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    return config_path


def test_criterion_08_run_record_determinism(tmp_path):
    config = _write_search_inputs(tmp_path, seed=3)

    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out_dir in dirs:
        assert cli_main(["mix-search", "--config", str(config),
                         "--out-dir", str(out_dir)]) == 0
    result_a = (dirs[0] / "coarse_result.json").read_bytes()
    result_b = (dirs[1] / "coarse_result.json").read_bytes()
    assert result_a == result_b

    for out_dir in (tmp_path / "adj_a", tmp_path / "adj_b"):
        assert cli_main(["mix-adjust", "--config", str(config),
                         "--coarse-result", str(dirs[0] / "coarse_result.json"),
                         "--out-dir", str(out_dir), "--max-epochs", "2"]) == 0
    assert (tmp_path / "adj_a" / "trajectory.jsonl").read_bytes() == \
        (tmp_path / "adj_b" / "trajectory.jsonl").read_bytes()

    # a different seed resamples manifests but leaves the noise-free optimum
    other_dir = tmp_path / "run_c"
    assert cli_main(["mix-search", "--config", str(config),
                     "--out-dir", str(other_dir), "--seed", "99"]) == 0
    manifest = "manifests/d2_vs_d3/point00_rep0.jsonl"
    assert (dirs[0] / manifest).read_bytes() != (other_dir / manifest).read_bytes()
    doc_a = json.loads(result_a)
    doc_c = json.loads((other_dir / "coarse_result.json").read_text())
    assert doc_a["mix_ratio"] == doc_c["mix_ratio"]


def test_criterion_09_d1_emission_and_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    scale = LevelScale(0.0, 100.0)
    mos = {f"img{i:04d}": float(v) for i, v in enumerate(rng.uniform(0.0, 100.0, 500))}
    pairs = emit_d1_pairs(mos, scale)
    path = tmp_path / "d1.jsonl"
    write_pairs(pairs, path)
    records = read_records(path)

    answer_re = re.compile(r"^The quality of the image is (\w+)\.$")
    for record in records:
        assert record["system"] == "Assume you are an image quality evaluator"
        answer = record["conversations"][1]["value"]
        match = answer_re.match(answer)
        assert match is not None
        assert match.group(1) in FIVE_LEVEL_LABELS
        assert sum(answer.count(label) for label in FIVE_LEVEL_LABELS) == 1

    assert records == [d1_record(image_id, label) for image_id, label in pairs]
    assert [record["id"] for record in records] == list(mos)
    assert load_pool(path, "D1").tolist() == [manifest_row("D1", line, image_id)
                                              for line, image_id in enumerate(mos, start=1)]


def test_criterion_10_subsampler_balances_skew():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, n_tail = 20_000, 200
        body = np.clip(rng.normal(72.3, 5.0, n - n_tail), 0.0, 100.0)
        tail = rng.uniform(10.0, 60.0, n_tail)
        values = np.concatenate([body, tail])
        rng.shuffle(values)
        mos = {f"img{i:05d}": float(v) for i, v in enumerate(values)}

        source = np.array(list(mos.values()))
        assert abs(source.mean() - 72.0) < 1.0  # premise: heavily skewed source
        sampled = np.array(list(subsample_balanced(mos, 300, bins=10, seed=seed).values()))
        assert sampled.std() > source.std()
        assert abs(sampled.mean() - 50.0) < abs(source.mean() - 50.0)
