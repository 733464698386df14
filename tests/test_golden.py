"""Golden bytes: a fixed-seed mix-search and mix-adjust on small synthetic
pools must reproduce every manifest, coarse_result.json and trajectory.jsonl
byte for byte. The coarse_result.json and trajectory.jsonl hashes were
recorded when the manifest writer still ran json.dumps once per entry. The
manifest hashes were recorded when the sampler began to draw rows by the
SHAKE-256 key streams of the seed (README "Manifest"), which changed every
manifest once and no result. A faster data path must not move a single byte.
Both runs use one job, so their ledger.jsonl files are pinned too: each
line's key covers the pool-file digests, the oracle config, the manifest
digest and the seed, and for a mix-adjust epoch after the first the chain of
the epochs before it, which moved the adjust ledger's epoch-2 key once.

The evaluation path is pinned the same way: `convert` and `score` on seeded
inputs, their output files and what they print. Those hashes were recorded
when `convert` ran json.dumps once per pair and `score` ran one numpy softmax
per record. The `eval-mcq` and `eval-desc` reports, text and json, were
recorded when each report was still built as a dataclass and then turned into
its dict and its text. The `eval-iqa` reports, text and json, with and without
`--logistic`, and the warning each logs about the ids it drops, were recorded
when its score reader and the join still checked one record at a time.

The pools are written here with plain json.dumps so the fixture does not
depend on the package's own writers. Ids include quotes, backslashes,
control characters, non-ASCII text and integer ids, so the manifest rows pin
the escaping rules too.
"""

import csv
import hashlib
import json
import math
import random

import yaml

from iqmix.cli import main
from iqmix.datasets import SCORING_SYSTEM_PREFIX

SIZES = {"d1": 120, "d2": 250, "d3": 400}

GOLDEN = {
    "adjust/ledger.jsonl":
        "c96543abbc0f748af41dcc64e8e92863c38d0c7834a42eeb314fcc8375427b87",
    "adjust/manifests/epoch01.jsonl":
        "444f7007635bed7d71de11b571d17a7680adb33b26e97c030a953d988b375927",
    "adjust/manifests/epoch02.jsonl":
        "f8651a7731223d58002389b9bfea28b8b8d9e17e33b4fd03c148df3961270709",
    "adjust/trajectory.jsonl":
        "0ca7caa6cf4195bb24e5acb99c3ef2965c13b0539304dcedf445a5ce2aa4f6a1",
    "search/coarse_result.json":
        "2ec9a773c27a41af2d48e0de8a267dddc424601359d5d01a06369755c8eee71b",
    "search/ledger.jsonl":
        "b8c5dc86e9827657381c027b3dceb6f4264c974951389f75b1127876e6bf41e2",
    "search/manifests/confirm.jsonl":
        "f8f4cb95edf24f5ec9816eaba821cb70af933cbc446069efb1addd15527f8132",
    "search/manifests/d2_vs_d3/point00_rep0.jsonl":
        "051404d96909ead52ab58b68c67fe66eee648113b5c8dae6595f66802cf61162",
    "search/manifests/d2_vs_d3/point01_rep0.jsonl":
        "36787f5b7d4ec7b3ff3f252c247ca825ccc289778e623c77433121f5ae8fe47a",
    "search/manifests/d2_vs_d3/point02_rep0.jsonl":
        "57ad0037bc118da0bcbb42a5b329161b973c2d0db140307c56e3abbf7032192e",
    "search/manifests/d2_vs_d3/point03_rep0.jsonl":
        "9c71c2d4b64a71d605f8635f49698a6397a2be6bac79e65d1edb5c9469b721c5",
    "search/manifests/d2_vs_d3/point04_rep0.jsonl":
        "13d3ed298defa08852e813e26433cd7f9caa4fbaf100a67e01d0a29c3e67c5ef",
    "search/manifests/d2_vs_d3/point05_rep0.jsonl":
        "c78e0ce2c6e81ea4dc5560d498d442f3e61de1003b8061808d818aada2934071",
    "search/manifests/d2_vs_d3/point06_rep0.jsonl":
        "f471a093bb7038601eade11659e384089f5e5cff9f422ba80497a4edb19b717c",
    "search/manifests/d2_vs_d3/point07_rep0.jsonl":
        "0fdc1ed54f1693cf657cdecdec518f3275cecc0a71c4bca45d5efeaf6bc3138e",
    "search/manifests/d2_vs_d3/point08_rep0.jsonl":
        "c4b68a47690468cd91b120e2793cc0364d9f25e976f6cda65e7963c78a5e213a",
    "search/manifests/d2_vs_d3/point09_rep0.jsonl":
        "ccb7117fa65592f85081e2cc36b4ba28fa9a5e997ace5f6b3385b27806597315",
    "search/manifests/d2_vs_d3/point10_rep0.jsonl":
        "ab90f99df4bca4983d81dd7bfee75a33560cfd702b802204e28917b2efd2a0ee",
    "search/manifests/d2_vs_d3/point11_rep0.jsonl":
        "5c28585662791c30f4841194e5aeca348f8b1eeb20c8e2ade977556a39a61885",
    "search/manifests/d2_vs_d3/point12_rep0.jsonl":
        "75fa47ff951e19746d462595cfc07067823f549efb20e88594ed8937ec5c76b6",
    "search/manifests/d2_vs_d3/point13_rep0.jsonl":
        "53371a2e34c9bac0174f5e41529a5888bc266eeb7fd0292e8303606df47edd2b",
    "search/manifests/d2_vs_d3/point14_rep0.jsonl":
        "adce030d71ef1295af906ebb83014b2056806dfcdd790b750272c140b7d87ace",
    "search/manifests/d2_vs_d3/point15_rep0.jsonl":
        "f33f2d6b02cb765aaf29274c041cac4e9d4e4e0163a6abef6171e661a9661432",
    "search/manifests/d2_vs_d3/point16_rep0.jsonl":
        "c0884e72425c8eb0b94ebe587e8a174870d0774df696df2105e69cbf41c14f3f",
    "search/manifests/d2_vs_d3/point17_rep0.jsonl":
        "d45b17f0f6d5969ee9f9f5eea1e00bccc92f954d30589920a7d2d55e8a1d06ed",
    "search/manifests/d2_vs_d3/point18_rep0.jsonl":
        "219a6fe71d026a6570d9f07cb22f2f8e21c722af1d5fcc2c33e525b90526b884",
    "search/manifests/mixed_vs_d1/point00_rep0.jsonl":
        "414c162b5c7c03b4cc748344b110985a15a4453f872c1c25ffe9abdb3cce0ae9",
    "search/manifests/mixed_vs_d1/point01_rep0.jsonl":
        "c3b11c259c31f6174ac943eb824b212597a89b3be322b0031f18ea99c862b6d8",
    "search/manifests/mixed_vs_d1/point02_rep0.jsonl":
        "cf7c8e1acf348df7ad7f99449eda98597c690f5b4e973d39cef59bc88c4ae4f1",
    "search/manifests/mixed_vs_d1/point03_rep0.jsonl":
        "0e8e1db1df06c45eab0006ba56066d6c9edb3c640e6fb256697fa956989feb52",
    "search/manifests/mixed_vs_d1/point04_rep0.jsonl":
        "f7628210997e7fafb44b2b33a0d1b97e31b7c96f1d7b23cd7e930bd57ce25b7b",
    "search/manifests/mixed_vs_d1/point05_rep0.jsonl":
        "5fb83fa8f8d85b1547dacf8508fc5a16da1d9e87754ecf172aee572346422e56",
    "search/manifests/mixed_vs_d1/point06_rep0.jsonl":
        "7c5ada1e254f32e461cf23e4e7faa274b01fdbe63a42e2505f2c9f8b4511cc62",
    "search/manifests/mixed_vs_d1/point07_rep0.jsonl":
        "364ff7e164fa0e1bbdc38ac6b779bd4ec08478d0d0e11ad4cee4216ff53b8487",
    "search/manifests/mixed_vs_d1/point08_rep0.jsonl":
        "38b47b3fdd37b615d22900dbefb0eed910da65b6f066a61629fa4f990634d10a",
    "search/manifests/mixed_vs_d1/point09_rep0.jsonl":
        "ff99eb7bf7ae804dfee13a2b5b312154a4d8dd8837cff17ee27e17b9f49e7552",
    "search/manifests/mixed_vs_d1/point10_rep0.jsonl":
        "3d34037e619a6e0c5cd9ec386eef60116b7cc5d9985c86db33bba8c5315aba52",
    "search/manifests/mixed_vs_d1/point11_rep0.jsonl":
        "d15e041427ccee78fb6110d5d5eecc2caa40006d1fabfd9be507ee4555ded48c",
    "search/manifests/mixed_vs_d1/point12_rep0.jsonl":
        "39b980545d56dc6557014702bdc8b10909fc5a65bcfdd22917b7665f259f6d48",
    "search/manifests/mixed_vs_d1/point13_rep0.jsonl":
        "852607479a5af9b619d568a64132bf3db758794153bbd32e8c58cd81b0cb54af",
    "search/manifests/mixed_vs_d1/point14_rep0.jsonl":
        "f841bc458c65894042ea557247270a2a42849db7033a5010a77c2e2b4ac4236b",
    "search/manifests/mixed_vs_d1/point15_rep0.jsonl":
        "ce3610ebd241d1b065baffe1eb0102b036c6e28ff1e793461c11b55eb9a75343",
    "search/manifests/mixed_vs_d1/point16_rep0.jsonl":
        "326ff728771e6bb4bd789a8cd209af77ac58b8c384818faa7a0721a5cf83b89f",
    "search/manifests/mixed_vs_d1/point17_rep0.jsonl":
        "e710f97ab4a6f84d29aa8eae503f9dbe5db80cfa3e022c4f43c8044c736094c6",
    "search/manifests/mixed_vs_d1/point18_rep0.jsonl":
        "6d1e9d99ee735757efa98b63d513d72c5b5be8f1fd0f58e77ca82c71b4b27df4",
}


def _pool_id(tag: str, i: int):
    kind = i % 5
    if kind == 1:
        return i  # integer ids are coerced to strings on load
    if kind == 2:
        return f'{tag}-"q{i}"\\b'
    if kind == 3:
        return f"{tag}-bildgüte-画質-{i}\t\u0001"
    return f"{tag}-{i:04d}"


def _write_pools(root) -> dict[str, str]:
    paths = {}
    for tag, n in SIZES.items():
        path = root / f"{tag}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(n):
                record = {"id": _pool_id(tag, i), "image": f"img/{tag}_{i}.jpg"}
                if tag == "d1":
                    record["system"] = SCORING_SYSTEM_PREFIX
                record["conversations"] = [
                    {"from": "human", "value": "<img> question"},
                    {"from": "gpt", "value": f"answer {i}"},
                ]
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        paths[tag] = path.name
    return paths


def _run(tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    conf = {
        "pools": _write_pools(tmp_path),
        "oracle": {
            "kind": "synthetic",
            "scoring_surface": {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25},
            "interpreting_surface": {"peak_ratio": 2.42, "peak_value": 0.75,
                                     "curvature": 0.25},
        },
        "seed": 11,
        "repeats": 1,
    }
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    assert main(["mix-search", "--config", "config.yaml", "--out-dir", "search"]) == 0
    assert main(["mix-adjust", "--config", "config.yaml",
                 "--coarse-result", "search/coarse_result.json",
                 "--out-dir", "adjust", "--max-epochs", "3"]) == 0
    produced = sorted(
        p for p in tmp_path.rglob("*")
        if p.suffix in (".json", ".jsonl") and p.parent != tmp_path
        and not p.name.endswith(".run.json") and p.name != "runrecord.json"
    )
    return {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in produced}


def test_mix_outputs_are_byte_identical(tmp_path, monkeypatch):
    digests = _run(tmp_path, monkeypatch)
    epochs = (tmp_path / "adjust" / "trajectory.jsonl").read_text().splitlines()[1:]
    # epoch 1 asks for more D2 pairs than the pool holds: sampled with replacement
    assert json.loads(epochs[0])["counts"]["d2"] > SIZES["d2"]
    assert digests == GOLDEN


def test_forked_pool_loads_give_the_same_bytes(tmp_path, monkeypatch, forked_loads):
    """With every pool but the largest loaded in a forked child, the search,
    adjust and growth runs write the same bytes: manifests, results, ledgers."""
    for name, test in (("run", test_mix_outputs_are_byte_identical),
                       ("grow", test_mix_adjust_growth_is_byte_identical)):
        (tmp_path / name).mkdir()
        test(tmp_path / name, monkeypatch)
    assert [tag for _, tag in forked_loads] == ["D1", "D2"] * 5  # 2 runs, then 3


# Evaluation path ---------------------------------------------------------------

EVAL_ROWS = 10_500  # more than two 4096-row scoring chunks
LEVELS = ("bad", "poor", "fair", "good", "excellent")


def _eval_id(i: int) -> str:
    kind = i % 4
    if kind == 1:
        return f'img-"{i}"\\x'
    if kind == 2:
        return f"bildgüte-画質-{i}\t\u0001"
    return f"img{i:05d}"


def _mos_values(rng: random.Random) -> list[float]:
    """Every bin edge of the [0, 100] five-level scale and its float
    neighbours first, then draws on the scale."""
    edges = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    values = edges + [v for v in near if 0.0 <= v <= 100.0]
    while len(values) < EVAL_ROWS:
        values.append(rng.choice([round(rng.uniform(0, 100), 2), rng.uniform(0, 100)]))
    return values


def _logit_line(i: int, rng: random.Random) -> str:
    """One logit record. Seven lines in fifty are malformed, in every way the
    scorer diagnoses, and one is blank."""
    values = [rng.gauss(0.0, 4.0) for _ in LEVELS]
    if i % 97 == 5:
        values = [rng.choice((800.0, -800.0, 799.5)) for _ in LEVELS]
    elif i % 89 == 3:
        values = [rng.randint(-3, 3) for _ in LEVELS]
    record = {"id": _eval_id(i), "logits": dict(zip(LEVELS, values))}
    kind = i % 50
    if kind == 7:
        return json.dumps(record)[:37]
    if kind == 17:
        del record["logits"]["excellent"]
    elif kind == 27:
        record["logits"]["fair"] = "high"
    elif kind == 37:
        record["id"] = i
    elif kind == 47:
        return "[1, 2, 3]" if i % 100 < 50 else json.dumps({"id": record["id"]})
    elif kind == 12:
        record["logits"]["good"] = math.nan if i % 100 < 50 else -math.inf
    elif kind == 22:
        record["logits"]["poor"] = True
    elif kind == 32:
        return ""
    return json.dumps(record, ensure_ascii=i % 3 == 0)


MCQ_TYPES = ("yes-or-no", "what", "how")
MCQ_QUADRANTS = ("distortion", "other", "in-context distortion")  # one quadrant unused
MCQ_CHOICES = (("yes", "no"), ("blur", "noise", "overexposure"),
               ("sharp", "slightly blurry", "very blurry", "unreadable"))
DESC_DIMENSIONS = ("completeness", "precision", "relevance")


def _mcq_line(i: int, rng: random.Random) -> str:
    """One answer record; the prediction is a choice text (in any case), a
    choice letter in one of its forms, or text that matches no choice."""
    choices = MCQ_CHOICES[i % 3]
    gold = rng.choice(choices)
    pick = rng.randrange(len(choices))
    predicted = rng.choice([
        choices[pick], choices[pick].upper() + "  ", f"({'abcd'[pick]})",
        f"{'abcd'[pick]}. {choices[pick]}", "keine Ahnung, 画質", "",
    ])
    return json.dumps({"id": _eval_id(i), "type": MCQ_TYPES[(i // 3) % 3],
                       "quadrant": rng.choice(MCQ_QUADRANTS), "choices": list(choices),
                       "gold": gold, "predicted": predicted}, ensure_ascii=i % 2 == 0)


def _write_eval_inputs(root):
    rng = random.Random(23)
    with open(root / "mos.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["image_id", "mos"])
        writer.writerows([_eval_id(i), repr(m)] for i, m in enumerate(_mos_values(rng)))
    with open(root / "logits.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(_logit_line(i, rng) + "\n" for i in range(EVAL_ROWS))
    with open(root / "mcq.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(_mcq_line(i, rng) + "\n" for i in range(211))
    with open(root / "ratings.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(
            json.dumps({"dimension": DESC_DIMENSIONS[i % 3],
                        "rating": rng.choice((0, 1, 1, 2, 2, 2)) if i % 3 else rng.randrange(3)})
            + "\n" for i in range(301))


GOLDEN_EVAL = {
    "convert.stdout":
        "3fa6149134273e76451bae37493e7b01f99f5c5876fd57a12d8b6ab42ecc8c33",
    "convert.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "d1.jsonl":
        "d45f0ba61dc17e51c857ac7bb8777ec914437a8b9af35abd7546948fcba35eac",
    "convert-inline.stdout":
        "3fa6149134273e76451bae37493e7b01f99f5c5876fd57a12d8b6ab42ecc8c33",
    "convert-inline.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "d1-inline.jsonl":
        "fbc6917b2050825b125d365ae06eb20c1c7bb9f1bef939c6ed5f152bcb7908d6",
    "score.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score.stderr":
        "ec17b994196c29852dedb78bd7033238d0188900eefba5a735535c32ffaa554e",
    "scores.jsonl":
        "511e0dd08e987451ba299f95ab6a8a3afcad60c62b04d4c441771eb02f36de7f",
    "score-rescale.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score-rescale.stderr":
        "ec17b994196c29852dedb78bd7033238d0188900eefba5a735535c32ffaa554e",
    "scores-rescale.jsonl":
        "ee53bc78102426695495e9c792988df10a52825e4c16aac3d138c0d73d609631",
    "eval-iqa.stdout":
        "220ad376a376d7342b1b73f2c338272dcac8f961dadaf00cba95dc63d115c34c",
    "eval-iqa.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-iqa.log":
        "8a6dc298fe75e30c66dc06cf06c6f034b5e6e875b35c6007a7318606279b2c45",
    "eval-iqa-json.stdout":
        "4f78815e84449ed4fbdac05f291ceafa1c7d9d8c4df52cbef217dc507539be0e",
    "eval-iqa-json.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-iqa-json.log":
        "8a6dc298fe75e30c66dc06cf06c6f034b5e6e875b35c6007a7318606279b2c45",
    "eval-iqa-logistic.stdout":
        "d10587c10b087f92ac4819205c12088d7ab5472e0267306fed5e96e82da7ab27",
    "eval-iqa-logistic.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-iqa-logistic.log":
        "8a6dc298fe75e30c66dc06cf06c6f034b5e6e875b35c6007a7318606279b2c45",
    "eval-iqa-logistic-json.stdout":
        "470d53d79f2361213c01eb0a3eb55796b7b07d226ee558e7ecaf5cac8e5e6f8b",
    "eval-iqa-logistic-json.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-iqa-logistic-json.log":
        "8a6dc298fe75e30c66dc06cf06c6f034b5e6e875b35c6007a7318606279b2c45",
    "eval-mcq.stdout":
        "f6559cb581ab013f4d83315700dca4a3fe8c3d49dceffd8fe93645f32c7719c0",
    "eval-mcq.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-mcq-json.stdout":
        "1f73abd57b6ab0e9d5edab62c52b300ebf788d5b531a39bc9d7267b57ba810bb",
    "eval-mcq-json.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-desc.stdout":
        "3face6ae3e8f52a60938edcc4b209d98af546c2b85c7cec9f79efb501d64d125",
    "eval-desc.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eval-desc-json.stdout":
        "b1bc171a9b993adedd2eadebfa787c4acca7afc3f425df1ca5dcb502a9962b15",
    "eval-desc-json.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def test_eval_outputs_are_byte_identical(tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.chdir(tmp_path)
    _write_eval_inputs(tmp_path)
    runs = {
        "convert": ["convert", "mos.csv", "--scale-min", "0", "--scale-max", "100",
                    "--out", "d1.jsonl"],
        "convert-inline": ["convert", "mos.csv", "--scale-min", "0", "--scale-max", "100",
                           "--inline-system", "--out", "d1-inline.jsonl"],
        "score": ["score", "logits.jsonl", "--out", "scores.jsonl"],
        "score-rescale": ["score", "logits.jsonl", "--rescale", "0", "100",
                          "--out", "scores-rescale.jsonl"],
        "eval-iqa": ["eval-iqa", "scores.jsonl", "mos.csv", "--format", "text"],
        "eval-iqa-json": ["eval-iqa", "scores.jsonl", "mos.csv", "--format", "json"],
        "eval-iqa-logistic": ["eval-iqa", "scores.jsonl", "mos.csv", "--logistic",
                              "--format", "text"],
        "eval-iqa-logistic-json": ["eval-iqa", "scores.jsonl", "mos.csv", "--logistic",
                                   "--format", "json"],
        "eval-mcq": ["eval-mcq", "mcq.jsonl", "--format", "text"],
        "eval-mcq-json": ["eval-mcq", "mcq.jsonl", "--format", "json"],
        "eval-desc": ["eval-desc", "ratings.jsonl", "--format", "text"],
        "eval-desc-json": ["eval-desc", "ratings.jsonl", "--format", "json"],
    }
    digests = {}
    for name, argv in runs.items():
        capsys.readouterr()
        caplog.clear()
        assert main(argv) == 0
        printed = capsys.readouterr()
        digests[f"{name}.stdout"] = _sha(printed.out)
        digests[f"{name}.stderr"] = _sha(printed.err)
        # The log lines main's handler would print; pinned for the runs that log.
        logged = "".join(f"{r.levelname} {r.name}: {r.getMessage()}\n" for r in caplog.records
                         if r.name.startswith("iqmix"))
        if logged:
            digests[f"{name}.log"] = _sha(logged)
        if "--out" in argv:
            digests[argv[-1]] = _sha((tmp_path / argv[-1]).read_bytes())
    assert digests == GOLDEN_EVAL


# Growing the interpreting pools ------------------------------------------------

GOLDEN_GROW = {
    "grow/manifests/epoch01.jsonl":
        "444f7007635bed7d71de11b571d17a7680adb33b26e97c030a953d988b375927",
    "grow/manifests/epoch02.jsonl":
        "61eb969aa864635674f77a833df4c671fd2e1eeefe55ea027483d2137b48a56e",
    "grow/manifests/epoch03.jsonl":
        "22650ad25ff462ce0dfa5c5d5e1249ea3dcd4c7536766269890a231bdad4c555",
    "grow/trajectory.jsonl":
        "1410ed9ef5ebb5917f7914f49bb11e56e9051d5a9316a190dfd0311aaaac6046",
}


def test_mix_adjust_growth_is_byte_identical(tmp_path, monkeypatch):
    """The golden mix-adjust only holds, so it never splits a grown D2+D3
    total. Raising the reference loss ratio by half makes every epoch grow
    the interpreting pools, which pins the D2:D3 split."""
    _run(tmp_path, monkeypatch)
    coarse = json.loads((tmp_path / "search" / "coarse_result.json").read_text())
    coarse["lambda_loss"] *= 1.5
    (tmp_path / "grow_coarse.json").write_text(json.dumps(coarse), encoding="utf-8")
    assert main(["mix-adjust", "--config", "config.yaml",
                 "--coarse-result", "grow_coarse.json",
                 "--out-dir", "grow", "--max-epochs", "3"]) == 0
    epochs = [json.loads(line) for line in
              (tmp_path / "grow" / "trajectory.jsonl").read_text().splitlines()[1:]]
    assert [e["action"] for e in epochs] == ["increase_interpreting"] * 3
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_GROW}
    assert digests == GOLDEN_GROW
