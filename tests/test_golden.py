"""Golden bytes: a fixed-seed mix-search and mix-adjust on small synthetic
pools must reproduce every manifest, coarse_result.json and trajectory.jsonl
byte for byte. The hashes were recorded when the manifest writer still ran
json.dumps once per entry; a faster data path must not move a single byte.
Both runs use one job, so their ledger.jsonl files are pinned too: each
line's key covers the pool-file digests, the oracle config, the manifest
digest and the seed.

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
        "106333d1c0bd1c065cd742952db91830d8d10a73439289c1138c7f3c675231cf",
    "adjust/manifests/epoch01.jsonl":
        "74e709d4aa56fa36897c319cd01252464cd37b46eb2f2685c218d756a82a0ac9",
    "adjust/manifests/epoch02.jsonl":
        "c2862c9b481da13095ab102f61a2f0bf7711050aa81f1554cb002adc7a6a0f36",
    "adjust/trajectory.jsonl":
        "0ca7caa6cf4195bb24e5acb99c3ef2965c13b0539304dcedf445a5ce2aa4f6a1",
    "search/coarse_result.json":
        "2ec9a773c27a41af2d48e0de8a267dddc424601359d5d01a06369755c8eee71b",
    "search/ledger.jsonl":
        "7552bdf0d199a9aac433acebb0db6456a4c8f7a3f1d8fe373de912986adfd4c0",
    "search/manifests/confirm.jsonl":
        "513052b37ed12e7e35bb5b2a3302ca4cb166d28ce1e379dd6fbbc7d3563f2dfe",
    "search/manifests/d2_vs_d3/point00_rep0.jsonl":
        "1fa5333edf55171fce58ba73d73257e292bb75d658c07e6fddb3ef90afd05e2e",
    "search/manifests/d2_vs_d3/point01_rep0.jsonl":
        "eb1cbffb08c93a9fac84549d77900d594edcf3d6f0cda0f021b91b0b276ae80a",
    "search/manifests/d2_vs_d3/point02_rep0.jsonl":
        "786d94f28ade7941d1a64f840090fc2f44d9a26b5b199f6558defafd81ae996e",
    "search/manifests/d2_vs_d3/point03_rep0.jsonl":
        "96d826ac96c9037700ea59140df51b12196c31786154171efc88104c8734731c",
    "search/manifests/d2_vs_d3/point04_rep0.jsonl":
        "db1e4d1a4210112653080b22359742ddce5a6416fba143db18cd1c8cfe4a419d",
    "search/manifests/d2_vs_d3/point05_rep0.jsonl":
        "f6fb6d853c38defdb111582231f9aa787bd08a5acac165acbbb9274636b5c240",
    "search/manifests/d2_vs_d3/point06_rep0.jsonl":
        "2ec07fd5d108579be7c1afb2103a21d7076821c653f7bfe1c0b5a3d1e2512ae1",
    "search/manifests/d2_vs_d3/point07_rep0.jsonl":
        "b5f0013eea56efd72dba40928bf50732acfd28934bc8558248b864cd740f35f9",
    "search/manifests/d2_vs_d3/point08_rep0.jsonl":
        "0ab2ce8811eec81c95a6fc045180d58f1f7cfd8152f6f1188a31c1327e39ea6a",
    "search/manifests/d2_vs_d3/point09_rep0.jsonl":
        "4778eca84be4f04078d337d9bef3674d451dde6307c7f0de1270643ceee3d901",
    "search/manifests/d2_vs_d3/point10_rep0.jsonl":
        "539c4db9267203211bd64e3c25ee5860079773c8f5cf4548800df742ea75a410",
    "search/manifests/d2_vs_d3/point11_rep0.jsonl":
        "53e605a7ef265d4133236344710229dac99c43c881a99061c9caebade336f13e",
    "search/manifests/d2_vs_d3/point12_rep0.jsonl":
        "a60f3c9783f8dfa2a4e129ad547e4b0cf723b2deb1a615951888fbb766ef44b5",
    "search/manifests/d2_vs_d3/point13_rep0.jsonl":
        "031f65142bab9c6d7ab9c4b0c94af21686ecff4487ad31c61583409329826e47",
    "search/manifests/d2_vs_d3/point14_rep0.jsonl":
        "d086616843ffdab9e753e5cc6eb5aa34aef23d81e7d5889e7b67e7e9920f3235",
    "search/manifests/d2_vs_d3/point15_rep0.jsonl":
        "0a0d7d626f9db9e20e67b0b28e9f34ceace6fa93955ad45257a4a3c40990b52d",
    "search/manifests/d2_vs_d3/point16_rep0.jsonl":
        "fc089154f51b21de9bd6070367ccc9adfb6acdd87d2781aff13b9fe472d04e56",
    "search/manifests/d2_vs_d3/point17_rep0.jsonl":
        "a58a0700fb30b9811faa1f90b69d8cf0f8267d7398570c5553d572aab2ee72a1",
    "search/manifests/d2_vs_d3/point18_rep0.jsonl":
        "84f3e3c636e0d61ad5fdb62cc9517ddf7e058631ee70af488bc761cb5354f7e2",
    "search/manifests/mixed_vs_d1/point00_rep0.jsonl":
        "1c0ca81c63dd4e21ff8c248ee5309afc1d142dec1d2ae7abf0d12d5506a865a8",
    "search/manifests/mixed_vs_d1/point01_rep0.jsonl":
        "adcd558b1ddde5371d5e0cff02295104d970c359232fb9198f31dab4021d7bd9",
    "search/manifests/mixed_vs_d1/point02_rep0.jsonl":
        "b101743bb7ee9b8c5b6d80ef1d7936200d2212fe6d03f7f7d8cfb34c72281f55",
    "search/manifests/mixed_vs_d1/point03_rep0.jsonl":
        "59c6841eb868a305b41b0bc16d80d9ec1ce7f98abb681f9bb9a3980eebe3520d",
    "search/manifests/mixed_vs_d1/point04_rep0.jsonl":
        "18bc71e7219bfd9df82a29d0a9d56235263367a4588e228195cddc05ec4b32ed",
    "search/manifests/mixed_vs_d1/point05_rep0.jsonl":
        "69682d49b6e22d1b25e6e23d6c1ae5e1f8067ea6b56b39f587ea76031dbe8ae9",
    "search/manifests/mixed_vs_d1/point06_rep0.jsonl":
        "7b764d9992229789afe8ea17b09c26168f5c5d5b7d3f9285be5b39ef33389dc2",
    "search/manifests/mixed_vs_d1/point07_rep0.jsonl":
        "fe77fc2b3cf6b5e6c2924b731836bec38d6e65ca2f2be65b118c8bebc12e58e5",
    "search/manifests/mixed_vs_d1/point08_rep0.jsonl":
        "04571ca8c78d8d94eb657de291b17b3a7a2be119f736792f460c68479f77bdeb",
    "search/manifests/mixed_vs_d1/point09_rep0.jsonl":
        "26c3eb301a6b0204badca8030e0029e398fa6ee2ccdba603dd89766ae190da2c",
    "search/manifests/mixed_vs_d1/point10_rep0.jsonl":
        "6886f629af6c39e26231943ccf6353503a65778e8b80bd3c530ea6b9f7eee2b3",
    "search/manifests/mixed_vs_d1/point11_rep0.jsonl":
        "566ab96acc21a7a1768f956bce7aeed41e9faaab1025cfc29d8589d5d3cb6309",
    "search/manifests/mixed_vs_d1/point12_rep0.jsonl":
        "009e8bb147fbc1ec6c20919e211d10b938a0935b4bd499163ec7f6d29c247687",
    "search/manifests/mixed_vs_d1/point13_rep0.jsonl":
        "95e621e6015b1e1287c3dd5c5c110cbd8dd82cc339500af53d8a5056b370736e",
    "search/manifests/mixed_vs_d1/point14_rep0.jsonl":
        "6949a05301cbfeca51436c8891e54dba102de5c70c8bbcf81c1de90e66d1a4b8",
    "search/manifests/mixed_vs_d1/point15_rep0.jsonl":
        "7b808d9e463760572b0bea39f810ddd6373e6715a298fd92a7b4b710186e1bad",
    "search/manifests/mixed_vs_d1/point16_rep0.jsonl":
        "9e68d7d40961192de127c3062070df038b9457037149d6d20a1164dbb60a0c96",
    "search/manifests/mixed_vs_d1/point17_rep0.jsonl":
        "9d26841cef9925d62f9e07013841ca95983ce304ee1542a55101ee250674a062",
    "search/manifests/mixed_vs_d1/point18_rep0.jsonl":
        "0a5b373af36fa4c9447180d7aba3714e69567168e40da73fb79759816f9d0d55",
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
        "74e709d4aa56fa36897c319cd01252464cd37b46eb2f2685c218d756a82a0ac9",
    "grow/manifests/epoch02.jsonl":
        "d0fa8c57b1d6a116dae811d28b1965ce7a7733232af342ea1f60ce6086d64733",
    "grow/manifests/epoch03.jsonl":
        "c2103975fcec0b7349aa9eab477b2625533e4cd67a71fee0b5dc4666652540bc",
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
