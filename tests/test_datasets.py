import bisect
import hashlib
import json
import logging
import re
import unittest.mock
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from iqmix import util
from iqmix.datasets import (
    D1_QUESTION,
    POOL_TAGS,
    SCORING_SYSTEM_PREFIX,
    PoolSet,
    emit_d1_pairs,
    ingest_mos,
    load_pool,
    manifest_row,
    read_manifest_header,
    sample_mixture,
    subsample_balanced,
    write_manifest,
    write_pairs,
)
from iqmix.errors import DataError
from iqmix.levels import FIVE_LEVEL_LABELS, LevelScale
from iqmix.util import file_digest, read_jsonl

from conftest import d1_record, make_pairs, make_pools, read_records, write_records


HUMAN = {"from": "human", "value": "q"}
GPT = {"from": "gpt", "value": "a"}


def write_mos_csv(path, rows, header="image_id,mos"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestIngestMos:
    def test_basic(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,50", "c,90"])
        mos = ingest_mos(path, LevelScale(0, 100))
        assert list(mos) == ["a", "b", "c"]
        assert len(mos) == 3
        assert np.mean(list(mos.values())) == pytest.approx(50.0)
        assert np.std(list(mos.values())) == pytest.approx(np.std([10, 50, 90]))

    def test_single_row_zero_std(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,42"])
        assert np.std(list(ingest_mos(path, LevelScale(0, 100)).values())) == 0.0

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,1"], header="img,score")
        with pytest.raises(DataError):
            ingest_mos(path, LevelScale(0, 100))

    def test_out_of_scale_strict_names_row(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,120"])
        with pytest.raises(DataError, match=r"row 3: mos 120\.0 outside \[0, 100\]$"):
            ingest_mos(path, LevelScale(0, 100))

    def test_lenient_skips_and_warns(self, tmp_path, caplog):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,120", "c,junk", "d,90"])
        with caplog.at_level(logging.WARNING):
            mos = ingest_mos(path, LevelScale(0, 100), strict=False)
        assert list(mos) == ["a", "d"]
        assert len(mos) == 2
        assert sum("skipping row" in m for m in caplog.messages) == 2

    def test_empty_is_error(self, tmp_path):
        path = tmp_path / "mos.csv"
        path.write_text("image_id,mos\n", encoding="utf-8")
        with pytest.raises(DataError):
            ingest_mos(path, LevelScale(0, 100))

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "mos.tsv"
        path.write_text("image_id\tmos\na\t33\n", encoding="utf-8")
        assert ingest_mos(path, LevelScale(0, 100), delimiter="\t") == {"a": 33.0}

    def test_without_scale_no_range_check(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,-4.5", "b,250"])
        assert list(ingest_mos(path).items()) == [("a", -4.5), ("b", 250.0)]

    @pytest.mark.parametrize("scale", [None, LevelScale(0, 100)], ids=["no-scale", "scale"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_mos_strict_names_row(self, tmp_path, scale, bad):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", f"b,{bad}", "c,30"])
        with pytest.raises(DataError, match="row 3: non-finite mos"):
            ingest_mos(path, scale)

    def test_non_finite_mos_lenient_skips_and_warns(self, tmp_path, caplog):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,nan", "c,30", "d,inf"])
        with caplog.at_level(logging.WARNING):
            mos = ingest_mos(path, strict=False)
        assert list(mos) == ["a", "c"]
        assert np.mean(list(mos.values())) == 20.0
        assert [m for m in caplog.messages if "non-finite mos" in m] == [
            f"skipping row: {path}: row 3: non-finite mos nan",
            f"skipping row: {path}: row 5: non-finite mos inf",
        ]

    def test_duplicate_id_strict_names_both_rows(self, tmp_path):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,20", "a,30"])
        with pytest.raises(DataError, match="duplicate image_id 'a'") as exc:
            ingest_mos(path)
        assert "row 4" in str(exc.value) and "first on row 2" in str(exc.value)

    def test_duplicate_id_lenient_keeps_first(self, tmp_path, caplog):
        path = tmp_path / "mos.csv"
        write_mos_csv(path, ["a,10", "b,20", "a,30"])
        with caplog.at_level(logging.WARNING):
            mos = ingest_mos(path, LevelScale(0, 100), strict=False)
        assert list(mos.items()) == [("a", 10.0), ("b", 20.0)]
        assert any("duplicate image_id 'a'" in m for m in caplog.messages)


def skewed_records(seed: int, n: int = 20000) -> dict[str, float]:
    """High-MOS body with a thin low tail, like in-the-wild photo datasets."""
    rng = np.random.default_rng(seed)
    n_tail = n // 100
    body = np.clip(rng.normal(72.3, 5.0, n - n_tail), 0.0, 100.0)
    tail = rng.uniform(10.0, 60.0, n_tail)
    values = np.concatenate([body, tail])
    rng.shuffle(values)
    return {f"img{i:05d}": float(v) for i, v in enumerate(values)}


class TestSubsampleBalanced:
    def test_uniform_quota_exact(self):
        rng = np.random.default_rng(1)
        records = {str(i): float(v) for i, v in enumerate(rng.uniform(0, 100, 1000))}
        subset = subsample_balanced(records, 100, bins=10, seed=0)
        assert len(subset) == 100
        width = (max(records.values()) - min(records.values())) / 10
        lo = min(records.values())
        bins = Counter(min(int((mos - lo) / width), 9) for mos in subset.values())
        assert all(9 <= bins[b] <= 11 for b in range(10))

    def test_exact_target_size(self):
        records = skewed_records(0, 5000)
        for target in (57, 300, 1234):
            assert len(subsample_balanced(records, target, seed=3)) == target

    def test_skewed_source_balances(self):
        records = skewed_records(7)
        src = np.array(list(records.values()))
        sub = np.array(list(subsample_balanced(records, 300, bins=10, seed=7).values()))
        assert sub.std() > src.std()
        assert abs(sub.mean() - 50.0) < abs(src.mean() - 50.0)

    def test_identity_when_target_is_all(self):
        records = skewed_records(1, 50)
        subset = subsample_balanced(records, 50, seed=0)
        assert list(subset.items()) == list(records.items())

    def test_infeasible_target(self):
        with pytest.raises(DataError):
            subsample_balanced(skewed_records(1, 10), 11, seed=0)

    def test_submultiset_and_order(self):
        records = skewed_records(3, 500)
        subset = subsample_balanced(records, 120, seed=5)
        ids = list(records)
        positions = [ids.index(image_id) for image_id in subset]
        assert positions == sorted(positions)  # a subsequence of the input
        assert len(set(positions)) == len(positions)  # no fabricated records
        assert all(subset[i] == records[i] for i in subset)

    def test_each_bin_keeps_the_rows_of_its_smallest_keys(self):
        # reference: the bins and the draw rule in plain Python; the quota
        # each bin meets is read from the result
        records = skewed_records(5, 400)
        values = list(records.values())
        lo, hi = min(values), max(values)
        edges = [lo + (hi - lo) / 10 * k for k in range(1, 10)]
        members = {}
        for row, value in enumerate(values):
            members.setdefault(bisect.bisect_left(edges, value), []).append(row)
        subset = subsample_balanced(records, 60, bins=10, seed=11)
        kept = {row for row, image_id in enumerate(records) if image_id in subset}
        for b, rows in members.items():
            keys = shake_keys(11, f"bin{b}", len(rows))
            by_key = sorted(range(len(rows)), key=lambda i: (keys[i], i))
            mine = sorted(kept.intersection(rows))
            assert mine == sorted(rows[i] for i in by_key[:len(mine)])

    def test_deterministic(self):
        records = skewed_records(4, 2000)
        a = subsample_balanced(records, 250, seed=99)
        b = subsample_balanced(records, 250, seed=99)
        c = subsample_balanced(records, 250, seed=100)
        assert a == b
        assert a != c


def write_d1(path, mos, *, inline_system=False):
    """The records convert writes for a MOS table on the 0..100 scale."""
    write_pairs(emit_d1_pairs(mos, LevelScale(0.0, 100.0)), path, inline_system=inline_system)
    return read_records(path)


def answer(record):
    return record["conversations"][1]["value"]


class TestEmitD1Pairs:
    def test_answer_levels(self, tmp_path):
        mos = {"hi": 85.0, "lo": 0.0, "mid": 50.0}
        assert emit_d1_pairs(mos, LevelScale(0.0, 100.0)) == \
            [("hi", "excellent"), ("lo", "bad"), ("mid", "fair")]
        records = write_d1(tmp_path / "d1.jsonl", mos)
        assert answer(records[0]) == "The quality of the image is excellent."
        assert answer(records[1]) == "The quality of the image is bad."
        assert answer(records[2]) == "The quality of the image is fair."

    def test_system_prefix_verbatim(self, tmp_path):
        records = write_d1(tmp_path / "d1.jsonl", {str(i): float(i) for i in range(60)})
        assert all(r["system"] == "Assume you are an image quality evaluator" for r in records)
        assert all(r["conversations"][0]["value"] == D1_QUESTION for r in records)

    def test_exactly_one_level_label_per_answer(self, tmp_path):
        rng = np.random.default_rng(31)
        mos = {str(i): float(v) for i, v in enumerate(rng.uniform(0, 100, 300))}
        pattern = re.compile(r"^The quality of the image is (\w+)\.$")
        for record in write_d1(tmp_path / "d1.jsonl", mos):
            m = pattern.match(answer(record))
            assert m is not None
            assert m.group(1) in FIVE_LEVEL_LABELS
            # 'poor' is a substring trap for none of the other labels
            assert sum(answer(record).count(lbl) for lbl in FIVE_LEVEL_LABELS) == 1

    def test_count_and_order_preserved(self, tmp_path):
        mos = {f"r{i}": float(i) for i in range(100)}
        records = write_d1(tmp_path / "d1.jsonl", mos)
        assert [r["id"] for r in records] == list(mos)
        assert [r["image"] for r in records] == list(mos)

    def test_d1_requires_prefix(self, tmp_path):
        # The prefix is checked where D1 lines are read back: in load_pool.
        records = write_d1(tmp_path / "d1.jsonl", {"x": 50.0})
        del records[0]["system"]
        write_records(records, tmp_path / "bare.jsonl")
        with pytest.raises(DataError, match="line 1: x: D1 pairs must carry"):
            load_pool(tmp_path / "bare.jsonl", "D1")


class TestPoolRoundTrip:
    def test_write_load_identity(self, tmp_path):
        scale = LevelScale(0.0, 100.0)
        mos = {f"img{i}": float(i * 7 % 101) for i in range(40)}
        mos['bild-\u00e4"\\'] = 99.0  # written raw, with only the JSON escapes
        pairs = emit_d1_pairs(mos, scale)
        path = tmp_path / "a.jsonl"
        write_pairs(pairs, path)
        expected = [d1_record(image_id, label) for image_id, label in pairs]
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(record, ensure_ascii=False) + "\n" for record in expected)
        assert read_records(path) == expected
        assert load_pool(path, "D1").tolist() == [
            manifest_row("D1", line, image_id) for line, (image_id, _) in enumerate(pairs, start=1)]

    def test_multi_turn_round_trip(self, tmp_path):
        record = {"id": "c1", "image": "img.jpg", "conversations": [
            {"from": "human", "value": "what is wrong?"}, {"from": "gpt", "value": "it is blurry"},
            {"from": "human", "value": "why?"}, {"from": "gpt", "value": "motion during capture"},
        ]}
        path = tmp_path / "pool.jsonl"
        write_records([record], path)
        assert read_records(path) == [record]
        assert load_pool(path, "D2").tolist() == [manifest_row("D2", 1, "c1")]

    def test_inline_system_flag(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        write_pairs(emit_d1_pairs({"x": 50.0}, LevelScale(0, 100)), path, inline_system=True)
        obj, = read_records(path)
        assert "system" not in obj
        assert obj["conversations"][0]["value"].startswith(SCORING_SYSTEM_PREFIX + "\n")
        assert path.read_text(encoding="utf-8") == json.dumps(
            d1_record("x", "fair", inline_system=True), ensure_ascii=False) + "\n"

    def test_malformed_line_diagnostics(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        path.write_text('{"id": "a", "image": "a.jpg", "conversations": []}\n')
        with pytest.raises(DataError) as exc:
            load_pool(path, "D3")
        assert "line 1" in str(exc.value)

    def test_empty_pool_warns(self, tmp_path, caplog):
        path = tmp_path / "pool.jsonl"
        path.write_text("")
        with caplog.at_level(logging.WARNING):
            assert load_pool(path, "D2").tolist() == []
        assert any("empty pool" in m for m in caplog.messages)

    def test_duplicate_ids_preserved(self, tmp_path):
        record = {"id": "dup", "image": "x.jpg", "conversations": [HUMAN, GPT]}
        path = tmp_path / "pool.jsonl"
        write_records([record, record], path)
        assert len(load_pool(path, "D3")) == 2

    def test_integer_ids_coerced(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        record = {"id": 7, "image": "x.jpg",
                  "conversations": [{"from": "human", "value": "q"},
                                    {"from": "gpt", "value": "a"}]}
        path.write_text("\n" + json.dumps(record) + "\n")
        assert load_pool(path, "D3").tolist() == ['{"pool": "D3", "source_line": 2, "id": "7"}\n']
        for flag in (True, False):  # bool is an int subclass, but not an id
            path.write_text("\n" + json.dumps(dict(record, id=flag)) + "\n")
            with pytest.raises(DataError, match="line 2: missing or non-string 'id'"):
                load_pool(path, "D3")

    def test_d1_without_prefix_names_line(self, tmp_path):
        path = tmp_path / "d1.jsonl"
        good, = write_d1(path, {"ok": 50.0})
        unprefixed = {"id": "a", "image": "a.jpg", "conversations": [HUMAN, GPT]}
        write_records([good, unprefixed], path)
        with pytest.raises(DataError, match="scoring system prefix") as exc:
            load_pool(path, "D1")
        assert "line 2" in str(exc.value)

    def test_malformed_turn_names_line(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        good = {"id": "a", "image": "a.jpg",
                "conversations": [{"from": "human", "value": "q"},
                                  {"from": "gpt", "value": "a"}]}
        bad = dict(good, conversations=[{"from": "human", "value": "q"},
                                        {"from": "human", "value": "a"}])
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match="malformed gpt turn") as exc:
            load_pool(path, "D3")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("tag,edit,message", [
        ("D3", {"id": 1.5}, "missing or non-string 'id'"),
        ("D3", {"image": None}, "missing or non-string 'image'"),
        ("D3", {"system": 3}, "'system' must be a string when present"),
        ("D3", {"conversations": "q"}, "'conversations' must hold alternating human/gpt turns"),
        ("D3", {"conversations": [HUMAN]}, "'conversations' must hold alternating human/gpt turns"),
        ("D3", {"conversations": [HUMAN, GPT, HUMAN]},
         "'conversations' must hold alternating human/gpt turns"),
        ("D3", {"conversations": ["q", GPT]}, "malformed human turn at position 0"),
        ("D3", {"conversations": [HUMAN, {"from": "gpt"}]}, "malformed gpt turn at position 0"),
        ("D3", {"conversations": [HUMAN, GPT, {"from": "gpt", "value": "q"}, GPT]},
         "malformed human turn at position 2"),
        ("D3", {"conversations": [HUMAN, GPT, HUMAN, {"from": "gpt", "value": 1}]},
         "malformed gpt turn at position 2"),
        ("D1", {}, "x: D1 pairs must carry the scoring system prefix verbatim"),
        ("D1", {"system": SCORING_SYSTEM_PREFIX + " "},
         "x: D1 pairs must carry the scoring system prefix verbatim"),
    ])
    def test_each_check_names_file_and_line(self, tmp_path, tag, edit, message):
        path = tmp_path / "pool.jsonl"
        good = {"id": "ok", "image": "ok.jpg", "conversations": [HUMAN, GPT]}
        if tag == "D1":
            good["system"] = SCORING_SYSTEM_PREFIX
        bad = {"id": "x", "image": "x.jpg", "conversations": [HUMAN, GPT], **edit}
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_pool(path, tag)
        assert str(exc.value) == f"{path}: line 3: {message}"

    def test_unknown_tag_is_checked_before_the_file_is_read(self, tmp_path):
        with pytest.raises(DataError, match="^unknown pool tag 'D4'$"):
            load_pool(tmp_path / "missing.jsonl", "D4")


def reference_read(path) -> tuple[list, str | None]:
    """What read_jsonl reads with json.loads on each stripped line: the
    (line number, repr of the object) it yields, then its error or None."""
    got = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if not (line := raw.strip()):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    return got, f"{path}: line {line_no}: invalid JSON ({exc})"
                if not isinstance(obj, dict):
                    return got, f"{path}: line {line_no}: record is not an object"
                got.append((line_no, repr(obj)))  # repr: nan equals nan
    except UnicodeDecodeError as exc:
        return got, f"{path}: not valid UTF-8 ({exc.reason})"
    return got, None


def fast_read(path, digest=None) -> tuple[list, str | None]:
    got = []
    try:
        for line_no, obj in read_jsonl(path, digest):
            got.append((line_no, repr(obj)))
    except DataError as exc:
        return got, str(exc)
    return got, None


def assert_reads_as_json_loads(path):
    expected = reference_read(path)
    assert fast_read(path) == expected
    digest = hashlib.sha256()
    assert fast_read(path, digest) == expected
    if expected[1] is None:  # read to the end
        assert digest.hexdigest() == file_digest(path)
    return expected


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
JSON_LINES = st.one_of(
    st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4).map(json.dumps),
    st.builds(json.dumps, JSON_VALUES, ensure_ascii=st.booleans()),
    st.tuples(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2).map(json.dumps),
              st.text(max_size=4)).map("".join),  # trailing data, or trailing space
    st.text(max_size=12),
)


class TestReadJsonl:
    @settings(deadline=None, max_examples=300)
    @given(lines=st.lists(JSON_LINES, max_size=6),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           bad_byte_at=st.none() | st.integers(0, 200))
    def test_fast_path_reads_as_json_loads(self, tmp_path_factory, lines, newline, bad_byte_at):
        data = newline.join(lines).encode("utf-8")
        if bad_byte_at is not None:
            cut = min(bad_byte_at, len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_bytes(data)
        assert_reads_as_json_loads(path)

    @pytest.mark.parametrize("data,records,error", [
        (b'{"a": 1} x\n', [], 'line 1: invalid JSON (Extra data: line 1 column 10 (char 9))'),
        (b'{"a": 1}\n{"a": 1}{"b": 2}\n', [(1, "{'a': 1}")],
         "line 2: invalid JSON (Extra data: line 1 column 9 (char 8))"),
        (b'\xef\xbb\xbf{"a": 1}\n', [],
         "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0))"),
        (b'{"a": NaN, "b": Infinity, "c": -Infinity}\n',
         [(1, "{'a': nan, 'b': inf, 'c': -inf}")], None),
        (b'{"a": 1, "a": 2}\n', [(1, "{'a': 2}")], None),
        (b'{"a": 1}\r{"b": 2}\r\n\r{"c": 3}', [(1, "{'a': 1}"), (2, "{'b': 2}"),
                                               (4, "{'c': 3}")], None),
        (b'{"a": 1}\n[1, 2]\n', [(1, "{'a': 1}")], "line 2: record is not an object"),
        (b'{"a": 1}\n{"b": "\xff"}\n', [], "not valid UTF-8 (invalid start byte)"),
    ])
    def test_fixed_case(self, tmp_path, data, records, error):
        path = tmp_path / "records.jsonl"
        path.write_bytes(data)
        assert assert_reads_as_json_loads(path) == (
            records, error and f"{path}: {error}")

    def test_bad_byte_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "records.jsonl"
        lines = [json.dumps({"id": f"r{i}", "pad": "x" * 90}) for i in range(400)]
        path.write_bytes("\n".join(lines[:300]).encode() + b"\n\xff\n"
                         + "\n".join(lines[300:]).encode())
        records, error = assert_reads_as_json_loads(path)
        assert 0 < len(records) < 300 and "not valid UTF-8" in error

    def test_digest_of_a_file_over_64_kib(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps({"id": f"r{i}", "v": "é" * (i % 7)}) + "\n"
                                for i in range(9000)), encoding="utf-8")
        size = path.stat().st_size
        assert size > 1 << 16 and size % 8192 and size % (1 << 16)
        records, error = assert_reads_as_json_loads(path)
        assert len(records) == 9000 and error is None


class TestManifestRow:
    @given(tag=st.sampled_from(POOL_TAGS), line=st.integers(1, 10**9), pair_id=st.text())
    @example(tag="D1", line=1, pair_id='quote " backslash \\ end')
    @example(tag="D2", line=7, pair_id="tab\tnul\x00bell\x07 del\x7f nbsp\xa0")
    @example(tag="D3", line=42, pair_id="bildgüte 画質 \U0001f600 \u2028\u2029")
    def test_equals_json_dumps(self, tag, line, pair_id):
        expected = json.dumps({"pool": tag, "source_line": line, "id": pair_id},
                              ensure_ascii=False) + "\n"
        assert manifest_row(tag, line, pair_id) == expected


def shake_keys(seed, stream, n):
    """The draw rule's keys: 8 little-endian bytes each of the SHAKE-256
    output of repr((seed, stream))."""
    data = hashlib.shake_256(repr((seed, stream)).encode()).digest(8 * n)
    return [int.from_bytes(data[i:i + 8], "little") for i in range(0, 8 * n, 8)]


def entry_fields(manifest):
    return [json.loads(row) for row in manifest.entries]


class TestSampleMixture:
    def test_exact_counts(self, tmp_path):
        pools = make_pools(100, 300, 300)
        manifest = sample_mixture(pools, {"d1": 50, "d2": 125, "d3": 52}, seed=1)
        tags = Counter(e["pool"] for e in entry_fields(manifest))
        assert tags == {"D1": 50, "D2": 125, "D3": 52}
        assert manifest.counts == {"d1": 50, "d2": 125, "d3": 52}
        write_manifest(manifest, tmp_path / "m.jsonl")
        assert read_manifest_header(tmp_path / "m.jsonl")["ratio"] == {
            "d1": 1.0, "d2": 2.5, "d3": 1.04}

    def test_deterministic_bytes(self, tmp_path):
        pools = make_pools(80, 200, 200)
        counts = {"d1": 40, "d2": 100, "d3": 42}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(sample_mixture(pools, counts, seed=9), a)
        write_manifest(sample_mixture(pools, counts, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_returns_the_digest_of_the_bytes_it_wrote(self, tmp_path):
        # three 4096-row chunks of ids that take several UTF-8 bytes
        pools = PoolSet([manifest_row("D1", k, f"画質-{k}") for k in range(1, 5001)])
        manifest = sample_mixture(pools, {"d1": 9000}, 4, with_replacement=True)
        path = tmp_path / "m.jsonl"
        assert write_manifest(manifest, path) == file_digest(path)

    def test_seed_changes_selection_not_counts(self):
        pools = make_pools(80, 200, 200)
        counts = {"d1": 40, "d2": 100, "d3": 42}
        m1 = sample_mixture(pools, counts, seed=1)
        m2 = sample_mixture(pools, counts, seed=2)
        assert m1.counts == m2.counts
        assert m1.entries != m2.entries

    def test_zero_count_pool_absent(self):
        pools = make_pools(50, 50, 50)
        manifest = sample_mixture(pools, {"d1": 10, "d2": 0, "d3": 5}, seed=0)
        assert not any(e["pool"] == "D2" for e in entry_fields(manifest))

    def test_infeasible_without_replacement(self):
        pools = make_pools(10, 10, 10)
        with pytest.raises(DataError):
            sample_mixture(pools, {"d1": 11, "d2": 0, "d3": 0}, seed=0)

    # Neither count allocates: its keys fail at once. One near 1e8 would take gigabytes.
    @pytest.mark.parametrize("count", [10**30, 10**15])
    def test_a_count_too_large_to_draw_is_a_data_error(self, count):
        with pytest.raises(DataError, match=f"^D3: count {count} is too large to draw$"):
            sample_mixture(make_pools(5, 5, 5), {"d1": 1, "d3": count}, seed=0,
                           with_replacement=True)

    def test_replacement_oversamples(self):
        pools = make_pools(10, 10, 10)
        manifest = sample_mixture(pools, {"d1": 25, "d2": 0, "d3": 0}, seed=0,
                                  with_replacement=True)
        assert sum(1 for e in entry_fields(manifest) if e["pool"] == "D1") == 25

    def test_provenance_indices_valid(self):
        pools = make_pools(30, 60, 60)
        manifest = sample_mixture(pools, {"d1": 30, "d2": 20, "d3": 20}, seed=5)
        for row, entry in zip(manifest.entries, entry_fields(manifest)):
            pool = getattr(pools, entry["pool"].lower())
            assert 1 <= entry["source_line"] <= len(pool)
            assert pool[entry["source_line"] - 1] == row

    @pytest.mark.parametrize("d1_count", [12, 30])
    def test_draws_match_index_sampling(self, d1_count):
        # reference: the draw rule in plain Python, with hashlib keys, sorted and %
        pools = make_pools(20, 40, 40)
        counts = {"d1": d1_count, "d2": 25, "d3": 7}
        expected = []
        for tag in POOL_TAGS:
            pool, want = getattr(pools, tag.lower()), counts[tag.lower()]
            n = len(pool)
            if want <= n:
                keys = shake_keys(13, tag, n)
                picks = sorted(range(n), key=lambda i: (keys[i], i))[:want]
            else:
                picks = [key % n for key in shake_keys(13, tag, want)]
            expected.extend(pool[i] for i in picks)
        order = shake_keys(13, "order", len(expected))
        expected = [expected[i] for i in sorted(range(len(expected)), key=lambda i: (order[i], i))]
        manifest = sample_mixture(pools, counts, seed=13, with_replacement=True)
        assert manifest.entries == expected

    def test_tied_keys_keep_row_order(self, monkeypatch):
        # Equal keys put no row under the candidate bound, so every row is
        # sorted; ties keep the lower row first, in each pool and in the order.
        monkeypatch.setattr(util, "draw_keys",
                            lambda seed, stream, n: np.full(n, 2**64 - 1, dtype=np.uint64))
        pools = make_pools(1000, 10, 10)
        manifest = sample_mixture(pools, {"d1": 3, "d2": 10, "d3": 1}, seed=0)
        assert manifest.entries == [*pools.d1[:3], *pools.d2, *pools.d3[:1]]

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(2000, 20000), share=st.floats(0.0, 1.0), want_share=st.floats(0.0, 1.0),
           span=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_tied_keys_at_workload_sizes_go_in_key_then_row_order(
            self, n, share, want_share, span, seed):
        """Keys from two narrow bands, one at each end of the key range: many
        ties, not all. A share of low keys at least the count is ordered
        under the candidate bound, a smaller one or a count near n in full."""
        rng = np.random.default_rng(seed)
        low = rng.random(n) < share
        offsets = rng.integers(0, span, n, dtype=np.uint64)
        keys = np.where(low, offsets, np.uint64(2**64 - span) + offsets)
        want = round(want_share * n)
        with unittest.mock.patch.object(util, "draw_keys", lambda seed, stream, k: keys[:k]):
            rows = util.draw_rows(0, "D1", n, want)
        values = keys.tolist()
        assert rows.tolist() == sorted(range(n), key=lambda r: (values[r], r))[:want]

    @pytest.mark.parametrize("pair", [(7, 8000), (100, 19999), (19998, 19999)])
    @pytest.mark.parametrize("want", [500, 20000])
    def test_one_equal_pair_among_distinct_keys_goes_lower_row_first(self, pair, want):
        """The pair holds a key below all others, so a count of 500 orders it
        under the candidate bound and a count of n with every row."""
        keys = util.draw_keys(7, "D1", 20000).copy()
        keys[list(pair)] = keys.min() - np.uint64(1)
        with unittest.mock.patch.object(util, "draw_keys", lambda seed, stream, k: keys[:k]):
            rows = util.draw_rows(0, "D1", len(keys), want)
        values = keys.tolist()
        assert rows.tolist() == sorted(range(len(keys)), key=lambda r: (values[r], r))[:want]
        assert rows[:2].tolist() == list(pair)

    def test_array_and_list_pools_draw_the_same_rows(self):
        pools = make_pools(30, 60, 60)
        arrays = PoolSet(*(np.array(rows, dtype=object) for rows in (pools.d1, pools.d2, pools.d3)))
        counts = {"d1": 45, "d2": 60, "d3": 11}
        assert sample_mixture(arrays, counts, 4, with_replacement=True).entries == \
            sample_mixture(pools, counts, 4, with_replacement=True).entries

    @settings(deadline=None, max_examples=150)
    @given(sizes=st.tuples(*[st.integers(0, 40)] * 3), wants=st.tuples(*[st.integers(0, 60)] * 3),
           seed=st.integers(0, 2**63 - 1), with_replacement=st.booleans())
    def test_draw_properties(self, sizes, wants, seed, with_replacement):
        pools = make_pools(*sizes)
        counts = dict(zip(("d1", "d2", "d3"), wants))
        if any(want > n and (n == 0 or not with_replacement) for n, want in zip(sizes, wants)):
            with pytest.raises(DataError):
                sample_mixture(pools, counts, seed, with_replacement=with_replacement)
            return
        manifest = sample_mixture(pools, counts, seed, with_replacement=with_replacement)
        rows_of = {tag: [] for tag in POOL_TAGS}
        for row, entry in zip(manifest.entries, entry_fields(manifest)):
            pool = getattr(pools, entry["pool"].lower())
            assert pool[entry["source_line"] - 1] == row  # the pool's row at its line
            rows_of[entry["pool"]].append(row)
        for tag, n, want in zip(POOL_TAGS, sizes, wants):
            assert len(rows_of[tag]) == want  # exact counts
            # rows repeat only where the count exceeds the pool
            assert (len(set(rows_of[tag])) == want) == (want <= n)

    @pytest.mark.parametrize("want", [3, 25])
    def test_inclusion_is_uniform_over_seeds(self, want):
        # a 10-row pool, 2,000 seeds: each row's draws against a uniform
        # expectation, without (3 of 10) and with (25 of 10) replacement
        pools = make_pools(10, 0, 0)
        drawn = Counter(row for seed in range(2000) for row in sample_mixture(
            pools, {"d1": want}, seed, with_replacement=True).entries)
        observed = np.array([drawn[row] for row in pools.d1], dtype=np.float64)
        expected = 2000 * want / 10
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(statistic, df=9) > 0.001

    def test_first_position_is_uniform_over_seeds(self):
        # the order stream: which of 10 drawn rows comes first
        pools = make_pools(10, 0, 0)
        first = Counter(sample_mixture(pools, {"d1": 10}, seed).entries[0] for seed in range(2000))
        observed = np.array([first[row] for row in pools.d1], dtype=np.float64)
        statistic = float(((observed - 200) ** 2 / 200).sum())
        assert chi2.sf(statistic, df=9) > 0.001

    def test_round_trip_file(self, tmp_path):
        pools = make_pools(20, 20, 20)
        manifest = sample_mixture(pools, {"d1": 10, "d2": 10, "d3": 10}, seed=3)
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        header = read_manifest_header(path)
        assert header == {"seed": 3, "counts": {"d1": 10, "d2": 10, "d3": 10},
                          "ratio": {"d1": 1.0, "d2": 1.0, "d3": 1.0}}
        rows = [manifest_row(obj["pool"], obj["source_line"], obj["id"])
                for _, obj in list(read_jsonl(path))[1:]]  # line 1 is the header
        assert rows == manifest.entries


class TestPoolSet:
    def test_sizes(self):
        pools = make_pools(3, 4, 5)
        assert pools.sizes() == {"d1": 3, "d2": 4, "d3": 5}

    def test_make_pairs_tags(self):
        records = make_pairs("D2", 5)
        assert all(r["id"].startswith("d2-") and "system" not in r for r in records)
        assert all(r["system"] == SCORING_SYSTEM_PREFIX for r in make_pairs("D1", 5))
