import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import random
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from iqmix import cli
from iqmix.cli import _config_hash, main
from iqmix.datasets import POOL_TAGS, ingest_mos, load_pool
from iqmix.errors import OracleError
from iqmix.metrics import DESCRIPTION_DIMENSIONS, QUADRANTS, QUESTION_TYPES
from iqmix.oracle import SyntheticOracle
from iqmix.util import file_digest

from conftest import make_pairs, write_records


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def mos_file(tmp_path):
    path = tmp_path / "mos.csv"
    rows = ["image_id,mos"] + [f"img{i:03d},{(i * 37) % 101}" for i in range(60)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def logits_file(tmp_path):
    path = tmp_path / "logits.jsonl"
    labels = ("bad", "poor", "fair", "good", "excellent")
    lines = [
        json.dumps({"id": "uniform", "logits": dict.fromkeys(labels, 0.0)}),
        json.dumps({"id": "top", "logits": dict(zip(labels, (-9.0, -9.0, -9.0, -9.0, 9.0)))}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


MOS_COMMANDS = [
    ["convert", "{mos}", "--scale-min", "0", "--scale-max", "100", "--out", "{out}"],
    ["subsample", "{mos}", "--target", "5", "--out", "{out}"],
    ["eval-iqa", "{scores}", "{mos}"],
]


def mos_command_argv(tmp_path, command, mos) -> list[str]:
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"id": "img000", "score": 1.0}\n{"id": "img001", "score": 2.0}\n')
    return [a.format(mos=mos, out=tmp_path / "out", scores=scores) for a in command]


@pytest.mark.parametrize("command", MOS_COMMANDS)
def test_mos_file_that_is_not_utf8_is_data_error(tmp_path, mos_file, capsys, command):
    mos_file.write_bytes(mos_file.read_bytes().replace(b"img007", b"img\xff07"))
    assert run_cli(*mos_command_argv(tmp_path, command, mos_file)) == 1
    assert f"error: {mos_file}: not valid UTF-8 (invalid start byte)" in capsys.readouterr().err


@pytest.mark.parametrize("command", MOS_COMMANDS)
def test_oversized_mos_field_is_data_error(tmp_path, mos_file, capsys, command):
    mos_file.write_text(mos_file.read_text() + "img999," + "1" * 200_000 + "\n")
    assert run_cli(*mos_command_argv(tmp_path, command, mos_file)) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {mos_file}: row 62: field larger than field limit (131072)\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", MOS_COMMANDS)
@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_not_one_character_is_config_error(tmp_path, capsys, command, delimiter):
    argv = mos_command_argv(tmp_path, command, tmp_path / "absent.csv")
    (tmp_path / "scores.jsonl").unlink()  # no input is opened: the delimiter is checked first
    assert run_cli(*argv, "--delimiter", delimiter) == 2
    assert (f"config error: delimiter must be one character, got {delimiter!r}\n"
            == capsys.readouterr().err)


HUGE_INT = "1" * 5000  # past Python's 4300-digit int-string limit
DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit
HUGE_INT_ERROR = "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"
DEEP_ERROR = "invalid JSON (maximum recursion depth exceeded"


class TestHugeIntegersAndDeepNesting:
    """A JSON integer too long to convert and nesting too deep to decode are
    invalid JSON lines like any other: a line-numbered diagnostic, never a
    traceback."""

    def logits(self, tmp_path):
        labels = ("bad", "poor", "fair", "good", "excellent")
        good = [json.dumps({"id": k, "logits": dict.fromkeys(labels, 0.0)}) for k in "ad"]
        path = tmp_path / "logits.jsonl"
        path.write_text("\n".join([
            good[0], '{"id": "b", "logits": {"bad": %s}}' % HUGE_INT,
            '{"id": "c", "logits": %s}' % DEEP, good[1]]) + "\n", encoding="utf-8")
        return path

    def test_lenient_score_skips_the_lines_and_scores_the_others(self, tmp_path, capsys):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", self.logits(tmp_path), "--out", out) == 0
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a", "d"]
        err = capsys.readouterr().err
        assert f"line 2: {HUGE_INT_ERROR}" in err and f"line 3: {DEEP_ERROR}" in err
        assert "2 malformed record(s) skipped" in err

    def test_strict_score_exits_1(self, tmp_path, capsys):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", self.logits(tmp_path), "--strict", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {HUGE_INT_ERROR}") and "Traceback" not in err
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a"]

    @pytest.mark.parametrize("line,message", [
        ('{"id": "img001", "score": %s}' % HUGE_INT, HUGE_INT_ERROR),
        ('{"id": "img001", "score": %s}' % DEEP, DEEP_ERROR),
    ], ids=["huge-int", "deep"])
    def test_eval_iqa_names_the_line(self, tmp_path, mos_file, capsys, line, message):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "img000", "score": 1.0}\n' + line + "\n", encoding="utf-8")
        assert run_cli("eval-iqa", scores, mos_file) == 1
        assert capsys.readouterr().err.startswith(f"error: {scores}: line 2: {message}")

    @pytest.mark.parametrize("value", [HUGE_INT, "[" * 20_000 + "]" * 20_000],
                             ids=["huge-int", "deep"])
    def test_config_is_config_error(self, tmp_path, capsys, value):
        config = tmp_path / "config.yaml"
        config.write_text(f"seed: {value}\n", encoding="utf-8")
        assert run_cli("sample", "--config", config, "--counts", "1:1:1",
                       "--out", tmp_path / "m.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid config {config}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [HUGE_INT, DEEP], ids=["huge-int", "deep"])
    def test_coarse_result_is_data_error(self, tmp_path, capsys, oracle_calls, value):
        config = write_pools_and_config(tmp_path, n1=10, n2=10, n3=10)
        coarse = tmp_path / "coarse.json"
        coarse.write_text('{"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, '
                          '"lambda_loss": %s}' % value, encoding="utf-8")
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", tmp_path / "run") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read coarse result {coarse}: ")
        assert oracle_calls == []

    def test_external_oracle_result_is_oracle_error(self, tmp_path, capsys):
        stub = tmp_path / "stub.py"
        stub.write_text("import sys\nopen(sys.argv[1], 'w').write('[' * 100000 + ']' * 100000)\n",
                        encoding="utf-8")
        config = write_pools_and_config(tmp_path, n1=10, n2=10, n3=10, oracle={
            "kind": "external", "command": f"{sys.executable} {stub} {{out}}"})
        assert run_cli("mix-search", "--config", config, "--out-dir", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert "oracle error: unreadable oracle result" in err and "maximum recursion depth" in err

    @pytest.mark.parametrize("value,message", [(HUGE_INT, HUGE_INT_ERROR), (DEEP, DEEP_ERROR)],
                             ids=["huge-int", "deep"])
    def test_sample_names_the_pool_line(self, tmp_path, capsys, value, message):
        config = write_pools_and_config(tmp_path, n1=10, n2=10, n3=10)
        d2 = tmp_path / "d2.jsonl"
        d2.write_text(d2.read_text() + '{"id": "x", "extra": %s}\n' % value, encoding="utf-8")
        assert run_cli("sample", "--config", config, "--counts", "1:1:1",
                       "--out", tmp_path / "m.jsonl") == 1
        assert capsys.readouterr().err.startswith(f"error: {d2}: line 11: {message}")


class TestConvert:
    def test_happy_path(self, tmp_path, mos_file, capsys):
        out = tmp_path / "d1.jsonl"
        code = run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100,
                       "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "converted 60 records" in printed
        for label in ("bad", "poor", "fair", "good", "excellent"):
            assert label in printed
        pairs = load_pool(out, "D1")
        assert len(pairs) == 60
        assert (tmp_path / "d1.jsonl.run.json").is_file()

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("image_id,mos\n")
        out = tmp_path / "out.jsonl"
        assert run_cli("convert", empty, "--scale-min", 0, "--scale-max", 100,
                       "--out", out) == 1

    def test_invalid_scale_is_config_error(self, tmp_path, mos_file):
        out = tmp_path / "out.jsonl"
        assert run_cli("convert", mos_file, "--scale-min", 100, "--scale-max", 0,
                       "--out", out) == 2

    def test_infinite_scale_bound_is_config_error(self, tmp_path, mos_file, capsys):
        out = tmp_path / "out.jsonl"
        assert run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", "inf",
                       "--out", out) == 2
        assert "finite bounds" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_bound_in_exponent_form(self, tmp_path, mos_file):
        out = tmp_path / "out.jsonl"
        assert run_cli("convert", mos_file, "--scale-min", "-1e3", "--scale-max", 100,
                       "--out", out) == 0
        assert len(load_pool(out, "D1")) == 60

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("convert", tmp_path / "nope.csv", "--scale-min", 0,
                       "--scale-max", 100, "--out", tmp_path / "o.jsonl") == 1

    def test_duplicate_id_strict_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "mos.csv"
        src.write_text("image_id,mos\na,10\nb,20\na,30\n")
        assert run_cli("convert", src, "--scale-min", 0, "--scale-max", 100,
                       "--out", tmp_path / "o.jsonl") == 1
        err = capsys.readouterr().err
        assert "duplicate image_id 'a'" in err and "row 4" in err and "row 2" in err

    def test_duplicate_id_lenient_skips_later_row(self, tmp_path, capsys):
        src = tmp_path / "mos.csv"
        src.write_text("image_id,mos\na,10\nb,20\na,30\n")
        out = tmp_path / "o.jsonl"
        assert run_cli("convert", src, "--scale-min", 0, "--scale-max", 100,
                       "--lenient", "--out", out) == 0
        assert "converted 2 records" in capsys.readouterr().out
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["a", "b"]

    def test_non_finite_mos_lenient_skips_row(self, tmp_path, capsys, caplog):
        src = tmp_path / "mos.csv"
        src.write_text("image_id,mos\na,10\nb,nan\nc,90\nd,-inf\n")
        out = tmp_path / "o.jsonl"
        assert run_cli("convert", src, "--scale-min", 0, "--scale-max", 100,
                       "--lenient", "--out", out) == 0
        assert "converted 2 records" in capsys.readouterr().out
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["a", "c"]
        warned = [m for m in caplog.messages if "non-finite mos" in m]
        assert len(warned) == 2 and "row 3" in warned[0] and "row 5" in warned[1]


class TestScore:
    def test_logits_file_that_is_not_utf8_is_data_error(self, tmp_path, logits_file, capsys):
        logits_file.write_bytes(logits_file.read_bytes().replace(b"top", b"t\xffp"))
        assert run_cli("score", logits_file, "--out", tmp_path / "scores.jsonl") == 1
        assert f"error: {logits_file}: not valid UTF-8 (invalid start byte)" \
            in capsys.readouterr().err

    def test_five_level(self, tmp_path, logits_file):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", logits_file, "--out", out) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0] == {"id": "uniform", "score": 3.0}
        assert rows[1]["score"] == pytest.approx(5.0, abs=1e-6)

    def test_binary_mode(self, tmp_path):
        src = tmp_path / "binary.jsonl"
        src.write_text(json.dumps({"id": "q", "good": math.log(3), "poor": 0.0}) + "\n")
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", src, "--mode", "binary", "--out", out) == 0
        row = json.loads(out.read_text())
        assert row["score"] == pytest.approx(0.75, abs=1e-12)

    def test_lenient_keeps_going(self, tmp_path, logits_file, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text(logits_file.read_text() + "{broken\n")
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", src, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 2
        assert "line 3" in capsys.readouterr().err

    def test_strict_aborts(self, tmp_path, logits_file):
        src = tmp_path / "mixed.jsonl"
        src.write_text("{broken\n" + logits_file.read_text())
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", src, "--strict", "--out", out) == 1

    def test_strict_writes_scores_before_first_bad_line(self, tmp_path, logits_file, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text(logits_file.read_text() + "{broken\n" + logits_file.read_text())
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", src, "--strict", "--out", out) == 1
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["uniform", "top"]
        assert "line 3: invalid JSON" in capsys.readouterr().err

    BAD_LINES = ["{broken", "[1, 2]", json.dumps({"logits": {}}),
                 json.dumps({"id": "r", "logits": {}})]
    BAD_MESSAGES = ["invalid JSON (Expecting property name enclosed in double quotes: "
                    "line 1 column 2 (char 1))", "record is not an object",
                    "missing or non-string 'id'", "r: missing logit for level 'bad'"]

    def test_lenient_diagnostic_names_its_line_once(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text("\n".join(self.BAD_LINES) + "\n")
        assert run_cli("score", src, "--out", tmp_path / "scores.jsonl") == 0
        assert capsys.readouterr().err.splitlines()[:4] == [
            f"line {n}: {message}" for n, message in enumerate(self.BAD_MESSAGES, start=1)]

    @pytest.mark.parametrize("index", range(4))
    def test_strict_error_names_its_line_once(self, tmp_path, logits_file, capsys, index):
        src = tmp_path / "bad.jsonl"
        src.write_text(logits_file.read_text() + self.BAD_LINES[index] + "\n")
        assert run_cli("score", src, "--strict", "--out", tmp_path / "scores.jsonl") == 1
        assert f"error: line 3: {self.BAD_MESSAGES[index]}\n" in capsys.readouterr().err

    def test_rescale(self, tmp_path, logits_file):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", logits_file, "--rescale", 0, 100, "--out", out) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0]["score"] == 50.0

    def test_rescale_bound_in_exponent_form(self, tmp_path, logits_file):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", logits_file, "--rescale", "-1e3", 5, "--out", out) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0]["score"] == -1e3 + 2 * 1005 / 4  # level 3 of 5 on [-1000, 5]

    def test_overflowing_rescale_width_is_config_error(self, tmp_path, logits_file, capsys):
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", logits_file, "--rescale", "-1e308", "1e308",
                       "--out", out) == 2
        assert "finite width" in capsys.readouterr().err
        assert not out.exists()

    def test_rescale_whose_scores_overflow_is_config_error(self, tmp_path, logits_file, capsys):
        # the width 1e308 is finite, but (score - 1) * width reaches 4e308
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", logits_file, "--rescale", 0, "1e308", "--out", out) == 2
        assert "too wide" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_input_empty_output_zero_exit(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", src, "--out", out) == 0
        assert out.read_text() == ""


class TestEvalIqa:
    def write_pair(self, tmp_path, scores, mos):
        scores_path = tmp_path / "scores.jsonl"
        scores_path.write_text(
            "\n".join(json.dumps({"id": k, "score": v}) for k, v in scores.items()) + "\n"
        )
        mos_path = tmp_path / "gt.csv"
        mos_path.write_text(
            "image_id,mos\n" + "\n".join(f"{k},{v}" for k, v in mos.items()) + "\n"
        )
        return scores_path, mos_path

    def test_perfect_agreement(self, tmp_path, capsys):
        values = {f"i{k}": float(k) for k in range(10)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        assert run_cli("eval-iqa", scores_path, mos_path, "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["srcc"] == pytest.approx(1.0)
        assert doc["plcc"] == pytest.approx(1.0)
        assert doc["avg"] == pytest.approx(1.0)

    def test_worked_three_point_sample(self, tmp_path, capsys):
        scores_path, mos_path = self.write_pair(
            tmp_path, {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "b": 3.0, "c": 2.0}
        )
        assert run_cli("eval-iqa", scores_path, mos_path, "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["srcc"] == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_ids_error(self, tmp_path):
        scores_path, mos_path = self.write_pair(
            tmp_path, {"a": 1.0, "b": 2.0}, {"x": 1.0, "y": 2.0}
        )
        assert run_cli("eval-iqa", scores_path, mos_path) == 1

    def test_text_format(self, tmp_path, capsys):
        values = {f"i{k}": float(k) for k in range(5)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        assert run_cli("eval-iqa", scores_path, mos_path) == 0
        out = capsys.readouterr().out
        assert "srcc" in out and "plcc" in out and "avg" in out

    def test_duplicate_mos_id_is_data_error(self, tmp_path, capsys):
        values = {f"i{k}": float(k) for k in range(5)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        mos_path.write_text(mos_path.read_text() + "i1,9.5\n")
        assert run_cli("eval-iqa", scores_path, mos_path) == 1
        err = capsys.readouterr().err
        assert "duplicate image_id 'i1'" in err and "row 7" in err and "row 3" in err

    def test_duplicate_score_id_is_data_error(self, tmp_path, capsys):
        values = {f"i{k}": float(k) for k in range(5)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        scores_path.write_text(scores_path.read_text()
                               + json.dumps({"id": "i2", "score": 0.5}) + "\n")
        assert run_cli("eval-iqa", scores_path, mos_path) == 1
        err = capsys.readouterr().err
        assert "duplicate id 'i2'" in err and "line 6" in err and "line 3" in err

    def test_non_finite_mos_is_data_error(self, tmp_path, capsys):
        values = {f"i{k}": float(k) for k in range(5)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        mos_path.write_text(mos_path.read_text().replace("i3,3.0", "i3,nan"))
        assert run_cli("eval-iqa", scores_path, mos_path) == 1
        assert f"{mos_path}: row 5: non-finite mos nan" in capsys.readouterr().err

    @pytest.mark.parametrize("score", ["true", '"0.5"', "null", "NaN", "-Infinity"])
    def test_non_numeric_score_is_data_error(self, tmp_path, capsys, score):
        values = {f"i{k}": float(k) for k in range(5)}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        lines = scores_path.read_text().splitlines()
        lines[2] = f'{{"id": "i2", "score": {score}}}'
        scores_path.write_text("\n".join(lines) + "\n")
        assert run_cli("eval-iqa", scores_path, mos_path) == 1
        assert (f"{scores_path}: line 3: 'score' must be a finite number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_score_id_is_data_error(self, tmp_path, capsys, flag):
        values = {"True": 1.0, "False": 2.0, "x": 3.0}
        scores_path, mos_path = self.write_pair(tmp_path, values, values)
        scores_path.write_text(json.dumps({"id": flag, "score": 1.0}) + "\n")
        assert run_cli("eval-iqa", scores_path, mos_path) == 1
        assert "line 1: missing or non-string 'id'" in capsys.readouterr().err


MCQ = {"id": "1", "type": "what", "quadrant": "other", "choices": ["blur", "noise"],
       "gold": "noise", "predicted": "B"}
RATINGS = [{"id": "r", "dimension": dim, "rating": 1} for dim in DESCRIPTION_DIMENSIONS]
NAMES = QUESTION_TYPES + QUADRANTS + DESCRIPTION_DIMENSIONS + ("blur", "noise", "")
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                    st.sampled_from(NAMES), st.text(max_size=4))
FIELD_VALUES = st.one_of(SCALARS, st.lists(st.sampled_from(NAMES), max_size=3),
                         st.lists(SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@st.composite
def fuzzed_record(draw, valid: dict) -> dict:
    """A valid record with some fields replaced by any JSON value, some
    dropped, and, half the time, a gold drawn from whatever the choices are."""
    record = {**valid, **draw(st.fixed_dictionaries({}, optional=dict.fromkeys(
        valid, FIELD_VALUES)))}
    for key in draw(st.sets(st.sampled_from(sorted(valid)), max_size=2)):
        del record[key]
    if isinstance(record.get("choices"), list) and record["choices"] and draw(st.booleans()):
        record["gold"] = draw(st.sampled_from(record["choices"]))
    return record


class TestEvalMcqDesc:
    def test_mcq(self, tmp_path, capsys):
        path = tmp_path / "answers.jsonl"
        rows = [
            {"id": "1", "type": "yes-or-no", "quadrant": "distortion",
             "choices": ["yes", "no"], "gold": "yes", "predicted": "Yes"},
            {"id": "2", "type": "what", "quadrant": "other",
             "choices": ["blur", "noise"], "gold": "noise", "predicted": "B"},
            {"id": "3", "type": "how", "quadrant": "other",
             "choices": ["high", "low"], "gold": "high", "predicted": "low"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run_cli("eval-mcq", path, "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"]["correct"] == 2
        assert doc["by_type"]["how"]["accuracy"] == 0.0

    def test_desc(self, tmp_path, capsys):
        path = tmp_path / "ratings.jsonl"
        rows = []
        for dim in ("completeness", "precision", "relevance"):
            rows += [{"id": "r", "dimension": dim, "rating": r} for r in (1, 1, 2, 0)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run_cli("eval-desc", path, "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimensions"]["precision"]["score"] == pytest.approx(1.0)
        assert doc["sum"] == pytest.approx(3.0)

    @pytest.mark.parametrize("rating", ["1.7", "true", '"2"', "3"])
    def test_desc_rating_must_be_integer(self, tmp_path, capsys, rating):
        path = tmp_path / "ratings.jsonl"
        rows = [f'{{"id": "r", "dimension": "{dim}", "rating": 1}}'
                for dim in ("completeness", "precision", "relevance")]
        rows.append(f'{{"id": "r", "dimension": "precision", "rating": {rating}}}')
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("eval-desc", path) == 1
        assert (f"line 4: precision: rating must be the integer 0, 1 or 2, "
                f"got {json.loads(rating)!r}") in capsys.readouterr().err

    def test_desc_missing_dimension(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        path.write_text(json.dumps({"id": "r", "dimension": "precision", "rating": 1}) + "\n")
        assert run_cli("eval-desc", path) == 1

    @pytest.mark.parametrize("command,missing", [
        pytest.param(command, missing, id=command + ("-missing-inputs" if missing else ""))
        for missing in (False, True) for command in ("eval-iqa", "eval-mcq", "eval-desc")])
    def test_unknown_format_from_the_environment_is_config_error(
            self, tmp_path, mos_file, capsys, monkeypatch, command, missing):
        monkeypatch.setenv("IQMIX_FORMAT", "xml")
        scores = tmp_path / "scores.jsonl"
        write_records([{"id": "img000", "score": 1.0}, {"id": "img001", "score": 2.0}], scores)
        answers = tmp_path / "answers.jsonl"
        write_records([MCQ], answers)
        ratings = tmp_path / "ratings.jsonl"
        write_records(RATINGS, ratings)
        inputs = {"eval-iqa": [scores, mos_file], "eval-mcq": [answers],
                  "eval-desc": [ratings]}[command]
        if missing:  # the variable is checked before any input is opened
            inputs = [tmp_path / "absent" / path.name for path in inputs]
        assert run_cli(command, *inputs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: environment variable IQMIX_FORMAT='xml' must be text or json" \
            in captured.err

    @settings(deadline=None, max_examples=200)
    @given(command_and_records=st.one_of(
        st.tuples(st.just("eval-mcq"), st.lists(fuzzed_record(MCQ), min_size=1, max_size=3)),
        st.tuples(st.just("eval-desc"), st.lists(fuzzed_record(RATINGS[0]), min_size=1,
                                                 max_size=3))))
    def test_any_field_values_exit_0_or_name_the_file_and_line(
            self, tmp_path_factory, command_and_records):
        command, fuzzed = command_and_records
        valid = [MCQ] if command == "eval-mcq" else RATINGS
        path = tmp_path_factory.mktemp("fuzz") / "records.jsonl"
        write_records(valid + fuzzed, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(command, path, "--format", "json")
        if code == 0:
            json.loads(out.getvalue())
        else:
            assert code == 1
            assert re.match(rf"error: {re.escape(str(path))}: line \d+: ", err.getvalue()), \
                err.getvalue()


class TestSubsample:
    def test_writes_subset(self, tmp_path, mos_file, capsys):
        out = tmp_path / "subset.csv"
        assert run_cli("subsample", mos_file, "--target", 20, "--seed", 5,
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "image_id,mos"
        assert len(lines) == 21
        assert (tmp_path / "subset.csv.run.json").is_file()

    def test_output_is_pinned(self, tmp_path, mos_file):
        # each bin keeps the rows of its smallest keys of the stream (5, "bin{b}"):
        # a change of the draw rule moves this digest
        out = tmp_path / "subset.csv"
        assert run_cli("subsample", mos_file, "--target", 20, "--seed", 5, "--out", out) == 0
        assert file_digest(out) == \
            "4bd5ed7f3b7f5132833b3c95c612b90860ed45d4cd4a9bddeaf491aa928c835d"

    def test_deterministic(self, tmp_path, mos_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli("subsample", mos_file, "--target", 20, "--seed", 5, "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_target(self, tmp_path, mos_file):
        assert run_cli("subsample", mos_file, "--target", 10000,
                       "--out", tmp_path / "o.csv") == 1

    def test_negative_target_is_data_error(self, tmp_path, mos_file, capsys):
        out = tmp_path / "o.csv"
        assert run_cli("subsample", mos_file, "--target", -1, "--out", out) == 1
        assert "target_size must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_mos_is_data_error(self, tmp_path, mos_file, capsys, bad):
        mos_file.write_text(mos_file.read_text() + f"extra,{bad}\n")
        out = tmp_path / "o.csv"
        assert run_cli("subsample", mos_file, "--target", 20, "--out", out) == 1
        assert f"row 62: non-finite mos {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_with_comma_and_quote_round_trip(self, tmp_path, mos_file):
        mos_file.write_text(mos_file.read_text() + '"a,b",17.5\n"q""x",42.25\n')
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli("subsample", mos_file, "--target", 62, "--out", first) == 0
        assert ingest_mos(first) == ingest_mos(mos_file)
        assert first.read_text().splitlines()[-2:] == ['"a,b",17.5', '"q""x",42.25']
        assert run_cli("subsample", first, "--target", 62, "--out", second) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_duplicate_id_is_data_error(self, tmp_path, mos_file, capsys):
        mos_file.write_text(mos_file.read_text() + "img005,1\n")
        assert run_cli("subsample", mos_file, "--target", 20,
                       "--out", tmp_path / "o.csv") == 1
        assert "duplicate image_id 'img005'" in capsys.readouterr().err


@pytest.fixture
def oracle_calls(monkeypatch):
    """The manifest of every synthetic oracle call, in call order."""
    calls = []
    evaluate = SyntheticOracle.evaluate

    def counting(self, request):
        calls.append(request.manifest_path)
        return evaluate(self, request)

    monkeypatch.setattr(SyntheticOracle, "evaluate", counting)
    return calls


_opened: list[str] | None = None  # the path of every file opened while a test records
_open_log: int | None = None  # a file descriptor that a forked process appends paths to


def _log_open(event: str, args: tuple) -> None:
    if event == "open" and _open_log is not None:  # os.write raises no audit event
        os.write(_open_log, f"{args[0]}\n".encode())


@pytest.fixture
def opened_anywhere(tmp_path):
    """A function that returns the path of every file opened so far while
    the test runs, in this process or in one forked from it: the audit hook
    appends each path to a file, so a child's opens outlive the child."""
    global _open_log
    if not getattr(_log_open, "added", False):
        sys.addaudithook(_log_open)
        _log_open.added = True
    log = tmp_path.parent / f"{tmp_path.name}.opened"
    _open_log = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    yield lambda: log.read_text().splitlines()
    os.close(_open_log)
    _open_log = None


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _opened is not None:
        _opened.append(str(args[0]))


@pytest.fixture
def opened_paths():
    """The path of every file the test opens, by any means: an audit hook
    sees open(), io.FileIO and its subclasses alike. A hook cannot be
    removed, so it is added once and records only inside this fixture."""
    global _opened
    if not getattr(_record_open, "added", False):
        sys.addaudithook(_record_open)
        _record_open.added = True
    _opened = []
    yield _opened
    _opened = None


SYNTHETIC = {
    "kind": "synthetic",
    "scoring_surface": {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25},
    "interpreting_surface": {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25},
}


def write_pools_and_config(tmp_path, n1=120, n2=400, n3=400, oracle=None,
                           extra=None):
    paths = {}
    for tag, n in (("d1", n1), ("d2", n2), ("d3", n3)):
        path = tmp_path / f"{tag}.jsonl"
        write_records(make_pairs(tag.upper(), n), path)
        paths[tag] = str(path)
    conf = {
        "pools": paths,
        "oracle": oracle or SYNTHETIC,
        "seed": 3,
        "repeats": 1,
    }
    conf.update(extra or {})
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    return config_path


class TestSample:
    def test_explicit_counts(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path)
        out = tmp_path / "manifest.jsonl"
        assert run_cli("sample", "--config", config, "--counts", "50:100:80",
                       "--seed", 1, "--out", out) == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["counts"] == {"d1": 50, "d2": 100, "d3": 80}
        assert len(lines) == 231
        assert (tmp_path / "manifest.jsonl.run.json").is_file()

    def test_ratio_scaled_to_d1(self, tmp_path):
        config = write_pools_and_config(tmp_path, n1=100)
        out = tmp_path / "manifest.jsonl"
        assert run_cli("sample", "--config", config, "--ratio", "1.00:2.50:1.04",
                       "--seed", 1, "--out", out) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["counts"] == {"d1": 100, "d2": 250, "d3": 104}

    def test_requires_counts_or_ratio(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        assert run_cli("sample", "--config", config, "--out", tmp_path / "m.jsonl") == 2

    def test_infeasible_counts(self, tmp_path):
        config = write_pools_and_config(tmp_path, n1=10)
        assert run_cli("sample", "--config", config, "--counts", "20:5:5",
                       "--out", tmp_path / "m.jsonl") == 1

    def test_non_numeric_seed_is_config_error(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path, extra={"seed": "abc"})
        out = tmp_path / "m.jsonl"
        assert run_cli("sample", "--config", config, "--counts", "5:5:5", "--out", out) == 2
        assert "config error: seed must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["nan:1:1", "inf:1:1", "1.9:2.7:3", "-1:2:3"])
    def test_counts_that_are_not_whole_and_non_negative_are_config_error_before_pools_load(
            self, tmp_path, capsys, counts):
        config = write_pools_and_config(tmp_path)
        for tag in ("d1", "d2", "d3"):
            (tmp_path / f"{tag}.jsonl").unlink()  # a pool load would exit 1
        out = tmp_path / "m.jsonl"
        assert run_cli("sample", "--config", config, f"--counts={counts}", "--out", out) == 2
        assert (f"config error: --counts must be whole numbers >= 0, got {counts!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_counts_in_exponent_form(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        out = tmp_path / "m.jsonl"
        assert run_cli("sample", "--config", config, "--counts", "1e1:2E1:3.0",
                       "--out", out) == 0
        assert json.loads(out.read_text().splitlines()[0])["counts"] == \
            {"d1": 10, "d2": 20, "d3": 3}

    def test_pool_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path)
        pool = tmp_path / "d2.jsonl"
        pool.write_bytes(pool.read_bytes().replace(b"images/", b"images/\xff", 1))
        out = tmp_path / "m.jsonl"
        assert run_cli("sample", "--config", config, "--counts", "5:5:5", "--out", out) == 1
        assert f"error: {pool}: not valid UTF-8 (invalid start byte)" \
            in capsys.readouterr().err
        assert not out.exists()

    # Neither count allocates: its keys fail at once. One near 1e8 would take gigabytes.
    @pytest.mark.parametrize("count", ["1e30", "1e15"])
    def test_a_count_too_large_to_draw_is_a_data_error(self, tmp_path, capsys, count):
        config = write_pools_and_config(tmp_path, 30, 40, 40)
        out = tmp_path / "m.jsonl"
        assert run_cli("sample", "--config", config, "--counts", f"{count}:0:0",
                       "--with-replacement", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == \
            f"error: D1: count {int(float(count))} is too large to draw"
        assert "Traceback" not in err and not out.exists()


class TestMixSearch:
    def test_end_to_end(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        printed = capsys.readouterr().out
        assert "mix ratio d1:d2:d3" in printed
        doc = json.loads((out_dir / "coarse_result.json").read_text())
        assert abs(math.log10(doc["stage1"]["ratio"]) - math.log10(2.42)) < 0.02
        assert (out_dir / "runrecord.json").is_file()

    def test_flag_overrides_config_seed(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir,
                       "--seed", 99) == 0
        record = json.loads((out_dir / "runrecord.json").read_text())
        assert record["seed"] == 99

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IQMIX_SEED", "77")
        config = write_pools_and_config(tmp_path, extra={"seed": None})
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        record = json.loads((out_dir / "runrecord.json").read_text())
        assert record["seed"] == 77

    def test_oracle_failure_exit_code(self, tmp_path):
        oracle = {"kind": "external",
                  "command": f"{sys.executable} -c exit(4) {{manifest}} {{seed}} {{out}}"}
        config = write_pools_and_config(tmp_path, oracle=oracle)
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "run") == 3

    def test_stale_oracle_result_exit_code(self, tmp_path):
        oracle = {"kind": "external", "command": f"{sys.executable} -c pass {{out}}"}
        config = write_pools_and_config(tmp_path, oracle=oracle)
        stale = tmp_path / "run" / "manifests" / "d2_vs_d3" / "point00_rep0.jsonl.result.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps({"perf_scoring": 0.5, "perf_interpreting": 0.5,
                                     "loss_scoring": 1.0, "loss_interpreting": 1.0}))
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "run") == 3
        assert not stale.exists()

    def test_axis_other_than_log10_is_config_error(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path, extra={"axis": "fraction"})
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 2
        assert "axis must be log10" in capsys.readouterr().err
        assert not (out_dir / "manifests").exists()

    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("pools: {d1: missing.jsonl}\n")
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "run") == 2

    @pytest.mark.parametrize("extra,message", [
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": math.inf}, "seed must be an integer, got inf"),
        ({"jobs": "two"}, "jobs must be an integer, got 'two'"),
        ({"repeats": [3]}, "repeats must be an integer, got [3]"),
        ({"scoring_weight": "half"}, "scoring_weight must be a number, got 'half'"),
        # a bool, a numeric string or a fraction is not a number setting
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "42"}, "seed must be an integer, got '42'"),
        ({"repeats": 1.9}, "repeats must be an integer, got 1.9"),
        ({"repeats": True}, "repeats must be an integer, got True"),
        ({"jobs": True}, "jobs must be an integer, got True"),
        ({"scoring_weight": True}, "scoring_weight must be a number, got True"),
    ])
    def test_non_numeric_setting_is_config_error_before_pools_load(
            self, tmp_path, capsys, extra, message):
        config = write_pools_and_config(tmp_path, extra=extra)
        for tag in ("d1", "d2", "d3"):
            (tmp_path / f"{tag}.jsonl").unlink()  # a pool load would exit 1
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "run") == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ({"grid": [1]}, "grid must be a mapping, got [1]"),
        ({"grid": {"stage1": "abc"}}, "grid.stage1 must be a list of positive numbers, got 'abc'"),
        ({"grid": {"stage2": [0.5, "x"]}},
         "grid.stage2 must be a list of positive numbers, got [0.5, 'x']"),
        ({"grid": {"stage2": [0.5, 0]}},
         "grid.stage2 must be a list of positive numbers, got [0.5, 0]"),
        ({"scoring_weight": 7}, "scoring_weight must be in [0, 1], got 7.0"),
        ({"scoring_weight": -0.5}, "scoring_weight must be in [0, 1], got -0.5"),
        ({"grid": {"stage1": [1, 2, 3]}},
         "grid.stage1 needs 5 distinct ratios for a degree-4 fit, got [1, 2, 3]"),
        ({"grid": {"stage2": [1, 2.0, 2, 3, 4, 4]}},
         "grid.stage2 needs 5 distinct ratios for a degree-4 fit, got [1, 2.0, 2, 3, 4, 4]"),
        ({"repeats": 0}, "repeats must be >= 1, got 0"),
        ({"jobs": 0}, "jobs must be >= 1, got 0"),
    ])
    def test_bad_setting_is_config_error_before_pools_load(
            self, tmp_path, capsys, extra, message):
        config = write_pools_and_config(tmp_path, extra=extra)
        for tag in ("d1", "d2", "d3"):
            (tmp_path / f"{tag}.jsonl").unlink()  # a pool load would exit 1
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "run") == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("perf_scoring", True),
                                             ("perf_interpreting", "0.5")])
    def test_a_result_field_that_is_not_a_number_exits_3(self, tmp_path, capsys, field, value):
        stub = tmp_path / "stub.py"
        result = {"perf_scoring": 0.5, "perf_interpreting": 0.5, "loss_scoring": 1.0,
                  "loss_interpreting": 1.0, field: value}
        stub.write_text(f"import json, sys\njson.dump({result!r}, open(sys.argv[1], 'w'))\n",
                        encoding="utf-8")
        config = write_pools_and_config(tmp_path, oracle={
            "kind": "external", "command": f"{sys.executable} {stub} {{out}}"})
        assert run_cli("mix-search", "--config", config, "--out-dir", tmp_path / "run") == 3
        assert "non-numeric result field" in capsys.readouterr().err
        assert (tmp_path / "run" / "ledger.jsonl").read_text() == ""

    @pytest.mark.parametrize("break_run", ["missing pools.d2", "malformed ledger"])
    def test_a_run_that_fails_early_leaves_no_earlier_coarse_result(
            self, tmp_path, capsys, oracle_calls, break_run):
        extra = None
        if break_run == "missing pools.d2":
            extra = {"pools": {"d1": str(tmp_path / "d1.jsonl"),
                               "d2": str(tmp_path / "missing.jsonl"),
                               "d3": str(tmp_path / "d3.jsonl")}}
        config = write_pools_and_config(tmp_path, extra=extra)
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        result = out_dir / "coarse_result.json"
        result.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))  # an earlier run's
        if break_run == "malformed ledger":
            (out_dir / "ledger.jsonl").write_text("not json\n")
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) != 0
        assert not result.exists()
        assert oracle_calls == []

    def test_a_failed_run_leaves_no_earlier_run_record(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        ledger = (out_dir / "ledger.jsonl").read_bytes()
        manifests = sorted((out_dir / "manifests").rglob("*.jsonl"))
        (tmp_path / "d2.jsonl").unlink()
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 1
        assert not (out_dir / "runrecord.json").exists()
        assert not (out_dir / "coarse_result.json").exists()
        # the ledger and the manifests are kept for a rerun to replay
        assert (out_dir / "ledger.jsonl").read_bytes() == ledger
        assert sorted((out_dir / "manifests").rglob("*.jsonl")) == manifests

    def test_grid_whose_ratios_round_to_the_same_counts_fails_before_any_call(
            self, tmp_path, capsys, oracle_calls):
        config = write_pools_and_config(
            tmp_path, n1=20, n2=40, n3=40,
            extra={"grid": {"stage1": [1.0, 1.001, 1.002, 1.003, 1.004]}})
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 1
        assert "error: degree-4 fit needs >= 5 distinct axis values, got 1" \
            in capsys.readouterr().err
        assert oracle_calls == []
        assert not (out_dir / "manifests" / "d2_vs_d3").exists()

    def test_grid_override_sets_the_points(self, tmp_path):
        grid = [0.25, 0.5, 1, 2, 4, 8]
        config = write_pools_and_config(tmp_path, extra={"grid": {"stage1": grid}})
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        doc = json.loads((out_dir / "coarse_result.json").read_text())
        assert len(doc["stage1"]["points"]) == len(grid)
        assert len(doc["stage2"]["points"]) == 19

    def test_a_stage2_count_too_large_to_draw_is_a_data_error(self, tmp_path, capsys, scripted):
        def search(stage2):
            config = write_pools_and_config(tmp_path, 30, 40, 40,
                                            extra={"grid": {"stage2": stage2}})
            return run_cli("mix-search", "--config", config, "--out-dir", tmp_path / "run")

        assert search([1.0e300, 1, 2, 3, 4]) == 1
        assert re.fullmatch(r"error: D2: count \d{300,} is too large to draw",
                            capsys.readouterr().err.splitlines()[-1])
        assert len(scripted.calls) == 19  # stage 1, kept in the ledger
        scripted.calls.clear()
        assert search([0.5, 1, 2, 3, 4]) == 0
        assert len(scripted.calls) == 5 + 1  # stage 2 and the confirmation


class TestMixAdjust:
    def test_end_to_end(self, tmp_path, capsys):
        config = write_pools_and_config(tmp_path)
        search_dir = tmp_path / "search"
        assert run_cli("mix-search", "--config", config, "--out-dir", search_dir) == 0
        adjust_dir = tmp_path / "adjust"
        assert run_cli("mix-adjust", "--config", config,
                       "--coarse-result", search_dir / "coarse_result.json",
                       "--out-dir", adjust_dir, "--max-epochs", 2) == 0
        printed = capsys.readouterr().out
        assert "epoch 1" in printed
        trajectory = (adjust_dir / "trajectory.jsonl").read_text().splitlines()
        assert len(trajectory) >= 2
        assert (adjust_dir / "runrecord.json").is_file()

    def test_missing_coarse_result(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        assert run_cli("mix-adjust", "--config", config,
                       "--coarse-result", tmp_path / "nope.json",
                       "--out-dir", tmp_path / "run") == 1

    def test_failed_search_leaves_no_coarse_result(self, tmp_path, capsys):
        # the document of an earlier, successful run is removed, not left behind
        config = write_pools_and_config(tmp_path)
        assert run_cli("mix-search", "--config", config, "--out-dir", tmp_path / "search") == 0
        coarse = tmp_path / "search" / "coarse_result.json"
        assert coarse.is_file()
        oracle = {"kind": "external",
                  "command": f"{sys.executable} -c exit(4) {{manifest}} {{seed}} {{out}}"}
        config = write_pools_and_config(tmp_path, oracle=oracle)
        assert run_cli("mix-search", "--config", config,
                       "--out-dir", tmp_path / "search") == 3
        assert not coarse.exists()
        capsys.readouterr()
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", tmp_path / "run") == 1
        assert f"cannot read coarse result {coarse}: [Errno 2]" in capsys.readouterr().err

    def test_coarse_result_that_is_not_utf8_is_data_error(self, tmp_path, capsys,
                                                          oracle_calls):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_bytes(b'{"mix_ratio": "\xff"}')
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", tmp_path / "run") == 1
        assert f"error: cannot read coarse result {coarse}: 'utf-8' codec can't decode" \
            in capsys.readouterr().err
        assert oracle_calls == []

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": "high"},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": True},
        {"mix_ratio": {"d1": 1.0, "d2": "2.5", "d3": 1.04}, "lambda_loss": 0.25},
        {"mix_ratio": [1.0, 2.5, 1.04], "lambda_loss": 0.25},
    ])
    def test_malformed_coarse_result_is_data_error(self, tmp_path, capsys, oracle_calls, doc):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps(doc))
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", tmp_path / "run") == 1
        assert f"cannot read coarse result {coarse}: malformed coarse result" \
            in capsys.readouterr().err
        assert oracle_calls == []

    @pytest.mark.parametrize("coarse_doc,flags,message", [
        ({"lambda_loss": math.nan}, [], "lambda_loss must be finite and positive"),
        ({"lambda_loss": math.inf}, [], "lambda_loss must be finite and positive"),
        ({"lambda_loss": -1}, [], "lambda_loss must be finite and positive"),
        ({"lambda_loss": 0}, [], "lambda_loss must be finite and positive"),
        ({}, ["--factor", "1.0"], "factor must be finite and > 1"),
        ({}, ["--factor", "inf"], "factor must be finite and > 1"),
        ({}, ["--factor", "nan"], "factor must be finite and > 1"),
        ({}, ["--tolerance", "1.0"], "tolerance must be in [0, 1)"),
        ({}, ["--tolerance", "nan"], "tolerance must be in [0, 1)"),
        # stage1.ratio is ignored: the split comes from the mix_ratio weights
        ({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 0.0}, "stage1": {"ratio": 2.42}}, [],
         "D2:D3 split must be finite and positive"),
        ({"mix_ratio": {"d1": 1.0, "d2": 0.0, "d3": 1.04}}, [],
         "D2:D3 split must be finite and positive"),
    ])
    def test_bad_control_is_rejected_before_any_oracle_call(
            self, tmp_path, capsys, oracle_calls, coarse_doc, flags, message):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25, **coarse_doc}))
        out_dir = tmp_path / "run"
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", out_dir, *flags) == 2
        assert message in capsys.readouterr().err
        assert oracle_calls == []
        assert not (out_dir / "manifests").exists()
        assert not (out_dir / "trajectory.jsonl").exists()

    @pytest.mark.parametrize("extra,flags,message", [
        ({}, ["--factor", "1.0"], "controller.factor must be finite and > 1, got 1.0"),
        ({"seed": "abc"}, [], "seed must be an integer, got 'abc'"),
        ({"controller": {"max_epochs": "three"}}, [],
         "controller.max_epochs must be an integer, got 'three'"),
        ({"controller": {"tolerance": "abc"}}, [],
         "controller.tolerance must be a number, got 'abc'"),
        ({"controller": {"factor": "1.1x"}}, [],
         "controller.factor must be a number, got '1.1x'"),
        ({"controller": [1, 2]}, [], "controller must be a mapping, got [1, 2]"),
        ({"controller": {"max_epochs": True}}, [],
         "controller.max_epochs must be an integer, got True"),
        ({"controller": {"max_epochs": 2.5}}, [],
         "controller.max_epochs must be an integer, got 2.5"),
        ({"controller": {"tolerance": "0.1"}}, [],
         "controller.tolerance must be a number, got '0.1'"),
        ({"controller": {"factor": True}}, [], "controller.factor must be a number, got True"),
    ])
    def test_bad_setting_is_config_error_before_pools_load(
            self, tmp_path, capsys, extra, flags, message):
        config = write_pools_and_config(tmp_path, extra=extra)
        for tag in ("d1", "d2", "d3"):
            (tmp_path / f"{tag}.jsonl").unlink()  # a pool load would exit 1
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", tmp_path / "run", *flags) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_a_failed_run_leaves_no_earlier_trajectory_or_run_record(self, tmp_path):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))
        out_dir = tmp_path / "run"
        argv = ["mix-adjust", "--config", config, "--coarse-result", coarse,
                "--out-dir", out_dir]
        assert run_cli(*argv) == 0
        ledger = (out_dir / "ledger.jsonl").read_bytes()
        manifests = sorted((out_dir / "manifests").glob("*.jsonl"))
        (tmp_path / "d2.jsonl").unlink()
        assert run_cli(*argv) == 1
        assert not (out_dir / "trajectory.jsonl").exists()
        assert not (out_dir / "runrecord.json").exists()
        # the ledger and the manifests are kept for a rerun to replay
        assert (out_dir / "ledger.jsonl").read_bytes() == ledger
        assert sorted((out_dir / "manifests").glob("*.jsonl")) == manifests

    @pytest.mark.parametrize("coarse_text,code", [
        (json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": -1}), 2),
        ("not json", 1),
    ], ids=["lambda_loss -1", "not JSON"])
    def test_a_bad_coarse_result_leaves_the_earlier_run_as_it_was(
            self, tmp_path, coarse_text, code):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))
        out_dir = tmp_path / "run"
        argv = ["mix-adjust", "--config", config, "--coarse-result", coarse,
                "--out-dir", out_dir]
        assert run_cli(*argv) == 0
        earlier = {path.relative_to(out_dir): path.read_bytes()
                   for path in out_dir.rglob("*") if path.is_file()}
        assert {"trajectory.jsonl", "runrecord.json"} <= {str(path) for path in earlier}
        coarse.write_text(coarse_text)
        assert run_cli(*argv) == code
        assert {path.relative_to(out_dir): path.read_bytes()
                for path in out_dir.rglob("*") if path.is_file()} == earlier

    def test_counted_calls_on_a_good_coarse_result(self, tmp_path, oracle_calls):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))
        out_dir = tmp_path / "run"
        assert run_cli("mix-adjust", "--config", config, "--coarse-result", coarse,
                       "--out-dir", out_dir, "--max-epochs", 3) == 0
        epochs = (out_dir / "trajectory.jsonl").read_text().splitlines()[1:]
        assert len(oracle_calls) == len(epochs) >= 2


EXTERNAL = {"kind": "external", "command": f"{sys.executable} -c pass {{out}}"}


@pytest.mark.parametrize("command", ["mix-search", "mix-adjust"])
@pytest.mark.parametrize("oracle,message", [
    ({**SYNTHETIC, "noise_sigma": "abc"}, "oracle.noise_sigma must be a number, got 'abc'"),
    ({**SYNTHETIC, "noise_sigma": True}, "oracle.noise_sigma must be a number, got True"),
    ({**SYNTHETIC, "noise_sigma": -1}, "oracle.noise_sigma must be finite and >= 0, got -1.0"),
    ({**SYNTHETIC, "scoring_surface": "x"}, "oracle.scoring_surface must be a mapping, got 'x'"),
    ({**SYNTHETIC, "interpreting_surface": {"peak_ratio": "2.42", "peak_value": 0.75,
                                            "curvature": 0.25}},
     "oracle.interpreting_surface.peak_ratio must be a number, got '2.42'"),
    ({**SYNTHETIC, "scoring_surface": {"peak_ratio": 3.54, "curvature": 0.25}},
     "oracle.scoring_surface is missing 'peak_value'"),
    ({**EXTERNAL, "timeout": "abc"}, "oracle.timeout must be a number, got 'abc'"),
    ({**EXTERNAL, "timeout": 0}, "oracle.timeout must be finite and > 0, got 0.0"),
    ({**EXTERNAL, "env": [1, 2]}, "oracle.env must map names to strings, got [1, 2]"),
    ({**EXTERNAL, "env": {"CUDA_VISIBLE_DEVICES": 0}},
     "oracle.env must map names to strings, got {'CUDA_VISIBLE_DEVICES': 0}"),
    ({**SYNTHETIC, "loss_scale_scoring": 0},
     "oracle.loss_scale_scoring must be finite and > 0, got 0.0"),
    ({**SYNTHETIC, "loss_scale_interpreting": -2},
     "oracle.loss_scale_interpreting must be finite and > 0, got -2.0"),
    ({**SYNTHETIC, "loss_scale_scoring": math.inf},
     "oracle.loss_scale_scoring must be finite and > 0, got inf"),
    ({**SYNTHETIC, "loss_alpha": math.nan}, "oracle.loss_alpha must be finite and > 0, got nan"),
    ({**SYNTHETIC, "loss_alpha": 0}, "oracle.loss_alpha must be finite and > 0, got 0.0"),
    ({**SYNTHETIC, "scoring_surface": {**SYNTHETIC["scoring_surface"], "peak_ratio": math.inf}},
     "oracle.scoring_surface.peak_ratio must be finite, got inf"),
    ({**SYNTHETIC, "scoring_surface": {**SYNTHETIC["scoring_surface"], "peak_value": math.nan}},
     "oracle.scoring_surface.peak_value must be finite, got nan"),
    ({**SYNTHETIC, "interpreting_surface": {**SYNTHETIC["interpreting_surface"],
                                            "curvature": math.inf}},
     "oracle.interpreting_surface.curvature must be finite, got inf"),
    ({**SYNTHETIC, "interpreting_surface": {**SYNTHETIC["interpreting_surface"],
                                            "quartic": -math.inf}},
     "oracle.interpreting_surface.quartic must be finite, got -inf"),
    ({**SYNTHETIC, "scoring_surface": {**SYNTHETIC["scoring_surface"], "peak_ratio": -1}},
     "oracle.scoring_surface.peak_ratio must be positive, got -1.0"),
])
def test_bad_oracle_setting_is_config_error_before_pools_load(
        tmp_path, capsys, command, oracle, message):
    config = write_pools_and_config(tmp_path, oracle=oracle)
    for tag in ("d1", "d2", "d3"):
        (tmp_path / f"{tag}.jsonl").unlink()  # a pool load would exit 1
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                  "lambda_loss": 0.25}))
    flags = ["--coarse-result", coarse] if command == "mix-adjust" else []
    assert run_cli(command, "--config", config, "--out-dir", tmp_path / "run", *flags) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mix-search", "mix-adjust"])
@pytest.mark.parametrize("out_dir", [5, ["a"]])
def test_out_dir_that_is_not_a_string_is_config_error(tmp_path, capsys, command, out_dir):
    config = write_pools_and_config(tmp_path, extra={"out_dir": out_dir})
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                  "lambda_loss": 0.25}))
    flags = ["--coarse-result", coarse] if command == "mix-adjust" else []
    assert run_cli(command, "--config", config, *flags) == 2
    assert f"config error: out_dir must be a string, got {out_dir!r}" in capsys.readouterr().err


# One config serves sample, mix-search and mix-adjust, so each command checks
# every key of it: (dotted key, value put there, message).
SCHEMA_DEFECTS = [
    ("repeat", 1, "unknown key 'repeat'; did you mean 'repeats'?"),
    ("sead", 5, "unknown key 'sead'; did you mean 'seed'?"),
    ("oracle.noise_sigm", 0.5,
     "unknown key 'oracle.noise_sigm'; did you mean 'oracle.noise_sigma'?"),
    ("oracle.interpreting_surface.curvatur", 9,
     "unknown key 'oracle.interpreting_surface.curvatur'; "
     "did you mean 'oracle.interpreting_surface.curvature'?"),
    ("controller.tolerence", 0.5,
     "unknown key 'controller.tolerence'; did you mean 'controller.tolerance'?"),
    ("pools.d1", 5, "pools.d1 must be a string, got 5"),
    ("controller", 0, "controller must be a mapping, got 0"),
    ("grid.stage1", 0, "grid.stage1 must be a list of positive numbers, got 0"),
    ("oracle", {**EXTERNAL, "max_parallel": 2}, "unknown key 'oracle.max_parallel'"),
    # values out of range, and a bad oracle kind: config errors all the same
    ("oracle.kind", "oracular", "oracle.kind must be synthetic or external, got 'oracular'"),
    ("oracle.noise_sigma", -1, "oracle.noise_sigma must be finite and >= 0, got -1.0"),
    ("controller.factor", 1.0, "controller.factor must be finite and > 1, got 1.0"),
]


@pytest.mark.parametrize("command", ["sample", "mix-search", "mix-adjust"])
@pytest.mark.parametrize("key,value,message", SCHEMA_DEFECTS,
                         ids=[key for key, _, _ in SCHEMA_DEFECTS])
def test_config_schema_error_exits_2_before_any_pool_or_output_is_touched(
        tmp_path, capsys, opened_paths, command, key, value, message):
    config = write_pools_and_config(tmp_path)
    conf = yaml.safe_load(config.read_text(encoding="utf-8"))
    *sections, name = key.split(".")
    section = conf
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    config.write_text(yaml.safe_dump(conf), encoding="utf-8")
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                  "lambda_loss": 0.25}))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    earlier = {file: f"an earlier run's {file}\n" for file in (
        "coarse_result.json", "trajectory.jsonl", "runrecord.json", "ledger.jsonl",
        "m.jsonl", "m.jsonl.run.json")}
    for file, text in earlier.items():
        (out_dir / file).write_text(text)
    flags = {"sample": ["--counts", "1:1:1", "--out", out_dir / "m.jsonl"],
             "mix-search": ["--out-dir", out_dir],
             "mix-adjust": ["--coarse-result", coarse, "--out-dir", out_dir]}[command]
    opened_paths.clear()  # the files written above
    assert run_cli(command, "--config", config, *flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert {path.name: path.read_text() for path in out_dir.iterdir()} == earlier
    pools = {str(tmp_path / f"{tag}.jsonl") for tag in ("d1", "d2", "d3")}
    assert pools.isdisjoint(opened_paths)


@pytest.mark.parametrize("command", ["sample", "mix-search", "mix-adjust"])
@pytest.mark.parametrize("template,error", [
    ("true {manifest_path} {out}", "KeyError('manifest_path')"),
    ("true {out} {0}", "IndexError('Replacement index 0 out of range for positional args tuple')"),
    ("true {out} }", "ValueError(\"Single '}' encountered in format string\")"),
    ("true {out} 'unclosed", "ValueError('No closing quotation')"),
    ("true {out} {out.name}", "AttributeError(\"'str' object has no attribute 'name'\")"),
], ids=["unknown-name", "positional", "stray-brace", "unclosed-quote", "attribute"])
def test_command_template_that_cannot_be_filled_in_is_a_config_error(
        tmp_path, capsys, opened_paths, command, template, error):
    """Checked when the oracle is built: no pool is read, no output touched."""
    test_config_schema_error_exits_2_before_any_pool_or_output_is_touched(
        tmp_path, capsys, opened_paths, command, "oracle", {**EXTERNAL, "command": template},
        f"oracle.command {template!r} has a bad placeholder or quote ({error}); "
        "its placeholders are {manifest}, {seed} and {out}")


@pytest.fixture
def scripted(monkeypatch):
    """The manifest of every synthetic oracle call, in call order; the call
    numbered `fail_on` (from 1) raises instead of training."""
    script = SimpleNamespace(calls=[], fail_on=None)
    evaluate = SyntheticOracle.evaluate

    def scripted_evaluate(self, request):
        script.calls.append(str(request.manifest_path))
        if len(script.calls) == script.fail_on:
            raise OracleError("scripted trainer failure")
        return evaluate(self, request)

    monkeypatch.setattr(SyntheticOracle, "evaluate", scripted_evaluate)
    return script


class TestLedger:
    """A rerun into the same out-dir replays every finished oracle call."""

    @pytest.mark.parametrize("k", [1, 12, 25, 39])  # stage 1, stage 1, stage 2, confirmation
    def test_rerun_after_failure_at_call_k_repeats_no_completed_call(
            self, tmp_path, scripted, k):
        config = write_pools_and_config(tmp_path)
        assert run_cli("mix-search", "--config", config, "--out-dir", tmp_path / "ref") == 0
        reference = (tmp_path / "ref" / "coarse_result.json").read_bytes()
        scripted.calls.clear()
        scripted.fail_on = k
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 3
        first = list(scripted.calls)
        assert len(first) == k
        scripted.calls.clear()
        scripted.fail_on = None
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        assert scripted.calls[0] == first[-1]  # the failed call runs again
        assert not set(scripted.calls) & set(first[:-1])
        assert len(scripted.calls) == 39 - (k - 1)
        assert (out_dir / "coarse_result.json").read_bytes() == reference

    def test_an_edited_pool_record_reuses_nothing(self, tmp_path, scripted):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        manifest = out_dir / "manifests" / "d2_vs_d3" / "point00_rep0.jsonl"
        before = manifest.read_bytes()
        pool = tmp_path / "d3.jsonl"
        pool.write_text(pool.read_text().replace("answer 7", "answer seven", 1))  # same id
        scripted.calls.clear()
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        assert manifest.read_bytes() == before  # a manifest names lines and ids only
        assert len(scripted.calls) == 39
        scripted.calls.clear()
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        assert scripted.calls == []

    def test_a_torn_last_line_runs_again(self, tmp_path, scripted):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        ledger = out_dir / "ledger.jsonl"
        whole = ledger.read_bytes()
        ledger.write_bytes(whole[:-20])  # the last append was cut short
        scripted.calls.clear()
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        assert scripted.calls == [str(out_dir / "manifests" / "confirm.jsonl")]
        assert ledger.read_bytes() == whole

    @pytest.mark.parametrize("bad_line", [
        '{"key": "0a1b", "response": {"perf_sc',
        '{"key": "0a1b", "response": {"perf_scoring": 7.0, "perf_interpreting": 0.5, '
        '"loss_scoring": 1.0, "loss_interpreting": 1.0}}',
        '{"key": "0a1b", "response": {"perf_scoring": 0.5}}',
        '{"key": 12, "response": {}}',
        '{"key": "0a1b", "response": [1, 2, 3, 4]}',
    ])
    def test_a_bad_middle_line_is_data_error_naming_the_line(
            self, tmp_path, scripted, capsys, bad_line):
        config = write_pools_and_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 0
        ledger = out_dir / "ledger.jsonl"
        lines = ledger.read_text().splitlines(keepends=True)
        lines[2] = bad_line + "\n"
        ledger.write_text("".join(lines))
        scripted.calls.clear()
        capsys.readouterr()
        assert run_cli("mix-search", "--config", config, "--out-dir", out_dir) == 1
        assert f"error: {ledger}: line 3: " in capsys.readouterr().err
        assert scripted.calls == []

    def test_a_changed_command_reuses_nothing_and_a_changed_timeout_everything(
            self, tmp_path):
        calls = tmp_path / "calls.log"
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import json, sys\n"
            "open(sys.argv[4], 'a').write(sys.argv[1] + '\\n')\n"
            "json.dump({'perf_scoring': 0.5, 'perf_interpreting': 0.5, 'loss_scoring': 1.0,"
            " 'loss_interpreting': 2.0}, open(sys.argv[3], 'w'))\n", encoding="utf-8")
        command = f"{sys.executable} {stub} {{manifest}} {{seed}} {{out}} {calls}"
        grid = {"stage1": [0.25, 0.5, 1, 2, 4], "stage2": [0.25, 0.5, 1, 2, 4]}

        def search(oracle) -> int:
            """The oracle calls one search makes in the shared out-dir."""
            before = len(calls.read_text().splitlines()) if calls.exists() else 0
            config = write_pools_and_config(tmp_path, oracle={"kind": "external", **oracle},
                                            extra={"grid": grid})
            assert run_cli("mix-search", "--config", config,
                           "--out-dir", tmp_path / "run") == 0
            return len(calls.read_text().splitlines()) - before

        assert search({"command": command}) == 11
        assert search({"command": command, "timeout": 600}) == 0
        assert search({"command": command + " variant"}) == 11
        assert search({"command": command + " variant", "timeout": 60}) == 0

    def test_mix_adjust_rerun_after_failure_writes_the_same_trajectory(
            self, tmp_path, scripted):
        config = write_pools_and_config(tmp_path)
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04},
                                      "lambda_loss": 0.25}))
        argv = ["mix-adjust", "--config", config, "--coarse-result", coarse,
                "--max-epochs", 3]
        assert run_cli(*argv, "--out-dir", tmp_path / "ref") == 0
        epochs = len(scripted.calls)
        assert epochs == 3
        scripted.calls.clear()
        scripted.fail_on = 2
        out_dir = tmp_path / "run"
        assert run_cli(*argv, "--out-dir", out_dir) == 3
        assert len((out_dir / "trajectory.jsonl").read_text().splitlines()) == 2
        first = list(scripted.calls)
        scripted.calls.clear()
        scripted.fail_on = None
        assert run_cli(*argv, "--out-dir", out_dir) == 0
        assert scripted.calls == first[1:] + [str(out_dir / "manifests" / "epoch03.jsonl")]
        assert (out_dir / "trajectory.jsonl").read_bytes() == \
            (tmp_path / "ref" / "trajectory.jsonl").read_bytes()

    @pytest.mark.parametrize("factor,error,epochs", [
        ("1e300", r"D2: count \d{300,} is too large to draw", 1),  # at epoch 2's draw
        ("1e308", r"D2\+D3: count 60 times factor 1e\+308 is past the float range", 0),
    ], ids=["1e300", "1e308"])
    def test_a_grown_count_too_large_is_a_data_error_and_a_rerun_replays(
            self, tmp_path, capsys, scripted, factor, error, epochs):
        config = write_pools_and_config(tmp_path, 30, 40, 40)
        coarse = tmp_path / "coarse.json"  # every epoch grows D2+D3
        coarse.write_text(json.dumps({"mix_ratio": {"d1": 1.0, "d2": 1.0, "d3": 1.0},
                                      "lambda_loss": 100.0}))
        out_dir = tmp_path / "run"
        argv = ["mix-adjust", "--config", config, "--coarse-result", coarse,
                "--out-dir", out_dir, "--factor"]
        assert run_cli(*argv, factor) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {error}", err.splitlines()[-1]) and "Traceback" not in err
        epoch1 = str(out_dir / "manifests" / "epoch01.jsonl")
        assert scripted.calls == [epoch1]
        assert len((out_dir / "trajectory.jsonl").read_text().splitlines()) == 1 + epochs
        scripted.calls.clear()
        assert run_cli(*argv, 1.5) == 0
        assert epoch1 not in scripted.calls and len(scripted.calls) == 2

    @pytest.mark.parametrize("command", [
        ["mix-search"], ["mix-adjust", "--coarse-result", "coarse.json"]])
    def test_a_manifest_is_opened_only_to_be_written_and_by_the_oracle(
            self, tmp_path, monkeypatch, opened_paths, command):
        """The ledger keys each call on the digest write_manifest returns, so
        iqmix opens a manifest to write it, and the synthetic oracle opens it
        once more for its header; a rerun whose every call is a ledger hit
        only writes it."""
        monkeypatch.chdir(tmp_path)
        config = write_pools_and_config(tmp_path)
        (tmp_path / "coarse.json").write_text(json.dumps(
            {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": 0.25}))
        for opens in (2, 1):
            opened_paths.clear()
            assert run_cli(*command, "--config", config, "--out-dir", "run") == 0
            manifests = sorted(str(path) for path in Path("run/manifests").rglob("*.jsonl"))
            assert len(manifests) == (39 if command == ["mix-search"] else 3)
            assert {path: opened_paths.count(path) for path in manifests} == \
                dict.fromkeys(manifests, opens)


@pytest.fixture
def no_loader_left():
    """A pool load that hangs fails the test after 60 s, and so does a
    loader child left behind, even one that has ended but is not reaped."""
    def hang(signum, frame):
        raise TimeoutError("the pool load hangs")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # this process has no child at all
        os.waitpid(-1, os.WNOHANG)


def _random_pool(path, tag: str, rng: random.Random, n: int) -> None:
    """A pool of n records with blank lines between some, and integer,
    non-ASCII and escaped ids among the string ones."""
    lines = []
    for i, record in enumerate(make_pairs(tag, n)):
        record["id"] = rng.choice(
            [i, f"{tag}-bildgüte-画質-{i}", f'{tag}-"{i}"\\', record["id"]])
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
        lines.extend([""] * (rng.random() < 0.1) + ["  \t"] * (rng.random() < 0.05))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.usefixtures("no_loader_left")
class TestForkedPoolLoads:
    """FORK_MIN_BYTES at 0 sends every pool but the largest to a forked child."""

    def pools(self, tmp_path, sizes, seed=0) -> list[str]:
        rng = random.Random(seed)
        paths = [str(tmp_path / f"{tag}.jsonl") for tag in ("d1", "d2", "d3")]
        for path, tag, n in zip(paths, POOL_TAGS, sizes):
            _random_pool(path, tag, rng, n)
        return paths

    @pytest.mark.parametrize("seed,sizes", [  # an empty pool; pools of one and two batches
        (1, (30, 200, 90)), (2, (500, 40, 7)), (3, (0, 60, 300)),
        (4, (16384 + 5, 90, 16384 * 2))])
    def test_same_rows_and_digests_as_in_process(self, tmp_path, forked_loads, seed, sizes):
        paths = self.pools(tmp_path, sizes, seed)
        settings = {f"pools.{key}": path for key, path in zip(("d1", "d2", "d3"), paths)}
        pools, inputs = cli._load_pools(settings)
        assert len(forked_loads) == 2
        assert inputs == [(path, file_digest(path)) for path in paths]
        assert [len(pool) for pool in (pools.d1, pools.d2, pools.d3)] == list(sizes)
        for path, tag in zip(paths, POOL_TAGS):
            assert pools.by_tag(tag).tolist() == load_pool(path, tag).tolist()

    def run(self, capsys, *argv) -> tuple[int, str]:
        rc = run_cli("sample", "--counts", "1:1:1", "--out", "manifest.jsonl", *argv)
        return rc, capsys.readouterr().err

    def config(self, tmp_path, paths) -> Path:
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"pools": dict(zip(("d1", "d2", "d3"), paths))}))
        return config

    @pytest.mark.parametrize("sizes", [(40, 60, 300), (300, 60, 40)])
    def test_first_error_in_pool_order_is_the_one_raised(
            self, tmp_path, monkeypatch, capsys, sizes):
        monkeypatch.chdir(tmp_path)
        paths = self.pools(tmp_path, sizes)
        for path, line in ((paths[0], "{not json"), (paths[2], '{"id": "x"}')):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        config = self.config(tmp_path, paths)
        rc, err = self.run(capsys, "--config", config)
        assert rc == 1 and err.startswith(f"error: {paths[0]}: line ") and "invalid JSON" in err
        with monkeypatch.context() as patch:
            patch.setattr(cli, "FORK_MIN_BYTES", 0)
            assert self.run(capsys, "--config", config) == (rc, err)
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_missing_pool_gives_the_in_process_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        paths = self.pools(tmp_path, (40, 60, 300))
        Path(paths[1]).unlink()
        config = self.config(tmp_path, paths)
        expected = f"error: [Errno 2] No such file or directory: {paths[1]!r}\n"
        assert self.run(capsys, "--config", config) == (1, expected)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "FORK_MIN_BYTES", 0)
            assert self.run(capsys, "--config", config) == (1, expected)

    @pytest.mark.parametrize("dies", ["while it parses", "after a part of the rows"])
    def test_loader_killed_by_a_signal_is_an_error_naming_its_pool(
            self, tmp_path, monkeypatch, capsys, forked_loads, dies):
        monkeypatch.chdir(tmp_path)
        paths = self.pools(tmp_path, (16384 + 100, 60, 16384 * 2))
        parent, load_pool, sent = os.getpid(), cli.load_pool, []

        def killed_load(path, tag, **kwargs):
            if os.getpid() != parent and tag == "D1":
                os.kill(os.getpid(), signal.SIGKILL)
            return load_pool(path, tag, **kwargs)

        def killed_dump(obj, file):  # the count and digest, one batch of rows, then death
            pickle.dump(obj, file)
            sent.append(obj)
            if len(sent) == 2 and isinstance(obj, list) and len(obj) == 16384:
                file.flush()
                os.kill(os.getpid(), signal.SIGKILL)

        if dies == "while it parses":
            monkeypatch.setattr(cli, "load_pool", killed_load)
        else:
            monkeypatch.setattr(cli, "pickle", SimpleNamespace(
                dump=killed_dump, load=pickle.load, UnpicklingError=pickle.UnpicklingError))
        rc, err = self.run(capsys, "--config", self.config(tmp_path, paths))
        assert (rc, err) == (
            1, f"error: {paths[0]}: the process loading this pool ended before the pool did\n")
        assert not (tmp_path / "manifest.jsonl").exists()


class TestProvenanceRecords:
    def test_config_hash_tracks_input_bytes(self, tmp_path, mos_file):
        out1 = tmp_path / "a.jsonl"
        run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100, "--out", out1)
        hash1 = json.loads((tmp_path / "a.jsonl.run.json").read_text())["config_hash"]

        out2 = tmp_path / "b.jsonl"
        run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100, "--out", out2)
        hash2 = json.loads((tmp_path / "b.jsonl.run.json").read_text())["config_hash"]

        mos_file.write_text(mos_file.read_text().replace("img000,0", "img000,1"))
        out3 = tmp_path / "c.jsonl"
        run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100, "--out", out3)
        hash3 = json.loads((tmp_path / "c.jsonl.run.json").read_text())["config_hash"]

        # the out path is part of the flag set, so compare with matched flags
        assert hash1 != hash3
        record = json.loads((tmp_path / "a.jsonl.run.json").read_text())
        assert record["command"] == "convert"
        assert record["tool_version"]
        assert record["outputs"] == [str(out1)]

    def test_hash_of_file_larger_than_one_chunk(self, tmp_path):
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(range(256)) * (3 * 4096 + 1))  # over 3 MiB
        content = hashlib.sha256(big.read_bytes()).hexdigest()
        assert file_digest(big) == content
        flags = {"out": "x"}
        reference = hashlib.sha256(json.dumps(flags, sort_keys=True).encode("utf-8"))
        reference.update(b"\x00" + str(big).encode("utf-8") + b"\x00" + content.encode("ascii"))
        assert _config_hash(flags, [(big, file_digest(big))]) == reference.hexdigest()

    @pytest.mark.parametrize("command", [
        ["sample", "--counts", "5:5:5", "--out", "manifest.jsonl"],
        ["mix-search", "--out-dir", "run"],
        ["mix-adjust", "--coarse-result", "coarse.json", "--out-dir", "run"],
    ])
    def test_each_pool_is_read_once(self, tmp_path, monkeypatch, opened_paths, command):
        monkeypatch.chdir(tmp_path)
        config = write_pools_and_config(tmp_path)
        (tmp_path / "coarse.json").write_text(json.dumps(
            {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": 0.25}))
        pools = [str(tmp_path / f"{tag}.jsonl") for tag in ("d1", "d2", "d3")]
        recorded = []  # the (path, digest) inputs of the run record
        monkeypatch.setattr(cli, "_config_hash", lambda flags, inputs: recorded.extend(inputs))
        opened_paths.clear()  # the pools were opened to be written
        assert run_cli(*command, "--config", config) == 0
        assert [opened_paths.count(path) for path in pools] == [1, 1, 1]
        # the digests the load pass took are those of a separate read
        assert recorded[-3:] == [(path, file_digest(path)) for path in pools]

    @pytest.mark.parametrize("command", [
        ["sample", "--counts", "5:5:5", "--out", "manifest.jsonl"],
        ["mix-search", "--out-dir", "run"],
        ["mix-adjust", "--coarse-result", "coarse.json", "--out-dir", "run"],
    ])
    def test_each_pool_is_read_once_also_in_forked_loaders(
            self, tmp_path, monkeypatch, opened_anywhere, forked_loads, command):
        monkeypatch.chdir(tmp_path)
        config = write_pools_and_config(tmp_path, n1=120, n2=300, n3=400)
        (tmp_path / "coarse.json").write_text(json.dumps(
            {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": 0.25}))
        pools = [str(tmp_path / f"{tag}.jsonl") for tag in ("d1", "d2", "d3")]
        recorded = []
        monkeypatch.setattr(cli, "_config_hash", lambda flags, inputs: recorded.extend(inputs))
        written = len(opened_anywhere())  # the pools were opened to be written
        assert run_cli(*command, "--config", config) == 0
        assert [path for path, _ in forked_loads] == pools[:2]
        opened = opened_anywhere()[written:]
        assert [opened.count(path) for path in pools] == [1, 1, 1]
        assert recorded[-3:] == [(path, file_digest(path)) for path in pools]

    def test_hash_deterministic_for_same_inputs(self, tmp_path, mos_file):
        out = tmp_path / "a.jsonl"
        run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100, "--out", out)
        hash1 = json.loads((tmp_path / "a.jsonl.run.json").read_text())["config_hash"]
        run_cli("convert", mos_file, "--scale-min", 0, "--scale-max", 100, "--out", out)
        hash2 = json.loads((tmp_path / "a.jsonl.run.json").read_text())["config_hash"]
        assert hash1 == hash2


class TestParser:
    @pytest.mark.parametrize(
        "command",
        ["convert", "score", "eval-iqa", "eval-mcq", "eval-desc", "subsample",
         "sample", "mix-search", "mix-adjust"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out or True

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iqmix.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "iqmix" in proc.stdout

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
