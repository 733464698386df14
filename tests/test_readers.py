"""Error order of the three per-record readers: the scores file of `eval-iqa`,
the MOS file of `ingest_mos` and the logit lines of `score_batch`.

The tables give the exact message, and the line or row it names, for every
check of each reader: two defects on different lines (the earlier one wins),
two defects on one line (the reader's check order), and the `--lenient` skip
set with its warnings. The property tests plant one or two defects at random
positions and compare each reader with a per-record reference loop kept in
this file, so a reader that checks whole arrays at once must still name the
same first bad line, skip the same rows and warn in the same order.
"""

import csv
import json
import logging
import math
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iqmix.cli import main
from iqmix.datasets import ingest_mos
from iqmix.errors import DataError
from iqmix.levels import FIVE_LEVEL_LABELS, LevelScale
from iqmix.metrics import PairedSample, plcc, srcc
from iqmix.scoring import BatchDiagnostic, score_batch, score_from_logit_vector

BIG = 10 ** 400  # an integer too large for a float


@contextmanager
def captured_warnings():
    """The messages iqmix logs while the block runs, in order."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("iqmix")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


# The eval-iqa scores reader -----------------------------------------------------

MOS_IDS = ("a", "b", "c", "d", "7")


def run_eval_iqa(root: Path, score_lines, capsys):
    """Exit code, stderr and the JSON report of eval-iqa on the given score
    lines against a MOS file that holds every id of MOS_IDS."""
    scores, mos = root / "scores.jsonl", root / "mos.csv"
    scores.write_text("".join(line + "\n" for line in score_lines), encoding="utf-8")
    mos.write_text("image_id,mos\n" + "".join(f"{k},{i * 1.5}\n" for i, k in enumerate(MOS_IDS)),
                   encoding="utf-8")
    capsys.readouterr()
    code = main(["eval-iqa", str(scores), str(mos), "--format", "json"])
    printed = capsys.readouterr()
    return code, printed.err, json.loads(printed.out) if code == 0 else None


def _score(item_id, score) -> str:
    return json.dumps({"id": item_id, "score": score})


GOOD = [_score("a", 1.0), _score("b", 2.0)]

SCORE_TABLE = [
    # (score lines, the error after "error: {path}: ")
    (GOOD + ['{"id": "c", "score": '],
     "line 3: invalid JSON (Expecting value: line 1 column 21 (char 20))"),
    (GOOD + ['{"id": "c"} x'], "line 3: invalid JSON (Extra data: line 1 column 13 (char 12))"),
    (GOOD + ["[1, 2]"], "line 3: record is not an object"),
    (GOOD + ['"c"'], "line 3: record is not an object"),
    (GOOD + ['{"score": 1.0}'], "line 3: missing or non-string 'id'"),
    (GOOD + [_score(None, 1.0)], "line 3: missing or non-string 'id'"),
    (GOOD + [_score(True, 1.0)], "line 3: missing or non-string 'id'"),
    (GOOD + [_score(1.5, 1.0)], "line 3: missing or non-string 'id'"),
    (GOOD + [_score(["c"], 1.0)], "line 3: missing or non-string 'id'"),
    (GOOD + [_score("a", 3.0)], "line 3: duplicate id 'a' (first on line 1)"),
    ([_score(7, 1.0)] + GOOD + [_score("7", 3.0)], "line 4: duplicate id '7' (first on line 1)"),
    ([_score("7", 1.0), _score(7, 3.0)], "line 2: duplicate id '7' (first on line 1)"),
    (GOOD + [_score("c", "3")], "line 3: 'score' must be a finite number, got '3'"),
    (GOOD + [_score("c", None)], "line 3: 'score' must be a finite number, got None"),
    (GOOD + ['{"id": "c"}'], "line 3: 'score' must be a finite number, got None"),
    (GOOD + [_score("c", True)], "line 3: 'score' must be a finite number, got True"),
    (GOOD + [_score("c", [1.0])], "line 3: 'score' must be a finite number, got [1.0]"),
    (GOOD + ['{"id": "c", "score": NaN}'], "line 3: 'score' must be a finite number, got nan"),
    (GOOD + ['{"id": "c", "score": Infinity}'], "line 3: 'score' must be a finite number, got inf"),
    (GOOD + ['{"id": "c", "score": -Infinity}'],
     "line 3: 'score' must be a finite number, got -inf"),
    (GOOD + [_score("c", BIG)], f"line 3: 'score' must be a finite number, got {BIG}"),
    (GOOD + [_score("c", int(1.7976931348623157e308) + 1)],
     f"line 3: 'score' must be a finite number, got {int(1.7976931348623157e308) + 1}"),
    # two defects on different lines: the earlier one wins
    ([GOOD[0], _score("b", "x"), "{broken"], "line 2: 'score' must be a finite number, got 'x'"),
    ([GOOD[0], "{broken", _score("a", 1.0)],
     "line 2: invalid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    ([GOOD[0], _score("a", 1.0), _score(None, 1.0)], "line 2: duplicate id 'a' (first on line 1)"),
    ([GOOD[0], _score(None, 1.0), _score("a", 1.0)], "line 2: missing or non-string 'id'"),
    ([GOOD[0], _score("b", math.inf), _score("a", 1.0)],
     "line 2: 'score' must be a finite number, got inf"),
    # two defects on one line: id, then duplicate, then score
    (GOOD + [_score(None, "x")], "line 3: missing or non-string 'id'"),
    (GOOD + [_score("a", "x")], "line 3: duplicate id 'a' (first on line 1)"),
    # blank lines keep their numbers; a file of blank lines holds no record
    ([GOOD[0], "", "  ", _score("a", 1.0)], "line 4: duplicate id 'a' (first on line 1)"),
    (["", "  "], "no score records"),
]


@pytest.mark.parametrize("lines,message", SCORE_TABLE)
def test_score_reader_names_the_first_bad_line(tmp_path, capsys, lines, message):
    code, err, _ = run_eval_iqa(tmp_path, lines, capsys)
    assert code == 1
    assert err == f"error: {tmp_path / 'scores.jsonl'}: {message}\n"


def test_score_reader_reads_integer_ids_and_scores(tmp_path, capsys):
    code, _, report = run_eval_iqa(tmp_path, [_score(7, 1), _score("a", 0.5), _score("b", 3)],
                                   capsys)
    assert code == 0
    assert report["count"] == 3
    expected = PairedSample.from_arrays([1.0, 0.5, 3.0], [6.0, 0.0, 1.5])
    assert (report["srcc"], report["plcc"]) == (srcc(expected), plcc(expected))


# ingest_mos --------------------------------------------------------------------

SCALE = LevelScale(0, 100)

MOS_TABLE = [
    # (rows after the header, scale, strict error after "{path}: ", lenient ids kept,
    #  lenient warnings after "skipping row: {path}: ")
    (["a,10", "b"], SCALE, "row 3: missing columns", ["a"], ["row 3: missing columns"]),
    (["a,10", "b,x"], SCALE, "row 3: unparsable mos 'x'", ["a"], ["row 3: unparsable mos 'x'"]),
    (["a,10", "b,"], SCALE, "row 3: unparsable mos ''", ["a"], ["row 3: unparsable mos ''"]),
    (["a,10", "b,nan"], SCALE, "row 3: non-finite mos nan", ["a"],
     ["row 3: non-finite mos nan"]),
    (["a,10", "b,-inf"], None, "row 3: non-finite mos -inf", ["a"],
     ["row 3: non-finite mos -inf"]),
    (["a,10", "b,1e400"], None, "row 3: non-finite mos inf", ["a"],
     ["row 3: non-finite mos inf"]),
    (["a,10", "b,120"], SCALE, "row 3: mos 120.0 outside [0, 100]", ["a"],
     ["row 3: mos 120.0 outside [0, 100]"]),
    (["a,10", "b,-0.5"], SCALE, "row 3: mos -0.5 outside [0, 100]", ["a"],
     ["row 3: mos -0.5 outside [0, 100]"]),
    (["a,10", "a,20"], SCALE, "row 3: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 3: duplicate image_id 'a' (first on row 2)"]),
    # two defects on different rows: the earlier one wins, and lenient warns in row order
    (["a,10", "b,x", "a,20"], SCALE, "row 3: unparsable mos 'x'", ["a"],
     ["row 3: unparsable mos 'x'", "row 4: duplicate image_id 'a' (first on row 2)"]),
    (["a,10", "a,20", "b,x"], SCALE, "row 3: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 3: duplicate image_id 'a' (first on row 2)", "row 4: unparsable mos 'x'"]),
    (["a,10", "b,200", "c"], SCALE, "row 3: mos 200.0 outside [0, 100]", ["a"],
     ["row 3: mos 200.0 outside [0, 100]", "row 4: missing columns"]),
    # two defects on one row: columns, then duplicate, then the value checks
    (["a,10", "a,x"], SCALE, "row 3: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 3: duplicate image_id 'a' (first on row 2)"]),
    (["a,10", "a,nan"], SCALE, "row 3: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 3: duplicate image_id 'a' (first on row 2)"]),
    (["a,10", "a,500"], SCALE, "row 3: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 3: duplicate image_id 'a' (first on row 2)"]),
    # a duplicate of a skipped row is not a duplicate
    (["a,x", "a,10", "a,20"], SCALE, "row 2: unparsable mos 'x'", ["a"],
     ["row 2: unparsable mos 'x'", "row 4: duplicate image_id 'a' (first on row 3)"]),
    (["a,500", "b,1", "a,10"], SCALE, "row 2: mos 500.0 outside [0, 100]", ["b", "a"],
     ["row 2: mos 500.0 outside [0, 100]"]),
    # blank rows keep their numbers and are skipped without a warning
    (["a,10", "", " , ", "a,1"], SCALE, "row 5: duplicate image_id 'a' (first on row 2)", ["a"],
     ["row 5: duplicate image_id 'a' (first on row 2)"]),
    # no row survives
    (["a,x"], SCALE, "row 2: unparsable mos 'x'", None, ["row 2: unparsable mos 'x'"]),
    (["", " "], SCALE, "no valid MOS records", None, []),
]


def write_mos(path: Path, rows, header="image_id,mos") -> None:
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows), encoding="utf-8")


@pytest.mark.parametrize("rows,scale,strict_error,kept,warnings", MOS_TABLE)
def test_ingest_mos_names_the_first_bad_row(tmp_path, rows, scale, strict_error, kept,
                                            warnings):
    path = tmp_path / "mos.csv"
    write_mos(path, rows)
    with pytest.raises(DataError) as exc:
        ingest_mos(path, scale)
    assert str(exc.value) == f"{path}: {strict_error}"
    with captured_warnings() as logged:
        if kept is None:
            with pytest.raises(DataError, match="no valid MOS records"):
                ingest_mos(path, scale, strict=False)
        else:
            assert list(ingest_mos(path, scale, strict=False)) == kept
    assert logged == [f"skipping row: {path}: {w}" for w in warnings]


@pytest.mark.parametrize("text,message", [
    ("", "empty file, expected a header row"),
    ("id,score\na,1\n", "header must contain image_id and mos columns, got ['id', 'score']"),
])
def test_ingest_mos_header_errors(tmp_path, text, message):
    path = tmp_path / "mos.csv"
    path.write_text(text, encoding="utf-8")
    for strict in (True, False):
        with pytest.raises(DataError) as exc:
            ingest_mos(path, strict=strict)
        assert str(exc.value) == f"{path}: {message}"


def test_ingest_mos_read_error_comes_after_the_rows_before_it(tmp_path):
    path = tmp_path / "mos.csv"
    write_mos(path, ["a,10", "b,x", "c," + "1" * 200_000, "d,20"])
    field_error = f"{path}: row 4: field larger than field limit (131072)"
    with pytest.raises(DataError, match="row 3: unparsable mos 'x'"):
        ingest_mos(path)
    with captured_warnings() as logged, pytest.raises(DataError) as exc:
        ingest_mos(path, strict=False)
    assert (logged, str(exc.value)) == ([f"skipping row: {path}: row 3: unparsable mos 'x'"],
                                        field_error)
    write_mos(path, ["c," + "1" * 200_000])
    with pytest.raises(DataError) as exc:
        ingest_mos(path)
    assert str(exc.value) == f"{path}: row 2: field larger than field limit (131072)"


def test_ingest_mos_reads_columns_in_any_order(tmp_path):
    path = tmp_path / "mos.csv"
    write_mos(path, ["x,1.25,a", "y, 2 ,b"], header="extra,mos,image_id")
    assert ingest_mos(path) == {"a": 1.25, "b": 2.0}


# score_batch -------------------------------------------------------------------


def _logits(item_id, values, **extra) -> str:
    return json.dumps({"id": item_id, "logits": dict(zip(FIVE_LEVEL_LABELS, values)), **extra})


ZEROS = (0.0, 0.0, 0.0, 0.0, 0.0)

BATCH_TABLE = [
    # (line, diagnostic text)
    ('{"id": "x", ', "invalid JSON (Expecting property name enclosed in double quotes: "
                    "line 1 column 12 (char 11))"),
    ("[1]", "record is not an object"),
    (_logits(7, ZEROS), "missing or non-string 'id'"),
    ('{"id": "x"}', "x: missing 'logits' object"),
    ('{"id": "x", "logits": [1, 2, 3, 4, 5]}', "x: missing 'logits' object"),
    (_logits("x", ZEROS[:4]), "x: missing logit for level 'excellent'"),
    (_logits("x", (0.0, "1", 0.0, 0.0, 0.0)), "x: non-numeric logit for 'poor'"),
    (_logits("x", (0.0, 0.0, True, 0.0, 0.0)), "x: non-numeric logit for 'fair'"),
    (_logits("x", (0.0, 0.0, 0.0, None, 0.0)), "x: non-numeric logit for 'good'"),
    (_logits("x", (0.0, 0.0, 0.0, 0.0, BIG)), "x: logit for 'excellent' is too large for a float"),
    (_logits("x", (0.0, math.nan, 0.0, 0.0, 0.0)), "x: non-finite logit for level 'poor'"),
    (_logits("x", (0.0, 0.0, 0.0, -math.inf, math.nan)), "x: non-finite logit for level 'good'"),
    # two defects in one record: the first level in label order is named
    (_logits("x", ("a", 0.0, 0.0, math.nan, 0.0)), "x: non-numeric logit for 'bad'"),
    (_logits("x", (math.nan, BIG, 0.0, 0.0, 0.0)), "x: logit for 'poor' is too large for a float"),
    (_logits("x", (math.inf, "a", 0.0, 0.0, 0.0)), "x: non-numeric logit for 'poor'"),
    (json.dumps({"id": "x", "logits": {"bad": "a", "poor": 0.0}}),
     "x: non-numeric logit for 'bad'"),
]


@pytest.mark.parametrize("line,message", BATCH_TABLE)
def test_score_batch_names_the_bad_record(line, message):
    lines = [_logits("a", ZEROS), "", line, _logits("b", ZEROS)]
    out = list(score_batch(lines))
    assert out == [("a", 3.0), BatchDiagnostic(3, message), ("b", 3.0)]
    got = []
    with pytest.raises(DataError) as exc:
        got.extend(score_batch(lines, strict=True))
    assert str(exc.value) == f"line 3: {message}"
    assert got == [("a", 3.0)]


@pytest.mark.parametrize("line,message", [
    (json.dumps({"id": "x", "poor": 0.0}), "x: missing or non-numeric 'good' logit"),
    (json.dumps({"id": "x", "good": True, "poor": 0.0}), "x: missing or non-numeric 'good' logit"),
    (json.dumps({"id": "x", "good": 0.0, "poor": "1"}), "x: missing or non-numeric 'poor' logit"),
    (json.dumps({"id": "x", "good": 0.0, "poor": BIG}),
     "x: logit for 'poor' is too large for a float"),
    (json.dumps({"id": "x", "good": math.nan, "poor": 0.0}),
     "non-finite binary logits good=nan poor=0.0"),
])
def test_score_batch_binary_names_the_bad_record(line, message):
    out = list(score_batch([json.dumps({"id": "a", "good": 0, "poor": 0}), line], binary=True))
    assert out == [("a", 0.5), BatchDiagnostic(2, message)]


# Property tests against per-record reference loops -----------------------------


def reference_scores(path: Path) -> dict[str, float]:
    """The scores file read one record at a time, each check in turn."""
    scores, first_line = {}, {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}: line {line_no}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # a huge integer too, and deep nesting
            raise DataError(f"{where}: invalid JSON ({exc})")
        if not isinstance(obj, dict):
            raise DataError(f"{where}: record is not an object")
        item_id = obj.get("id")
        if isinstance(item_id, int) and not isinstance(item_id, bool):
            item_id = str(item_id)
        if not isinstance(item_id, str):
            raise DataError(f"{where}: missing or non-string 'id'")
        if item_id in first_line:
            raise DataError(
                f"{where}: duplicate id {item_id!r} (first on line {first_line[item_id]})")
        score = obj.get("score")
        if (not isinstance(score, (int, float)) or isinstance(score, bool)
                or not -1.7976931348623157e308 <= score <= 1.7976931348623157e308):
            raise DataError(f"{where}: 'score' must be a finite number, got {score!r}")
        scores[item_id] = float(score)
        first_line[item_id] = line_no
    if not scores:
        raise DataError(f"{path}: no score records")
    return scores


SCORE_DEFECTS = {
    "json": lambda i, rng: '{"id": "s%d", "score": ' % i,
    "array": lambda i, rng: "[1, 2]",
    "no_id": lambda i, rng: json.dumps({"score": 1.0}),
    "bool_id": lambda i, rng: _score(rng.choice([True, False]), 1.0),
    "float_id": lambda i, rng: _score(float(i), 1.0),
    "int_id": lambda i, rng: _score(rng.randrange(6), 1.0),
    "dup": lambda i, rng: _score(f"s{rng.randrange(max(i, 1))}", 1.0),
    "str_score": lambda i, rng: _score(f"s{i}", "1.0"),
    "null_score": lambda i, rng: _score(f"s{i}", None),
    "nan": lambda i, rng: '{"id": "s%d", "score": NaN}' % i,
    "inf": lambda i, rng: '{"id": "s%d", "score": -Infinity}' % i,
    "big_int": lambda i, rng: _score(f"s{i}", rng.choice([BIG, -BIG])),
    "int_score": lambda i, rng: _score(f"s{i}", rng.randrange(-5, 5)),
    "huge_digits": lambda i, rng: '{"id": "s%d", "score": %s}' % (i, "9" * 4301),
    "deep": lambda i, rng: '{"id": "s%d", "score": %s}' % (i, "[" * 5000 + "]" * 5000),
    "blank": lambda i, rng: "",
}


def plant(clean: list[str], defects, make) -> list[str]:
    lines = list(clean)
    for position, kind, rng in defects:
        i = position % len(lines)
        lines[i] = make[kind](i, rng)
    return lines


DEFECT_DRAWS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(SCORE_DEFECTS)),
                                  st.randoms(use_true_random=False)), min_size=1, max_size=2)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 12), seed=st.integers(0, 1000), defects=DEFECT_DRAWS)
def test_score_reader_matches_the_per_record_loop(capsys, n, seed, defects):
    mos_ids = [f"s{i}" for i in range(0, 14, 2)] + ["0", "1", "2"]
    clean = [_score(f"s{i}", (i * 7 + seed) % 11 / 2) for i in range(n)]
    lines = plant(clean, defects, SCORE_DEFECTS)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scores, mos = root / "scores.jsonl", root / "mos.csv"
        scores.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        mos.write_text("image_id,mos\n" + "".join(f"{k},{(j * 3) % 7}\n"
                                                   for j, k in enumerate(mos_ids)))
        capsys.readouterr()
        with captured_warnings() as logged:
            code = main(["eval-iqa", str(scores), str(mos), "--format", "json"])
        printed = capsys.readouterr()
        try:
            ref = reference_scores(scores)
        except DataError as exc:
            assert (code, printed.err) == (1, f"error: {exc}\n")
            return
        mos_values = {k: float((j * 3) % 7) for j, k in enumerate(mos_ids)}
        shared = [k for k in ref if k in mos_values]
        dropped = len(ref) - len(shared) + sum(k not in ref for k in mos_values)
        assert logged == ([f"{dropped} id(s) present on only one side were dropped"]
                          if dropped else [])
        if len(shared) < 2:
            assert (code, printed.err) == (
                1, f"error: join produced {len(shared)} shared id(s); need at least 2\n")
            return
        try:
            sample = PairedSample.from_arrays([ref[k] for k in shared],
                                              [mos_values[k] for k in shared])
            expected = {"count": len(shared), "srcc": srcc(sample), "plcc": plcc(sample)}
        except DataError as exc:
            assert (code, printed.err) == (1, f"error: {exc}\n")
            return
        assert code == 0
        report = json.loads(printed.out)
        assert {k: report[k] for k in expected} == expected


def reference_mos(path: Path, scale, strict: bool) -> tuple[dict, list[str]]:
    """The MOS file read one row at a time: (kept, warnings), or the error."""
    kept, first_row, warnings = {}, {}, []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        id_col, mos_col = header.index("image_id"), header.index("mos")
        for row_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            where = f"{path}: row {row_no}"
            if len(row) <= max(id_col, mos_col):
                problem = DataError(f"{where}: missing columns")
            elif row[id_col] in first_row:
                problem = DataError(f"{where}: duplicate image_id {row[id_col]!r} "
                                    f"(first on row {first_row[row[id_col]]})")
            else:
                try:
                    mos = float(row[mos_col])
                except ValueError:
                    mos, problem = None, DataError(f"{where}: unparsable mos {row[mos_col]!r}")
                else:
                    problem = None
                if mos is None:
                    pass
                elif not math.isfinite(mos):
                    problem = DataError(f"{where}: non-finite mos {mos!r}")
                elif scale is not None and not scale.min_score <= mos <= scale.max_score:
                    problem = DataError(
                        f"{where}: mos {mos!r} outside [{scale.min_score}, {scale.max_score}]")
            if problem is not None:
                if strict:
                    raise problem
                warnings.append(f"skipping row: {problem}")
                continue
            first_row[row[id_col]] = row_no
            kept[row[id_col]] = mos
    if not kept:
        raise DataError(f"{path}: no valid MOS records")
    return kept, warnings


MOS_DEFECTS = {
    "short": lambda i, rng: f"m{i}",
    "dup": lambda i, rng: f"m{rng.randrange(max(i, 1))},{rng.randrange(100)}",
    "dup_bad": lambda i, rng: f"m{rng.randrange(max(i, 1))},junk",
    "junk": lambda i, rng: f"m{i},{rng.choice(['junk', '', '1,5', '0x10'])}",
    "non_finite": lambda i, rng: f"m{i},{rng.choice(['nan', 'inf', '-Infinity', '1e999'])}",
    "range": lambda i, rng: f"m{i},{rng.choice(['100.5', '-1', '1e300'])}",
    "blank": lambda i, rng: rng.choice(["", ",", " , "]),
    "extra": lambda i, rng: f"m{i},{rng.randrange(100)},extra",
    "spaces": lambda i, rng: f"m{i}, {rng.randrange(100)} ",
}


@settings(deadline=None, max_examples=80)
@given(n=st.integers(1, 12), scaled=st.booleans(),
       defects=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(MOS_DEFECTS)),
                                  st.randoms(use_true_random=False)), min_size=1, max_size=2))
def test_ingest_mos_matches_the_per_record_loop(n, scaled, defects):
    scale = SCALE if scaled else None
    rows = plant([f"m{i},{(i * 13) % 101}" for i in range(n)], defects, MOS_DEFECTS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mos.csv"
        write_mos(path, rows)
        for strict in (True, False):
            try:
                expected = reference_mos(path, scale, strict)
            except DataError as exc:
                with captured_warnings(), pytest.raises(DataError) as got:
                    ingest_mos(path, scale, strict=strict)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                continue
            with captured_warnings() as logged:
                kept = ingest_mos(path, scale, strict=strict)
            assert (list(kept.items()), logged) == (list(expected[0].items()), expected[1])


def reference_batch(lines, strict: bool) -> tuple[list, str | None]:
    """score_batch one record at a time: (items, strict error or None)."""
    out = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"invalid JSON ({exc})")
            if not isinstance(obj, dict):
                raise DataError("record is not an object")
            item_id = obj.get("id")
            if not isinstance(item_id, str):
                raise DataError("missing or non-string 'id'")
            logits = obj.get("logits")
            if not isinstance(logits, dict):
                raise DataError(f"{item_id}: missing 'logits' object")
            values = []
            for label in FIVE_LEVEL_LABELS:
                if label not in logits:
                    raise DataError(f"{item_id}: missing logit for level {label!r}")
                v = logits[label]
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise DataError(f"{item_id}: non-numeric logit for {label!r}")
                try:
                    values.append(float(v))
                except OverflowError:
                    raise DataError(
                        f"{item_id}: logit for {label!r} is too large for a float")
            for label, v in zip(FIVE_LEVEL_LABELS, values):
                if not math.isfinite(v):
                    raise DataError(
                        f"{item_id}: non-finite logit for level {label!r}")
            out.append((item_id, score_from_logit_vector(values)))
        except DataError as exc:
            if strict:
                return out, f"line {line_no}: {exc}"
            out.append(BatchDiagnostic(line_no, str(exc)))
    return out, None


def _bad_value(rng):
    return rng.choice(["x", None, True, math.nan, math.inf, BIG, [1.0], 3])


BATCH_DEFECTS = {
    "json": lambda i, rng: _logits(f"r{i}", ZEROS)[:rng.randrange(1, 30)],
    "array": lambda i, rng: "[1, 2]",
    "int_id": lambda i, rng: _logits(i, ZEROS),
    "no_logits": lambda i, rng: json.dumps({"id": f"r{i}", "logits": rng.choice([None, [1], 2])}),
    "missing": lambda i, rng: json.dumps({"id": f"r{i}", "logits": {
        k: 0.5 for k in FIVE_LEVEL_LABELS if k != rng.choice(FIVE_LEVEL_LABELS)}}),
    "one_bad": lambda i, rng: json.dumps({"id": f"r{i}", "logits": {
        k: _bad_value(rng) if j == rng.randrange(5) else 0.25 * j
        for j, k in enumerate(FIVE_LEVEL_LABELS)}}),
    "two_bad": lambda i, rng: json.dumps({"id": f"r{i}", "logits": {
        k: _bad_value(rng) if rng.random() < 0.4 else -0.5 * j
        for j, k in enumerate(FIVE_LEVEL_LABELS)}}),
    "ints": lambda i, rng: _logits(f"r{i}", [rng.randrange(-3, 4) for _ in range(5)]),
    "huge_digits": lambda i, rng: _logits(f"r{i}", ZEROS).replace("0.0", "7" * 4301, 1),
    "deep": lambda i, rng: _logits(f"r{i}", ZEROS).replace("0.0", "[" * 5000 + "]" * 5000, 1),
    "blank": lambda i, rng: "  ",
}


@settings(deadline=None, max_examples=80)
@given(n=st.integers(1, 12), seed=st.integers(0, 1000), strict=st.booleans(),
       defects=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(BATCH_DEFECTS)),
                                  st.randoms(use_true_random=False)), min_size=1, max_size=2))
def test_score_batch_matches_the_per_record_loop(n, seed, strict, defects):
    clean = [_logits(f"r{i}", [((i + seed) * (k + 3)) % 7 - 2.5 for k in range(5)])
             for i in range(n)]
    lines = plant(clean, defects, BATCH_DEFECTS)
    expected, error = reference_batch(lines, strict)
    got = []
    try:
        got.extend(score_batch(lines, strict=strict))
    except DataError as exc:
        assert str(exc) == error
    else:
        assert error is None
    assert got == expected
