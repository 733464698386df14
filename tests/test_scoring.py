import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqmix.cli import main as cli_main
from iqmix.errors import DataError
from iqmix.levels import LevelScale
from iqmix.scoring import (
    CHUNK_ROWS,
    BatchDiagnostic,
    binary_score,
    rescale_score,
    score_batch,
    score_from_logit_vector,
    softmax_vector,
    weighted_score,
)

LN_WEIGHTS = tuple(math.log(k) for k in (1, 2, 3, 4, 10))


class TestSoftmaxLevels:
    def test_uniform(self):
        probs = softmax_vector((0.0,) * 5)
        assert probs == pytest.approx((0.2,) * 5, abs=1e-15)

    def test_exact_rational_weights(self):
        # weights 1:2:3:4:10 over total 20, computed independently in exact
        # rational arithmetic
        expected = [float(Fraction(k, 20)) for k in (1, 2, 3, 4, 10)]
        probs = softmax_vector(LN_WEIGHTS)
        assert probs == pytest.approx(expected, abs=1e-12)

    def test_dominant_logit(self):
        probs = softmax_vector((-100.0, -100.0, -100.0, -100.0, 100.0))
        assert probs == pytest.approx((0, 0, 0, 0, 1), abs=1e-12)

    def test_nan_names_level(self):
        with pytest.raises(DataError, match="^<vector>: non-finite logit for level 'fair'$"):
            softmax_vector((0.0, 0.0, float("nan"), 0.0, 0.0))

    def test_inf_rejected(self):
        with pytest.raises(DataError, match="^<vector>: non-finite logit for level 'excellent'$"):
            softmax_vector((0.0, 0.0, 0.0, 0.0, float("inf")))

    @pytest.mark.parametrize("values", [(), (1.0,)])
    @pytest.mark.parametrize("func", [softmax_vector, score_from_logit_vector])
    def test_fewer_than_two_levels_rejected(self, func, values):
        with pytest.raises(DataError,
                           match=f"need at least two level logits, got {len(values)}"):
            func(values)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = tuple(rng.normal(0, 10, 5))
            assert abs(sum(softmax_vector(values)) - 1.0) <= 1e-9

    def test_large_magnitudes_do_not_overflow(self):
        probs = softmax_vector((800.0, 790.0, 0.0, -800.0, 750.0))
        assert all(np.isfinite(probs))
        assert abs(sum(probs) - 1.0) <= 1e-9


class TestScoreFromLogits:
    def test_uniform(self):
        assert score_from_logit_vector((0.0,) * 5) == pytest.approx(3.0, abs=1e-12)

    def test_exact_rational(self):
        # (1*1 + 2*2 + 3*3 + 4*4 + 5*10)/20 = 80/20 = 4, exactly
        expected = Fraction(sum(i * w for i, w in enumerate((1, 2, 3, 4, 10), start=1)), 20)
        assert expected == 4
        assert score_from_logit_vector(LN_WEIGHTS) == pytest.approx(4.0, abs=1e-12)

    def test_point_mass(self):
        score = score_from_logit_vector((-100.0,) * 4 + (100.0,))
        assert score == pytest.approx(5.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            values = rng.normal(0, 5, 5)
            shift = float(rng.uniform(-50, 50))
            base = weighted_score(softmax_vector(tuple(values)))
            shifted = weighted_score(softmax_vector(tuple(values + shift)))
            assert abs(base - shifted) <= 1e-12

    def test_monotone_in_top_logit(self):
        base = list(LN_WEIGHTS)
        scores = []
        for bump in (0.0, 0.5, 1.0, 2.0, 5.0):
            values = tuple(base[:4]) + (base[4] + bump,)
            scores.append(score_from_logit_vector(values))
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_range(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            score = score_from_logit_vector(tuple(rng.normal(0, 20, 5)))
            assert 1.0 <= score <= 5.0

    @pytest.mark.parametrize("values, level", [
        ((0.0, 0.0, float("nan"), 0.0, 0.0), "fair"),
        ((float("-inf"), 0.0), "poor"),
        ((0.0, 0.0, 0.0, float("inf")), "level4"),
    ])
    def test_non_finite_names_level(self, values, level):
        with pytest.raises(DataError,
                           match=f"<vector>: non-finite logit for level '{level}'"):
            score_from_logit_vector(values)


class TestBinaryScore:
    def test_symmetric(self):
        assert binary_score(1.3, 1.3) == pytest.approx(0.5, abs=1e-15)

    def test_ln3(self):
        assert binary_score(math.log(3), 0.0) == pytest.approx(0.75, abs=1e-12)
        assert binary_score(0.0, math.log(3)) == pytest.approx(0.25, abs=1e-12)

    def test_extremes_stay_finite(self):
        assert binary_score(800.0, -800.0) == pytest.approx(1.0)
        assert binary_score(-800.0, 800.0) == pytest.approx(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="^non-finite binary logits good=nan poor=0.0$"):
            binary_score(float("nan"), 0.0)

    def test_two_level_weighted_score_consistency(self):
        # the two-level weighted score is 1 + sigmoid(x_good - x_poor)
        rng = np.random.default_rng(29)
        for _ in range(300):
            x_poor, x_good = rng.normal(0, 8, 2)
            two_level = score_from_logit_vector((x_poor, x_good))
            assert abs((two_level - 1.0) - binary_score(x_good, x_poor)) <= 1e-12


class TestRescale:
    def test_to_mos_units(self):
        scale = LevelScale(0.0, 100.0)
        assert rescale_score(1.0, scale) == 0.0
        assert rescale_score(3.0, scale) == 50.0
        assert rescale_score(5.0, scale) == 100.0


def _lines(*objs):
    return [json.dumps(o) for o in objs]


def _record(item_id, values):
    labels = ("bad", "poor", "fair", "good", "excellent")
    return {"id": item_id, "logits": dict(zip(labels, values))}


class TestScoreBatch:
    def test_order_preserved(self):
        lines = _lines(
            _record("a", (0, 0, 0, 0, 0)),
            _record("b", LN_WEIGHTS),
            _record("c", (-100, -100, -100, -100, 100)),
        )
        out = list(score_batch(lines))
        assert [item_id for item_id, _ in out] == ["a", "b", "c"]
        assert out[0][1] == pytest.approx(3.0)

    def test_lenient_reports_line_numbers(self):
        lines = _lines(_record("a", (0, 0, 0, 0, 0))) + ["{broken"] + _lines(
            _record("c", (0, 0, 0, 0, 0))
        )
        out = list(score_batch(lines))
        assert len(out) == 3
        diag = out[1]
        assert isinstance(diag, BatchDiagnostic)
        assert diag.line_no == 2

    def test_strict_aborts(self):
        lines = ["{broken"]
        with pytest.raises(DataError, match=r"^line 1: invalid JSON \(Expecting property name"):
            list(score_batch(lines, strict=True))

    def test_missing_level_rejected(self):
        rec = _record("a", (0, 0, 0, 0, 0))
        del rec["logits"]["fair"]
        out = list(score_batch(_lines(rec)))
        assert isinstance(out[0], BatchDiagnostic)
        assert "fair" in out[0].message

    def test_empty_input(self):
        assert list(score_batch([])) == []

    def test_blank_lines_skipped(self):
        lines = ["", "   "] + _lines(_record("a", (0, 0, 0, 0, 0)))
        out = list(score_batch(lines))
        assert len(out) == 1 and out[0][0] == "a"

    def test_finite_logits_whose_sum_overflows_are_scored(self):
        lines = _lines(_record("a", (1e308, 1e308, 0.0, 0.0, 0.0)),
                       _record("b", (1e308, 0.0, 0.0, 0.0, float("nan"))))
        out = list(score_batch(lines))
        assert out[0] == ("a", score_from_logit_vector((1e308, 1e308, 0.0, 0.0, 0.0)))
        assert out[0][1] == 1.5
        assert out[1] == BatchDiagnostic(2, "b: non-finite logit for level 'excellent'")

    def test_binary_mode(self):
        lines = [json.dumps({"id": "q", "good": math.log(3), "poor": 0.0})]
        out = list(score_batch(lines, binary=True))
        assert out[0][1] == pytest.approx(0.75, abs=1e-12)

    def test_binary_missing_field(self):
        out = list(score_batch([json.dumps({"id": "q", "good": 1.0})], binary=True))
        assert isinstance(out[0], BatchDiagnostic)

    def test_score_serialization_round_trips(self):
        score = score_from_logit_vector(LN_WEIGHTS)
        assert json.loads(json.dumps({"score": score}))["score"] == score


class TestLogitTooLargeForAFloat:
    """An integer logit that float() cannot take is a malformed record that
    names its id and level, not an OverflowError."""

    FIVE = _lines(_record("a", (0, 0, 0, 0, 0)), _record("b", (0, 0, 10 ** 400, 0, 0)),
                  _record("c", (0, 0, 0, 0, 0)))
    BINARY = _lines({"id": "a", "good": 1, "poor": 0}, {"id": "b", "good": 0, "poor": -10 ** 400},
                    {"id": "c", "good": 0, "poor": 0})
    MESSAGES = {False: "b: logit for 'fair' is too large for a float",
                True: "b: logit for 'poor' is too large for a float"}

    @pytest.mark.parametrize("binary", [False, True])
    def test_lenient_run_reports_the_line_and_keeps_going(self, binary):
        out = list(score_batch(self.BINARY if binary else self.FIVE, binary=binary))
        assert [item[0] for item in (out[0], out[2])] == ["a", "c"]
        assert out[1] == BatchDiagnostic(2, self.MESSAGES[binary])

    @pytest.mark.parametrize("binary", [False, True])
    def test_cli_lenient_and_strict(self, tmp_path, capsys, binary):
        src = tmp_path / "logits.jsonl"
        src.write_text("\n".join(self.BINARY if binary else self.FIVE) + "\n")
        out = tmp_path / "scores.jsonl"
        flags = ["--mode", "binary"] if binary else []
        assert cli_main(["score", str(src), "--out", str(out), *flags]) == 0
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a", "c"]
        assert f"line 2: {self.MESSAGES[binary]}" in capsys.readouterr().err
        assert cli_main(["score", str(src), "--out", str(out), "--strict", *flags]) == 1
        err = capsys.readouterr().err
        assert f"error: line 2: {self.MESSAGES[binary]}\n" in err
        assert "Traceback" not in err


def _reference_score(values) -> float:
    """Max-shifted numpy softmax of one row, then p0*1 + p1*2 + ... added
    left to right: the per-record arithmetic score_batch must reproduce."""
    arr = np.asarray(values, dtype=np.float64)
    shifted = np.exp(arr - arr.max())
    total = 0.0
    for i, p in enumerate(shifted / shifted.sum()):
        total += float(p) * (i + 1)
    return total


class TestScoreBatchMatchesPerRecord:
    """score_batch scores its valid rows in chunks; every score must equal the
    one-record path bit for bit, and diagnostics keep their place."""

    @settings(deadline=None, max_examples=15)
    @given(size=st.one_of(st.integers(1, 3), st.integers(CHUNK_ROWS - 3, CHUNK_ROWS + 3),
                          st.integers(2 * CHUNK_ROWS - 3, 2 * CHUNK_ROWS + 3)),
           seed=st.integers(0, 2**32 - 1),
           bad_every=st.sampled_from([0, 3, 1000]))
    def test_bit_identical(self, size, seed, bad_every):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, rng.uniform(0.1, 20.0), (size, 5))
        values[rng.random(size) < 0.05] *= 800.0 / 20.0
        lines, expected, bad_lines = [], [], []
        for i, row in enumerate(values.tolist()):
            if bad_every and i % bad_every == 1:
                lines.append("{broken")
                bad_lines.append(i + 1)
                continue
            lines.append(json.dumps(_record(f"r{i}", row)))
            score = score_from_logit_vector(row)
            assert score == _reference_score(row)
            expected.append((f"r{i}", score))
        out = list(score_batch(lines))
        got = [r for r in out if not isinstance(r, BatchDiagnostic)]
        assert got == expected
        assert all(type(score) is float for _, score in got)
        assert [r.line_no for r in out if isinstance(r, BatchDiagnostic)] == bad_lines
        assert [isinstance(r, BatchDiagnostic) for r in out] == \
            [line == "{broken" for line in lines]

    @pytest.mark.parametrize("bad_at", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                        2 * CHUNK_ROWS + 5])
    def test_strict_yields_scores_before_first_bad_line(self, bad_at):
        rows = [(float(i % 7), 0.0, -1.0, 2.0, float(-i % 5))
                for i in range(2 * CHUNK_ROWS + 100)]
        lines = [json.dumps(_record(f"r{i}", row)) for i, row in enumerate(rows)]
        lines[bad_at] = json.dumps({"id": f"r{bad_at}", "logits": {}})
        got = []
        with pytest.raises(DataError, match=f"r{bad_at}: missing logit"):
            for item in score_batch(lines, strict=True):
                got.append(item)
        assert got == [
            (f"r{i}", _reference_score(row)) for i, row in enumerate(rows[:bad_at])]
