import itertools
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import curve_fit
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqmix.cli import main
from iqmix.datasets import ingest_mos
from iqmix.errors import DataError
from iqmix.levels import LevelScale
from iqmix.metrics import (
    PairedSample,
    conversion_precision,
    description_report,
    description_text,
    match_choice,
    mcq_report,
    mcq_text,
    pair_by_id,
    read_scores,
    _average_ranks,
    _fit_logistic,
    plcc,
    srcc,
)

from conftest import write_records
from test_golden import _write_eval_inputs


def sample(x, y) -> PairedSample:
    return PairedSample.from_arrays(x, y)


def spearman_d2_formula(x, y) -> float:
    """Independent tie-free oracle: 1 - 6*sum(d^2)/(n(n^2-1))."""
    rx = {v: i + 1 for i, v in enumerate(sorted(x))}
    ry = {v: i + 1 for i, v in enumerate(sorted(y))}
    d2 = sum((rx[a] - ry[b]) ** 2 for a, b in zip(x, y))
    n = len(x)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def pearson_direct(x, y) -> float:
    """Independent oracle: covariance over product of standard deviations."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def tie_heavy_pairs(max_size: int = 40):
    """Two equal-length value lists rounded to one decimal, so ties are common."""
    value = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 1))
    return st.integers(3, max_size).flatmap(
        lambda n: st.tuples(st.lists(value, min_size=n, max_size=n),
                            st.lists(value, min_size=n, max_size=n))
    )


class TestAgainstScipy:
    @settings(deadline=None, max_examples=300)
    @given(tie_heavy_pairs())
    def test_srcc_matches_spearmanr(self, pair):
        x, y = pair
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        expected = scipy.stats.spearmanr(x, y).statistic
        assert srcc(sample(x, y)) == pytest.approx(expected, abs=1e-9)

    @settings(deadline=None, max_examples=300)
    @given(tie_heavy_pairs())
    def test_plcc_matches_pearsonr(self, pair):
        x, y = pair
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        expected = scipy.stats.pearsonr(x, y).statistic
        assert plcc(sample(x, y)) == pytest.approx(expected, abs=1e-9)


class TestPairedSample:
    def test_length_mismatch(self):
        with pytest.raises(DataError, match="^length mismatch: 3 predictions vs 2 ground-truth"):
            sample([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(DataError, match="^need at least 2 paired values$"):
            sample([1], [2])

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="^paired sample contains non-finite values$"):
            sample([1, float("nan")], [1, 2])

    def test_holds_private_float64_arrays(self):
        x = np.array([3, 1, 2])
        s = sample(x, (1.5, 2.5, 0.5))
        x[0] = 99
        assert s.predictions.dtype == s.ground_truth.dtype == np.float64
        assert s.predictions.tolist() == [3.0, 1.0, 2.0]
        assert srcc(PairedSample((1, 2, 3), (3, 1, 2))) == pytest.approx(-0.5)


class TestRanks:
    def test_average_ties(self):
        ranks = _average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))
        assert list(ranks) == [1.0, 2.5, 2.5, 4.0]

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for values in (rng.integers(0, 5, 50).astype(float), rng.normal(0, 1, 50),
                       np.full(7, 3.0), np.array([2.0])):
            expected = scipy.stats.rankdata(values, method="average")
            assert np.array_equal(_average_ranks(values), expected)  # bit for bit

    def test_matches_scipy_on_100k_tie_heavy_values_with_signed_zeros(self):
        """Ranks come from an unstable sort: a tie group, -0.0 and 0.0 among
        them, must rank the same in whatever order the sort leaves it."""
        rng = np.random.default_rng(5)
        values = rng.integers(-40, 40, 100_000) * 0.25
        values[(values == 0.0) & (rng.random(values.size) < 0.5)] = -0.0
        signs = np.signbit(values[values == 0.0])
        assert signs.any() and not signs.all()
        expected = scipy.stats.rankdata(values, method="average")
        assert _average_ranks(values).tobytes() == expected.tobytes()


class TestSrcc:
    def test_identical_order(self):
        assert srcc(sample([1, 2, 3], [10, 20, 30])) == pytest.approx(1.0)

    def test_reversed(self):
        assert srcc(sample([1, 2, 3], [30, 20, 10])) == pytest.approx(-1.0)

    def test_partial(self):
        # 1 - 6*2/(3*8) = 0.5
        assert srcc(sample([1, 2, 3], [1, 3, 2])) == pytest.approx(0.5, abs=1e-12)

    def test_d2_oracle_small_permutations(self):
        for n in range(2, 6):
            x = list(range(1, n + 1))
            for perm in itertools.permutations(x):
                expected = spearman_d2_formula(x, perm)
                assert srcc(sample(x, perm)) == pytest.approx(expected, abs=1e-12)

    def test_ties_match_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.integers(0, 6, 40).astype(float)
            y = x + rng.integers(0, 4, 40)
            expected = scipy.stats.spearmanr(x, y).statistic
            assert srcc(sample(x, y)) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 60)
        y = rng.normal(0, 1, 60)
        base = srcc(sample(x, y))
        assert srcc(sample(np.exp(x), y)) == pytest.approx(base, abs=1e-12)
        assert srcc(sample(x, y**3)) == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(0, 1, 30), rng.normal(0, 1, 30)
        assert srcc(sample(x, y)) == pytest.approx(srcc(sample(y, x)), abs=1e-15)

    def test_zero_rank_variance(self):
        with pytest.raises(DataError, match="^zero variance in ranks; correlation undefined$"):
            srcc(sample([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


class TestPlcc:
    def test_positive_affine(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert plcc(sample(x, [2 * v + 1 for v in x])) == pytest.approx(1.0)

    def test_negation(self):
        x = [1.0, 2.0, 3.0]
        assert plcc(sample(x, [-v for v in x])) == pytest.approx(-1.0)

    def test_exact_value(self):
        expected = 9.0 / math.sqrt(84.0)
        assert plcc(sample([1, 2, 3], [1, 2, 4])) == pytest.approx(expected, abs=1e-12)
        assert plcc(sample([1, 2, 3], [1, 2, 4])) == pytest.approx(
            pearson_direct([1, 2, 3], [1, 2, 4]), abs=1e-12
        )

    def test_matches_scipy(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(0, 2, 80), rng.normal(1, 3, 80)
        assert plcc(sample(x, y)) == pytest.approx(
            scipy.stats.pearsonr(x, y).statistic, abs=1e-12
        )

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
        base = plcc(sample(x, y))
        assert plcc(sample(3.2 * x + 7, y)) == pytest.approx(base, abs=1e-12)
        assert plcc(sample(x, 0.5 * y - 2)) == pytest.approx(base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DataError, match="^zero variance in a sequence; correlation undefined$"):
            plcc(sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_sums_of_squares_past_the_float_range(self, tmp_path, capsys, scale):
        """MOS at 1e200 overflow the product of the sums of squares, MOS at
        1e-160 make it subnormal and MOS at 1e-200 underflow it to 0; r is
        scale-free, so all read as at scale 1, with no warning, and only a
        constant side is zero variance."""
        x, y = [1.0, 2.0, 3.0, 5.0], [1.0, 3.0, 2.0, 5.0]
        scores, mos = tmp_path / "scores.jsonl", tmp_path / "mos.csv"
        scores.write_text("".join(json.dumps({"id": i, "score": v}) + "\n"
                                  for i, v in zip("abcd", x)))
        mos.write_text("image_id,mos\n" + "".join(f"{i},{v * scale!r}\n"
                                                  for i, v in zip("abcd", y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval-iqa", str(scores), str(mos)]) == 0
            assert capsys.readouterr().out.splitlines()[1:3] == [
                "srcc   0.800000", "plcc   0.885714"]
            scaled = [v * scale for v in y]
            for pair in ((x, scaled), (scaled, x)):
                assert plcc(sample(*pair)) == pytest.approx(plcc(sample(x, y)), abs=1e-15)
            with pytest.raises(DataError, match="^zero variance in a sequence; correlation"):
                plcc(sample(x, [scale] * 4))

    @pytest.mark.parametrize("y", [np.array([1.0, 3.0, 2.0, 5.0]) * 1e200,
                                   np.array([1.0, 3.0, 2.0, 5.0]) * 1e-200,
                                   np.array([-1e308, 0.0, 1e308, 5e307])])
    def test_logistic_checks_for_a_constant_side_without_variance(self, y):
        """The variance of MOS at 1e200 overflows, that of MOS at 1e-200
        underflows to 0, and the span of the last MOS overflows: none is a
        constant side, so the fit runs, and after its singular first step it
        fits each side over its largest magnitude; a constant side is still
        zero variance."""
        x = np.array([1.0, 2.0, 3.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plcc(sample(x, y), logistic=True) == pytest.approx(
                plcc(sample(x / 5.0, y / np.abs(y).max()), logistic=True), abs=1e-15)
            with pytest.raises(DataError, match="^zero variance; correlation undefined$"):
                plcc(sample(x, np.full(4, y[0])), logistic=True)

    def test_logistic_pre_mapping_flag(self):
        x = np.linspace(-1, 1, 60)
        y = 1.0 / (1.0 + np.exp(-6.0 * x))  # saturating, monotone, nonlinear
        raw = plcc(sample(x, y))
        mapped = plcc(sample(x, y), logistic=True)
        assert raw < 0.99
        assert mapped > raw
        assert mapped == pytest.approx(1.0, abs=1e-6)


def logistic(v, b1, b2, b3, b4):
    return (b1 - b2) / (1.0 + np.exp(-(v - b3) / abs(b4))) + b2


def curve_fit_values(x, y, **tolerances):
    """The values scipy's curve_fit fits from the same starting point: with
    its default tolerances, the fit that eval-iqa --logistic used to run, and
    with tolerances of 1e-15, a fit converged as far as MINPACK goes."""
    p0 = [y.max(), y.min(), x.mean(), x.std() or 1.0]
    with warnings.catch_warnings():  # no covariance; exp overflows to a saturated curve
        warnings.simplefilter("ignore")
        popt, _ = curve_fit(logistic, x, y, p0=p0, maxfev=20000, **tolerances)
        return logistic(x, *popt)


def ssr(fit, y) -> float:
    return float(np.sum((fit - y) ** 2))


def s_curve(n: int, seed: int, noise: float):
    """n points of a logistic S-curve over [0, 1], with normal noise added."""
    rng = np.random.default_rng([seed, n])
    x = rng.uniform(0.0, 1.0, n)
    return x, 1.0 + 4.0 / (1.0 + np.exp(-(x - 0.5) / 0.1)) + rng.normal(0.0, noise, n)


class TestLogisticFit:
    """The numpy Levenberg-Marquardt fit against scipy's curve_fit, which it
    replaced: the PLCC of a converged fit on S-curves, and a residual sum of
    squares (SSR) no higher than the old default fit's.

    The SSR order is tested where the fit has one optimum in reach. On a
    small or nearly pure-noise sample the least-squares logistic is often a
    step (|b4| far below the spacing of x), with a local minimum for each gap
    the step can sit in; there the two methods can end in different minima,
    either one lower, so no order between them holds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [100, 1000, 10_000, 100_000])
    def test_s_curves_match_a_converged_curve_fit(self, n, seed):
        x, y = s_curve(n, seed, 0.2)
        converged = curve_fit_values(x, y, ftol=1e-15, xtol=1e-15, gtol=1e-15)
        assert abs(plcc(sample(x, y), logistic=True) - plcc(sample(converged, y))) <= 1e-9
        assert ssr(_fit_logistic(x, y), y) <= ssr(curve_fit_values(x, y), y) * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("noise,n", [(2.0, 1000), (2.0, 10_000), (20.0, 10_000)],
                             ids=["noisy-1k", "noisy-10k", "nearly-uncorrelated-10k"])
    def test_ssr_is_no_higher_than_default_curve_fit(self, noise, n, seed):
        """Noise of sd 2 on the S-curve's range of 4 leaves a correlation of
        about 0.6, and of sd 20 about 0.07."""
        x, y = s_curve(n, seed, noise)
        assert ssr(_fit_logistic(x, y), y) <= ssr(curve_fit_values(x, y), y) * (1 + 1e-9)

    def test_golden_inputs_fit_lower_than_default_curve_fit(self, tmp_path, monkeypatch):
        """The golden eval-iqa inputs are nearly uncorrelated (SRCC 0.027),
        and their least-squares optimum lies at infinity: MINPACK's default
        tolerances stop it on the way, and the numpy fit goes further."""
        monkeypatch.chdir(tmp_path)
        _write_eval_inputs(tmp_path)
        assert main(["score", "logits.jsonl", "--out", "scores.jsonl"]) == 0
        ids, scores = read_scores("scores.jsonl")
        x, y = pair_by_id(ids, scores, ingest_mos("mos.csv"))
        default = ssr(curve_fit_values(x, y), y)
        assert ssr(_fit_logistic(x, y), y) <= default * (1 - 1e-7)

    def test_a_fit_that_keeps_falling_stops_at_the_evaluation_cap(self):
        """A step function's best logistic has |b4| -> 0: each step lowers
        the SSR by about the same share, so no stopping rule is met. The
        default curve_fit gives up on it too."""
        x, y = np.arange(4.0), np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(RuntimeError, match="maxfev"):
            curve_fit_values(x, y)
        with pytest.raises(DataError, match="^logistic pre-mapping failed to converge "
                                            "in 4000 evaluations$"):
            plcc(sample(x, y), logistic=True)

    def test_normal_equations_that_overflow_are_a_singular_step(self):
        """A spread of 3e-60 in the predictions against one of 3e100 in the
        truth: the Jacobian's squared column norms pass the float range, so
        the fit starts again on each side over its largest magnitude. A fit
        that is singular once it is rescaled fails."""
        x, y = np.arange(4.0) * 1e-60, np.array([0.0, 1e100, 3e100, 1.0])
        assert plcc(sample(x, y), logistic=True) == \
            plcc(sample(x / 3e-60, y / 3e100), logistic=True)
        with pytest.raises(DataError,
                           match="^logistic pre-mapping: step 1 is singular or overflows$"):
            _fit_logistic(x, y, rescaled=True)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_logistic_is_scale_free_through_the_cli(self, tmp_path, capsys, scale):
        """MOS at 1e200 overflow the fit's first step and MOS at 1e-200
        underflow it; the fit over the largest magnitudes reads as at scale 1."""
        scores, mos = tmp_path / "scores.jsonl", tmp_path / "mos.csv"
        scores.write_text("".join(json.dumps({"id": i, "score": v}) + "\n"
                                  for i, v in zip("abcd", [1.0, 2.0, 3.0, 5.0])))
        mos.write_text("image_id,mos\n" + "".join(f"{i},{v * scale!r}\n"
                                                  for i, v in zip("abcd", [1.0, 3.0, 2.0, 5.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval-iqa", str(scores), str(mos), "--logistic"]) == 0
        assert capsys.readouterr().out.splitlines()[1:3] == ["srcc   0.800000", "plcc   0.896264"]

    def test_fewer_points_than_parameters_is_a_data_error(self, tmp_path, capsys):
        with pytest.raises(DataError, match="^logistic pre-mapping needs at least "
                                            "4 paired values, got 3$"):
            plcc(sample([0.0, 1.0, 2.0], [0.0, 0.0, 1.0]), logistic=True)
        scores, mos = tmp_path / "scores.jsonl", tmp_path / "mos.csv"
        scores.write_text("".join(json.dumps({"id": f"i{k}", "score": float(k)}) + "\n"
                                  for k in range(3)))
        mos.write_text("image_id,mos\ni0,1\ni1,5\ni2,2\n")
        assert main(["eval-iqa", str(scores), str(mos), "--logistic"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == \
            "error: logistic pre-mapping needs at least 4 paired values, got 3"


class TestAvgMetric:
    """avg = (SRCC + PLCC) / 2 on the same sample, as eval-iqa reports it."""

    @staticmethod
    def eval_iqa_avg(tmp_path, capsys, x, y) -> float:
        ids = [f"i{k}" for k in range(len(x))]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(json.dumps({"id": i, "score": float(v)}) + "\n"
                                  for i, v in zip(ids, x)))
        mos = tmp_path / "mos.csv"
        mos.write_text("image_id,mos\n" + "".join(f"{i},{float(v)!r}\n"
                                                  for i, v in zip(ids, y)))
        assert main(["eval-iqa", str(scores), str(mos), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["avg"]

    def test_linear(self, tmp_path, capsys):
        x = [1.0, 2.0, 3.0, 4.0]
        assert self.eval_iqa_avg(tmp_path, capsys, x, [5 * v for v in x]) == pytest.approx(1.0)

    def test_anti_linear(self, tmp_path, capsys):
        x = [1.0, 2.0, 3.0, 4.0]
        assert self.eval_iqa_avg(tmp_path, capsys, x, [-v for v in x]) == pytest.approx(-1.0)

    def test_is_mean_of_parts(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        x, y = rng.normal(0, 1, 40), rng.normal(0, 1, 40)
        s = sample(x, y)
        assert self.eval_iqa_avg(tmp_path, capsys, x, y) == pytest.approx(
            0.5 * (srcc(s) + plcc(s)), abs=1e-15)


class TestConversionPrecision:
    def test_bin_midpoints_perfect(self):
        scale = LevelScale(1.0, 5.0)
        edges = (1.0, *scale.interior_edges(), 5.0)
        midpoints = [(edges[i] + edges[i + 1]) / 2 for i in range(5)]
        s, p = conversion_precision(midpoints, scale)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_uniform_monte_carlo(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(1.0, 5.0, 100_000)
        s, p = conversion_precision(scores, LevelScale(1.0, 5.0))
        analytic = 0.4 / math.sqrt(1.0 / 6.0)  # 0.97979...
        assert abs(s - 0.98) <= 0.01
        assert abs(p - 0.98) <= 0.01
        assert abs(p - analytic) <= 0.005
        assert abs(s - analytic) <= 0.005

    def test_single_bin_degenerate(self):
        with pytest.raises(DataError, match="^zero variance in ranks; correlation undefined$"):
            conversion_precision([2.0, 2.1, 2.2], LevelScale(0.0, 100.0))

    @pytest.mark.skipif(
        "IQMIX_KONIQ_CSV" not in os.environ,
        reason="set IQMIX_KONIQ_CSV to a KonIQ MOS csv to run the dataset audit",
    )
    def test_koniq_reference_values(self):
        import csv

        with open(os.environ["IQMIX_KONIQ_CSV"], newline="") as handle:
            reader = csv.DictReader(handle)
            scores = [float(row["mos"]) for row in reader]
        s, p = conversion_precision(scores, LevelScale(min(scores), max(scores)))
        assert s == pytest.approx(0.952, abs=5e-3)
        assert p == pytest.approx(0.961, abs=5e-3)


def mcq(qid, qtype, quadrant, gold, predicted, choices=("yes", "no")):
    return {"id": qid, "type": qtype, "quadrant": quadrant, "choices": list(choices),
            "gold": gold, "predicted": predicted}


def mcq_file(tmp_path, records):
    path = tmp_path / "answers.jsonl"
    write_records(records, path)
    return path


def report_error(tmp_path, records, line=1) -> str:
    """The message of the DataError that mcq_report raises on the records,
    checked to start with the file and line."""
    path = mcq_file(tmp_path, records)
    with pytest.raises(DataError) as exc:
        mcq_report(path)
    assert str(exc.value).startswith(f"{path}: line {line}: ")
    return str(exc.value)


class TestMcqReport:
    def test_overall_accuracy(self, tmp_path):
        records = [
            mcq("1", "yes-or-no", "distortion", "yes", "yes"),
            mcq("2", "yes-or-no", "other", "no", "no"),
            mcq("3", "what", "distortion", "blur", "blur", ("blur", "noise")),
            mcq("4", "how", "other", "high", "low", ("high", "low")),
        ]
        report = mcq_report(mcq_file(tmp_path, records))
        assert report["overall"] == {"total": 4, "correct": 3, "accuracy": 0.75}

    def test_single_quadrant_equals_overall(self, tmp_path):
        records = [
            mcq(str(i), "what", "in-context other", "a", "a" if i % 2 else "b", ("a", "b"))
            for i in range(10)
        ]
        report = mcq_report(mcq_file(tmp_path, records))
        assert report["by_quadrant"]["in-context other"] == report["overall"]
        assert list(report["by_quadrant"]) == ["in-context other"]

    def test_partition_recomposes_overall(self, tmp_path):
        rng = np.random.default_rng(20)
        types = ["yes-or-no", "what", "how"]
        quadrants = ["distortion", "other", "in-context distortion", "in-context other"]
        records = [
            mcq(
                str(i),
                types[int(rng.integers(3))],
                quadrants[int(rng.integers(4))],
                "a",
                "a" if rng.random() < 0.6 else "nonsense",
                ("a", "b", "c"),
            )
            for i in range(200)
        ]
        report = mcq_report(mcq_file(tmp_path, records))
        overall = report["overall"]
        for buckets in (report["by_type"], report["by_quadrant"]):
            weighted = sum(c["accuracy"] * c["total"] for c in buckets.values())
            assert weighted / overall["total"] == pytest.approx(overall["accuracy"], abs=1e-12)
            assert sum(c["correct"] for c in buckets.values()) == overall["correct"]

    @pytest.mark.parametrize(
        "predicted,expected_index",
        [
            ("B", 1),
            ("b", 1),
            ("b) slightly blurry", 1),
            ("(C)", 2),
            ("a.", 0),
            ("A: the first one", 0),
            ("the image is sharp", 0),
            ("THE IMAGE IS SHARP  ", 0),
            ("utter nonsense", None),
            ("z", None),
        ],
    )
    def test_prediction_normalization(self, predicted, expected_index):
        choices = ("the image is sharp", "slightly blurry", "very blurry")
        assert match_choice(predicted, choices) == expected_index

    def test_gold_must_be_declared(self, tmp_path):
        message = report_error(tmp_path, [mcq("1", "what", "other", "maybe", "yes")])
        assert message.endswith("gold 'maybe' not among declared choices")

    def test_unknown_type_rejected(self, tmp_path):
        message = report_error(tmp_path, [mcq("1", "essay", "other", "yes", "yes")])
        assert message.endswith("unknown question type 'essay'")

    def test_unknown_quadrant_rejected(self, tmp_path):
        message = report_error(tmp_path, [mcq("1", "what", "everything", "yes", "yes")])
        assert message.endswith("unknown quadrant 'everything'")

    @pytest.mark.parametrize("field,value,message", [
        ("choices", [1, 2], "'choices' must be a list of strings, got [1, 2]"),
        ("choices", "yes", "'choices' must be a list of strings, got 'yes'"),
        ("predicted", None, "'predicted' must be a string, got None"),
        ("id", True, "missing or non-string 'id'"),
    ])
    def test_malformed_field_names_file_and_line(self, tmp_path, field, value, message):
        records = [mcq("1", "what", "other", "yes", "yes"),
                   {**mcq("2", "what", "other", "yes", "no"), field: value}]
        if field == "choices":
            records[1]["gold"] = value[0]
        assert report_error(tmp_path, records, line=2).endswith(message)

    def test_absent_prediction_reads_as_empty(self, tmp_path):
        record = mcq("1", "what", "other", "None", "", ("None", "Some"))
        del record["predicted"]
        assert mcq_report(mcq_file(tmp_path, [record]))["overall"]["correct"] == 0

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no MCQ records to score"):
            mcq_report(mcq_file(tmp_path, []))

    def test_text_and_dict_outputs(self, tmp_path):
        report = mcq_report(mcq_file(tmp_path, [mcq("1", "what", "other", "yes", "yes")]))
        assert report["overall"]["accuracy"] == 1.0
        assert list(report["by_type"]) == ["what"]
        assert mcq_text(report).splitlines() == [
            "category  correct/total  accuracy",
            "overall         1/1      1.0000",
            "what            1/1      1.0000",
            "other           1/1      1.0000",
        ]


def ratings_file(tmp_path, pairs):
    """A ratings file of (dimension, rating) pairs."""
    path = tmp_path / "ratings.jsonl"
    write_records([{"id": "r", "dimension": d, "rating": r} for d, r in pairs], path)
    return path


class TestDescriptionReport:
    def test_example_frequencies(self, tmp_path):
        pairs = [("completeness", r) for r in (1, 1, 2, 0)]
        pairs += [("precision", 2), ("relevance", 0)]
        report = description_report(ratings_file(tmp_path, pairs))
        stats = report["dimensions"]["completeness"]
        assert stats == {"count": 4, "p0": 0.25, "p1": 0.5, "p2": 0.25, "score": 1.0}
        assert description_text(report).splitlines() == [
            "dimension         P0      P1      P2   score",
            "completeness  0.2500  0.5000  0.2500  1.0000",
            "precision     0.0000  0.0000  1.0000  2.0000",
            "relevance     1.0000  0.0000  0.0000  0.0000",
            "sum           3.0000",
        ]

    def test_maximum(self, tmp_path):
        pairs = [
            (dim, 2)
            for dim in ("completeness", "precision", "relevance")
            for _ in range(3)
        ]
        assert description_report(ratings_file(tmp_path, pairs))["sum"] == pytest.approx(6.0)

    def test_minimum(self, tmp_path):
        pairs = [(dim, 0) for dim in ("completeness", "precision", "relevance")]
        assert description_report(ratings_file(tmp_path, pairs))["sum"] == pytest.approx(0.0)

    def test_missing_dimension(self, tmp_path):
        path = ratings_file(tmp_path, [("completeness", 1)])
        with pytest.raises(DataError,
                           match=r": no ratings for dimension\(s\): precision, relevance$"):
            description_report(path)

    def test_invalid_rating(self, tmp_path):
        path = ratings_file(tmp_path, [("completeness", 1), ("precision", 3)])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: precision: "
                                            "rating must be the integer 0, 1 or 2, got 3$"):
            description_report(path)

    def test_unknown_dimension(self, tmp_path):
        path = ratings_file(tmp_path, [("fluency", 1)])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 1: "
                                            "unknown description dimension 'fluency'$"):
            description_report(path)
