import json
import logging
import math
import sys
import threading
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from iqmix.errors import ConfigError, DataError, OracleError
from iqmix.controller import check_controls
from iqmix.mixopt import (
    MixRatio,
    argmax_ratio,
    coarse_search,
    compose_counts,
    fit_curve,
    grid_ratios,
    split_d2_d3,
    sweep,
)
from iqmix.oracle import Ledger, OracleResponse

from conftest import make_pools, planted_oracle

LOG_242 = math.log10(2.42)
LOG_354 = math.log10(3.54)


def ledger_manifests(workdir) -> list[str]:
    """The manifest file name of each ledger record, in file order."""
    lines = (workdir / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["manifest"].rsplit("/", 1)[-1] for line in lines]


class ConstantOracle:
    """Ratio-independent oracle with fixed losses."""

    def __init__(self, perf_scoring=0.5, perf_interpreting=0.5,
                 loss_scoring=1.0, loss_interpreting=4.66):
        self.response = OracleResponse(perf_scoring, perf_interpreting,
                                       loss_scoring, loss_interpreting)
        self.calls = 0

    def evaluate(self, request):
        self.calls += 1
        return self.response


class FailingOracle:
    """Delegates to an inner oracle, then starts raising."""

    def __init__(self, inner, fail_after: int):
        self.inner = inner
        self.fail_after = fail_after
        self.calls = 0

    def evaluate(self, request):
        self.calls += 1
        if self.calls > self.fail_after:
            raise OracleError("injected trainer failure")
        return self.inner.evaluate(request)


class CountingOracle:
    """Thread-safe oracle that counts calls and calls in flight.

    Call number `fail_on` (1-based) raises, but only once `jobs - 1` later
    calls have started, so the sweep has as many calls in flight as it may
    when the failure arrives. Those later calls return 0.2 s after the
    failure, by which time the sweep has seen it.
    """

    def __init__(self, fail_on: int | None = None, jobs: int = 1, delay: float = 0.0):
        self.response = ConstantOracle().response
        self.fail_on, self.jobs, self.delay = fail_on, jobs, delay
        self.lock = threading.Condition()
        self.failed = threading.Event()
        self.calls = self.in_flight = self.max_in_flight = self.started_after_failure = 0

    def evaluate(self, request):
        with self.lock:
            self.calls += 1
            call = self.calls
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.started_after_failure += self.failed.is_set()
            self.lock.notify_all()
        try:
            time.sleep(self.delay)
            if self.fail_on is not None and call == self.fail_on:
                with self.lock:
                    assert self.lock.wait_for(
                        lambda: self.calls >= self.fail_on + self.jobs - 1, timeout=10)
                self.failed.set()
                raise OracleError("injected trainer failure")
            if self.fail_on is not None and call > self.fail_on:
                assert self.failed.wait(timeout=10)
                time.sleep(0.2)
            return self.response
        finally:
            with self.lock:
                self.in_flight -= 1


class TestSweepGrid:
    def test_stage2_has_19_points(self):
        grid = grid_ratios("mixed_vs_d1")
        assert len(grid) == 19
        assert grid == tuple(sorted([k / 10.0 for k in range(1, 10)] + list(range(1, 11))))

    def test_stage1_has_19_points_symmetric(self):
        grid = log10_grid("d2_vs_d3")
        assert len(grid) == 19
        assert all(a < b for a, b in zip(grid, grid[1:]))
        for t in grid:
            assert any(abs(t + u) < 1e-12 for u in grid)  # mirror point exists

    def test_stage1_covers_both_sweeps(self):
        ratios = grid_ratios("d2_vs_d3")
        for k in range(1, 11):
            assert any(abs(r - 10.0 / k) < 1e-12 for r in ratios)
            assert any(abs(r - k / 10.0) < 1e-12 for r in ratios)
        assert ratios.count(1.0) == 1  # shared 1:1 point collapsed

    def test_unknown_stage(self):
        with pytest.raises(ConfigError):
            grid_ratios("d0_vs_d9")


class TestComposeCounts:
    def test_stage1_full_d2_side(self):
        counts = compose_counts("d2_vs_d3", 2.5, {"d1": 10, "d2": 1000, "d3": 800})
        assert counts == {"d1": 0, "d2": 1000, "d3": 400}

    def test_stage1_full_d3_side(self):
        counts = compose_counts("d2_vs_d3", 0.25, {"d1": 10, "d2": 1000, "d3": 800})
        assert counts == {"d1": 0, "d2": 200, "d3": 800}

    def test_stage2_base_and_split(self):
        counts = compose_counts("mixed_vs_d1", 2.0, {"d1": 100, "d2": 500, "d3": 500},
                                d2_d3_ratio=3.0)
        assert counts["d1"] == 100
        assert counts["d2"] + counts["d3"] == 200
        assert counts["d2"] == 150 and counts["d3"] == 50

    def test_split_rounds_d2_half_up_and_d3_takes_the_rest(self):
        assert split_d2_d3(5, 1.0) == {"d2": 3, "d3": 2}
        assert split_d2_d3(440, 3.0) == {"d2": 330, "d3": 110}
        assert split_d2_d3(1, 0.5) == {"d2": 0, "d3": 1}

    def test_stage2_and_the_controller_split_alike(self):
        from iqmix.controller import decide

        for total, ratio in ((201, 2.42), (151, 1.0), (1001, 0.37)):
            stage2 = compose_counts("mixed_vs_d1", total / 100, {"d1": 100, "d2": 1, "d3": 1},
                                    d2_d3_ratio=ratio)
            _, grown = decide(0.0, 0.5, 0.1, total / 100, {"d1": 7, "d2": 60, "d3": 40}, ratio)
            assert stage2 == {"d1": 100, **split_d2_d3(total, ratio)}
            assert grown == {"d1": 7, **split_d2_d3(total, ratio)}

    def test_stage2_requires_split_ratio(self):
        with pytest.raises(ConfigError):
            compose_counts("mixed_vs_d1", 2.0, {"d1": 100, "d2": 1, "d3": 1})

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            compose_counts("d2_vs_d3", 0.0, {"d1": 1, "d2": 1, "d3": 1})


def log10_grid(stage):
    return tuple(math.log10(r) for r in grid_ratios(stage))


def point(axis, performance):
    """A point record as sweep returns it, from one repeat with unit losses."""
    return {"axis": axis, "performance": performance, "repeats": 1,
            "loss_scoring": 1.0, "loss_interpreting": 1.0}


def points_from(func, axis_values):
    return [point(t, func(t)) for t in axis_values]


def curve(coefficients, fit_domain=(-1.0, 1.0)):
    """A curve record as fit_curve returns it."""
    return {"coefficients": list(coefficients), "fit_domain": list(fit_domain),
            "residual_rms": 0.0, "axis": "log10"}


class TestFitCurve:
    def test_quartic_interpolated_exactly(self):
        truth = lambda t: t**4 - t**2
        points = points_from(truth, log10_grid("d2_vs_d3"))
        fitted = fit_curve(points)
        assert fitted["coefficients"] == pytest.approx([0, 0, -1, 0, 1], abs=1e-9)
        assert fitted["residual_rms"] <= 1e-12
        assert fitted["fit_domain"] == [-1.0, 1.0]
        assert fitted["axis"] == "log10"

    def test_quadratic_truth_argmax(self):
        truth = lambda t: 1.0 - (t - 0.38) ** 2
        points = points_from(truth, log10_grid("d2_vs_d3"))
        t_star = argmax_ratio(fit_curve(points))
        assert t_star == pytest.approx(0.38, abs=1e-6)
        assert 10 ** t_star == pytest.approx(2.3988, abs=1e-3)

    def test_rank_deficiency(self):
        points = points_from(lambda t: t, [0.0, 0.1, 0.2, 0.3])
        message = "^degree-4 fit needs >= 5 distinct axis values, got 4$"
        with pytest.raises(DataError, match=message):
            fit_curve(points)
        duplicated = points_from(lambda t: t, [0.0, 0.1, 0.2, 0.3, 0.3])
        with pytest.raises(DataError, match=message):
            fit_curve(duplicated)

    def test_residual_reported(self):
        rng = np.random.default_rng(0)
        noisy = [point(float(t), t**2 + float(rng.normal(0, 0.05)))
                 for t in np.linspace(-1, 1, 15)]
        assert fit_curve(noisy)["residual_rms"] > 0.0


class TestArgmaxRatio:
    def test_monotone_increasing_hits_upper_endpoint(self):
        assert argmax_ratio(curve((0.0, 1.0, 0.0, 0.0, 0.0))) == 1.0

    def test_constant_ties_to_lower_endpoint(self):
        assert argmax_ratio(curve((0.7, 0.0, 0.0, 0.0, 0.0))) == -1.0

    def test_interior_maximum(self):
        # p(t) = -(t-0.2)^2 expanded: -0.04 + 0.4 t - t^2
        assert argmax_ratio(curve((-0.04, 0.4, -1.0, 0.0, 0.0))) == pytest.approx(0.2, abs=1e-12)

    def test_never_extrapolates(self):
        # maximum of the unconstrained quadratic sits outside the domain
        assert argmax_ratio(curve((0.0, 4.0, -1.0, 0.0, 0.0))) == 1.0

    def test_dense_grid_cross_check(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            coef = tuple(float(c) for c in rng.normal(0, 1, 5))
            t_star = argmax_ratio(curve(coef))
            grid = np.linspace(-1.0, 1.0, 1000)
            dense_best = float(np.max(npoly.polyval(grid, np.asarray(coef))))
            assert -1.0 <= t_star <= 1.0
            assert float(npoly.polyval(t_star, np.asarray(coef))) >= dense_best - 1e-9


class TestSweep:
    def test_bookkeeping(self, tmp_path, pools_small):
        oracle = planted_oracle()
        points = sweep(oracle, "mixed_vs_d1", pools_small, repeats=3, seed=1,
                       workdir=tmp_path, d2_d3_ratio=2.42)
        assert len(points) == 19
        assert all(p["repeats"] == 3 for p in points)
        assert list(points[0]) == ["axis", "performance", "repeats", "loss_scoring",
                                   "loss_interpreting"]
        assert oracle is not None and (tmp_path / "manifests" / "mixed_vs_d1").is_dir()
        manifests = list((tmp_path / "manifests" / "mixed_vs_d1").glob("*.jsonl"))
        assert len(manifests) == 57

    def test_deterministic_oracle_zero_variance(self, tmp_path, pools_small):
        oracle = planted_oracle()  # noise-free
        one = sweep(oracle, "d2_vs_d3", pools_small, repeats=1, seed=5,
                    workdir=tmp_path / "r1")
        three = sweep(oracle, "d2_vs_d3", pools_small, repeats=3, seed=5,
                      workdir=tmp_path / "r3")
        for a, b in zip(one, three):
            assert a["performance"] == pytest.approx(b["performance"], abs=1e-15)

    def test_same_seed_reproducible(self, tmp_path, pools_small):
        oracle = planted_oracle(noise_sigma=0.02)
        first = sweep(oracle, "d2_vs_d3", pools_small, repeats=2, seed=11,
                      workdir=tmp_path / "a")
        second = sweep(oracle, "d2_vs_d3", pools_small, repeats=2, seed=11,
                       workdir=tmp_path / "b")
        assert first == second

    def test_jobs_do_not_change_results(self, tmp_path, pools_small):
        oracle = planted_oracle(noise_sigma=0.01)
        serial = sweep(oracle, "d2_vs_d3", pools_small, repeats=2, seed=3,
                       workdir=tmp_path / "serial")
        parallel = sweep(oracle, "d2_vs_d3", pools_small, repeats=2, seed=3,
                         workdir=tmp_path / "parallel", jobs=4)
        assert serial == parallel

    def test_grid_override(self, tmp_path, pools_small):
        oracle = planted_oracle()
        points = sweep(oracle, "d2_vs_d3", pools_small, repeats=1, seed=0,
                       workdir=tmp_path, ratios=(0.5, 1.0, 2.0, 4.0, 8.0))
        assert len(points) == 5

    def test_one_job_issues_exactly_the_calls_up_to_the_failure(self, tmp_path, pools_small):
        oracle = CountingOracle(fail_on=5, jobs=1)
        ledger = Ledger(oracle, tmp_path / "ledger.jsonl", ["pools"])
        with pytest.raises(OracleError, match="injected"):
            sweep(ledger, "d2_vs_d3", pools_small, repeats=1, seed=0,
                  workdir=tmp_path, jobs=1)
        assert oracle.calls == 5
        assert oracle.max_in_flight == 1
        assert ledger_manifests(tmp_path) == [f"point{i:02d}_rep0.jsonl" for i in range(4)]

    def test_jobs_bound_calls_in_flight_and_none_start_after_failure(self, tmp_path,
                                                                     pools_small):
        oracle = CountingOracle(fail_on=4, jobs=3)
        with pytest.raises(OracleError, match="injected"):
            sweep(Ledger(oracle, tmp_path / "ledger.jsonl", ["pools"]), "d2_vs_d3",
                  pools_small, repeats=1, seed=0, workdir=tmp_path, jobs=3)
        assert oracle.max_in_flight == 3
        assert oracle.started_after_failure == 0
        assert oracle.calls == 6  # the failing call plus the two started beside it
        # calls 5 and 6 were in flight at the failure: they finish and are recorded
        assert len(set(ledger_manifests(tmp_path))) == 5

        rerun = CountingOracle()
        points = sweep(Ledger(rerun, tmp_path / "ledger.jsonl", ["pools"]), "d2_vs_d3",
                       pools_small, repeats=1, seed=0, workdir=tmp_path, jobs=3)
        assert len(points) == 19
        assert rerun.calls == 19 - 5

    def test_many_jobs_under_fast_thread_switching(self, tmp_path, pools_small):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            oracle = CountingOracle(delay=0.001)
            points = sweep(oracle, "d2_vs_d3", pools_small, repeats=2, seed=0,
                           workdir=tmp_path, jobs=6)
        finally:
            sys.setswitchinterval(interval)
        assert oracle.calls == 38 and len(points) == 19
        assert 1 < oracle.max_in_flight <= 6
        assert oracle.in_flight == 0

    def test_jobs_must_be_positive(self, tmp_path, pools_small):
        with pytest.raises(ConfigError, match="jobs"):
            sweep(ConstantOracle(), "d2_vs_d3", pools_small, repeats=1,
                  workdir=tmp_path, jobs=0)

    def test_oracle_error_propagates_and_the_ledger_holds_the_completed_calls(
            self, tmp_path, pools_small):
        oracle = FailingOracle(planted_oracle(), fail_after=7)
        with pytest.raises(OracleError, match="injected trainer failure"):
            sweep(Ledger(oracle, tmp_path / "ledger.jsonl", ["pools"]), "d2_vs_d3",
                  pools_small, repeats=1, seed=0, workdir=tmp_path)
        assert ledger_manifests(tmp_path) == [f"point{i:02d}_rep0.jsonl" for i in range(7)]


class TestMixRatio:
    def test_compose_from_stage_ratios(self):
        ratio = MixRatio.from_stage_ratios(2.42, 3.54)
        assert ratio.d1 == 1.0
        assert ratio.d2 == pytest.approx(2.5049, abs=1e-4)
        assert ratio.d3 == pytest.approx(1.0351, abs=1e-4)

    def test_counts_for_d1_base(self):
        counts = MixRatio(1.0, 2.50, 1.04).counts_for_d1_base(16000)
        assert counts == {"d1": 16000, "d2": 40000, "d3": 16640}

    def test_validation(self):
        with pytest.raises(ConfigError):
            MixRatio(0.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            MixRatio(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            MixRatio(0.0, 1.0, 1.0).counts_for_d1_base(100)


class TestCoarseSearch:
    def test_planted_recovery_small(self, tmp_path):
        pools = make_pools(342, 400, 400)
        doc = coarse_search(planted_oracle(), pools, workdir=tmp_path, seed=2, repeats=1)
        assert math.log10(doc["stage1"]["ratio"]) == pytest.approx(LOG_242, abs=1e-8)
        assert math.log10(doc["stage2"]["ratio"]) == pytest.approx(LOG_354, abs=1e-2)
        assert doc["mix_ratio"]["d1"] == 1.0

    def test_lambda_from_constant_losses(self, tmp_path, pools_small):
        oracle = ConstantOracle(loss_scoring=1.0, loss_interpreting=4.66)
        doc = coarse_search(oracle, pools_small, workdir=tmp_path, seed=0, repeats=1)
        assert doc["lambda_loss"] == 1.0 / 4.66
        assert doc["lambda_loss"] == pytest.approx(0.2146, abs=1e-4)

    def test_scale_invariance(self, tmp_path):
        # scoring_weight=1 keeps stage 2 a pure function of the realized
        # mixed:d1 ratio, so the recovered optimum is size-independent
        oracle = planted_oracle()
        small = coarse_search(oracle, make_pools(200, 300, 300), workdir=tmp_path / "small",
                              seed=4, repeats=1, scoring_weight=1.0)
        big = coarse_search(oracle, make_pools(1400, 2100, 2100), workdir=tmp_path / "big",
                            seed=4, repeats=1, scoring_weight=1.0)
        for key in ("stage1", "stage2"):
            assert math.log10(small[key]["ratio"]) == pytest.approx(
                math.log10(big[key]["ratio"]), abs=1e-9
            )

    def test_flat_oracle_warns_and_picks_lower_endpoint(self, tmp_path, pools_small, caplog):
        with caplog.at_level(logging.WARNING):
            doc = coarse_search(ConstantOracle(), pools_small, workdir=tmp_path, seed=0,
                                repeats=1)
        assert any("boundary" in m for m in caplog.messages)
        assert doc["stage1"]["ratio"] == pytest.approx(0.1, rel=0.05)

    def test_persisted_result_round_trips(self, tmp_path, pools_small):
        result = coarse_search(planted_oracle(), pools_small, workdir=tmp_path, seed=8,
                               repeats=1)
        doc = json.loads((tmp_path / "coarse_result.json").read_text())
        assert doc["tool_version"]
        assert len(doc["stage1"]["points"]) == 19
        weights, lambda_loss, _ = check_controls(doc, 3, 0.1, 1.1)
        assert lambda_loss == result["lambda_loss"]
        assert weights == MixRatio(**result["mix_ratio"])
        assert doc["stage1"]["curve"]["axis"] == doc["stage2"]["curve"]["axis"] == "log10"

    def test_returned_document_is_the_written_file(self, tmp_path, pools_small):
        doc = coarse_search(planted_oracle(), pools_small, workdir=tmp_path, seed=8, repeats=1)
        written = (tmp_path / "coarse_result.json").read_bytes()
        assert (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode() == written

    @pytest.mark.parametrize("fail_after", [4, 25, 38])  # stage 1, stage 2, confirmation
    def test_failed_search_leaves_no_result_and_removes_a_stale_one(
            self, tmp_path, pools_small, fail_after):
        coarse_search(planted_oracle(), pools_small, workdir=tmp_path, seed=0, repeats=1)
        oracle = FailingOracle(planted_oracle(), fail_after=fail_after)
        with pytest.raises(OracleError, match="injected"):
            coarse_search(oracle, pools_small, workdir=tmp_path, seed=0, repeats=1)
        assert oracle.calls == fail_after + 1
        assert not (tmp_path / "coarse_result.json").exists()

    def test_external_oracle_interchangeable(self, tmp_path, pools_small):
        # the search runs unchanged against the external-command adapter
        import sys
        import textwrap

        from iqmix.oracle import ExternalOracle

        script = tmp_path / "stub.py"
        script.write_text(textwrap.dedent("""
            import json, sys
            json.dump({"perf_scoring": 0.5, "perf_interpreting": 0.5,
                       "loss_scoring": 1.0, "loss_interpreting": 4.66},
                      open(sys.argv[3], "w"))
        """), encoding="utf-8")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        doc = coarse_search(oracle, pools_small, workdir=tmp_path, seed=0, repeats=1)
        assert doc["lambda_loss"] == 1.0 / 4.66
        assert len(doc["stage1"]["points"]) == 19
