import json
import math
import re

import pytest

from iqmix.controller import check_controls, decide, run_loop
from iqmix.errors import ConfigError, DataError, OracleError
from iqmix.mixopt import MixRatio, coarse_search
from iqmix.oracle import Ledger, OracleResponse, SyntheticOracle, ResponseSurface

from conftest import make_pools, planted_oracle

LAMBDA = 1.0 / 4.66


def coarse_stub(lambda_loss=LAMBDA, weights=(1.0, 2.50, 1.04)) -> dict:
    """The two fields of a coarse-result document that run_loop reads."""
    return {"mix_ratio": dict(zip(("d1", "d2", "d3"), weights)), "lambda_loss": lambda_loss}


class ScriptedOracle:
    """Returns scripted (loss_scoring, loss_interpreting) pairs per call."""

    def __init__(self, losses):
        self.losses = list(losses)
        self.calls = 0

    def evaluate(self, request):
        loss_s, loss_i = self.losses[min(self.calls, len(self.losses) - 1)]
        self.calls += 1
        return OracleResponse(0.5, 0.5, loss_s, loss_i)


class FailingAfter:
    def __init__(self, inner, good_calls):
        self.inner = inner
        self.good_calls = good_calls
        self.calls = 0

    def evaluate(self, request):
        self.calls += 1
        if self.calls > self.good_calls:
            raise OracleError("trainer crashed")
        return self.inner.evaluate(request)


class TestDecide:
    def test_low_ratio_grows_interpreting(self):
        # ratio 0.1 < 0.2146*0.9
        action, new_counts = decide(1.0 / 10.0, 0.2146, 0.1, 1.1,
                                    {"d1": 100, "d2": 242, "d3": 100}, 2.42)
        assert action == "increase_interpreting"
        assert new_counts["d1"] == 100
        assert new_counts["d2"] + new_counts["d3"] == 376  # 342*1.1

    def test_high_ratio_grows_scoring(self):
        # ratio 0.5 > 0.2146*1.1
        action, new_counts = decide(1.0 / 2.0, 0.2146, 0.1, 1.1,
                                    {"d1": 100, "d2": 242, "d3": 100}, 2.42)
        assert action == "increase_scoring"
        assert new_counts == {"d1": 110, "d2": 242, "d3": 100}

    def test_exact_lambda_holds(self):
        action, new_counts = decide(0.2146 / 1.0, 0.2146, 0.1, 1.1,
                                    {"d1": 10, "d2": 10, "d3": 10}, 1.0)
        assert action == "hold"
        assert new_counts == {"d1": 10, "d2": 10, "d3": 10}

    def test_band_edges_hold(self):
        lam, tol = 0.5, 0.1
        counts = {"d1": 10, "d2": 10, "d3": 10}
        at_lower = lam * (1 - tol) / 1.0
        at_upper = lam * (1 + tol) / 1.0
        assert decide(at_lower, lam, tol, 1.1, counts, 1.0)[0] == "hold"
        assert decide(at_upper, lam, tol, 1.1, counts, 1.0)[0] == "hold"

    def test_never_both_directions(self):
        counts = {"d1": 50, "d2": 100, "d3": 40}
        for loss_i in (0.5, 1.0, 2.0, 5.0, 20.0):
            action, new_counts = decide(1.0 / loss_i, 0.5, 0.1, 1.2, counts, 2.5)
            if action == "increase_scoring":
                assert (new_counts["d2"], new_counts["d3"]) == (100, 40)
            elif action == "increase_interpreting":
                assert new_counts["d1"] == 50

    def test_split_error_within_one_sample(self):
        counts = {"d1": 100, "d2": 242, "d3": 100}
        _, new_counts = decide(0.01 / 1.0, 0.5, 0.1, 1.7, counts, 2.42)
        total = new_counts["d2"] + new_counts["d3"]
        exact_d2 = total * 2.42 / 3.42
        assert abs(new_counts["d2"] - exact_d2) <= 1.0

    def test_round_half_up(self):
        counts = {"d1": 5, "d2": 0, "d3": 0}
        _, new_counts = decide(10.0 / 1.0, 0.5, 0.1, 1.1, counts, 1.0)
        assert new_counts["d1"] == 6  # 5.5 rounds up

    @pytest.mark.parametrize("rho,message", [
        (0.1, "D2+D3: count 5 times factor 1e+308 is past the float range"),
        (9.0, "D1: count 4 times factor 1e+308 is past the float range")],
        ids=["interpreting", "scoring"])
    def test_a_grown_count_past_the_float_range_is_a_data_error(self, rho, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            decide(rho, 1.0, 0.1, 1e308, {"d1": 4, "d2": 2, "d3": 3}, 1.0)

    def test_invalid_parameters(self):
        rho = 1.0
        counts = {"d1": 1, "d2": 1, "d3": 1}
        with pytest.raises(ConfigError):
            decide(rho, 0.0, 0.1, 1.1, counts, 1.0)
        with pytest.raises(ConfigError):
            decide(rho, 0.5, 1.0, 1.1, counts, 1.0)
        with pytest.raises(ConfigError):
            decide(rho, 0.5, 0.1, 1.0, counts, 1.0)
        with pytest.raises(ConfigError):
            decide(rho, 0.5, 0.1, 1.1, counts, 0.0)
        # a NaN or an infinity is rejected too
        for args in ((math.nan, 0.1, 1.1, 1.0), (math.inf, 0.1, 1.1, 1.0),
                     (0.5, math.nan, 1.1, 1.0),
                     (0.5, 0.1, math.nan, 1.0), (0.5, 0.1, math.inf, 1.0),
                     (0.5, 0.1, 1.1, math.nan), (0.5, 0.1, 1.1, math.inf)):
            lambda_loss, tolerance, factor, split = args
            with pytest.raises(ConfigError):
                decide(rho, lambda_loss, tolerance, factor, counts, split)


class TestCheckControls:
    def test_returns_weights_lambda_and_split(self):
        weights, lambda_loss, split = check_controls(
            {"mix_ratio": {"d1": 1, "d2": 3, "d3": 1.5}, "lambda_loss": 2}, 3, 0.1, 1.1)
        assert weights == MixRatio(1.0, 3.0, 1.5)
        assert (lambda_loss, split) == (2.0, 2.0)
        assert type(lambda_loss) is float

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5}, "lambda_loss": 0.25},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": "high"},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 1.04}, "lambda_loss": True},
        {"mix_ratio": {"d1": 1.0, "d2": "2.5", "d3": 1.04}, "lambda_loss": 0.25},
        {"mix_ratio": {"d1": 1.0, "d2": 2.5, "d3": 10 ** 400}, "lambda_loss": 0.25},
        {"mix_ratio": [1.0, 2.5, 1.04], "lambda_loss": 0.25},
    ])
    def test_document_fields_are_checked_first_as_data_errors(self, doc):
        # bad controls too: the document is checked before them
        with pytest.raises(DataError, match="malformed coarse result"):
            check_controls(doc, 0, 1.0, 1.0)

    def test_negative_weight_is_config_error_before_the_controls(self):
        doc = coarse_stub(weights=(1.0, -2.5, 1.04))
        with pytest.raises(ConfigError, match="mix weights must be finite and nonnegative"):
            check_controls(doc, 0, 1.0, 1.0)

    @pytest.mark.parametrize("controls,message", [
        ((0, 1.0, 1.0), "max_epochs must be >= 1, got 0"),
        ((3, 1.0, 1.0), "tolerance must be in"),
        ((3, 0.1, 1.0), "factor must be finite and > 1"),
    ])
    def test_controls_are_config_errors_in_order(self, controls, message):
        with pytest.raises(ConfigError, match=message):
            check_controls(coarse_stub(), *controls)


def convergent_oracle() -> SyntheticOracle:
    """Loss model whose epoch-1 ratio sits 20% above the reference band."""
    c_s = 1.2 * LAMBDA / math.sqrt(1770.0 / 500.0)
    return planted_oracle(loss_scale_scoring=c_s, loss_scale_interpreting=1.0,
                          loss_alpha=0.5)


class TestRunLoop:
    def test_convergence_matches_closed_form(self, tmp_path):
        pools = make_pools(500, 1500, 600)
        oracle = convergent_oracle()
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=3,
                          tolerance=0.1, factor=1.1, seed=7, workdir=tmp_path)
        # independent closed-form iteration of the loss model
        c_s = 1.2 * LAMBDA / math.sqrt(1770.0 / 500.0)
        d1, d23 = 500, 1770
        expected = []
        for _ in range(3):
            rho = (c_s * d1**-0.5) / (1.0 * d23**-0.5)
            if rho > LAMBDA * 1.1:
                action = "increase_scoring"
                d1_next = math.floor(1.1 * d1 + 0.5)
            elif rho < LAMBDA * 0.9:
                action = "increase_interpreting"
                d1_next = d1
            else:
                action = "hold"
                d1_next = d1
            expected.append((d1, rho, action))
            d1 = d1_next
        assert [(e["counts"]["d1"], e["ratio"], e["action"]) for e in epochs] == expected
        assert epochs[-1]["action"] == "hold"
        assert LAMBDA * 0.9 <= epochs[-1]["ratio"] <= LAMBDA * 1.1

    def test_takes_the_document_that_coarse_search_returns(self, tmp_path, pools_small):
        coarse = coarse_search(planted_oracle(), pools_small, workdir=tmp_path / "search",
                               seed=3, repeats=1)
        epochs = run_loop(convergent_oracle(), coarse, pools_small, max_epochs=2, seed=3,
                          workdir=tmp_path / "adjust")
        weights = MixRatio(**coarse["mix_ratio"])
        assert epochs[0]["counts"] == weights.counts_for_d1_base(len(pools_small.d1))
        header = json.loads((tmp_path / "adjust" / "trajectory.jsonl").read_text()
                            .splitlines()[0])
        assert header["lambda_loss"] == coarse["lambda_loss"]

    def test_constant_losses_hold_twice_and_stop(self, tmp_path):
        pools = make_pools(100, 300, 130)
        oracle = ScriptedOracle([(LAMBDA, 1.0)] * 10)
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=5,
                          seed=1, workdir=tmp_path)
        assert [e["action"] for e in epochs] == ["hold", "hold"]
        assert oracle.calls == 2

    def test_single_epoch(self, tmp_path):
        pools = make_pools(100, 300, 130)
        oracle = ScriptedOracle([(1.0, 1.0)])
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=1,
                          seed=1, workdir=tmp_path)
        assert len(epochs) == 1

    def test_counts_monotone_nondecreasing(self, tmp_path):
        pools = make_pools(120, 400, 170)
        # alternate directions: far below, far above, below, above...
        losses = [(0.01, 1.0), (5.0, 1.0)] * 4
        oracle = ScriptedOracle(losses)
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=8,
                          seed=3, workdir=tmp_path)
        for prev, cur in zip(epochs, epochs[1:]):
            for key in ("d1", "d2", "d3"):
                assert cur["counts"][key] >= prev["counts"][key]

    def test_epoch1_counts_are_coarse_ratio(self, tmp_path):
        pools = make_pools(200, 600, 250)
        oracle = ScriptedOracle([(LAMBDA, 1.0)])
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=1,
                          seed=0, workdir=tmp_path)
        assert epochs[0]["counts"] == {"d1": 200, "d2": 500, "d3": 208}

    def test_trajectory_file_format(self, tmp_path):
        pools = make_pools(100, 300, 130)
        oracle = ScriptedOracle([(LAMBDA, 1.0)] * 3)
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=3, seed=5,
                          workdir=tmp_path, coarse_ref="coarse.json")
        out = tmp_path / "trajectory.jsonl"
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["lambda_loss"] == LAMBDA
        assert lines[0]["tolerance"] == 0.1
        assert lines[0]["factor"] == 1.1
        assert lines[0]["seed"] == 5
        assert lines[0]["coarse_result"] == "coarse.json"
        assert [l["epoch"] for l in lines[1:]] == [1, 2]
        assert set(lines[1]["counts"]) == {"d1", "d2", "d3"}
        assert set(lines[1]["losses"]) == {"scoring", "interpreting"}
        assert len(epochs) == 2
        assert epochs[0]["action"] == "hold"

    def test_library_call_writes_the_returned_epochs(self, tmp_path):
        pools = make_pools(100, 300, 130)
        oracle = ScriptedOracle([(5.0, 1.0), (0.01, 1.0), (LAMBDA, 1.0)])
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=3, seed=5,
                          workdir=tmp_path)
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines[1:]] == epochs
        assert [list(json.loads(line)) for line in lines[1:]] == \
            [["epoch", "counts", "losses", "ratio", "action"]] * 3

    def test_rerun_byte_identical(self, tmp_path):
        pools = make_pools(150, 450, 190)
        oracle = convergent_oracle()
        paths = []
        for name in ("a", "b"):
            workdir = tmp_path / name
            run_loop(oracle, coarse_stub(), pools,
                     max_epochs=3, seed=11, workdir=workdir)
            paths.append(workdir / "trajectory.jsonl")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_an_epoch_reached_by_another_path_is_not_replayed(self, tmp_path):
        """Growing D1 and growing D2+D3 commute, so two runs into one ledger
        reach the same counts at epoch 3 by different paths; the trainer
        carries its state from epoch to epoch, so the second run's epoch 3
        must be trained, not answered with the first run's response."""

        class Trainer:  # the loss ratio scripted per epoch
            def __init__(self, ratios):
                self.ratios, self.calls = ratios, []

            def evaluate(self, request):
                self.calls.append(request.manifest_path.name)
                ratio = self.ratios[int(request.manifest_path.stem[-2:]) - 1]
                return OracleResponse(0.5, 0.5, ratio, 1.0)

        def run(lambda_loss, trainer):
            ledger = Ledger(trainer, tmp_path / "ledger.jsonl", ["ctx"])
            return run_loop(ledger, coarse_stub(lambda_loss, (1.0, 1.0, 1.0)),
                            make_pools(100, 100, 100), max_epochs=3, tolerance=0.1,
                            factor=1.1, workdir=tmp_path)

        a = Trainer([1.0, 0.3, 0.5])
        first = run(0.5, a)
        assert [e["action"] for e in first[:2]] == ["increase_scoring", "increase_interpreting"]
        assert first[2]["counts"] == {"d1": 110, "d2": 110, "d3": 110}
        b = Trainer([None, 3.0, 0.7])  # epoch 1 is replayed from run A
        epochs = run(2.0, b)
        assert [e["action"] for e in epochs[:2]] == ["increase_interpreting", "increase_scoring"]
        assert epochs[2]["counts"] == {"d1": 110, "d2": 110, "d3": 110}
        assert b.calls == ["epoch02.jsonl", "epoch03.jsonl"]
        assert epochs[2]["ratio"] == 0.7
        again = Trainer([9.0, 9.0, 9.0])  # a plain rerun of A replays every epoch
        assert run(0.5, again) == first
        assert again.calls == []

    def test_failure_persists_completed_epochs(self, tmp_path):
        pools = make_pools(100, 300, 130)
        oracle = FailingAfter(ScriptedOracle([(5.0, 1.0)] * 5), good_calls=2)
        with pytest.raises(OracleError, match="^trainer crashed$"):
            run_loop(oracle, coarse_stub(), pools, max_epochs=5, seed=2, workdir=tmp_path)
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 3  # header + two completed epochs
        assert json.loads(lines[-1])["epoch"] == 2

    def test_oversampling_engages_on_growth(self, tmp_path):
        # d1 pool of 100 with repeated increase_scoring pushes past pool size
        pools = make_pools(100, 400, 170)
        oracle = ScriptedOracle([(5.0, 1.0)] * 6)
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=6,
                          seed=4, workdir=tmp_path)
        assert epochs[-1]["counts"]["d1"] > 100

    def test_split_ratio_fallback_from_weights(self, tmp_path):
        coarse = coarse_stub(0.5, (1.0, 3.0, 1.0))
        pools = make_pools(100, 400, 150)
        oracle = ScriptedOracle([(0.001, 1.0)] * 2)  # far below: grow interpreting
        first, second = run_loop(oracle, coarse, pools, max_epochs=2, seed=6,
                                 workdir=tmp_path)
        grown_d2 = second["counts"]["d2"]
        total = second["counts"]["d2"] + second["counts"]["d3"]
        assert abs(grown_d2 - total * 0.75) <= 1.0  # split held at 3:1

    def test_split_follows_weights_not_stage1_ratio(self, tmp_path):
        # the stage-1 ratio 1.0 disagrees with the 3:1 weights; the weights win
        coarse = coarse_stub(0.5, (1.0, 3.0, 1.0))
        oracle = ScriptedOracle([(0.001, 1.0)] * 2)  # far below: grow interpreting
        first, second = run_loop(oracle, coarse, make_pools(100, 400, 150), max_epochs=2,
                                 seed=6, workdir=tmp_path)
        assert first["counts"] == {"d1": 100, "d2": 300, "d3": 100}
        assert second["counts"] == {"d1": 100, "d2": 330, "d3": 110}  # 440 split 3:1

    @pytest.mark.parametrize("weights,lambda_loss,controls", [
        ((1.0, 2.5, 1.04), math.nan, {}),
        ((1.0, 2.5, 1.04), math.inf, {}),
        ((1.0, 2.5, 1.04), -1.0, {}),
        ((1.0, 2.5, 1.04), LAMBDA, {"factor": 1.0}),
        ((1.0, 2.5, 1.04), LAMBDA, {"factor": math.inf}),
        ((1.0, 2.5, 1.04), LAMBDA, {"tolerance": 1.0}),
        ((1.0, 2.5, 0.0), LAMBDA, {}),
        ((1.0, 0.0, 1.04), LAMBDA, {}),
        ((1.0, -2.5, 1.04), LAMBDA, {}),
    ])
    def test_controls_checked_before_first_call(self, tmp_path, weights, lambda_loss,
                                                controls):
        coarse = coarse_stub(lambda_loss, weights)
        oracle = ScriptedOracle([(1.0, 1.0)])
        with pytest.raises(ConfigError):
            run_loop(oracle, coarse, make_pools(100, 300, 130), workdir=tmp_path, **controls)
        assert oracle.calls == 0
        assert not (tmp_path / "trajectory.jsonl").exists()
        assert not (tmp_path / "manifests").exists()

    def test_max_epochs_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            run_loop(ScriptedOracle([(1, 1)]), coarse_stub(), make_pools(10, 10, 10),
                     max_epochs=0, workdir=tmp_path)

    def test_external_oracle_interchangeable(self, tmp_path):
        # the epoch loop runs unchanged against the external-command adapter
        import sys
        import textwrap

        from iqmix.oracle import ExternalOracle

        script = tmp_path / "stub.py"
        script.write_text(textwrap.dedent(f"""
            import json, sys
            json.dump({{"perf_scoring": 0.5, "perf_interpreting": 0.5,
                        "loss_scoring": {LAMBDA!r}, "loss_interpreting": 1.0}},
                      open(sys.argv[3], "w"))
        """), encoding="utf-8")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        pools = make_pools(100, 300, 130)
        epochs = run_loop(oracle, coarse_stub(), pools, max_epochs=3,
                          seed=1, workdir=tmp_path)
        assert [e["action"] for e in epochs] == ["hold", "hold"]
