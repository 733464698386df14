import hashlib
import json
import math
import re
import sys
import textwrap

import numpy as np
import pytest

from iqmix.datasets import sample_mixture, write_manifest
from iqmix.errors import ConfigError, DataError, OracleError
from iqmix.oracle import (
    ExternalOracle,
    Ledger,
    OracleRequest,
    OracleResponse,
    ResponseSurface,
    SyntheticOracle,
    from_config,
    realized_axes,
)
from iqmix.util import file_digest

from conftest import make_pools, planted_oracle


def write_test_manifest(tmp_path, counts, seed=0, name="m.jsonl"):
    pools = make_pools(
        max(counts.get("d1", 0), 1), max(counts.get("d2", 0), 1), max(counts.get("d3", 0), 1)
    )
    manifest = sample_mixture(pools, counts, seed, with_replacement=True)
    path = tmp_path / name
    write_manifest(manifest, path)
    return path


class TestOracleResponse:
    def test_valid(self):
        OracleResponse(0.5, 0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(perf_scoring=1.5, perf_interpreting=0.5, loss_scoring=1, loss_interpreting=1),
            dict(perf_scoring=0.5, perf_interpreting=-0.1, loss_scoring=1, loss_interpreting=1),
            dict(perf_scoring=0.5, perf_interpreting=0.5, loss_scoring=0, loss_interpreting=1),
            dict(perf_scoring=0.5, perf_interpreting=0.5, loss_scoring=1, loss_interpreting=-2),
        ],
    )
    def test_out_of_range(self, kwargs):
        with pytest.raises(DataError):
            OracleResponse(**kwargs)


class TestRealizedAxes:
    def test_exact_ratios(self):
        t_d2d3, t_mix = realized_axes({"d1": 100, "d2": 242, "d3": 100})
        assert t_d2d3 == math.log10(2.42)
        assert t_mix == math.log10(342 / 100)

    def test_zero_floors(self):
        t_d2d3, t_mix = realized_axes({"d1": 0, "d2": 50, "d3": 25})
        assert t_d2d3 == math.log10(2.0)
        assert t_mix == math.log10(75.0)


class TestResponseSurface:
    def test_peak_value_at_plant(self):
        surface = ResponseSurface(2.42, 0.75, 0.25)
        assert surface.value(math.log10(2.42)) == 0.75

    def test_concave_falloff(self):
        surface = ResponseSurface(1.0, 0.8, 0.3, quartic=0.1)
        assert surface.value(0.0) == 0.8
        assert surface.value(0.5) < 0.8
        assert surface.value(-0.5) == surface.value(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResponseSurface(-1.0, 0.5, 0.1)
        with pytest.raises(ConfigError):
            ResponseSurface(1.0, 0.5, -0.1)

    @pytest.mark.parametrize("key", ["peak_ratio", "peak_value", "curvature", "quartic"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_term_is_config_error_naming_it(self, key, value):
        terms = {"peak_ratio": 2.0, "peak_value": 0.5, "curvature": 0.1, "quartic": 0.0}
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value!r}$"):
            ResponseSurface(**{**terms, key: value})
        with pytest.raises(ConfigError, match=f"^oracle.s.{key} must be finite"):
            from_config(ResponseSurface, {**terms, key: value}, "oracle.s")

    def test_from_config(self):
        surface = from_config(
            ResponseSurface, {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25}
        )
        assert surface.quartic == 0.0
        with pytest.raises(ConfigError):
            from_config(ResponseSurface, {"peak_ratio": 1.0})


class TestSyntheticOracle:
    def test_peak_evaluation(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 0, "d2": 242, "d3": 100})
        response = planted_oracle().evaluate(OracleRequest(path, 0, file_digest(path)))
        assert response.perf_interpreting == 0.75

    def test_deterministic(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 50, "d2": 100, "d3": 50})
        request = OracleRequest(path, 1234, file_digest(path))
        first = planted_oracle(noise_sigma=0.02).evaluate(request)
        second = planted_oracle(noise_sigma=0.02).evaluate(request)
        assert first == second

    def test_noisy_response_is_pinned(self, tmp_path):
        # Box-Muller over two keys of the stream (1234, "noise"): a change of
        # the draw rule moves these floats
        path = write_test_manifest(tmp_path, {"d1": 50, "d2": 100, "d3": 50})
        response = planted_oracle(noise_sigma=0.02).evaluate(
            OracleRequest(path, 1234, file_digest(path)))
        assert (response.perf_scoring, response.perf_interpreting) == (
            0.8536013914793608, 0.7608268158844959)
        assert response.loss_scoring == planted_oracle().evaluate(
            OracleRequest(path, 1234, file_digest(path))).loss_scoring

    def test_noise_is_unbiased_with_its_sigma_and_uncorrelated(self, tmp_path):
        sigma, n = 0.01, 2000
        path = write_test_manifest(tmp_path, {"d1": 100, "d2": 242, "d3": 100})
        base = planted_oracle().evaluate(OracleRequest(path, 0, file_digest(path)))
        noisy = planted_oracle(noise_sigma=sigma)
        draws = np.array([
            [response.perf_scoring - base.perf_scoring,
             response.perf_interpreting - base.perf_interpreting]
            for response in (noisy.evaluate(OracleRequest(path, seed, file_digest(path)))
                             for seed in range(n))])
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * sigma / math.sqrt(n))
        assert np.all(np.abs(draws.std(axis=0) / sigma - 1) <= 0.1)
        assert abs(np.corrcoef(draws.T)[0, 1]) <= 4 / math.sqrt(n)

    def test_noise_mean_within_standard_error(self, tmp_path):
        sigma = 0.01
        oracle = planted_oracle(noise_sigma=sigma)
        path = write_test_manifest(tmp_path, {"d1": 0, "d2": 242, "d3": 100})
        values = [
            oracle.evaluate(OracleRequest(path, seed, file_digest(path))).perf_interpreting
            for seed in (101, 202, 303)
        ]
        assert abs(float(np.mean(values)) - 0.75) <= 3 * sigma / math.sqrt(3)

    def test_loss_model_exact(self, tmp_path):
        oracle = planted_oracle(loss_scale_scoring=30.0, loss_scale_interpreting=12.0,
                                loss_alpha=0.5)
        path = write_test_manifest(tmp_path, {"d1": 400, "d2": 100, "d3": 44})
        response = oracle.evaluate(OracleRequest(path, 0, file_digest(path)))
        assert response.loss_scoring == 30.0 * 400 ** -0.5
        assert response.loss_interpreting == 12.0 * 144 ** -0.5

    def test_no_d1_floors_loss(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 0, "d2": 100, "d3": 100})
        response = planted_oracle().evaluate(OracleRequest(path, 0, file_digest(path)))
        assert response.loss_scoring == 30.0

    def test_performance_clamped_to_range(self, tmp_path):
        oracle = planted_oracle(
            interpreting_surface=ResponseSurface(100.0, 0.5, 5.0)  # peak far away
        )
        path = write_test_manifest(tmp_path, {"d1": 0, "d2": 10, "d3": 100})
        response = oracle.evaluate(OracleRequest(path, 0, file_digest(path)))
        assert response.perf_interpreting == 0.0

    def test_config_from_dict(self):
        oracle = SyntheticOracle.from_dict(
            {
                "scoring_surface": {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25},
                "interpreting_surface": {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25},
                "noise_sigma": 0.01,
            }
        )
        assert oracle.loss_alpha == 0.5
        assert oracle == planted_oracle(noise_sigma=0.01)
        with pytest.raises(ConfigError):
            SyntheticOracle.from_dict({})

    @pytest.mark.parametrize("key", ["noise_sigma", "loss_alpha", "loss_scale_scoring",
                                     "loss_scale_interpreting"])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_direct_construction_checks_every_setting(self, key, value):
        kind = "finite and >= 0" if key == "noise_sigma" else "finite and > 0"
        with pytest.raises(ConfigError, match=re.escape(f"oracle.{key} must be {kind}, got")):
            planted_oracle(**{key: value})


STUB = textwrap.dedent("""
    import json, os, sys
    manifest, seed, out = sys.argv[1:4]
    payload = {
        "perf_scoring": float(os.environ.get("STUB_PERF", "0.5")),
        "perf_interpreting": 0.6,
        "loss_scoring": float(seed) + 1.0,
        "loss_interpreting": 4.66,
    }
    json.dump(payload, open(out, "w"))
""")


@pytest.fixture
def stub_command(tmp_path):
    script = tmp_path / "stub.py"
    script.write_text(STUB, encoding="utf-8")
    return f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"


class TestExternalOracle:
    def test_round_trip(self, tmp_path, stub_command):
        path = write_test_manifest(tmp_path, {"d1": 5, "d2": 5, "d3": 5})
        response = ExternalOracle(stub_command).evaluate(OracleRequest(path, 7, file_digest(path)))
        assert response.perf_scoring == 0.5
        assert response.loss_scoring == 8.0  # seed placeholder reached the command
        assert response.loss_interpreting == 4.66

    def test_env_passthrough(self, tmp_path, stub_command):
        path = write_test_manifest(tmp_path, {"d1": 5, "d2": 5, "d3": 5})
        oracle = ExternalOracle(stub_command, env={"STUB_PERF": "0.25"})
        assert oracle.evaluate(OracleRequest(path, 0, file_digest(path))).perf_scoring == 0.25

    def test_nonzero_exit_captures_output(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text("import sys; print('boom', file=sys.stderr); sys.exit(3)")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match=r"^oracle command exited 3: .*\nstderr: boom$"):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_timeout(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text("import time; time.sleep(30)")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}",
            timeout=0.4,
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match="^oracle command timed out after 0.4s: "):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_missing_result_file(self, tmp_path):
        script = tmp_path / "noop.py"
        script.write_text("pass")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match="^oracle result file missing: .*m.jsonl.result.json"):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_stale_result_is_never_read(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        stale = tmp_path / "m.jsonl.result.json"
        stale.write_text(json.dumps({"perf_scoring": 0.5, "perf_interpreting": 0.5,
                                     "loss_scoring": 1.0, "loss_interpreting": 1.0}))
        oracle = ExternalOracle(command=f"{sys.executable} -c pass {{out}}")
        with pytest.raises(OracleError, match="^oracle result file missing: "):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))
        assert not stale.exists()

    @pytest.mark.parametrize(
        "payload,needle",
        [
            ({"perf_scoring": 0.5, "perf_interpreting": 0.5,
              "loss_scoring": -1.0, "loss_interpreting": 1.0}, "loss_scoring"),
            ({"perf_scoring": 0.5}, "missing fields"),
            ({"perf_scoring": "high", "perf_interpreting": 0.5,
              "loss_scoring": 1.0, "loss_interpreting": 1.0}, "non-numeric"),
        ],
    )
    def test_invalid_result_file(self, tmp_path, payload, needle):
        script = tmp_path / "bad.py"
        script.write_text(
            "import json, sys\njson.dump(%r, open(sys.argv[3], 'w'))" % (payload,)
        )
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match=f"m.jsonl.result.json: .*{needle}"):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_unparsable_result_file(self, tmp_path):
        script = tmp_path / "garbage.py"
        script.write_text("import sys\nopen(sys.argv[3], 'w').write('{nope')")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match="^unreadable oracle result .*m.jsonl.result.json: "):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_result_file_that_is_not_utf8(self, tmp_path):
        script = tmp_path / "garbage.py"
        script.write_text("import sys\nopen(sys.argv[3], 'wb').write(b'{\"x\": \"\\xff\"}')")
        oracle = ExternalOracle(
            command=f"{sys.executable} {script} {{manifest}} {{seed}} {{out}}"
        )
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        with pytest.raises(OracleError, match="unreadable oracle result .*utf-8"):
            oracle.evaluate(OracleRequest(path, 0, file_digest(path)))

    def test_command_must_reference_out(self):
        with pytest.raises(ConfigError):
            ExternalOracle(command="trainer --manifest {manifest}")

    def test_config_from_dict(self):
        oracle = ExternalOracle.from_dict(
            {"command": "run {manifest} {seed} {out}", "timeout": 60}
        )
        assert oracle.timeout == 60.0
        with pytest.raises(ConfigError):
            ExternalOracle.from_dict({})

    def test_oracle_object_reusable(self, tmp_path, stub_command):
        oracle = ExternalOracle(stub_command)
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        first = oracle.evaluate(OracleRequest(path, 1, file_digest(path)))
        second = oracle.evaluate(OracleRequest(path, 1, file_digest(path)))
        assert first == second


SURFACE = {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25}


@pytest.mark.parametrize("cls,section,key", [
    (ExternalOracle, {"command": "run {out}", "max_parallel": 2}, "oracle.max_parallel"),
    (SyntheticOracle, {"scoring_surface": {**SURFACE, "kind": "synthetic"},
                       "interpreting_surface": SURFACE}, "oracle.scoring_surface.kind"),
    (SyntheticOracle, {"scoring_surface": SURFACE, "interpreting_surface": SURFACE,
                       "noise_sigm": 0.5}, "oracle.noise_sigm"),
    (SyntheticOracle, {"scoring_surface": SURFACE,
                       "interpreting_surface": {**SURFACE, "curvatur": 9}},
     "oracle.interpreting_surface.curvatur"),
])
def test_a_key_that_is_no_field_is_a_config_error_naming_it(cls, section, key):
    with pytest.raises(ConfigError, match=f"^unknown key {re.escape(repr(key))}$"):
        cls.from_dict(section)


class RecordingOracle:
    """Returns a fixed response and records the positional arguments of
    each call (a tracer wrapping evaluate reads the request as args[1])."""

    def __init__(self, response=OracleResponse(0.5, 0.25, 1.0, 2.0)):
        self.response = response
        self.calls = []

    def evaluate(self, *args):
        self.calls.append(args)
        return self.response


class TestLedger:
    def test_key_is_the_documented_digest(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        Ledger(RecordingOracle(), tmp_path / "ledger.jsonl", ["a", "b"]).evaluate(
            OracleRequest(path, 7, file_digest(path)))
        record = json.loads((tmp_path / "ledger.jsonl").read_text())
        manifest = hashlib.sha256(path.read_bytes()).hexdigest()
        key = hashlib.sha256(json.dumps(["a", "b", manifest, 7]).encode()).hexdigest()
        assert record == {"key": key, "manifest": "m.jsonl", "seed": 7,
                          "response": {"perf_scoring": 0.5, "perf_interpreting": 0.25,
                                       "loss_scoring": 1.0, "loss_interpreting": 2.0}}

    def test_hit_replays_and_miss_calls_with_the_request_positionally(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        inner = RecordingOracle()
        first = Ledger(inner, tmp_path / "ledger.jsonl", ["ctx"])
        request = OracleRequest(path, 1, file_digest(path))
        assert first.evaluate(request) == inner.response
        assert inner.calls == [(request,)]
        again = RecordingOracle(OracleResponse(0.1, 0.1, 9.0, 9.0))
        replayed = Ledger(again, tmp_path / "ledger.jsonl", ["ctx"])
        assert replayed.evaluate(request) == inner.response
        assert replayed.evaluate(OracleRequest(path, 1, file_digest(path))) == inner.response
        assert again.calls == []
        # another seed, or another context, is another call
        assert replayed.evaluate(OracleRequest(path, 2, file_digest(path))) == again.response
        other = Ledger(again, tmp_path / "ledger.jsonl", ["other"])
        assert other.evaluate(request) == again.response
        assert len(again.calls) == 2

    def test_first_record_of_a_key_wins(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})
        ledger = tmp_path / "ledger.jsonl"
        request = OracleRequest(path, 1, file_digest(path))
        Ledger(RecordingOracle(), ledger, ["ctx"]).evaluate(request)
        record = json.loads(ledger.read_text())
        record["response"]["perf_scoring"] = -0.5
        with open(ledger, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        response = Ledger(RecordingOracle(), ledger, ["ctx"]).evaluate(request)
        assert response.perf_scoring == 0.5

    def test_failed_call_records_nothing(self, tmp_path):
        path = write_test_manifest(tmp_path, {"d1": 2, "d2": 2, "d3": 2})

        class Failing:
            def evaluate(self, request):
                raise OracleError("trainer died")

        with pytest.raises(OracleError, match="^trainer died$"):
            Ledger(Failing(), tmp_path / "ledger.jsonl", ["ctx"]).evaluate(
                OracleRequest(path, 1, file_digest(path)))
        assert (tmp_path / "ledger.jsonl").read_text() == ""

    @pytest.mark.parametrize("response,message", [
        ({"perf_scoring": 0.5, "perf_interpreting": 0.5, "loss_scoring": 0.0,
          "loss_interpreting": 1.0}, "loss_scoring must be a positive real"),
        ({"perf_scoring": 0.5, "perf_interpreting": 0.5, "loss_scoring": 10 ** 400,
          "loss_interpreting": 1.0}, "non-numeric result field"),
        ({"perf_scoring": "x", "perf_interpreting": 0.5, "loss_scoring": 1.0,
          "loss_interpreting": 1.0}, "non-numeric result field"),
        ({"perf_scoring": 0.5, "perf_interpreting": "0.5", "loss_scoring": 1.0,
          "loss_interpreting": 1.0}, "non-numeric result field"),
        ({"perf_scoring": 0.5, "perf_interpreting": 0.5, "loss_scoring": True,
          "loss_interpreting": 1.0}, "non-numeric result field"),
    ])
    def test_bad_recorded_value_is_data_error(self, tmp_path, response, message):
        ledger = tmp_path / "ledger.jsonl"
        good = json.dumps({"key": "k0", "response": RecordingOracle().response.__dict__})
        ledger.write_text(good + "\n" + json.dumps({"key": "k1", "response": response}) + "\n")
        where = re.escape(f"{ledger}: line 2: bad ledger record")
        with pytest.raises(DataError, match=f"^{where} .*{message}"):
            Ledger(RecordingOracle(), ledger, ["ctx"])
