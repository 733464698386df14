"""The benchmark's four workloads: seeded inputs, the iqmix CLI calls of one
iteration, and the checks on their outputs.

Inputs are made with the standard library from the benchmark seed; iqmix only
sees the generated files. Generation and reference computations run before
timing starts and count toward no metric. Every CLI call runs in a fresh
child process (`child.py`), one after another: a closed loop with one client.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
STUB = HERE / "oracle_stub.py"
CALL_TIMEOUT_S = 150

# Pool sizes (d1, d2, d3) or MOS/logit rows. D1 sizes for the searches are
# multiples of 1710, so every stage-2 mixed count splits at 2.42 exactly and
# the planted optimum is recovered to 1e-6, as in acceptance criterion 06.
SIZES = {
    "full": {"iqa-eval": 100_000, "mix-search": (5130, 10_000, 15_000),
             "mix-adjust": (20_000, 150_000, 300_000), "search-resume": (1710, 2000, 2000)},
    "smoke": {"iqa-eval": 3000, "mix-search": (1710, 2000, 2000),
              "mix-adjust": (1000, 4000, 8000), "search-resume": (1710, 2000, 2000)},
}

SCORING_SURFACE = {"peak_ratio": 3.54, "peak_value": 0.85, "curvature": 0.25}
INTERPRETING_SURFACE = {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25}
LOSS_MODEL = {"loss_alpha": 0.5, "loss_scale_scoring": 30.0, "loss_scale_interpreting": 30.0}
PLANTED_RATIO = (1.00, 2.50, 1.04)  # d1:d2:d3 composed from the two planted peaks
LEVELS = ("bad", "poor", "fair", "good", "excellent")
SYSTEM_PREFIX = "Assume you are an image quality evaluator"
WORDS = (
    "image photo scene light noise blur sharp color detail edge texture contrast "
    "exposure shadow bright dark focus grain motion lens sky tree person street "
    "water building the a is of in with and slightly very clear soft strong "
    "visible background foreground subject left right top bottom center red "
    "green blue white black small large old new two three several some"
).split()


# Running CLI calls ----------------------------------------------------------

# A fixed standard-library program that never touches iqmix: it writes,
# reads and parses 20k JSON lines, then loops. Timed from spawn to exit next
# to every iteration, it tracks how fast the machine runs at that moment, not
# the code under test.
REFERENCE_PROGRAM = """
import json, sys
with open(sys.argv[1], "w") as out:
    for i in range(20000):
        out.write(json.dumps({"id": "r%d" % i, "v": i * 0.5, "tags": ["a", "b"]}) + "\\n")
with open(sys.argv[1]) as src:
    rows = [json.loads(line) for line in src]
total = sum(i * i % 7 for i in range(100000))
"""


def reference_s(scratch: Path, samples: int = 3) -> float:
    """Median time of a few runs of REFERENCE_PROGRAM."""
    times = []
    for _ in range(samples):
        start = time.monotonic()
        subprocess.run([sys.executable, "-S", "-c", REFERENCE_PROGRAM, str(scratch)], check=True)
        times.append(time.monotonic() - start)
    return sorted(times)[samples // 2]


@dataclass
class CliCall:
    """One iqmix CLI call: what it cost and whether its output checked out."""

    argv: list[str]
    expect_rc: int
    rc: int | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mib: float = 0.0
    stdout: str = ""
    stderr: str = ""
    spans: list = field(default_factory=list)
    oracle_keys: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != self.expect_rc or bool(self.problems)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


class Cli:
    """Spawns `child.py` for each call; reports land in `tmp`."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.count = 0
        # IQMIX_* variables would change flag defaults under the benchmark.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("IQMIX_")}

    def __call__(self, argv, *, expect_rc: int = 0, traced: bool = False) -> CliCall:
        self.count += 1
        base = self.tmp / f"call{self.count}"
        call = CliCall([str(a) for a in argv], expect_rc)
        report = base.with_suffix(".json")
        with open(base.with_suffix(".out"), "w") as out, open(base.with_suffix(".err"), "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(report), repr(start), str(int(traced)), *call.argv],
                stdout=out, stderr=err, env=self.env, start_new_session=True,
            )
            try:
                proc.wait(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                call.problems.append(f"timed out after {CALL_TIMEOUT_S}s")
            call.wall_s = time.monotonic() - start
        call.stdout = base.with_suffix(".out").read_text()
        call.stderr = base.with_suffix(".err").read_text()
        try:
            doc = json.loads(report.read_text())
        except (OSError, ValueError):
            call.rc = proc.returncode
            call.problems.append(f"no report from child: {call.stderr.strip()[-500:]}")
            return call
        call.rc, call.setup_s, call.spans = doc["rc"], doc["setup_s"], doc["spans"]
        call.peak_rss_mib = doc["peak_rss_kib"] / 1024
        # Key completed oracle calls by manifest bytes now, before a later
        # call can rewrite the manifest.
        for span in call.spans:
            if span[1] == "oracle.evaluate" and not span[7]["failures"]:
                path, seed = span[7]["request"]
                call.oracle_keys.append((file_digest(Path(path)), seed))
        if call.rc != expect_rc:
            call.problems.append(f"exit {call.rc}, expected {expect_rc}: {call.stderr.strip()[-500:]}")
        return call


# Workload-specific figures, printed in the report but not in the JSON result.
EXTRA_UNITS = {"convert_rps": "records/s", "score_rps": "records/s",
               "eval_iqa_rps": "records/s", "eval_iqa_logistic_rps": "records/s",
               "oracle_calls": "count", "rerun_s": "s"}


@dataclass
class Iteration:
    calls: list[CliCall]
    extra: dict[str, float] = field(default_factory=dict)  # keyed as EXTRA_UNITS

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def peak_rss_mib(self) -> float:
        return max(c.peak_rss_mib for c in self.calls)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, pattern: str) -> tuple[int, str]:
    digest = hashlib.sha256()
    files = sorted(root.rglob(pattern))
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return len(files), digest.hexdigest()


# Input generation -------------------------------------------------------------


def _sync(handle) -> None:
    """Flush generated inputs to disk now, so their writeback does not land
    in a timed iteration."""
    handle.flush()
    os.fsync(handle.fileno())


def _sentences(rng: random.Random, count: int) -> list[str]:
    return [" ".join(rng.choice(WORDS) for _ in range(rng.randint(6, 24)))
            for _ in range(count)]


def _turns(turns) -> str:
    return ", ".join(f'{{"from": "human", "value": "{q}"}}, {{"from": "gpt", "value": "{a}"}}'
                     for q, a in turns)


def write_pool(path: Path, tag: str, n: int, rng: random.Random) -> None:
    """A conversational pool; D1 carries the scoring system prefix, and one
    D2/D3 record in eight has a follow-up turn."""
    bank = _sentences(rng, 2048)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            head = f'{{"id": "{tag}-{i:07d}", "image": "{tag}/{i:07d}.jpg", '
            if tag == "d1":
                answer = f"The quality of the image is {rng.choice(LEVELS)}."
                turns = [("<img> How would you rate the quality of the image.", answer)]
                head += f'"system": "{SYSTEM_PREFIX}", '
            else:
                turns = [(f"<img> {rng.choice(bank)}?", rng.choice(bank) + ".")]
                if rng.random() < 0.125:
                    turns.append((rng.choice(bank) + "?", rng.choice(bank) + "."))
            handle.write(f'{head}"conversations": [{_turns(turns)}]}}\n')
        _sync(handle)


def _logit_line(item_id, values) -> str:
    body = ", ".join(f'"{label}": {v!r}' for label, v in zip(LEVELS, values))
    return f'{{"id": {item_id}, "logits": {{{body}}}}}'


def write_iqa_inputs(work: Path, n: int, rng: random.Random) -> dict:
    """MOS rows on [0, 100] rounded to 2 decimals (so SRCC sees ties) and one
    five-level logit line per item. 1% of the logit ids are absent from the
    MOS file and 0.1% of the logit lines are malformed.

    The logits peak at a level that grows with the logit of the MOS, so MOS
    follows the predicted score along an S-curve, the shape the
    four-parameter logistic of `eval-iqa --logistic` is meant to fit."""
    ids = [f"koniq_{i:06d}" for i in range(n)]
    mos = [round(min(100.0, max(0.0, rng.gauss(58.0, 17.0))), 2) for _ in ids]
    with open(work / "mos.csv", "w", encoding="utf-8") as handle:
        handle.write("image_id,mos\n")
        handle.writelines(f"{i},{m!r}\n" for i, m in zip(ids, mos))
        _sync(handle)

    unknown = set(rng.sample(range(n), n // 100))
    malformed = set(rng.sample(range(n), max(1, n // 1000)))
    valid: list[tuple[str, tuple[float, ...]]] = []
    with open(work / "logits.jsonl", "w", encoding="utf-8") as handle:
        for i in range(n):
            m = rng.uniform(0, 100) if i in unknown else mos[i]
            center = 3.0 + 0.8 * math.log((m + 1.0) / (101.0 - m))
            values = tuple(round(-1.2 * (k - center) ** 2 + rng.gauss(0.0, 0.6), 4)
                           for k in range(1, 6))
            item_id = f"extra_{i:06d}" if i in unknown else ids[i]
            if i in malformed:
                kind = i % 4
                if kind == 0:
                    line = _logit_line(f'"{item_id}"', values)[:40]
                elif kind == 1:
                    line = _logit_line(f'"{item_id}"', values[:4])
                elif kind == 2:
                    line = _logit_line(f'"{item_id}"', values).replace('"fair": ', '"fair": "high", "x": ')
                else:
                    line = _logit_line(str(i), values)
            else:
                line = _logit_line(f'"{item_id}"', values)
                valid.append((item_id, values))
            handle.write(line + "\n")
        _sync(handle)
    return {"mos": dict(zip(ids, mos)), "valid": valid,
            "malformed_lines": {i + 1 for i in malformed}}


def reference_score(values) -> float:
    top = max(values)
    weights = [math.exp(v - top) for v in values]
    total = sum(weights)
    return sum((k + 1) * w / total for k, w in enumerate(weights))


# Workloads ----------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, size, cli: Cli):
        self.work, self.seed, self.size, self.cli = work, seed, size, cli
        self.rng = random.Random(f"{self.name}:{seed}")
        self.problems: list[str] = []  # found while preparing: the run is not correct
        self._first: dict[str, object] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def iteration(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def stable(self, call: CliCall, what: str, value) -> bool:
        """Outputs must be byte-identical across iterations."""
        first = self._first.setdefault(what, value)
        return call.check(first == value, f"{what} differs from the first iteration")

    def first_time(self, what: str) -> bool:
        return what not in self._first

    def write_config(self, name: str, oracle: dict, **extra) -> Path:
        d1, d2, d3 = (self.work / f"{tag}.jsonl" for tag in ("d1", "d2", "d3"))
        conf = {"pools": {"d1": str(d1), "d2": str(d2), "d3": str(d3)},
                "oracle": oracle, "seed": self.seed, **extra}
        path = self.work / name
        path.write_text(json.dumps(conf, indent=2), encoding="utf-8")  # JSON is YAML
        return path

    def write_pools(self) -> None:
        for tag, n in zip(("d1", "d2", "d3"), self.size):
            write_pool(self.work / f"{tag}.jsonl", tag, n, self.rng)

    @staticmethod
    def synthetic_oracle() -> dict:
        return {"kind": "synthetic", "scoring_surface": SCORING_SURFACE,
                "interpreting_surface": INTERPRETING_SURFACE, "noise_sigma": 0.0,
                **LOSS_MODEL}


class IqaEval(Workload):
    """convert -> score -> eval-iqa -> eval-iqa --logistic on 100k records."""

    name = "iqa-eval"

    def prepare(self) -> None:
        self.inputs = write_iqa_inputs(self.work, self.size, self.rng)
        sys.path.insert(0, str(SRC))
        import numpy as np
        from iqmix.levels import LevelScale, quantize_scores

        levels = quantize_scores(list(self.inputs["mos"].values()), LevelScale(0, 100))
        self.histogram = dict(zip(LEVELS, (int(c) for c in np.bincount(levels, minlength=6)[1:])))
        self.reference: dict | None = None

    def iteration(self, traced: bool) -> Iteration:
        mos, logits = self.work / "mos.csv", self.work / "logits.jsonl"
        d1, scores = self.work / "d1.jsonl", self.work / "scores.jsonl"
        for path in (d1, scores):
            path.unlink(missing_ok=True)
        convert = self.cli(["convert", mos, "--scale-min", "0", "--scale-max", "100",
                            "--out", d1], traced=traced)
        self.check_convert(convert, d1)
        score = self.cli(["score", logits, "--out", scores], traced=traced)
        self.check_score(score, scores)
        evals = [self.cli(["eval-iqa", scores, mos, "--format", "json", *flag], traced=traced)
                 for flag in ([], ["--logistic"])]
        for call in evals:
            self.check_eval(call)
        n, valid = self.size, len(self.inputs["valid"])
        return Iteration([convert, score, *evals], {
            "convert_rps": n / convert.wall_s,
            "score_rps": n / score.wall_s,
            "eval_iqa_rps": valid / evals[0].wall_s,
            "eval_iqa_logistic_rps": valid / evals[1].wall_s,
        })

    def check_convert(self, call: CliCall, d1: Path) -> None:
        if call.rc != 0:
            return
        got = {m.group(1): int(m.group(2))
               for m in re.finditer(r"^  (\w+) +(\d+)$", call.stdout, re.M)}
        call.check(got == self.histogram, f"histogram {got} != quantize_scores {self.histogram}")
        if self.first_time("d1.jsonl"):
            lines = d1.read_text(encoding="utf-8").splitlines()
            call.check(len(lines) == self.size, f"{len(lines)} D1 pairs for {self.size} rows")
            call.check(all(SYSTEM_PREFIX in line for line in lines), "D1 pair without system prefix")
        self.stable(call, "d1.jsonl", file_digest(d1))

    def check_score(self, call: CliCall, scores: Path) -> None:
        if call.rc != 0:
            return
        planted = self.inputs["malformed_lines"]
        reported = {int(m.group(1)) for m in re.finditer(r"^line (\d+): ", call.stderr, re.M)}
        call.check(reported == planted, f"diagnostics on lines {sorted(reported ^ planted)[:5]} "
                                        "differ from the planted ones")
        call.check(f"{len(planted)} malformed record(s) skipped" in call.stderr,
                   "diagnostic count missing from stderr")
        if self.first_time("scores.jsonl"):
            rows = [json.loads(line) for line in scores.read_text(encoding="utf-8").splitlines()]
            valid = self.inputs["valid"]
            ok = call.check([r["id"] for r in rows] == [v[0] for v in valid],
                            "scores file does not hold exactly the valid lines, in order")
            bad = [r["id"] for r, (_, values) in zip(rows, valid)
                   if abs(r["score"] - reference_score(values)) > 1e-9]
            ok &= call.check(not bad, f"{len(bad)} scores differ from the softmax reference")
            if ok:
                self.reference = self._correlations(rows)
        self.stable(call, "scores.jsonl", file_digest(scores))

    def _correlations(self, rows) -> dict:
        from scipy import stats

        mos = self.inputs["mos"]
        joined = [(r["score"], mos[r["id"]]) for r in rows if r["id"] in mos]
        x, y = zip(*joined)
        return {"count": len(joined), "srcc": float(stats.spearmanr(x, y)[0]),
                "plcc": float(stats.pearsonr(x, y)[0])}

    def check_eval(self, call: CliCall) -> None:
        if call.rc != 0:
            return
        if not call.check(self.reference is not None, "no reference: score output was wrong"):
            return
        try:
            doc = json.loads(call.stdout)
        except ValueError:
            call.check(False, "eval-iqa printed no JSON report")
            return
        ref = self.reference
        call.check(doc["count"] == ref["count"], f"joined {doc['count']} ids, expected {ref['count']}")
        call.check(abs(doc["srcc"] - ref["srcc"]) <= 1e-9, f"srcc {doc['srcc']} != scipy {ref['srcc']}")
        if "--logistic" in call.argv:
            call.check(-1.0 <= doc["plcc"] <= 1.0, f"logistic plcc {doc['plcc']} outside [-1, 1]")
            self.stable(call, "logistic plcc", doc["plcc"])
        else:
            call.check(abs(doc["plcc"] - ref["plcc"]) <= 1e-9, f"plcc {doc['plcc']} != scipy {ref['plcc']}")


class MixSearch(Workload):
    """mix-search with the synthetic oracle: 39 manifests written and scored."""

    name = "mix-search"

    def prepare(self) -> None:
        self.write_pools()
        self.config = self.write_config("search.yaml", self.synthetic_oracle(), repeats=1, jobs=1)

    def iteration(self, traced: bool) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        call = self.cli(["mix-search", "--config", self.config, "--out-dir", out], traced=traced)
        if call.rc == 0:
            result = out / "coarse_result.json"
            if self.first_time("coarse_result.json"):
                check_planted_optimum(call, json.loads(result.read_text(encoding="utf-8")))
            self.stable(call, "coarse_result.json", file_digest(result))
            count, digest = tree_digest(out / "manifests", "*.jsonl")
            call.check(count == 39, f"{count} manifests, expected 39")
            self.stable(call, "manifests", digest)
        return Iteration([call])


def check_planted_optimum(call: CliCall, doc: dict) -> None:
    """Criterion-06 tolerance: both stage ratios within 1e-6 in log10, the
    composed ratio within 5% of 1.00:2.50:1.04."""
    for stage, peak in (("stage1", INTERPRETING_SURFACE), ("stage2", SCORING_SURFACE)):
        got = doc[stage]["ratio"]
        call.check(abs(math.log10(got) - math.log10(peak["peak_ratio"])) <= 1e-6,
                   f"{stage} ratio {got} misses the planted {peak['peak_ratio']}")
    ratio = doc["mix_ratio"]
    for key, want in zip(("d1", "d2", "d3"), PLANTED_RATIO):
        call.check(abs(ratio[key] - want) / want <= 0.05, f"mix ratio {ratio} misses {PLANTED_RATIO}")


class MixAdjust(Workload):
    """mix-adjust for 3 epochs over large pools from a fixed coarse result
    whose lambda sits 20% below the realized loss ratio, so every epoch grows
    D1 and epochs 2-3 oversample it with replacement."""

    name = "mix-adjust"

    def prepare(self) -> None:
        self.write_pools()
        d1 = self.size[0]
        counts = [d1, math.floor(PLANTED_RATIO[1] * d1 + 0.5), math.floor(PLANTED_RATIO[2] * d1 + 0.5)]
        realized = math.sqrt((counts[1] + counts[2]) / counts[0])  # loss ratio at alpha 0.5
        coarse = {"seed": self.seed, "repeats": 1,
                  "mix_ratio": dict(zip(("d1", "d2", "d3"), PLANTED_RATIO)),
                  "lambda_loss": 0.8 * realized, "confirmation": {}}
        self.coarse = self.work / "coarse_result.json"
        self.coarse.write_text(json.dumps(coarse, indent=2), encoding="utf-8")
        self.config = self.write_config(
            "adjust.yaml", self.synthetic_oracle(),
            controller={"max_epochs": 3, "tolerance": 0.1, "factor": 1.1})

    def iteration(self, traced: bool) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        call = self.cli(["mix-adjust", "--config", self.config, "--coarse-result", self.coarse,
                         "--out-dir", out], traced=traced)
        if call.rc == 0:
            trajectory = out / "trajectory.jsonl"
            epochs = [json.loads(line) for line in trajectory.read_text(encoding="utf-8").splitlines()[1:]]
            actions = [e["action"] for e in epochs]
            call.check(actions == ["increase_scoring"] * 3, f"epoch actions {actions}")
            self.stable(call, "trajectory.jsonl", file_digest(trajectory))
            self.stable(call, "manifests", tree_digest(out / "manifests", "*.jsonl"))
        return Iteration([call])


class SearchResume(Workload):
    """mix-search at the criterion-06 shape with jobs 2 and an external
    oracle that fails on the last stage-1 point: iqmix exits 3, and a second
    pass into the same out-dir has to finish the search."""

    name = "search-resume"
    FAIL_MANIFEST = "d2_vs_d3/point18_rep0.jsonl"  # last of the 19 stage-1 points
    FIRST_PASS_CALLS = 19

    def prepare(self) -> None:
        self.write_pools()
        self.calls_log, self.arm = self.work / "oracle_calls.log", self.work / "armed"

        def triple(*values):
            return ",".join(repr(float(v)) for v in values)

        def surface(spec):
            return triple(spec["peak_ratio"], spec["peak_value"], spec["curvature"])

        command = [
            sys.executable, "-S", STUB, "{manifest}", "{seed}", "{out}",
            "--calls", self.calls_log, "--arm", self.arm, "--fail-manifest", self.FAIL_MANIFEST,
            "--scoring", surface(SCORING_SURFACE), "--interpreting", surface(INTERPRETING_SURFACE),
            "--loss", triple(*LOSS_MODEL.values()),
        ]
        oracle = {"kind": "external", "command": " ".join(shlex.quote(str(t)) for t in command)}
        self.config = self.write_config("resume.yaml", oracle, repeats=1, jobs=2)

        # The uninterrupted run the resumed one must match byte for byte.
        reference = self.cli(["mix-search", "--config", self.config, "--out-dir", self.work / "ref"])
        if reference.failed:
            self.problems.append(f"uninterrupted reference run failed: {reference.problems}")
            self.reference = None
            return
        self.reference = (self.work / "ref" / "coarse_result.json").read_bytes()
        check_planted_optimum(reference, json.loads(self.reference))
        self.problems.extend(reference.problems)

    def iteration(self, traced: bool) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.calls_log.write_text("")
        self.arm.touch()
        argv = ["mix-search", "--config", self.config, "--out-dir", out]
        first = self.cli(argv, expect_rc=3, traced=traced)
        after_first = self._calls()
        first.check(after_first == self.FIRST_PASS_CALLS,
                    f"{after_first} oracle calls before the planted failure, expected 19")
        self.arm.unlink()
        second = self.cli(argv, traced=traced)
        rerun_calls = self._calls() - after_first
        # 21 calls are left after the failure: stage-1 point 18, 19 stage-2 points and
        # the confirmation. Reissuing the 18 completed ones gives 39.
        second.check(21 <= rerun_calls <= 39, f"{rerun_calls} oracle calls on the rerun")
        if second.rc == 0 and self.reference is not None:
            result = (out / "coarse_result.json").read_bytes()
            second.check(result == self.reference,
                         "resumed coarse_result.json differs from the uninterrupted run")
            self.stable(second, "manifests", tree_digest(out / "manifests", "*.jsonl"))
        return Iteration([first, second], {"oracle_calls": float(after_first + rerun_calls),
                                           "rerun_s": second.wall_s})

    def _calls(self) -> int:
        return len(self.calls_log.read_text().splitlines())


WORKLOADS = {w.name: w for w in (IqaEval, MixSearch, MixAdjust, SearchResume)}
