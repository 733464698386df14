"""iqmix benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is iqa-eval, mix-search, mix-adjust, search-resume, or `all`. Run from
the root of a checkout; iqmix is imported from its `src/`. The run generates
its inputs from the seed, runs iterations of the workload until the next one
would pass S seconds of measured time, checks every output, prints a report
and, as its last line, one JSON object. With --trace 0 that object holds the
end-to-end metrics; with --trace 1 each untraced iteration is followed by a
traced one, and it holds the per-layer metrics. --smoke runs at tiny sizes.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

import tracing
from workloads import EXTRA_UNITS, HERE, SIZES, SRC, WORKLOADS, Cli, Iteration, reference_s

def describe(samples: list[float]) -> str:
    """Sample count, plus the highest percentile with ten samples beyond it."""
    text = f"median of {len(samples)}"
    for pct in (99, 95, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return f"{text}, p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.6g}"
    return text


def layer_metrics(iteration: Iteration, workload: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of one traced iteration, and the layers that should
    have run on this workload but recorded no calls."""
    totals: dict[str, float] = {}
    unattributed = 0.0
    for call in iteration.calls:
        for key, value in tracing.layer_totals(call.spans).items():
            totals[key] = totals.get(key, 0.0) + value
        unattributed += call.wall_s - tracing.top_level_s(call.spans)
    oracle_ms = [(s[5] - s[4]) * 1000 for c in iteration.calls for s in c.spans
                 if s[1] == "oracle.evaluate"]
    keys = {key for c in iteration.calls for key in c.oracle_keys}
    totals["oracle.evaluate.p50_ms"] = statistics.median(oracle_ms) if oracle_ms else 0.0
    totals["oracle.evaluate.useful_ratio"] = len(keys) / len(oracle_ms) if oracle_ms else 0.0
    totals["trace.unattributed_s"] = unattributed
    silent = [span for span, workloads in tracing.EXPECTED.items()
              if workload in workloads and not totals.get(f"{span}.calls")]
    return totals, silent


def run_workload(name: str, args) -> tuple[dict, list[str]]:
    work = HERE / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "calls").mkdir(parents=True)
    try:
        cli = Cli(work / "calls")
        workload = WORKLOADS[name](work, args.seed, SIZES["smoke" if args.smoke else "full"][name], cli)
        workload.prepare()
        cli(["--version"])  # untimed warm-up: byte-compiles src/ and pages in the imports
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        measured = longest = 0.0
        # The machine's speed, measured around every untraced iteration.
        reference = [reference_s(work / "reference.jsonl")]
        while True:
            batch = [workload.iteration(False)]
            reference.append(reference_s(work / "reference.jsonl"))
            if args.trace:
                batch.append(workload.iteration(True))
            plain.append(batch[0])
            traced.extend(batch[1:])
            cost = sum(it.wall_s for it in batch)
            measured += cost
            longest = max(longest, cost)
            if measured + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for it in plain + traced for c in it.calls]
    problems = list(workload.problems)
    problems += [f"{c.argv[0]}: {p}" for c in calls for p in c.problems]
    lines = [f"{name}: seed {args.seed}, {len(plain)} untraced and {len(traced)} traced "
             f"iteration(s), {len(calls)} CLI calls, {measured:.2f} s measured"]
    metrics: dict[str, dict] = {}

    def report(metric: str, samples: list[float], unit: str, publish: bool) -> None:
        value = statistics.median(samples)
        lines.append(f"  {metric:<40} {value:>14.6g} {unit:<10} {describe(samples)}")
        if publish:
            metrics[metric] = {"value": value, "unit": unit}

    if not args.trace:
        report("setup_s", [c.setup_s for it in plain for c in it.calls], "s", True)
        report("wall_norm", [it.wall_s * 2 / (reference[i] + reference[i + 1])
                             for i, it in enumerate(plain)], "x", True)
        report("peak_rss_mib", [it.peak_rss_mib for it in plain], "MiB", True)
        report("wall_s", [it.wall_s for it in plain], "s", False)
        report("reference_s", reference, "s", False)
        for extra in plain[0].extra:
            report(extra, [it.extra[extra] for it in plain], EXTRA_UNITS[extra], False)
    else:
        per_iteration = []
        for it in traced:
            totals, silent = layer_metrics(it, name)
            per_iteration.append(totals)
            problems += [f"traced run: {span} recorded no calls on {name}" for span in silent]
        overhead = (statistics.median(it.wall_s for it in traced)
                    - statistics.median(it.wall_s for it in plain))
        for metric, unit, _ in tracing.PER_LAYER:
            samples = ([overhead] if metric == "trace.overhead_s"
                       else [t.get(metric, 0.0) for t in per_iteration])
            report(metric, samples, unit, True)
    failed = sum(c.failed for c in calls)
    lines.append(f"  {'failed_ratio':<40} {failed / len(calls):>14.6g} {'ratio':<10} "
                 f"{failed} of {len(calls)} operations")
    lines += [f"  FAILED CHECK {p}" for p in problems]
    result = {"correct": not problems, "attempted": len(calls), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    args = parser.parse_args(argv)
    if not (SRC / "iqmix" / "cli.py").is_file():
        print(f"error: no iqmix sources at {SRC}; run from the root of an iqmix checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], lines = run_workload(name, args)
        print("\n".join(lines), flush=True)
        for line in lines:
            if line.startswith("  FAILED CHECK"):
                print(f"{name}: {line.strip()}", file=sys.stderr)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
