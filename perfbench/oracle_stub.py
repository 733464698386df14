"""Stand-in for an external training oracle; standard library only.

iqmix runs it as `oracle_stub.py MANIFEST SEED OUT ...` through its external
oracle contract. It reads the manifest header and writes the response that
iqmix's synthetic oracle gives for the same planted surfaces and loss model
with no noise, so a search against it recovers the planted optimum.

Each invocation appends one line to the `--calls` log before doing anything
else, so oracle calls are counted outside iqmix. While the `--arm` file
exists, the invocation whose manifest path ends with `--fail-manifest`
exits 1 without writing a result.
"""

import argparse
import json
import math
import os


def _triple(text: str) -> tuple[float, float, float]:
    a, b, c = (float(part) for part in text.split(","))
    return a, b, c


def surface(spec: tuple[float, float, float], axis: float) -> float:
    peak_ratio, peak_value, curvature = spec
    d = axis - math.log10(peak_ratio)
    return peak_value - curvature * d * d - 0.0 * d ** 4


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--calls", required=True)
    parser.add_argument("--arm", required=True)
    parser.add_argument("--fail-manifest", required=True)
    parser.add_argument("--scoring", type=_triple, required=True,
                        help="peak_ratio,peak_value,curvature")
    parser.add_argument("--interpreting", type=_triple, required=True)
    parser.add_argument("--loss", type=_triple, required=True,
                        help="alpha,scale_scoring,scale_interpreting")
    args = parser.parse_args()

    with open(args.calls, "a", encoding="utf-8") as log:
        log.write(f"{args.manifest} {args.seed}\n")
    if os.path.exists(args.arm) and args.manifest.endswith(args.fail_manifest):
        print(f"planted failure on {args.manifest}", flush=True)
        return 1

    with open(args.manifest, encoding="utf-8") as handle:
        counts = {k: int(v) for k, v in json.loads(handle.readline())["counts"].items()}
    d1 = max(counts.get("d1", 0), 1)
    d2 = max(counts.get("d2", 0), 1)
    d3 = max(counts.get("d3", 0), 1)
    d23 = max(counts.get("d2", 0) + counts.get("d3", 0), 1)
    alpha, scale_scoring, scale_interpreting = args.loss
    result = {
        "perf_scoring": min(max(surface(args.scoring, math.log10(d23 / d1)), -1.0), 1.0),
        "perf_interpreting": min(max(surface(args.interpreting, math.log10(d2 / d3)), 0.0), 1.0),
        "loss_scoring": scale_scoring * d1 ** (-alpha),
        "loss_interpreting": scale_interpreting * d23 ** (-alpha),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
