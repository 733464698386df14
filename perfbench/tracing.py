"""Spans around iqmix's public functions, installed from outside the package.

iqmix imports functions by name (`from .datasets import load_pool`), so
patching a function in its defining module is not enough: every module that
holds a binding to the original object gets the wrapper. Methods and
classmethods are patched on their class, which every importer shares.

A span is `[id, name, parent, thread, start, end, busy, info]`. `busy` is the
span's duration, except for a generator span (`score_batch`), whose busy time
is the sum of the time spent inside its `next()` calls: the caller's loop body
runs between them. Spans opened in a worker thread with nothing open in that
thread take the main thread's innermost open span as parent, which is the
`sweep` that started the pool. Spans stay in memory; the child process writes
them out after the CLI call returns.

What cannot be seen from outside the package is not estimated: the wait on
`ExternalOracle`'s semaphore, for instance, is inside `oracle.evaluate`.
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import sys
import threading
import time
from collections import defaultdict

clock = time.perf_counter

IQA = "iqa-eval"
SEARCH = ("mix-search", "search-resume")
SYNTHETIC = ("mix-search", "mix-adjust")
MIX = ("mix-search", "mix-adjust", "search-resume")

# Every layer metric the traced run reports: (name, unit, better). A layer
# that a workload does not run reports 0.
PER_LAYER = (
    ("levels.score_to_level.calls", "count", "lower"),
    ("levels.score_to_level.s", "s", "lower"),
    ("datasets.ingest_mos.s", "s", "lower"),
    ("datasets.emit_d1_pairs.self_s", "s", "lower"),
    ("datasets.write_pairs.s", "s", "lower"),
    ("datasets.write_pairs.bytes", "bytes", "lower"),
    ("cli.cmd_convert.self_s", "s", "lower"),
    ("scoring.score_batch.s", "s", "lower"),
    ("scoring.score_batch.records", "count", "higher"),
    ("scoring.score_batch.diagnostics", "count", "higher"),
    ("cli.cmd_score.self_s", "s", "lower"),
    ("metrics.PairedSample.from_arrays.s", "s", "lower"),
    ("metrics.srcc.s", "s", "lower"),
    ("metrics.plcc.s", "s", "lower"),
    ("metrics.plcc_logistic.s", "s", "lower"),
    ("cli.cmd_eval_iqa.self_s", "s", "lower"),
    ("datasets.load_pool.s", "s", "lower"),
    ("datasets.load_pool.records", "count", "higher"),
    ("datasets.load_pool.rss_delta_mib", "MiB", "lower"),
    ("datasets.sample_mixture.s", "s", "lower"),
    ("datasets.sample_mixture.calls", "count", "lower"),
    ("datasets.sample_mixture.entries", "count", "higher"),
    ("datasets.write_manifest.s", "s", "lower"),
    ("datasets.write_manifest.calls", "count", "lower"),
    ("datasets.write_manifest.bytes", "bytes", "lower"),
    ("datasets.read_manifest_header.calls", "count", "lower"),
    ("datasets.read_manifest_header.s", "s", "lower"),
    ("oracle.evaluate.calls", "count", "lower"),
    ("oracle.evaluate.s", "s", "lower"),
    ("oracle.evaluate.failures", "count", "lower"),
    ("oracle.evaluate.p50_ms", "ms", "lower"),
    ("oracle.evaluate.useful_ratio", "ratio", "higher"),
    ("mixopt.coarse_search.self_s", "s", "lower"),
    ("mixopt.sweep.self_s", "s", "lower"),
    ("mixopt.fit_curve.s", "s", "lower"),
    ("mixopt.argmax_ratio.s", "s", "lower"),
    ("cli.cmd_mix_search.self_s", "s", "lower"),
    ("controller.run_loop.self_s", "s", "lower"),
    ("controller.decide.calls", "count", "lower"),
    ("cli.cmd_mix_adjust.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Span name -> workloads on which it must record calls; a traced run that
# records none there fails. The external oracle never reads the manifest
# header inside iqmix (the stub does, in its own process), so
# read_manifest_header is expected only where the oracle is synthetic.
EXPECTED = {
    "levels.score_to_level": (IQA,),
    "datasets.ingest_mos": (IQA,),
    "datasets.emit_d1_pairs": (IQA,),
    "datasets.write_pairs": (IQA,),
    "cli.cmd_convert": (IQA,),
    "scoring.score_batch": (IQA,),
    "cli.cmd_score": (IQA,),
    "metrics.PairedSample.from_arrays": (IQA,),
    "metrics.srcc": (IQA,),
    "metrics.plcc": (IQA,),
    "metrics.plcc_logistic": (IQA,),
    "cli.cmd_eval_iqa": (IQA,),
    "datasets.load_pool": MIX,
    "datasets.sample_mixture": MIX,
    "datasets.write_manifest": MIX,
    "datasets.read_manifest_header": SYNTHETIC,
    "oracle.evaluate": MIX,
    "mixopt.coarse_search": SEARCH,
    "mixopt.sweep": SEARCH,
    "mixopt.fit_curve": SEARCH,
    "mixopt.argmax_ratio": SEARCH,
    "cli.cmd_mix_search": SEARCH,
    "controller.run_loop": ("mix-adjust",),
    "controller.decide": ("mix-adjust",),
    "cli.cmd_mix_adjust": ("mix-adjust",),
}

# Bindings the tracer must replace for the spans above to see every call.
REQUIRED_SITES = frozenset(
    [f"iqmix.cli.{name}" for name in (
        "load_pool", "ingest_mos", "emit_d1_pairs", "write_pairs", "score_batch",
        "srcc", "plcc", "sample_mixture", "write_manifest", "coarse_search",
        "run_loop")]
    + ["iqmix.metrics.PairedSample.from_arrays",
       "iqmix.mixopt.sample_mixture", "iqmix.mixopt.write_manifest",
       "iqmix.controller.sample_mixture", "iqmix.controller.write_manifest",
       "iqmix.oracle.read_manifest_header", "iqmix.datasets.score_to_level"]
)


def _rss_mib() -> float:
    """Resident set size now; the peak so far where /proc is unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _path_arg(args, kwargs, index: int) -> str:
    return str(kwargs.get("path", args[index] if len(args) > index else ""))


class Tracer:
    """Records spans for one process; `install` patches the iqmix modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident

    def _enter(self) -> tuple[int, list[int], int | None]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        return tid, stack, parent

    def wrap(self, name, fn, *, before=None, after=None, name_of=None):
        """Time `fn`; `before`/`after` collect counters outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid, stack, parent = self._enter()
            sid = next(self._ids)
            state = before() if before else None
            stack.append(sid)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = after(args, kwargs, result, ok, state) if after else None
                span_name = name_of(args, kwargs) if name_of else name
                self.spans.append([sid, span_name, parent, tid, start, end, end - start, info])

        return traced

    def wrap_generator(self, name, fn):
        """Time a generator's iteration, not its creation."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name, gen):
        tid, stack, parent = self._enter()
        sid = next(self._ids)
        busy, first, last = 0.0, None, None
        counts = {"records": 0, "diagnostics": 0, "generator": 1}
        try:
            while True:
                stack.append(sid)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    busy += end - start
                    first = start if first is None else first
                    last = end
                kind = "diagnostics" if type(item).__name__ == "BatchDiagnostic" else "records"
                counts[kind] += 1
                yield item
        finally:
            if first is not None:
                self.spans.append([sid, name, parent, tid, first, last, busy, counts])

    def install(self) -> set[str]:
        """Wrap the traced functions everywhere they are bound; return the sites."""
        import iqmix.cli  # noqa: F401 - imports every module the CLI uses
        from iqmix import controller, datasets, levels, metrics, mixopt, oracle, scoring

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "iqmix" or key.startswith("iqmix.")]
        sites: set[str] = set()

        def rebind(original, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        sites.add(f"{module.__name__}.{attr}")

        def written_bytes(index):
            def after(args, kwargs, result, ok, state):
                path = _path_arg(args, kwargs, index)
                return {"bytes": os.path.getsize(path)} if ok and os.path.exists(path) else None
            return after

        def pool_after(args, kwargs, result, ok, rss_before):
            return {"records": len(result), "rss_delta_mib": _rss_mib() - rss_before} if ok else None

        def entries_after(args, kwargs, result, ok, state):
            return {"entries": len(result.entries)} if ok else None

        def oracle_after(args, kwargs, result, ok, state):
            request = args[1] if len(args) > 1 else kwargs["request"]
            return {"failures": 0 if ok else 1,
                    "request": [str(request.manifest_path), request.seed]}

        plain = [
            (levels, "score_to_level", {}),
            (datasets, "ingest_mos", {}),
            (datasets, "emit_d1_pairs", {}),
            (datasets, "write_pairs", {"after": written_bytes(1)}),
            (datasets, "load_pool", {"before": _rss_mib, "after": pool_after}),
            (datasets, "sample_mixture", {"after": entries_after}),
            (datasets, "write_manifest", {"after": written_bytes(1)}),
            (datasets, "read_manifest_header", {}),
            (metrics, "srcc", {}),
            (metrics, "plcc", {"name_of": lambda a, k: "metrics.plcc_logistic"
                               if k.get("logistic") else "metrics.plcc"}),
            (mixopt, "coarse_search", {}),
            (mixopt, "sweep", {}),
            (mixopt, "fit_curve", {}),
            (mixopt, "argmax_ratio", {}),
            (controller, "run_loop", {}),
            (controller, "decide", {}),
        ] + [(iqmix.cli, f"cmd_{cmd}", {}) for cmd in
             ("convert", "score", "eval_iqa", "mix_search", "mix_adjust")]
        for module, attr, hooks in plain:
            original = getattr(module, attr)
            short = module.__name__.removeprefix("iqmix.")
            rebind(original, self.wrap(f"{short}.{attr}", original, **hooks))

        original = scoring.score_batch
        rebind(original, self.wrap_generator("scoring.score_batch", original))

        from_arrays = metrics.PairedSample.__dict__["from_arrays"].__func__
        metrics.PairedSample.from_arrays = classmethod(
            self.wrap("metrics.PairedSample.from_arrays", from_arrays))
        sites.add("iqmix.metrics.PairedSample.from_arrays")

        for cls in (oracle.SyntheticOracle, oracle.ExternalOracle):
            cls.evaluate = self.wrap("oracle.evaluate", cls.evaluate, after=oracle_after)
            sites.add(f"iqmix.oracle.{cls.__name__}.evaluate")
        return sites


def _covered(parent: list, children: list[list]) -> float:
    """Part of the parent's busy time that its children account for."""
    total = 0.0
    intervals = []
    for child in children:
        if child[7] and child[7].get("generator"):
            total += child[6]
        else:
            intervals.append((max(child[4], parent[4]), min(child[5], parent[5])))
    end = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return min(total, parent[6])


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, busy seconds, self seconds and summed counters."""
    children: dict[int | None, list[list]] = defaultdict(list)
    for span in spans:
        children[span[2]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        name, busy, info = span[1], span[6], span[7] or {}
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += busy
        totals[f"{name}.self_s"] += busy - _covered(span, children.get(span[0], []))
        for key, value in info.items():
            if key not in ("generator", "request"):
                totals[f"{name}.{key}"] += value
    return dict(totals)


def top_level_s(spans: list[list]) -> float:
    return sum(span[6] for span in spans if span[2] is None)
