"""Run one iqmix CLI call in a fresh interpreter and report what it cost.

usage: child.py REPORT SPAWNED_AT TRACE IQMIX_ARGS...

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` runs from the spawn until `iqmix.cli` is imported.
iqmix is imported from the checkout's `src/`, never from an installed copy.
With TRACE=1 the spans of `tracing.Tracer` are recorded around the call.
The report (JSON) holds the exit code, `setup_s`, the peak RSS of this
process alone (not of the oracle processes it starts) and the spans.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kib() -> int:
    """High-water RSS of this process image. ru_maxrss would also count the
    parent's pages at fork, which Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, spawned_at, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import iqmix.cli

    setup_s = time.monotonic() - spawned_at
    if not Path(iqmix.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"iqmix was imported from {iqmix.cli.__file__}, not from {src}")

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rc = iqmix.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse: --version and usage errors
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # noqa: BLE001 - an uncaught error is a result to report
        traceback.print_exc()
        rc = 70
    sys.stdout.flush()
    report = {
        "rc": rc,
        "setup_s": setup_s,
        "peak_rss_kib": peak_rss_kib(),
        "spans": tracer.spans if tracer else [],
    }
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
