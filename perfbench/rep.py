"""One repetition of a workload, in the process that runs this script.

    PYTHONPATH=src python3 perfbench/rep.py --workload long-run --seed 0 [--trace]

Prints one JSON line: wall, CPU, set-up and loop time, peak RSS, the
host-speed probe time (mean of one probe before and one after the
workload) and the outputs the reference check compares; with ``--trace`` also the
per-layer metrics.  Exit status 1 means the program raised (the line
then holds ``error``), 3 that a phase mark is missing.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import hooks
import probe
import workloads

HOOK_FAILURE = 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import hdivwave.driver  # noqa: F401  imports stay out of the timed call

    before = probe.probe()
    rec = hooks.Recorder()
    try:
        with hooks.installed(rec, traced=args.trace):
            t0, c0 = time.perf_counter(), time.process_time()
            result = workloads.call(args.workload, args.seed)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        levels = hooks.phases(rec)
    except hooks.HookError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return HOOK_FAILURE
    except Exception as exc:  # a failed operation, reported to the runner
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "probe_s": (before + probe.probe()) / 2,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": sum(lv["setup_s"] for lv in levels),
        "loop_s": sum(lv["loop_s"] for lv in levels),
        "peak_rss_mb": rss_mb,
        "outputs": workloads.outputs(args.workload, result, rec.levels),
    }
    if args.trace:
        out["layers"], out["notes"] = hooks.layer_metrics(rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
