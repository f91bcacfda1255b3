"""One workload in a fresh interpreter; prints one JSON line for run.py.

Phases:
  setup  import harqlink, build the workload's inputs, report the clock;
  timed  then run whole rounds until --seconds have passed (at least one),
         with the workload's sweep pool size (default: the usable CPUs),
         and check the first round's outputs;
  trace  one untraced round with the pool, then one traced round with one
         worker, compared with each other; writes the spans to --trace-out.

Times are time.perf_counter(), CLOCK_MONOTONIC on Linux, which run.py reads
too, so the ready time here minus run.py's launch time is the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads  # imports harqlink
from tracer import Tracer


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)  # finished pool workers
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # ru_maxrss is in KiB on Linux


def _timed_round(wl, tracer=None):
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin("benchmark.round")
    try:
        result = wl.run()
    finally:
        if tracer is not None:
            tracer.end()
    wall = time.perf_counter() - t0
    return result, wall, _cpu_s() - cpu0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", required=True, choices=("setup", "timed", "trace"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    report = {"ready": time.perf_counter()}
    if args.phase == "setup":
        print(json.dumps(report))
        return 0

    os.environ["HARQLINK_WORKERS"] = str(wl.workers or len(os.sched_getaffinity(0)))
    attempted = failed = 0
    if args.phase == "timed":
        first, walls, cpus = None, [], []
        start = time.perf_counter()
        while True:
            result, wall, cpu = _timed_round(wl)
            walls.append(wall)
            cpus.append(cpu)
            attempted += result.attempted
            failed += result.failed
            if first is None:
                first = result.outputs
            else:  # reruns must be byte-identical
                same = wl.same(first, result.outputs)
                attempted += len(same)
                failed += same.count(False)
            if time.perf_counter() - start >= args.seconds:
                break
        report.update(walls=walls, cpus=cpus, peak_rss_mib=_peak_rss_mib())
    else:
        first, wall_untraced, _ = _timed_round(wl)
        tracer = Tracer()
        tracer.install()
        os.environ["HARQLINK_WORKERS"] = "1"  # every call in this process
        traced, wall_traced, _ = _timed_round(wl, tracer)
        attempted += first.attempted + traced.attempted
        failed += first.failed + traced.failed
        same = wl.same(first.outputs, traced.outputs)
        attempted += len(same)
        failed += same.count(False)
        first = first.outputs
        if args.trace_out:
            tracer.write(args.trace_out)
        layers = tracer.metrics()
        layers["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
        report.update(per_layer=layers, wall_untraced=wall_untraced, wall_traced=wall_traced)
    report.update(attempted=attempted, failed=failed, checks=wl.checks(first))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
