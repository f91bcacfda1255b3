"""harqlink benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; harqlink is imported from ./src, not
installed.  Prints each metric by name with its unit, each output check,
and as its last line one JSON object with correct, attempted, failed and
metrics.  Exits 1 when an output check fails and 2 when the workload cannot
run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; importing that module here would import
# harqlink and scipy into this process, which only launches interpreters
WORKLOADS = ("analytic-sweep", "optimized-regions", "monte-carlo")
SETUP_PROBES = 2        # extra fresh interpreters that only set up
DEADLINE_S = 170.0      # whole run, set-up probes included


def _run_child(args, phase: str, deadline: float, extra=()) -> tuple[dict, float]:
    """Launch child.py; return its report and its set-up time."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--seconds", str(args.seconds), *extra]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise RuntimeError(f"{phase} phase ran past the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    return report, report["ready"] - launched


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "harqlink" / "__init__.py").is_file():
        print(f"error: no harqlink source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
            report, _ = _run_child(args, "trace", deadline, ("--trace-out", str(trace_out)))
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in report["per_layer"].items()}
            print(f"traced round {report['wall_traced']:.3f} s, untraced {report['wall_untraced']:.3f} s;"
                  f" spans in {trace_out.relative_to(ROOT)}")
        else:
            setups = [_run_child(args, "setup", deadline)[1] for _ in range(SETUP_PROBES)]
            report, setup = _run_child(args, "timed", deadline)
            setups.append(setup)
            print(f"{len(report['walls'])} rounds; set-up samples "
                  + " ".join(f"{s:.3f}" for s in setups))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(report["walls"]), "unit": "s"},
                "cpu_s": {"value": statistics.median(report["cpus"]), "unit": "s"},
                "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
            }
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    for name, m in metrics.items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}")
    correct = True
    for name, ok, detail in report["checks"]:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}  {detail}")
        correct &= bool(ok)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
