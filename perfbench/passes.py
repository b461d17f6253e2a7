"""The measured passes of one benchmark run, in a process of their own so
that its peak RSS and CPU time are the workload's alone.  ``run.py`` starts
it; it prints one JSON object on its last line.

Untraced (``--trace 0``): passes run one after another for ``--seconds``,
pausing after each while ``run.py`` measures set-up; the result holds the
median wall and CPU seconds per pass and the peak RSS.
Traced (``--trace 1``): untraced passes for half the time, then at least
two traced passes; the result holds the per-layer metrics, medians over the
traced passes, and ``trace_overhead_s``.  Work counts must repeat exactly
from one traced pass to the next.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

import tracer
import workloads

MIN_PASSES = 2
KEEP_FAILURES = 20


def cpu_seconds():
    """User plus system CPU of this process and of its waited-for children
    (the pool workers of a parallel suite)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_passes(work, seconds, min_passes, after_pass=None):
    """Run passes until the next one would end past ``seconds``; garbage is
    collected between passes, outside the timed region."""
    walls, cpus, attempted, failures = [], [], 0, []
    start = time.perf_counter()
    while True:
        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        done, failed = work.run_pass()
        t1 = time.perf_counter()
        cpus.append(cpu_seconds() - cpu0)
        walls.append(t1 - t0)
        attempted += done
        failures += failed
        if after_pass is not None:
            after_pass()
        if len(walls) >= min_passes and time.perf_counter() - start + walls[-1] > seconds:
            return walls, cpus, attempted, failures


def wait_for_setup_probes():
    """Tell ``run.py`` a pass has ended and wait while it measures set-up."""
    print("ready", flush=True)
    sys.stdin.readline()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def traced(work, pkg, seconds, spans_path):
    """Per-layer metrics of ``work``: medians over the traced passes."""
    trace = tracer.Tracer()
    per_pass = []

    def record():
        per_pass.append(trace.layer_metrics(work.reports, work.workers))
        with open(spans_path, "w") as fh:
            json.dump(trace.spans, fh)
        trace.reset()

    trace.install(pkg, boundary_only=work.workers > 1)
    try:
        walls, _, attempted, failures = run_passes(work, seconds, 2, record)
    finally:
        trace.uninstall()
    for name, unit, _ in tracer.per_layer_metrics():
        if unit == "count" and len({p[name] for p in per_pass}) > 1:
            failures.append(("trace", "%s differs between traced passes: %s"
                             % (name, [p[name] for p in per_pass])))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    return metrics, walls, attempted, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    pkg = workloads.load_package()
    work = workloads.WORKLOADS[args.workload](pkg, random.Random(args.seed), args.out)
    if args.trace:
        walls, _, attempted, failures = run_passes(work, args.seconds / 2, 1)
        spans_path = os.path.join(args.out, "spans-%s-%d.json" % (args.workload, args.seed))
        metrics, traced_walls, more, more_failures = traced(
            work, pkg, args.seconds / 2, spans_path)
        metrics["trace_overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        attempted += more
        failures += more_failures
        walls += traced_walls
    else:
        walls, cpus, attempted, failures = run_passes(
            work, args.seconds, MIN_PASSES, wait_for_setup_probes)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb(),
        }
    print(json.dumps({
        "walls": walls,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:KEEP_FAILURES],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
