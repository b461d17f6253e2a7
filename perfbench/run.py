"""Benchmark of the curvemotives package.  Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): suite-serial, rank3-deep, suite-parallel,
poly-sweep.  Each is a single-client closed loop of passes over a pinned set
of operations; the seed only permutes their order.  Every operation is
checked against a known answer (``answers.py``).

With ``--trace 0`` the end-to-end metrics are printed: wall_s and cpu_s
(medians per pass), setup_s (median time from a fresh interpreter to the
package imported, the CLI parser built and a first GenusContext made,
measured a few times between passes) and peak_rss_mb; failed_share is
printed too.  With ``--trace 1`` the per-layer metrics of ``tracer.py`` are
printed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``PYTHONPATH=src python3 perfbench/selftest.py`` tests the
benchmark itself.
"""

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170
SETUP_PROBES = 9
SETUP_PROBES_PER_PASS = 3
SETUP_PROBE = (
    "import time\n"
    "import curvemotives.cli as cli\n"
    "from curvemotives.series import GenusContext\n"
    "cli.build_parser()\n"
    "GenusContext.adic(2)\n"
    "print(repr(time.monotonic()))\n"
)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pass_environment(root):
    """The environment of every process the benchmark starts: the package
    from the checkout's source tree, no worker-count override, and a fixed
    hash seed."""
    env = dict(os.environ)
    env.pop("CURVE_MOTIVES_WORKERS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(env, root):
    """Seconds from starting a fresh interpreter to its first GenusContext."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=root,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - start


def run_pass_process(cmd, env, root, deadline):
    """Run the pass process; return its result and the set-up times.

    An untraced pass process stops after each pass and waits while set-up
    is measured, a few probes at a time, so the probes sample more than one
    moment of the run and never overlap a pass."""
    # a session of its own, so that a timeout also ends its pool workers
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    expired = threading.Event()

    def expire():
        expired.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(deadline - time.monotonic(), expire)
    watchdog.start()
    setup_times, last = [], ""
    try:
        for line in proc.stdout:
            if line == "ready\n":
                if len(setup_times) < SETUP_PROBES:
                    setup_times += [setup_probe(env, root)
                                    for _ in range(SETUP_PROBES_PER_PASS)]
                with contextlib.suppress(BrokenPipeError):
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
            else:
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
    if expired.is_set():
        sys.exit("run.py: the passes did not finish within %d s" % TIME_LIMIT_S)
    if proc.returncode != 0:
        sys.exit("run.py: the pass process exited with code %d" % proc.returncode)
    return json.loads(last), setup_times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curvemotives", "cli.py")):
        sys.exit("run.py: no curvemotives source tree under %s/src; run it from "
                 "the root of a checkout" % root)
    env = pass_environment(root)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    if not args.trace:
        setup_probe(env, root)  # compiles the byte code; not counted
    cmd = [sys.executable, os.path.join(HERE, "passes.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    result, setup_times = run_pass_process(cmd, env, root, started + TIME_LIMIT_S)

    failed, attempted = result["failed"], result["attempted"]
    for op, message in result["failures"]:
        print("FAILED %s %s: %s" % (args.workload, op, message))
    print("workload %s, seed %d: %d operations, %d failed; pass seconds %s"
          % (args.workload, args.seed, attempted, failed,
             " ".join("%.3f" % w for w in result["walls"])))
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup_times))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print("%-48s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%-48s %14.6f share" % ("failed_share", failed / attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
