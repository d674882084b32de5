"""One workload run in a fresh process: draw, set up, then a closed loop of
jobs, one client waiting for each verified result before the next.

    python3 perfbench/worker.py --workload tables --seed 1 --seconds 20 \
        --trace 0 --spawned-at <time.monotonic() of the parent>

Run from the root of a checkout.  Prints one JSON line with the set-up
time, every job latency, failures, peak RSS and, when traced, the
per-layer metrics.  With --setup-only it stops where the first job would
start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction

import workloads
from tracer import Tracer, layer_metrics

MAX_ERRORS = 5


def calibrate():
    """Seconds taken by a fixed loop of exact rational additions: a probe
    of how fast this CPU runs the interpreter right now.  Fraction work
    slows down under host contention about as much as the jobs do, which
    a loop on small integers does not."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
    return time.perf_counter() - t0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def peak_rss_mb(cli):
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    cli = args.workload == "cli-cold"
    # One CPU for the worker and its children, so that the probe and the
    # jobs run on the same CPU and see the same contention.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    t0 = time.perf_counter()
    plan = workloads.draw(args.workload, args.seed)
    gen_s = time.perf_counter() - t0

    fp = workloads.load_program(os.path.join(root, "src"))
    workdir = os.path.join(root, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    ctx = {
        "root": root,
        "workdir": workdir,
        "traced": bool(args.trace) and cli,
        "traced_cli": os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py"),
        "env": env,
        "span_files": [],
    }
    try:
        built = workloads.build(plan, ctx)
        tracer = None
        if args.trace and not cli:
            tracer = Tracer()
            tracer.install()
        setup_s = time.monotonic() - args.spawned_at - gen_s
        result = {"setup_s": setup_s, "gen_s": gen_s, "cpu": cpu,
                  "setup_cal": sorted(calibrate() for _ in range(5))[2],
                  "numpy": sys.modules["numpy"].__version__,
                  "freeprob": fp.__version__}
        if not args.setup_only:
            result.update(timed_loop(args, plan, built, ctx, tracer))
            result["peak_rss_mb"] = peak_rss_mb(cli)
            if args.trace:
                result["layers"] = trace_metrics(tracer, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_loop(args, plan, built, ctx, tracer):
    """Closed loop until the jobs have taken --seconds in total.  Only
    the call into the program is timed; its oracle runs after the clock
    stops."""
    lat, slots, errors, cal = [], [], [], []
    failed = 0
    busy = 0.0
    wall_cap = 3 * args.seconds + 30
    start = time.perf_counter()
    for i in itertools.count():
        if busy >= args.seconds or time.perf_counter() - start > wall_cap:
            break
        kind, d = plan[i % len(plan)]
        job = workloads.KINDS[kind]
        inp = built[i % len(plan)]
        ctx["job_index"] = i
        if tracer is not None:
            tracer.job = i
        err = None
        t0 = time.perf_counter()
        try:
            out = job.run(inp, ctx)
        except Exception as exc:  # a failed job is counted, not fatal
            err = exc
        dt = time.perf_counter() - t0
        busy += dt
        if err is None:
            try:
                job.check(d, inp, out, ctx)
            except Exception as exc:
                err = exc
        if err is not None:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append("job %d (%s): %s: %s" % (i, kind, type(err).__name__, err))
        lat.append(dt)
        slots.append("%02d:%s" % (i % len(workloads.ROUND[args.workload]), kind))
        cal.append(calibrate())
    return {"lat": lat, "slots": slots, "failed": failed, "errors": errors, "cal": cal}


def trace_metrics(tracer, ctx):
    if tracer is not None:
        return layer_metrics([tracer.export()])
    exports = []
    for path in ctx["span_files"]:
        with open(path, encoding="utf-8") as fh:
            exports.append(json.load(fh))
    metrics = layer_metrics(exports, import_s=sum(e["import_s"] for e in exports))
    metrics["cli.child_s"] = sum(e["child_s"] for e in exports)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
