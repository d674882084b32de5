"""freeprob benchmark: four seeded closed-loop workloads with oracles.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/freeprob``.  Workloads:
tables, lattice, fock, cli-cold (see BENCHMARK.json for why each exists).

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms, setup_s (median over five fresh workers) and peak_rss_mb,
with times in reference-CPU units (see REF_PROBE_S).
--trace 1 splits the time between an untraced and a traced worker on the
same job list and prints the per-layer metrics and trace.overhead_ratio.

The last line of stdout is the result object; the line before it is a
report with provenance, the tail percentile used, the failure ratio,
latencies per slot of the workload's round and the first failures.  Each worker is a fresh process, so peak RSS belongs
to one workload only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tables", "lattice", "fock", "cli-cold")
SETUP_SAMPLES = 5  # fresh workers whose set-up time is measured
BLAS_THREADS = 1
WORKER_TIMEOUT = 170
# Time of the worker's calibration probe (a fixed pure-Python loop) on the
# reference CPU.  The host's speed drifts by up to 2x over seconds to
# minutes, so timings are reported in reference-CPU units: each run's raw
# times are divided by its mean probe time over REF_PROBE_S.  Raw values
# are kept in the report.
REF_PROBE_S = 1.5e-3

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in _SPEC[key]}


class BenchError(Exception):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FREEPROB_ORDER_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(args, seconds, trace, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, p):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile that still has at least 10 jobs beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "freeprob")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, worker):
    root = os.getcwd()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": sys.version.split()[0],
        "numpy": worker["numpy"],
        "freeprob": worker["freeprob"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "worker_cpu": worker["cpu"],
        "git_rev": git_revision(root),
        "src_sha256": source_digest(root),
    }


def per_slot_ms(res):
    """Latency summary per position in the workload's round."""
    by = {}
    for slot, dt in zip(res["slots"], res["lat"]):
        by.setdefault(slot, []).append(dt * 1000.0)
    return {k: {"n": len(v), "median": statistics.median(v), "max": max(v), "sum": sum(v)}
            for k, v in sorted(by.items())}


def slowdown(res):
    """How much slower than the reference CPU this worker's jobs ran."""
    return statistics.mean(res["cal"]) / REF_PROBE_S


def end_to_end(args):
    workers = [spawn(args, args.seconds, 0, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, args.seconds, 0)
    workers.append(res)
    setups = [w["setup_s"] for w in workers]
    lat, failed = res["lat"], res["failed"]
    n = len(lat)
    p = tail_percentile(n)
    slow = slowdown(res)
    raw = {
        "jobs_per_s": (n - failed) / sum(lat),
        "job_p50_ms": quantile(lat, 50) * 1000.0,
        "job_tail_ms": quantile(lat, p) * 1000.0,
        "setup_s": statistics.median(setups),
    }
    values = {
        "jobs_per_s": raw["jobs_per_s"] * slow,
        "job_p50_ms": raw["job_p50_ms"] / slow,
        "job_tail_ms": raw["job_tail_ms"] / slow,
        "setup_s": statistics.median(
            w["setup_s"] * REF_PROBE_S / w["setup_cal"] for w in workers
        ),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = provenance(args, res)
    report.update({
        "jobs": n,
        "failed": failed,
        "job_fail_ratio": failed / n,
        "tail_percentile": p,
        "cpu_slowdown": slow,
        "raw": raw,
        "setup_samples_s": setups,
        "gen_s": res["gen_s"],
        "per_slot_ms": per_slot_ms(res),
        "errors": res["errors"],
    })
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return report, n, failed, metrics


def dominant_layer(layers, extra):
    selfs = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    selfs.update(extra)
    return sorted(selfs.items(), key=lambda kv: -kv[1])[:3]


def traced(args):
    """Untraced and traced workers on the same job list, half the time
    each.  The overhead ratio compares the jobs both completed."""
    base = spawn(args, args.seconds / 2, 0)
    res = spawn(args, args.seconds / 2, 1)
    m = min(len(base["lat"]), len(res["lat"]))
    layers = res["layers"]
    extra = {}
    if args.workload == "cli-cold":
        # interpreter start-up and the import are not inside any span
        process_s = sum(res["lat"]) - layers.pop("cli.child_s")
        extra["cli.import_s+process"] = layers["cli.import_s"] + process_s
    layers["trace.overhead_ratio"] = (
        sum(base["lat"][:m]) / slowdown(base) / (sum(res["lat"][:m]) / slowdown(res))
    )
    report = provenance(args, res)
    report.update({
        "jobs": len(res["lat"]),
        "failed": base["failed"] + res["failed"],
        "compared_jobs": m,
        "dominant_by_self_s": dominant_layer(layers, extra),
        "errors": base["errors"] + res["errors"],
    })
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in layers.items()}
    n = len(base["lat"]) + len(res["lat"])
    return report, n, report["failed"], metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freeprob", "__init__.py")):
        print("error: run from a checkout root holding src/freeprob", file=sys.stderr)
        return 2
    try:
        # compile and cache the sources once so that no measured start-up
        # pays for byte-compilation
        subprocess.run([sys.executable, "-c", "import freeprob.cli"], env=worker_env(),
                       check=True, timeout=WORKER_TIMEOUT, capture_output=True)
        report, attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, ".perfbench_work"))  # workers remove their own dirs
        except OSError:
            pass
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
