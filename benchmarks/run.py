"""fracdecay benchmark: one command for every metric, its unit and the
output checks.  Run from the repository root:

    python3 benchmarks/run.py --workload spectral_sweep --seed 1 \\
        --seconds 40 --trace 0

Each pass is a fresh worker process (benchmarks/worker.py) with one BLAS
thread and cold caches, as for a ``fracdecay`` CLI call.  Passes repeat
while another one fits in --seconds (at least one).  With --trace 0 the
run reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead (traced minus untraced median wall time).
A per-layer time the workload's passes have no sample of (the workload
does not call that code) is taken from one traced pass of another workload
at --size small.  Every metric is printed as ``name value unit``; the last
stdout line is the JSON result.  Records of the run and of the spans go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0      # a run must end within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, size, trace_path, tmp_dir, timeout):
    """One worker process; returns its result with its elapsed time."""
    env = dict(os.environ, **SINGLE_THREAD, TMPDIR=str(tmp_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def tally(passes):
    """attempted, failed (checks that make the run incorrect) and ok_frac,
    which also counts FracdecayErrors raised by calls and known defects."""
    attempted = sum(p["ops"] + p["checks"] for p in passes)
    failed = sum(len(p["failed_checks"]) for p in passes)
    bad = failed + sum(sum(p["op_errors"].values()) + p["known_errors"]
                       for p in passes)
    return attempted, failed, 1.0 - bad / attempted


def end_to_end(plain):
    def med(key):
        return statistics.median(p[key] for p in plain)
    return {"wall_s": med("wall_s"), "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"), "ok_frac": tally(plain)[2],
            "max_rel_err": max(p["max_rel_err"] for p in plain)}


def per_layer(plain, traced):
    names = set().union(*(p["layers"] for p in traced))
    metrics = {n: statistics.median(p["layers"][n] for p in traced
                                    if n in p["layers"]) for n in names}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="small: the self-test size")
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "fracdecay" / "__init__.py").is_file():
        print(f"no fracdecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)

    def one(workload, size, span_file=None):
        remaining = DEADLINE_S - (time.perf_counter() - start)
        trace = OUT / f"spans-{tag}-{span_file}.json" if span_file else None
        return run_worker(workload, args.seed, size, trace, tmp_dir, remaining)

    plain, traced, fills = [], [], []
    try:
        while True:
            t0 = time.perf_counter()
            if not args.trace:
                plain.append(one(args.workload, args.size))
            else:
                # alternate the order so drift does not bias the overhead
                first_traced = len(plain) % 2 == 1
                for is_traced in (first_traced, not first_traced):
                    if is_traced:
                        traced.append(one(args.workload, args.size,
                                          str(len(traced))))
                    else:
                        plain.append(one(args.workload, args.size))
            cycle = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed + cycle > args.seconds \
                    or elapsed + 2 * cycle > DEADLINE_S:
                break
        if args.trace:
            metrics = per_layer(plain, traced)
            for other in WORKLOADS:
                missing = [m["name"] for m in wanted if m["name"] not in metrics]
                if missing and other != args.workload:
                    fills.append(one(other, "small", f"fill-{other}"))
                    metrics.update({n: fills[-1]["layers"][n] for n in missing
                                    if n in fills[-1]["layers"]})
        else:
            metrics = end_to_end(plain)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"no measurement of {missing}", file=sys.stderr)
        return 1
    passes = plain + traced + fills
    attempted, failed, _ = tally(passes)
    walls = sorted(p["wall_s"] for p in plain)
    q1, q2, q3 = statistics.quantiles(walls, n=4, method="inclusive") \
        if len(walls) > 1 else walls * 3
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": os.cpu_count(), "env": SINGLE_THREAD,
        "versions": plain[0]["versions"],
        "wall_s": {"median": q2, "q1": q1, "q3": q3, "n": len(walls)},
        "failed_checks": sorted({c for p in passes for c in p["failed_checks"]}),
        "metrics": metrics,
        "passes": passes,
    }
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced + {len(traced)} traced passes, nproc "
          f"{os.cpu_count()}, one BLAS thread, {record['versions']}")
    print(f"# wall_s median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
          f"n = {len(walls)}")
    for c in record["failed_checks"]:
        print(f"# FAILED CHECK {c}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {}}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']:<52} {value:>16.6g} {m['unit']}")
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
