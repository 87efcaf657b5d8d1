"""One fresh process: set-up and one pass of a workload, then its checks.

Run by run.py, never directly.  Prints one JSON object on its last stdout
line.  set-up time is ``import fracdecay`` plus building the program
objects from the generated inputs; the timed pass follows.  With --trace,
spans are recorded during the pass and written once, at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", default="", help="file for the spans")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import fracdecay
    import fracdecay.cli  # noqa: F401  (reproduce_strict runs through the CLI)
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(fracdecay.__file__).resolve().parent.parent != src:
        sys.exit(f"fracdecay imported from {fracdecay.__file__}, not {src}")

    import passes
    import tracing
    import workloads

    build, run, check = passes.PASSES[args.workload]
    inputs = workloads.generate(args.workload, args.seed, args.size)
    refs = json.loads((HERE / "references.json").read_text())[args.workload]
    t0 = time.perf_counter()
    state = build(inputs)
    setup_s = import_s + time.perf_counter() - t0

    tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.trace:
        tracer.install()
        tracer.active = True
    tally = passes.Tally()
    with tracer.span(f"bench.{args.workload}"):
        t0 = time.perf_counter()
        outputs = run(state, tally)
        wall_s = time.perf_counter() - t0
    tracer.active = False

    checks = passes.Checks()
    check(state, outputs, refs, checks)
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": tally.ops,
        "op_errors": tally.errors,
        "checks": checks.count,
        "failed_checks": checks.failed,
        "known_errors": checks.known_errors,
        "max_rel_err": checks.max_rel_err,
        "versions": {"python": sys.version.split()[0],
                     **{m: sys.modules[m].__version__
                        for m in ("numpy", "scipy", "mpmath")}},
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        with open(args.trace, "w") as fh:
            json.dump(tracer.records(), fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
