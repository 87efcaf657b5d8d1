"""Small-size self-test of the benchmark.  Run from the repository root:

    python3 benchmarks/selftest.py

Checks the format of BENCHMARK.json (keys, names, units, bounds), that
the input generators are deterministic in the seed, that every workload
prints a well-formed result at --size small (and the traced run every
per-layer metric), and that the command fails without printing a result
where the fracdecay sources are missing.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
errors = []


def check(ok, message):
    if not ok:
        errors.append(message)
        print(f"FAIL {message}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(workloads.WORKLOADS), "workloads match the generators")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w['name']}")
    seen = set()
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            check(set(m) == keys and NAME.match(m["name"])
                  and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
                  and m["name"] not in seen, f"{kind} metric {m['name']}")
            seen.add(m["name"])
            if kind == "end_to_end":
                check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s with the largest bound")


def check_generators():
    for name in workloads.WORKLOADS:
        a = json.dumps(workloads.generate(name, 7, "small"), default=list)
        b = json.dumps(workloads.generate(name, 7, "small"), default=list)
        c = json.dumps(workloads.generate(name, 8, "small"), default=list)
        check(a == b, f"{name}: same seed, same inputs")
        check(a != c or name == "reproduce_strict", f"{name}: seed matters")


def run(cwd, workload, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode} "
          f"{proc.stderr[-500:]}")
    if proc.returncode:
        return
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(res["correct"] is True and res["failed"] == 0, f"{label}: correct")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          f"{label}: attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check([*res["metrics"]] == [m["name"] for m in wanted],
          f"{label}: metric names")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]), f"{label}: {m['name']}")
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "ok_frac",
                     "max_rel_err"):
            check(res["metrics"][name]["value"] > 0, f"{label}: {name} > 0")


def check_without_program():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "fd_stepping", 0)
        check(proc.returncode != 0, "fails without the program")
        check("{" not in proc.stdout, "prints no result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    errors.clear()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_generators()
    check_without_program()
    for workload in workloads.WORKLOADS:
        check_result(spec, workload, 0)
    check_result(spec, "spectral_sweep", 1)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
