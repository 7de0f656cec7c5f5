"""Self-test of the benchmark harness.

Usage (from the repository root): python3 bench/selftest.py

1. The tiny variant of each workload runs untraced and traced without a
   failure, and reports every metric that BENCHMARK.json lists, with the
   units it lists.
2. Each tiny workload runs again with its output corrupted after every
   call (a task scheduled twice, or an oracle rule marked infeasible); its
   error rate must rise above 0, so the output checks are shown to bite.
3. run.py, copied with BENCHMARK.json into a directory without the
   pulseplan sources, exits non-zero without printing a result.

Exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def check_metrics(result, listed, problems):
    printed = run.json_metrics(result)
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in printed.items()}
    if got != want:
        problems.append(f"{result['workload']} trace={result['trace']}: "
                        f"printed {sorted(got.items())}, listed {sorted(want.items())}")
    for name, m in printed.items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{result['workload']}: {name} is not a number")


def bare_checkout_fails(problems):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "edbf-64k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed_names = [w["name"] for w in spec["workloads"]]
    problems = []
    if not set(listed_names) <= set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed_names} not in {list(run.WORKLOADS)}")
    for name, w in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(w, run.DEFAULT_SEED, 1, trace, scale="tiny")
            if result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['problems'][:2]}")
            check_metrics(result, spec["per_layer" if trace else "end_to_end"], problems)
        bad = run.run_workload(w, run.DEFAULT_SEED, 1, False, scale="tiny", corrupt=True)
        if not bad["end_to_end"]["error_rate"]["value"] > 0:
            problems.append(f"{name}: corrupted output left error_rate at 0")
        print(f"{name}: tiny runs done; corrupted run failed "
              f"{bad['failed']}/{bad['attempted']} requests")
    bare_checkout_fails(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
