"""Self-check of the benchmark's traced run.

    python3 perfbench/selfcheck.py

It checks that a short untraced run reports exactly the end-to-end
metrics that BENCHMARK.json lists. Then, for each of the three workloads,
it makes two traced runs with the same seed and checks that

* both runs are correct and report exactly the per-layer metrics that
  BENCHMARK.json lists;
* no wrap target is missing and every span the workload must reach
  (tracer.EXPECTED) was called;
* the spans below cli.main account for the traced op's wall time: what
  is left, cli.main's own self time, is at most ACCOUNTED_SHARE of it;
* every exact count (tracer.EXACT_COUNTS) repeats identically.

Exit code 0 when every check passes, 1 otherwise. Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from tracer import EXACT_COUNTS

ACCOUNTED_SHARE = 0.02


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, per_layer: set) -> list:
    first, second = short_run(workload, 1), short_run(workload, 1)
    problems = []
    for i, res in enumerate((first, second)):
        if not res["correct"] or res["failed"]:
            problems.append(f"run {i} not correct: {res['failed']} of {res['attempted']} failed")
        names = set(res["metrics"])
        if names != per_layer:
            problems.append(f"run {i} metrics differ from BENCHMARK.json per_layer: "
                            f"{sorted(names ^ per_layer)}")
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        if metrics.get("trace.missing_targets"):
            problems.append(f"run {i}: {metrics['trace.missing_targets']} trace targets missing")
        traced_s = metrics["trace.op_wall_s"] + metrics["trace.overhead_s"]
        if metrics["trace.unaccounted_s"] > ACCOUNTED_SHARE * traced_s:
            problems.append(f"run {i}: {metrics['trace.unaccounted_s']:.4f} s of the "
                            f"{traced_s:.4f} s traced op is outside the inner spans")
    for name in EXACT_COUNTS:
        a, b = (res["metrics"][name]["value"] for res in (first, second))
        if a != b:
            problems.append(f"{name}: {a} != {b} between identical traced runs")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    res = short_run("precode", 0)
    failed = not res["correct"] or set(res["metrics"]) != end_to_end
    print(f"end-to-end metric names: {'FAIL' if failed else 'ok'}")
    for workload in sorted(run.WORKLOADS):
        problems = check(workload, per_layer)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
