#!/usr/bin/env python3
"""Record a baseline: every workload over ten seeds, plus traced runs.

    python3 perfbench/baseline.py perfbench/baseline.json

For each workload this runs ``run.py`` untraced with seeds 1 to 10 and
reports, per end-to-end metric, the median, the quartiles and the spread
(the distance between the quartiles over the median).  It then runs the
workload traced twice with seed 1 and keeps the per-layer medians of both
runs, so the repeat of the deterministic counts can be read off the file.
Runs go one after another, never in parallel, so they do not disturb each
other's timings.  It takes about half an hour.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(out: str) -> int:
    record = {"run_seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in range(1, 11)]
        traced = [run(workload, 1, 1) for _ in range(2)]
        record["workloads"][workload] = {
            "seeds": list(range(1, 11)),
            "all_correct": all(r["correct"] for r in runs + traced),
            "meta": runs[0]["report"][:2],
            "end_to_end": {
                name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"])
                for name in runs[0]["metrics"]},
            "per_layer_seed1": {
                name: {"unit": m["unit"],
                       "values": [t["metrics"][name]["value"] for t in traced]}
                for name, m in traced[0]["metrics"].items()},
        }
        print(workload, "done", flush=True)
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
