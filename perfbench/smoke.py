#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

Runs every workload traced at ``--size min`` three times: twice with one
seed, once with another.  It asserts that the deterministic counts (calls,
term pairs, basis dimensions, coefficient bits, bytes, flop counts) repeat
exactly for one seed, that a second seed changes the inputs but not the
task count or the family mix, and that every output passes its check.  It
takes about a minute and is kept out of the repository's test suite on
purpose: it times things, and timing has no place in a pass/fail suite.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
DETERMINISTIC = (".calls", ".term_pairs", ".basis_dim", ".max_coeff_bits",
                 ".bytes", ".dim3_sum")


def run(workload, seed, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1",
         "--size", "min", "--out", str(out)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, done.stdout
    return json.loads(out.read_text())


def counts(record) -> dict:
    return {k: m["value"] for k, m in record["metrics"].items()
            if k.endswith(DETERMINISTIC)}


def main() -> int:
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS:
            first, again, other = (
                run(workload, seed, Path(tmp) / f"{workload}-{k}.json")
                for k, seed in enumerate((1, 1, 2)))
            assert counts(first) == counts(again), workload
            assert first["meta"]["inputs_sha256"] == again["meta"]["inputs_sha256"]
            assert first["meta"]["inputs_sha256"] != other["meta"]["inputs_sha256"]
            for key in ("tasks", "families"):
                assert first["meta"][key] == other["meta"][key], (workload, key)
            print(f"{workload}: {first['meta']['tasks']} tasks, "
                  f"{len(counts(first))} deterministic counts repeat")
    try:
        scratch.rmdir()
    except OSError:  # another run is still using it
        pass
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
