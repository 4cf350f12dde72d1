#!/usr/bin/env python3
"""qalg benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload exact-closure --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The workload's task list (see ``workloads.py``) is built from the seed, run
once untimed as a warm-up, then run again and again, in one process and one
thread, until ``--seconds`` have passed.  Every task's output is checked
after each round, outside the timed region.  Every time is scaled to one
host speed by the reference loop in ``speed.py``, timed around each round.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the result holds the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines above it repeat the
numbers for a reader, with the seed, the versions and the machine.
"""

import os

# One thread everywhere: set before numpy loads, inherited by subprocesses.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from speed import pin_to_fastest_cpu, reference_seconds, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
# Timed rounds per run, at least; with the task count this fixes the sample
# count the tail percentile rests on, however fast the program is.
MIN_ROUNDS = {"exact-closure": 4, "code-synthesis": 3, "identity-oracle": 16}
MIN_TRACE_ROUNDS = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)

# The benchmark's directory is on the path only while speed.py loads, so
# that none of its modules can shadow one that qalg imports.
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, {here!r}); "
                 "from speed import reference_seconds; del sys.path[0]; "
                 "ref = reference_seconds(); t = time.perf_counter(); "
                 "import qalg.cli; print(time.perf_counter() - t, ref)")


def measure_setup(runs: int):
    """Median wall time of ``import qalg.cli`` in fresh interpreters, each
    scaled by the reference loop timed in the same interpreter first.

    One extra interpreter runs first and is discarded: it may compile the
    bytecode cache, which a user pays once, not per invocation.  Returns
    the median and the raw (import seconds, reference seconds) pairs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    snippet = SETUP_SNIPPET.format(here=str(HERE))
    raw = []
    for k in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", snippet], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if k:
            raw.append(tuple(map(float, done.stdout.split())))
    return statistics.median(t * scale(ref) for t, ref in raw), raw


def tail_percentile(samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if samples * (100 - p) / 100 >= 10:
            best = p
    return best


@dataclass
class Round:
    wall: float         # raw seconds
    latencies: list     # raw seconds, one per task
    outcomes: list
    scale: float        # raw seconds -> seconds at the reference speed


def run_round(tasks, tracer=None) -> Round:
    """Run every task once, between two timings of the reference loop."""
    before = reference_seconds()
    gc.collect()
    latencies, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    for k, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = k
        t0 = clock()
        try:
            out = task.run()
        except Exception as exc:  # counted as a failed task, never fatal
            out = exc
        latencies.append(clock() - t0)
        outcomes.append(out)
    wall = clock() - start
    return Round(wall, latencies, outcomes, scale(before, reference_seconds()))


class Tally:
    """Attempted and failed task counts over every round, warm-up included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, tasks, outcomes):
        for task, out in zip(tasks, outcomes):
            self.attempted += 1
            problem = task.verify(out)
            if problem is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{task.label}: {problem}")


def timed_rounds(tasks, seconds, min_rounds, tally):
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(tasks))
        tally.check(tasks, rounds[-1].outcomes)
    return rounds


def traced_rounds(tasks, seconds, tally):
    """Untraced rounds for half the time, then traced rounds for the rest.

    The wrappers go in once: putting them in and out between rounds
    changes the classes they patch, which costs the interpreter its
    specialized code and slows both kinds of round.  Returns the scaled
    walls of both kinds, the layer metrics of each traced round and the
    spans of the last one."""
    from tracer import Tracer

    half = seconds / 2
    plain = timed_rounds(tasks, half, MIN_TRACE_ROUNDS, tally)
    tracer = Tracer()
    tracer.install()
    traced, layers = [], []
    start = time.perf_counter()
    try:
        while len(traced) < MIN_TRACE_ROUNDS or time.perf_counter() - start < half:
            r = run_round(tasks, tracer)
            layers.append(tracer.take_round(r.scale))
            tally.check(tasks, r.outcomes)
            traced.append(r.wall * r.scale)
    finally:
        tracer.uninstall()
    return [r.wall * r.scale for r in plain], traced, layers, tracer.last_spans


def metadata(args, tasks):
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = hashlib.sha256("\0".join(t.inputs for t in tasks).encode())
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "tasks": len(tasks),
        "families": dict(Counter(t.family for t in tasks)),
        "inputs_sha256": inputs.hexdigest(),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def end_to_end(tasks, rounds, setup_s, tally, min_rounds):
    walls = [r.wall * r.scale for r in rounds]
    flat = sorted(x * r.scale for r in rounds for x in r.latencies)
    # The percentile is fixed by the guaranteed sample count, not by how
    # many rounds fitted, so a slower program cannot lower it.
    pct = tail_percentile(min_rounds * len(tasks))
    import numpy
    fail_frac = tally.failed / tally.attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "task_p50_ms": (statistics.median(flat) * 1e3, "ms"),
        "task_tail_ms": (float(numpy.percentile(flat, pct)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "pass_frac": (1.0 - fail_frac, "ratio"),
    }
    notes = {
        "task_tail_ms": f"p{pct:g} of {len(flat)} samples",
        "wall_s": f"median of {len(walls)} rounds; raw "
                  f"{statistics.median(r.wall for r in rounds):.4g} s",
        "setup_s": f"median of {SETUP_RUNS} interpreters",
        "pass_frac": "1 - fail_frac",
    }
    return metrics, notes, {"tail_percentile": pct, "tail_samples": len(flat),
                            "fail_frac": fail_frac}


def per_task_medians(tasks, rounds):
    return [{"label": t.label, "family": t.family,
             "median_ms": statistics.median(r.latencies[k] * r.scale
                                            for r in rounds) * 1e3}
            for k, t in enumerate(tasks)]


UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "term_pairs": "count",
         "bytes": "B", "dim3_sum": "count", "basis_dim": "count",
         "max_coeff_bits": "bits", "irrational_share": "ratio", "overhead_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-closure", "code-synthesis", "identity-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min runs the smallest member of each family")
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "qalg" / "__init__.py").is_file():
        print(f"perfbench: no qalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, work: Path) -> int:
    pinned = pin_to_fastest_cpu()
    setup_s, setup_raw = measure_setup(SETUP_RUNS)

    import workloads

    tasks = workloads.build(args.workload, args.seed, args.size, work)
    tally = Tally()
    tally.check(tasks, run_round(tasks).outcomes)  # warm-up, not timed

    record = {"meta": metadata(args, tasks), "pinned_cpu": pinned,
              "setup_raw": setup_raw}
    if args.trace:
        plain, traced, layers, spans = traced_rounds(tasks, args.seconds, tally)
        values = {key: statistics.median(r[key] for r in layers)
                  for key in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in values.items()}
        notes = {"trace.overhead_s": f"{len(traced)} traced and {len(plain)} "
                                     f"untraced rounds"}
        record["spans_last_round"] = [
            {"name": n, "task": t, "parent": p, "start": s, "end": e}
            for n, t, p, s, e in spans]
    else:
        min_rounds = MIN_ROUNDS[args.workload]
        rounds = timed_rounds(tasks, args.seconds, min_rounds, tally)
        metrics, notes, extra = end_to_end(tasks, rounds, setup_s, tally,
                                           min_rounds)
        record.update(extra)
        record["rounds_raw"] = [{"wall": r.wall, "scale": r.scale} for r in rounds]
        record["task_medians"] = per_task_medians(tasks, rounds)

    meta = record["meta"]
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} tasks={len(tasks)}")
    print("  " + " ".join(f"{k}={meta[k]}" for k in
                          ("git_sha", "python", "numpy", "scipy", "nproc")))
    if not args.trace:
        # Reported beside the metrics only: a metric in the result line
        # must never read 0, so the result line carries pass_frac instead.
        notes["fail_frac"] = f"{tally.failed} of {tally.attempted} task runs"
        metrics = dict(metrics, fail_frac=(tally.failed / tally.attempted, "ratio"))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    metrics.pop("fail_frac", None)
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failures"] = tally.reasons
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
