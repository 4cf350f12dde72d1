"""The reference loop that scales the benchmark's times to one host speed.

On a shared machine the speed of the same code swings by a third over
minutes, as other work loads the cores.  The benchmark times this fixed
pure-Python loop next to every round and every set-up interpreter, and
scales each time to the speed at which the loop takes REFERENCE_SECONDS.
The loop is the benchmark's own code, so a change to qalg cannot move it.
It imports nothing, so it can run before ``import qalg.cli`` is timed
without changing what that import has to load.
"""

REFERENCE_SECONDS = 0.010


def reference_seconds() -> float:
    """Best of three timings of the reference loop."""
    from time import perf_counter

    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def pin_to_fastest_cpu():
    """Pin this process, and the processes it starts, to the CPU on which
    the reference loop runs fastest now.

    One of a shared machine's CPUs is often loaded by other work; a
    process that wanders between CPUs mixes two speeds into one run.
    Returns the chosen CPU and the reference time per CPU, or None where
    the platform cannot pin."""
    import os

    try:
        cpus = sorted(os.sched_getaffinity(0))
        timings = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = reference_seconds()
        best = min(timings, key=timings.get)
        os.sched_setaffinity(0, {best})
    except (AttributeError, OSError):
        return None
    return best, timings


def scale(*reference_times: float) -> float:
    """Factor that turns a time measured next to these reference timings
    into seconds at the reference speed."""
    return REFERENCE_SECONDS * len(reference_times) / sum(reference_times)
