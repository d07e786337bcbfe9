"""The reference loop: a fixed pure-Python loop whose time measures the
host's speed at the moment it runs.

The host's cores drift in speed by tens of percent over seconds to minutes
(see NOTES.md), and a loop timed in the measured thread right before a piece
of work follows that drift closely.  ``run.py`` divides round wall times by
it; ``setup_probe.py`` scales set-up time by it.
"""
import time

#: One sample is the mean time of ``REPEATS`` runs of a loop of
#: ``ITERATIONS`` steps, about 50 ms in all.
ITERATIONS = 100_000
REPEATS = 5

#: A round figure for a sample's time on the host this benchmark was
#: defined on (2-vCPU Intel Xeon VM, Python 3.11.7), where samples took 7 to
#: 17 ms.  ``setup_s`` is reported in seconds at this speed.
NOMINAL_S = 0.010


def reference_seconds() -> float:
    """Mean time of the fixed loop: the host's speed right now."""
    total = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(ITERATIONS):
            acc += i * i % 7
        total += time.perf_counter() - start
    return total / REPEATS
