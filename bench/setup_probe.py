"""One set-up sample, run as a fresh process by ``run.py``:

    python3 bench/setup_probe.py <src dir> <workload> <seed> <config dir>

Times the import of the CLI plus building and writing the workload's
configurations.  Prints the seconds and the mean of two reference samples
taken right before and right after, on one line.
"""
import sys
import time

from reference import reference_seconds
from workloads import WORKLOADS, build_configs

if __name__ == "__main__":
    src, workload, seed, config_dir = sys.argv[1:5]
    runs = WORKLOADS[workload](int(seed))
    ref_before = reference_seconds()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import gammasig.cli  # noqa: F401  (the import is what is timed)
    build_configs(runs, config_dir)
    seconds = time.perf_counter() - start
    print(repr(seconds), repr((ref_before + reference_seconds()) / 2))
