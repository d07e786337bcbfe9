"""Self-test of the benchmark: determinism and the metric contract.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload (by default those in ``BENCHMARK.json``) it makes one
untraced and two traced runs of ``run.py`` at one seed (a few minutes in
all), then asserts that

* every run reports ``correct`` and names exactly the metrics, with the
  units, that ``BENCHMARK.json`` declares for its mode;
* every round of every run gives one output digest;
* the two traced runs give identical exact counts.

Exits 0 when every assertion holds, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

#: Counts that must repeat exactly for one seed on one commit.
EXACT_COUNTS = ("signature.coeffs", "models.path_steps",
                "regress.lasso.sweeps", "regress.lasso.unconverged")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record_path = next(line.split(" ", 1)[1] for line in lines if line.startswith("record "))
    with open(os.path.join(ROOT, record_path), encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {mode: {m["name"]: m["unit"] for m in spec[key]}
                for mode, key in ((0, "end_to_end"), (1, "per_layer"))}

    failures = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [(trace, *_run(workload, args.seed, trace)) for trace in (0, 1, 1)]
        digests = set()
        for trace, result, record in results:
            if not result["correct"]:
                failures.append(f"{workload} trace {trace}: outputs not correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                failures.append(f"{workload} trace {trace}: metrics {units} differ "
                                f"from BENCHMARK.json {declared[trace]}")
            digests.update(r["digest"] for r in record["rounds"])
        if len(digests) != 1:
            failures.append(f"{workload}: {len(digests)} distinct output digests")
        counts = [{k: record["counts_per_traced_round"].get(k, 0) for k in EXACT_COUNTS}
                  for trace, _, record in results if trace]
        if counts[0] != counts[1]:
            failures.append(f"{workload}: exact counts differ: {counts}")
        print(f"{workload}: digest {sorted(digests)[0][:16]}  counts {counts[0]}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
