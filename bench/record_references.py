"""Record the reference output digests that the benchmark checks units against.

    python3 bench/record_references.py

Run from the root of a checkout of the commit whose outputs are the
reference.  For each workload it runs the first units of the default seed 0
and of the held-out seed 1 (and of seed 0 at toy size, for the self-test),
checks every unit, and writes their digests to bench/references.json.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_PIN

os.environ.update(BLAS_PIN)  # before numpy is imported, as in the benchmark's workers
sys.path.insert(0, "src")

import workloads  # noqa: E402

SEEDS = (0, 1)
#: Units recorded per seed: more than a 35-second run of each workload reaches
#: on a 2-core Xeon, where cls-intervals runs about 45 units, logistic-mc 9
#: and cli-sweep 30.
UNITS = {"cls-intervals": 64, "logistic-mc": 14, "cli-sweep": 40}
TOY_UNITS = 4


def record(workload, seed: int, count: int) -> list[str]:
    digests = []
    for k in range(count):
        digest, problems = workload.check(workload.run(workloads.unit_seed(seed, workload.name, k)))
        if problems:
            raise SystemExit(f"{workload.name} seed {seed} unit {k}: {'; '.join(problems)}")
        digests.append(digest)
    return digests


def main() -> None:
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        full, toy = cls(), cls(toy=True)
        table[name] = {
            "full": {str(seed): record(full, seed, UNITS[name]) for seed in SEEDS},
            "toy": {"0": record(toy, 0, TOY_UNITS)},
        }
        print(f"{name}: recorded", flush=True)
    workloads.REFERENCES.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
