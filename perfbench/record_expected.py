"""Record the virtual results ``expected.json`` holds.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_expected.py

For a workload whose virtual result depends on its seed, it records the
per-phase virtual seconds of seeds ``0 .. RECORDED_SEEDS-1``. A workload
whose result does not (``Workload.result_per_seed`` is False) gets one
``any`` entry, after checking that the first eight seeds agree when the
app takes a seed. Only re-record after a change that is meant to move
virtual time.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from sample import sample  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

#: seeds recorded for a workload whose virtual result depends on the seed
RECORDED_SEEDS = 32


def record(name: str, seed: int) -> dict:
    out = sample(WORKLOADS[name], seed, "run")
    if not out["verified"]:
        raise SystemExit(f"{name} seed {seed}: verification failed")
    return out["phases"]


def main() -> int:
    expected = {}
    for name, wl in WORKLOADS.items():
        if wl.result_per_seed:
            expected[name] = {"seeds": {str(s): record(name, s)
                                        for s in range(RECORDED_SEEDS)}}
        else:
            seeds = range(8) if wl.seeded else range(1)
            results = [record(name, s) for s in seeds]
            if any(r != results[0] for r in results):
                raise SystemExit(f"{name}: virtual result depends on the seed")
            expected[name] = {"any": results[0]}
        print(f"recorded {name}", flush=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
