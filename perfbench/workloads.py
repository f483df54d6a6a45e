"""The benchmark's workloads and their recorded virtual results.

Each workload is one simulation: a figure label of
``repro.bench.runners.WORKLOADS`` at a scale, on a preset, with or without
the observability subscribers. This module imports nothing from ``repro``
at import time, so a sample process can start its set-up clock before the
first ``import repro``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 0

#: the observability subscribers ``repro diagnose``/``repro trace`` turn on
OBSERVED = {"observe": True, "sharing": True, "trace": True,
            "metrics_interval": 0.001}


@dataclass(frozen=True)
class Workload:
    name: str
    label: str
    scale: float
    preset: str
    why: str
    #: ClusterConfig fields set on top of the preset
    config: Dict[str, object] = field(default_factory=dict)
    #: False when the app has no random input
    seeded: bool = True
    #: False when the virtual result is the same for every seed, so
    #: ``expected.json`` holds one value for all of them
    result_per_seed: bool = True

    @property
    def observed(self) -> bool:
        return bool(self.config.get("observe"))

    def params(self, seed: int) -> dict:
        """App keyword arguments for ``seed`` (the seed reaches the app's
        own ``seed`` parameter; PI has no random input)."""
        from repro.bench.runners import WORKLOADS

        params = WORKLOADS[self.label].params(self.scale)
        if self.seeded:
            params["seed"] = seed
        return params

    def app(self) -> str:
        from repro.bench.runners import WORKLOADS

        return WORKLOADS[self.label].app

    def cluster_config(self, observe: bool = False):
        """The preset with this workload's fields (``observe`` forces span
        recording on, for the critical-path pass)."""
        from repro.config import preset

        fields = dict(self.config)
        if observe:
            fields["observe"] = True
        return replace(preset(self.preset), **fields)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sor-jiajia-4", "SOR", 0.25, "sw-dsm-4",
             "JiaJia write path: twins, diffs and write notices at every "
             "barrier (cyclic homes, so most writes are remote)"),
    Workload("pi-torus-1024", "PI", 0.05, "sci-torus-1024",
             "1,024 processes fan lock and barrier traffic into one point; "
             "no diffs, almost no compute: event queue and dispatch",
             seeded=False, result_per_seed=False),
    # The next two run at scale 0.125, not 0.25, so that a run fits the
    # eight timed samples its metrics are estimated from.
    Workload("water-eth-64-observed", "WATER 288", 0.125, "eth-64",
             "the repro diagnose/trace flow: page fetches and locks over "
             "active messages with every obs subscriber on",
             config=dict(OBSERVED)),
    # SCI-VM charges by size, not by the bytes written, so the seed does
    # not move this workload's virtual result.
    Workload("sor-torus-64", "SOR", 0.125, "sci-torus-64",
             "SCI-VM remote-write data path with no diffs; each of 64 ranks "
             "recomputes the sequential reference (verification cost)",
             result_per_seed=False),
)}


def load_expected(path: str = EXPECTED_PATH) -> dict:
    """``{workload: {"seeds": {seed: phases}, "any": phases | None}}``."""
    with open(path) as fh:
        return json.load(fh)


def expected_phases(expected: dict, workload: str,
                    seed: int) -> Optional[Dict[str, float]]:
    """The recorded virtual result for ``workload`` at ``seed``, or None
    when none was recorded for that seed."""
    entry = expected.get(workload, {})
    if entry.get("any") is not None:
        return entry["any"]
    return entry.get("seeds", {}).get(str(seed))
