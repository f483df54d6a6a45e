"""Time-series metrics: interval sampling of every monitoring surface.

The paper's counters answer "how much, in total"; Regional Consistency
(arXiv:1301.4490) argues tuning needs *per-interval* measurement. The
:class:`MetricsSampler` snapshots, at a configurable virtual-time period:

* every :class:`~repro.core.monitoring.ModuleStats` registry (flattened to
  ``module.counter`` keys),
* network totals (``net.messages``, ``net.bytes``),
* per-node active-message queue depths (``am.qdepth.n<N>`` — the live
  contention signal no end-of-run total can show).

This is the repository's one virtual-time sampler (the external
:class:`~repro.tools.monitor.AttachedMonitor` records live counter updates
and on-demand snapshots, not periodic ones). It is a self-rescheduling
engine *event*, not a process: it charges no virtual time, never keeps the
simulation alive, and stops once no non-daemon process remains. Samples
hold cumulative values; :meth:`MetricsSampler.rates` turns any key into a
per-interval rate curve (bandwidth, fetch rate, ...).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["MetricPoint", "MetricsSampler"]


@dataclass
class MetricPoint:
    """One snapshot of all sampled metrics at a virtual instant."""

    time: float
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.values.get(key, default)


class MetricsSampler:
    """Periodic snapshots of a built platform's monitoring surfaces."""

    def __init__(self, platform, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"metrics interval must be > 0, got {interval}")
        self.platform = platform
        self.engine = platform.engine
        self.interval = interval
        self.samples: List[MetricPoint] = []
        self._started = False

    # --------------------------------------------------------------- control
    def start(self) -> "MetricsSampler":
        """Arm the sampler (idempotent). Call before the SPMD run; the first
        sample lands one interval in. One final sample may land up to one
        interval after the last task exits."""
        if self._started:
            return self
        self._started = True
        engine = self.engine

        def tick() -> None:
            self.sample()
            if engine.app_alive():
                engine.schedule(self.interval, tick)

        engine.schedule(self.interval, tick)
        return self

    def sample(self) -> MetricPoint:
        """Take one on-demand snapshot (also usable without :meth:`start`)."""
        values: Dict[str, float] = {}
        hamster = self.platform.hamster
        for module, counters in hamster.monitoring.query_all().items():
            for counter, value in counters.items():
                values[f"{module}.{counter}"] = float(value)
        network = self.platform.cluster.network
        if network is not None:
            values["net.messages"] = float(network.messages_sent)
            values["net.bytes"] = float(network.bytes_sent)
        fabric = getattr(self.platform, "fabric", None)
        if fabric is not None:
            layer = fabric.layer
            total = 0
            for node_id, queue in layer._queues.items():
                depth = len(queue)
                total += depth
                values[f"am.qdepth.n{node_id}"] = float(depth)
            values["am.qdepth.total"] = float(total)
            values["am.retries"] = float(layer.retries)
        point = MetricPoint(time=self.engine.now, values=values)
        self.samples.append(point)
        return point

    # --------------------------------------------------------------- queries
    def keys(self) -> List[str]:
        seen: Dict[str, None] = {}
        for point in self.samples:
            for key in point.values:
                seen.setdefault(key, None)
        return sorted(seen)

    def series(self, key: str) -> List[Tuple[float, float]]:
        """(time, value) pairs of one metric across all samples."""
        return [(p.time, p.get(key)) for p in self.samples]

    def rates(self, key: str) -> List[Tuple[float, float]]:
        """Per-interval rate curve of a cumulative metric: (time, d/dt).

        ``net.bytes`` becomes instantaneous bandwidth; ``memory.allocations``
        becomes an allocation-rate curve; and so on.
        """
        out: List[Tuple[float, float]] = []
        prev_t, prev_v = 0.0, 0.0
        for time, value in self.series(key):
            dt = time - prev_t
            out.append((time, (value - prev_v) / dt if dt > 0 else 0.0))
            prev_t, prev_v = time, value
        return out

    # --------------------------------------------------------------- exports
    def to_csv(self) -> str:
        """One row per sample, one column per metric (stable key order)."""
        keys = self.keys()
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["time"] + keys)
        for point in self.samples:
            writer.writerow([f"{point.time:.9f}"]
                            + [f"{point.get(k):g}" for k in keys])
        return out.getvalue()

    def to_json(self, indent: int = 2) -> str:
        doc: List[Dict[str, Any]] = [
            {"time": p.time, "values": {k: p.values[k] for k in sorted(p.values)}}
            for p in self.samples]
        return json.dumps(doc, indent=indent)

    def __len__(self) -> int:
        return len(self.samples)
