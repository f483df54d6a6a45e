"""External monitoring system (§4.3, third consumer).

An :class:`AttachedMonitor` hooks a built platform *from outside*: it
subscribes to every module's counters and can snapshot the full statistics
tree on demand. The application needs no changes and the programming model
stays fully transparent — the point of the paper's design.

Periodic virtual-time sampling is not done here: the one sampler is
:class:`~repro.obs.metrics.MetricsSampler`, enabled through
``ClusterConfig.metrics_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["CounterSample", "CounterEvent", "AttachedMonitor"]


@dataclass(frozen=True)
class CounterEvent:
    """One live counter update seen through a subscription."""

    time: float
    module: str
    counter: str
    value: float


@dataclass
class CounterSample:
    """One on-demand snapshot of the whole statistics tree."""

    time: float
    tree: Dict[str, Any] = field(default_factory=dict)

    def get(self, module: str, counter: str, default: float = 0.0) -> float:
        return self.tree.get(module, {}).get(counter, default)


class AttachedMonitor:
    """Attach to a platform; collect live events and on-demand samples."""

    def __init__(self, platform) -> None:
        self.platform = platform
        self.hamster = platform.hamster
        self.events: List[CounterEvent] = []
        self.samples: List[CounterSample] = []
        self._attached = False

    # ---------------------------------------------------------------- attach
    def attach(self) -> "AttachedMonitor":
        """Subscribe to all module counters. Call before ``run_spmd``."""
        if self._attached:
            return self
        self._attached = True
        for name, stats in self.hamster.monitoring._modules.items():
            stats.subscribe(self._on_update)
        return self

    def _on_update(self, module: str, counter: str, value: float) -> None:
        self.events.append(CounterEvent(time=self.hamster.engine.now,
                                        module=module, counter=counter,
                                        value=value))

    # --------------------------------------------------------------- queries
    def snapshot(self) -> CounterSample:
        """Take one on-demand snapshot of the full statistics tree."""
        sample = CounterSample(time=self.hamster.engine.now,
                               tree=self.hamster.query_statistics())
        self.samples.append(sample)
        return sample

    def timeline(self, module: str, counter: str) -> List[CounterEvent]:
        """All live updates of one counter, in time order."""
        return [e for e in self.events
                if e.module == module and e.counter == counter]

    def rate(self, module: str, counter: str) -> float:
        """Average updates/second of a counter over the monitored window."""
        events = self.timeline(module, counter)
        if len(events) < 2:
            return 0.0
        span = events[-1].time - events[0].time
        return (len(events) - 1) / span if span > 0 else float("inf")

    def peak(self, module: str, counter: str) -> float:
        events = self.timeline(module, counter)
        return max((e.value for e in events), default=0.0)

    def report(self) -> str:
        """Human-readable summary of everything observed."""
        lines = [f"monitor report: {len(self.events)} live events, "
                 f"{len(self.samples)} samples"]
        by_counter: Dict[tuple, int] = {}
        for e in self.events:
            by_counter[(e.module, e.counter)] = by_counter.get(
                (e.module, e.counter), 0) + 1
        for (module, counter), count in sorted(by_counter.items()):
            lines.append(f"  {module}.{counter}: {count} updates, "
                         f"final={self.peak(module, counter):g}")
        return "\n".join(lines)
