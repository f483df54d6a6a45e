"""Architecture- and model-independent tool support (§4.3).

HAMSTER's per-module monitoring services exist precisely so that *tools* can
be leveraged across platforms: "an independent monitoring system may attach
externally … making it possible to leverage toolsets across platforms."
This package is that toolset:

* :mod:`repro.tools.monitor` — an external monitor that attaches to a
  running platform (live counter subscriptions + on-demand snapshots) and
  produces counter timelines, without touching application code. Periodic
  sampling belongs to :class:`repro.obs.metrics.MetricsSampler`.
* :mod:`repro.tools.profile` — post-run profile reports: per-rank protocol
  breakdowns, communication volumes, sync-time shares.
* :mod:`repro.tools.traceview` — summaries over the simulation trace:
  message histograms, fault timelines, per-kind statistics.

Everything here consumes only the public monitoring/trace surfaces, so the
same tool works on every platform and under every programming model.
"""

from repro.tools.export import figure_to_csv, run_to_json, stats_to_csv
from repro.tools.monitor import AttachedMonitor, CounterSample
from repro.tools.profile import ProfileReport, profile_platform
from repro.tools.traceview import TraceSummary, summarize_trace

__all__ = [
    "AttachedMonitor",
    "run_to_json",
    "figure_to_csv",
    "stats_to_csv",
    "CounterSample",
    "ProfileReport",
    "profile_platform",
    "TraceSummary",
    "summarize_trace",
]
