"""Per-layer metrics of the traced run, by name, unit and direction.

``_s`` is host self-seconds, ``_vs`` virtual seconds. Counts come from the
wrappers of :mod:`layertrace` where a boundary sees the work, and from the
DSM's public per-rank statistics (``dsm.rank_stats``) for protocol events
no public function bounds (faults, fetches, notices, invalidations).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) in report order; BENCHMARK.json lists the same
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.eventq.ops", "count", "lower"),
    ("sim.eventq.self_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("msg.am.posts", "count", "lower"),
    ("msg.am.rpcs", "count", "lower"),
    ("msg.am.retries", "count", "lower"),
    ("msg.am.self_s", "s", "lower"),
    ("machine.net.sends", "count", "lower"),
    ("machine.net.bytes", "B", "lower"),
    ("machine.net.self_s", "s", "lower"),
    ("dsm.jiajia.read_faults", "count", "lower"),
    ("dsm.jiajia.write_faults", "count", "lower"),
    ("dsm.jiajia.pages_fetched", "count", "lower"),
    ("dsm.jiajia.write_notices", "count", "lower"),
    ("dsm.jiajia.pages_invalidated", "count", "lower"),
    ("dsm.jiajia.fetches_per_fault", "ratio", "lower"),
    ("dsm.jiajia.lock_wait_vs", "virtual_s", "lower"),
    ("dsm.jiajia.barrier_wait_vs", "virtual_s", "lower"),
    ("dsm.jiajia.self_s", "s", "lower"),
    ("dsm.diffs.made", "count", "lower"),
    ("dsm.diffs.applied", "count", "lower"),
    ("dsm.diffs.changed_bytes", "B", "lower"),
    ("dsm.diffs.runs_per_diff", "ratio", "lower"),
    ("dsm.diffs.useful_ratio", "ratio", "higher"),
    ("dsm.diffs.self_s", "s", "lower"),
    ("dsm.scivm.remote_reads", "count", "lower"),
    ("dsm.scivm.remote_writes", "count", "lower"),
    ("dsm.scivm.pages_mapped", "count", "lower"),
    ("dsm.scivm.self_s", "s", "lower"),
    ("memory.page.transitions", "count", "lower"),
    ("memory.self_s", "s", "lower"),
    ("core.lock_acquires", "count", "lower"),
    ("core.barriers", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("apps.compute_s", "s", "lower"),
    ("apps.verify_s", "s", "lower"),
    ("apps.verify.calls", "count", "lower"),
    ("obs.spans.self_s", "s", "lower"),
    ("obs.spans.calls", "count", "lower"),
    ("obs.sharing.self_s", "s", "lower"),
    ("obs.sharing.calls", "count", "lower"),
    ("sim.trace.self_s", "s", "lower"),
    ("sim.trace.calls", "count", "lower"),
    ("obs.metrics.self_s", "s", "lower"),
    ("obs.metrics.calls", "count", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    ("cp.compute_vs", "virtual_s", "lower"),
    ("cp.protocol_vs", "virtual_s", "lower"),
    ("cp.wire_vs", "virtual_s", "lower"),
    ("cp.blocked_vs", "virtual_s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: the self-time metrics; together they account for the traced run's
#: whole host time (``bench.unattributed_s`` is the root span's own time)
SELF_TIME_METRICS = tuple(name for name, _, _ in PER_LAYER
                          if name.endswith("self_s") or name in (
                              "apps.compute_s", "apps.verify_s",
                              "bench.unattributed_s"))

#: the observability subscribers (every ``.calls`` is 0 when they are off)
OBS_LAYERS = ("obs.spans", "obs.sharing", "sim.trace", "obs.metrics")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rank_totals(dsm) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for st in getattr(dsm, "rank_stats", ()):
        for key, value in st.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def traced_metrics(tracer, plat) -> Dict[str, float]:
    """Per-layer values of one traced simulation (everything except the
    ones the parent derives from untraced runs: ``us_per_event``,
    ``tracing_overhead_s`` and the ``cp.*`` breakdown)."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out: Dict[str, float] = {}
    out["sim.eventq.ops"] = calls["sim.eventq.push"] + calls["sim.eventq.pop"]
    out["sim.eventq.self_s"] = self_s["sim.eventq"]
    out["sim.engine.events"] = plat.engine.events_executed
    out["sim.engine.self_s"] = self_s["sim.engine"]

    out["msg.am.posts"] = calls["msg.am.post_g"]
    out["msg.am.rpcs"] = calls["msg.am.rpc_g"]
    fabric = plat.fabric
    out["msg.am.retries"] = getattr(getattr(fabric, "layer", None), "retries", 0)
    out["msg.am.self_s"] = self_s["msg.am"]

    out["machine.net.sends"] = calls["machine.net.send"]
    out["machine.net.bytes"] = counts["machine.net.bytes"]
    out["machine.net.self_s"] = self_s["machine.net"]

    dsm_module = type(plat.dsm).__module__
    stats = _rank_totals(plat.dsm)
    jj = dsm_module.startswith("repro.dsm.jiajia")
    for name, field in (("read_faults", "read_faults"),
                        ("write_faults", "write_faults"),
                        ("pages_fetched", "pages_fetched"),
                        ("write_notices", "write_notices_received"),
                        ("pages_invalidated", "pages_invalidated")):
        out[f"dsm.jiajia.{name}"] = stats.get(field, 0) if jj else 0
    faults = out["dsm.jiajia.read_faults"] + out["dsm.jiajia.write_faults"]
    out["dsm.jiajia.fetches_per_fault"] = _ratio(out["dsm.jiajia.pages_fetched"], faults)
    out["dsm.jiajia.lock_wait_vs"] = tracer.virtual_s["dsm.jiajia.lock_g"]
    out["dsm.jiajia.barrier_wait_vs"] = tracer.virtual_s["dsm.jiajia.barrier_g"]
    out["dsm.jiajia.self_s"] = self_s["dsm.jiajia"]

    made = calls["dsm.diffs.make_diff"]
    out["dsm.diffs.made"] = made
    out["dsm.diffs.applied"] = calls["dsm.diffs.apply_diff"]
    out["dsm.diffs.changed_bytes"] = counts["dsm.diffs.changed_bytes"]
    out["dsm.diffs.runs_per_diff"] = _ratio(counts["dsm.diffs.runs"], made)
    out["dsm.diffs.useful_ratio"] = _ratio(counts["dsm.diffs.changed_bytes"],
                                           counts["dsm.diffs.compared_bytes"])
    out["dsm.diffs.self_s"] = self_s["dsm.diffs"]

    sci = dsm_module.startswith("repro.dsm.scivm")
    for name in ("remote_reads", "remote_writes", "pages_mapped"):
        out[f"dsm.scivm.{name}"] = stats.get(name, 0) if sci else 0
    out["dsm.scivm.self_s"] = self_s["dsm.scivm"]

    out["memory.page.transitions"] = counts["memory.page.transitions"]
    out["memory.self_s"] = self_s["memory"]
    out["core.lock_acquires"] = calls["core.lock_g"]
    out["core.barriers"] = calls["core.barrier_g"]
    out["core.self_s"] = self_s["core"]

    out["apps.compute_s"] = self_s["apps"]
    out["apps.verify_s"] = self_s["apps.verify"]
    out["apps.verify.calls"] = calls["apps.verify"]
    for layer in OBS_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["bench.unattributed_s"] = self_s["bench"]
    return out
