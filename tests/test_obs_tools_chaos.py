"""Monitoring/profiling/trace tools exercised against chaos runs.

The observability satellite of the S17 fault work: with faults active, the
tool digests must surface what actually happened — retransmissions in the
trace summary, failure-detector confirmations after a crash, live counter
updates from an attached monitor, periodic samples from the metrics sampler
— and the obs layer must keep working under injected loss (retry wire
transfers stay causally linked).
"""

import pytest

from repro.config import preset
from repro.faults import FaultPlan, NodeCrash, run_chaos
from repro.tools import profile_platform, summarize_trace
from repro.tools.monitor import AttachedMonitor


@pytest.fixture(scope="module")
def chaos_run():
    """One seeded lossy (no-crash) chaos run with tracing + spans on."""
    cfg = preset("sw-dsm-2")
    cfg.trace = True
    cfg.observe = True
    result = run_chaos(cfg, app="sor", app_params={"n": 64, "iterations": 2},
                       plan=FaultPlan.seeded(42))
    assert result.outcome == "completed" and result.verified
    return result


class TestTraceviewChaosDigest:
    def test_retransmissions_show_up(self, chaos_run):
        summary = summarize_trace(chaos_run.built.engine.trace)
        assert summary.events_by_kind.get("am.retry", 0) > 0
        assert summary.events_by_kind.get("fault.drop", 0) > 0
        assert chaos_run.messaging["retries"] \
            == summary.events_by_kind["am.retry"]

    def test_every_kind_counted(self, chaos_run):
        summary = summarize_trace(chaos_run.built.engine.trace)
        trace = chaos_run.built.engine.trace
        assert sum(summary.events_by_kind.values()) == len(trace)
        for kind in ("net.send", "jj.fetch"):
            assert summary.events_by_kind.get(kind, 0) > 0

    def test_render_mentions_faults_and_retries(self, chaos_run):
        text = summarize_trace(chaos_run.built.engine.trace).render()
        assert "am.retry" in text
        assert "fault.drop" in text

    def test_detector_confirmation_in_digest(self):
        cfg = preset("sw-dsm-2")
        cfg.trace = True
        plan = FaultPlan(seed=3, crashes=(NodeCrash(node=1, at=1e-3),))
        result = run_chaos(cfg, app="sor", app_params={"n": 64}, plan=plan)
        assert result.outcome == "node-failed"
        summary = summarize_trace(result.built.engine.trace)
        assert summary.events_by_kind.get("fault.crash", 0) == 1
        assert summary.events_by_kind.get("hb.suspect", 0) > 0
        assert summary.events_by_kind.get("hb.confirm", 0) == 1
        assert "hb.confirm=1" in summary.render()


class TestProfileUnderChaos:
    def test_profile_renders_after_faulty_run(self, chaos_run):
        report = profile_platform(chaos_run.built)
        text = report.render()
        assert "profile:" in text
        # Faulty runs pay real communication; the profile must show it.
        assert report.total("fetches") > 0
        assert report.total("barriers") > 0
        assert report.messages > 0


class TestMonitorUnderChaos:
    def test_attached_monitor_sees_faulty_run(self):
        from repro.models.jiajia_api import JiaJiaApi

        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan.seeded(7)
        cfg.metrics_interval = 0.5e-3
        built = cfg.build()
        monitor = AttachedMonitor(built).attach()
        api = JiaJiaApi(built.hamster)

        def main(jia):
            pid, _ = jia.jia_init()
            a = jia.jia_alloc_array((64,), name="x")
            jia.jia_barrier()
            jia.jia_lock(1)
            a[pid] = 1.0
            jia.jia_unlock(1)
            jia.jia_barrier()

        api.run(main)
        assert monitor.events, "no live counter updates seen"
        assert monitor.timeline("sync", "barriers")
        assert built.metrics.samples, "no periodic samples collected"
        assert built.metrics.samples[-1].get("sync.barriers") > 0


class TestSpansUnderChaos:
    def test_spans_closed_and_retries_linked(self, chaos_run):
        rec = chaos_run.built.obs
        assert len(rec.spans) > 0
        assert all(s.end is not None for s in rec.spans)
        # More wire transfers than logical sends: retransmissions reuse the
        # message and parent to the same originating span.
        retries = chaos_run.messaging["retries"]
        assert retries > 0
        by_msg = {}
        for span in rec.of_kind("net.xfer"):
            key = span.get("msg_id")
            by_msg.setdefault(key, []).append(span)
        retried = {k: v for k, v in by_msg.items() if len(v) > 1}
        assert retried, "no retransmitted wire transfer recorded"
        for transfers in retried.values():
            parents = {t.parent for t in transfers}
            assert len(parents) == 1, "retry chain lost its causal parent"

    def test_critical_path_still_partitions(self, chaos_run):
        from repro.obs import critical_path_report

        report = critical_path_report(chaos_run.built)
        for breakdown in report.ranks:
            assert breakdown.category_sum() == pytest.approx(
                breakdown.total, abs=1e-12)

    def test_chrome_export_valid_under_faults(self, chaos_run):
        from repro.obs import chrome_trace, validate_chrome_trace

        doc = chrome_trace(chaos_run.built.obs)
        assert validate_chrome_trace(doc) == []
