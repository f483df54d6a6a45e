"""The fleet's flight recorder: event log, heartbeats, progress-at-kill.

Covers the structured event log contract end to end: the writer/reader
pair, live tailing over complete lines only, the ``validate_events``
schema gate, the engine host hook heartbeats flow through, the sweep
determinism guarantee (enabling the log cannot change canonical
records), symmetric progress callbacks, and the manifest's new
cache-stats / progress-at-kill surfaces.
"""

import json

import pytest

from repro.fabric import (EVENT_KINDS, EVENTS_SCHEMA, EventLog, GridSpec,
                          ResultCache, canonical_records_json, read_events,
                          run_sweep, tail_events, validate_events)
from repro.fabric.manifest import CellOutcome, SweepManifest
from repro.sim.engine import Engine, clear_host_hook, set_host_hook

SMALL = GridSpec(presets=("smp-2", "sw-dsm-2"), labels=("PI", "MatMult"),
                 scales=(0.04,))


def small_cache(tmp_path, name="cache"):
    return ResultCache(str(tmp_path / name))


class TestEventLog:
    def test_writes_header_then_flushed_event_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path), suite="s", cells=3, workers=2) as log:
            log.emit("sweep-begin")
            log.emit("enqueued", cell=0, id="a", key="k0")
            # flushed per line: a concurrent reader sees both already
            lines = path.read_text().splitlines()
            assert len(lines) == 3
        header, events = read_events(str(path))
        assert header["schema"] == EVENTS_SCHEMA
        assert (header["suite"], header["cells"], header["workers"]) == \
            ("s", 3, 2)
        assert [e["kind"] for e in events] == ["sweep-begin", "enqueued"]
        assert events[1]["cell"] == 0 and events[1]["key"] == "k0"

    def test_timestamps_never_go_backwards(self):
        log = EventLog(suite="s")  # in-memory only
        ts = [log.emit(k)["t"] for k in ("sweep-begin", "sweep-end")] + \
            [log.emit("worker-spawn", worker=0)["t"]]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            EventLog(suite="s").emit("teleported")

    def test_tail_skips_header_and_partial_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), suite="s", cells=1)
        log.emit("sweep-begin")
        events, offset = tail_events(str(path), 0)
        assert [e["kind"] for e in events] == ["sweep-begin"]
        # a torn trailing line is left for the next call
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": 9.0, "kind": "sweep-en')
            fh.flush()
            events, offset2 = tail_events(str(path), offset)
            assert events == [] and offset2 == offset
            fh.write('d"}\n')
        events, _ = tail_events(str(path), offset2)
        assert [e["kind"] for e in events] == ["sweep-end"]
        log.close()


class TestValidateEvents:
    def header(self, **over):
        d = {"schema": EVENTS_SCHEMA, "suite": "s", "cells": 1, "workers": 1}
        d.update(over)
        return json.dumps(d)

    def test_accepts_a_minimal_valid_log(self):
        lines = [self.header(),
                 '{"t": 0.0, "kind": "sweep-begin"}',
                 '{"t": 0.5, "kind": "sweep-end"}']
        assert validate_events(lines) == []

    @pytest.mark.parametrize("line,needle", [
        ('{"t": 0.1, "kind": "warp"}', "unknown kind"),
        ('{"t": -1, "kind": "sweep-end"}', "non-negative"),
        ('{"kind": "sweep-end"}', "'t' must be"),
        ('{"t": 0.1, "kind": "done"}', "'cell' must be"),
        ('{"t": 0.1, "kind": "worker-spawn"}', "'worker' must be"),
        ('{"t": 0.1, "kind": "heartbeat", "cell": 0, "worker": 0}',
         "missing 'data'"),
        ('{"t": 0.1, "kind": "heartbeat", "cell": 0, "worker": 0, '
         '"data": {"events_executed": "many"}}', "must be a number"),
    ])
    def test_flags_bad_event_lines(self, line, needle):
        lines = [self.header(), '{"t": 0.0, "kind": "sweep-begin"}', line]
        assert any(needle in err for err in validate_events(lines))

    def test_flags_backwards_time_and_missing_begin(self):
        lines = [self.header(),
                 '{"t": 2.0, "kind": "sweep-end"}',
                 '{"t": 1.0, "kind": "worker-exit", "worker": 0}']
        errors = validate_events(lines)
        assert any("backwards" in err for err in errors)
        assert any("sweep-begin" in err for err in errors)

    def test_flags_foreign_header_and_empty_log(self):
        assert any("schema" in e for e in
                   validate_events([self.header(schema="nope/9")]))
        assert validate_events([]) == ["event log is empty (no header line)"]

    def test_unreadable_path_reports_not_raises(self, tmp_path):
        errors = validate_events(str(tmp_path / "missing.jsonl"))
        assert errors and "cannot read" in errors[0]


class TestEngineHostHook:
    def teardown_method(self):
        clear_host_hook()

    def run_some_events(self, n=10):
        engine = Engine()

        def chain(remaining):
            if remaining:
                engine.schedule(0.001, lambda: chain(remaining - 1))

        chain(n)
        engine.run()
        return engine

    def test_default_hook_fires_every_n_events(self):
        seen = []
        set_host_hook(lambda eng: seen.append(eng.events_executed),
                      every_events=3)
        self.run_some_events(10)
        assert seen and all(c % 3 == 0 for c in seen)

    def test_hook_does_not_touch_virtual_time(self):
        baseline = self.run_some_events(10).now
        set_host_hook(lambda eng: None, every_events=1)
        assert self.run_some_events(10).now == baseline

    def test_hook_disarms_itself_on_exception(self):
        calls = []

        def boom(engine):
            calls.append(1)
            raise RuntimeError("observer crashed")

        set_host_hook(boom, every_events=1)
        self.run_some_events(10)     # must not propagate the error
        assert len(calls) == 1

    def test_bad_interval_is_rejected(self):
        with pytest.raises(ValueError):
            set_host_hook(lambda eng: None, every_events=0)


class TestSweepEvents:
    def test_serial_sweep_produces_a_valid_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        result = run_sweep(SMALL, cache=small_cache(tmp_path),
                           events=str(path))
        assert validate_events(str(path)) == []
        assert result.event_log is not None and len(result.event_log) > 0
        kinds = [e["kind"] for e in result.event_log.events]
        assert kinds[0] == "sweep-begin" and kinds[-1] == "sweep-end"
        assert kinds.count("enqueued") == 4 == kinds.count("done")
        assert set(kinds) <= set(EVENT_KINDS)

    def test_parallel_sweep_produces_a_valid_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_sweep(SMALL, workers=2, cache=small_cache(tmp_path),
                  events=str(path), heartbeat=0.02)
        assert validate_events(str(path)) == []
        _, events = read_events(str(path))
        spawns = [e for e in events if e["kind"] == "worker-spawn"]
        assert [e["worker"] for e in spawns] == [0, 1]
        assert all(e["kind"] != "worker-respawn" for e in events)

    def test_event_log_cannot_change_canonical_records(self, tmp_path):
        plain = run_sweep(SMALL, cache=small_cache(tmp_path, "a"))
        logged = run_sweep(SMALL, cache=small_cache(tmp_path, "b"),
                           events=str(tmp_path / "ev.jsonl"))
        assert canonical_records_json(logged.records) == \
            canonical_records_json(plain.records)

    def test_cached_rerun_emits_hit_events_and_callbacks(self, tmp_path):
        cache = small_cache(tmp_path)
        run_sweep(SMALL, cache=cache)
        seen = []
        result = run_sweep(SMALL, cache=cache,
                           events=str(tmp_path / "ev.jsonl"),
                           progress=lambda cell, outcome:
                           seen.append((cell, outcome)))
        # cached cells fire the same callbacks an executing sweep would
        assert [o for _, o in seen] == ["hit"] * 4
        kinds = [e["kind"] for e in result.event_log.events]
        assert kinds.count("cache-hit") == 4
        assert kinds.count("dispatched") == 0

    def test_duplicate_cells_fire_symmetric_callbacks(self, tmp_path):
        spec = GridSpec(presets=("smp-2", "smp-2"), labels=("PI",),
                        scales=(0.04,), native=(False, False))
        seen = []
        run_sweep(spec, cache=small_cache(tmp_path),
                  progress=lambda cell, outcome: seen.append(outcome))
        assert sorted(seen) == ["hit", "miss"]

    def test_timeout_records_progress_at_kill(self, tmp_path):
        spec = GridSpec(presets=("sw-dsm-4",), labels=("MatMult",),
                        scales=(0.5,), timeout=0.5)
        path = tmp_path / "events.jsonl"
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           events=str(path), heartbeat=0.02)
        assert validate_events(str(path)) == []
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.progress is not None
        assert cell.progress["events_executed"] > 0
        assert cell.progress["virtual_seconds"] > 0.0
        # the timeout message carries the same progress numbers
        assert "events" in cell.error and "virtual" in cell.error
        _, events = read_events(str(path))
        kinds = [e["kind"] for e in events]
        assert kinds.count("heartbeat") > 0
        assert kinds.count("worker-kill") >= 1
        assert kinds.count("retried") >= 1
        kill = next(e for e in events if e["kind"] == "worker-kill")
        assert kill["data"]["progress"]["events_executed"] > 0
        # the manifest round-trips progress through JSON
        again = SweepManifest.from_dict(
            json.loads(result.manifest.dumps()))
        assert again.cells[0].progress == cell.progress

    def test_bad_heartbeat_interval_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(SMALL, cache=small_cache(tmp_path), heartbeat=0.0)


class TestManifestRender:
    def outcome(self, **over):
        d = dict(index=0, id="smp-2/PI@0.04", key="c0ffee" * 8,
                 outcome="miss", host_seconds=0.01, events=42)
        d.update(over)
        return CellOutcome(**d)

    def test_render_empty_manifest(self):
        text = SweepManifest(suite="empty", workers=1).render()
        assert "0 cells" in text and "0% cache hits" in text

    def test_render_includes_hit_ratio_and_cache_stats(self):
        manifest = SweepManifest(
            suite="s", workers=2,
            cells=[self.outcome(), self.outcome(index=1, outcome="hit")],
            cache={"hits": 1, "misses": 1, "stores": 1,
                   "entries": 7, "bytes": 1234, "root": "/tmp/c"})
        text = manifest.render()
        assert "50% cache hits" in text
        assert "7 entries / 1234 evictable bytes in /tmp/c" in text

    def test_render_shows_progress_at_kill(self):
        manifest = SweepManifest(suite="s", workers=2, cells=[self.outcome(
            outcome="failed", error="timeout: exceeded 1s wall clock",
            progress={"events_executed": 16384, "virtual_seconds": 0.25})])
        text = manifest.render()
        assert "[at kill: 16384 events, 0.250000s virtual]" in text

    def test_render_without_cache_stats_has_no_cache_line(self):
        text = SweepManifest(suite="s", workers=1,
                             cells=[self.outcome()]).render()
        assert "evictable" not in text
