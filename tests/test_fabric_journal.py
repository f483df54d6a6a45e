"""Crash safety of the fabric: journal, resume, fault points, budgets.

Covers the durability contract end to end: the write-ahead journal's
tolerant replay (torn tails, duplicate commits), ``run_sweep``'s
resume path (restore committed cells, re-execute only the rest,
byte-identical canonical records), deterministic crash injection via
fault points, the retry/abort failure policy, and the CLI's
``sweep resume`` / ``sweep status --dir`` / ``sweep fsck`` surface —
the last through real subprocesses, because a fault point kills its
process with ``os._exit`` and must not take pytest down with it.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.fabric import (CellOutcome, GridSpec, JournalError, JournalState,
                          ResultCache, SweepJournal, canonical_records_json,
                          replay_journal, run_sweep)
from repro.fabric import faultpoints

SMALL = GridSpec(presets=("smp-2", "sw-dsm-2"), labels=("PI", "MatMult"),
                 scales=(0.04,))

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def outcome(i, kind="miss", key=None):
    return CellOutcome(index=i, id=f"cell-{i}", key=key or f"k{i}",
                       outcome=kind)


def cache_for(tmp_path, name="cache"):
    return ResultCache(str(tmp_path / name))


class TestJournalReplay:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"suite": "t", "cells": 3}) as jnl:
            jnl.transition(0, "enqueued")
            jnl.commit(outcome(0))
            jnl.transition(1, "dispatched")
            jnl.commit(outcome(1, "failed"))
            jnl.status("interrupted")
        state = replay_journal(path)
        assert state.header["suite"] == "t"
        assert sorted(state.committed) == [0, 1]
        assert state.committed[1].outcome == "failed"
        assert state.status == "interrupted"
        assert state.transitions == 2
        assert state.torn_bytes is None
        assert state.pending(3) == [2]
        assert state.counts() == {"miss": 1, "failed": 1}

    def test_duplicate_commits_resolve_last_one_wins(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0, "failed"))
            jnl.commit(outcome(0, "miss"))     # a resumed sweep re-ran it
        state = replay_journal(path)
        assert state.committed[0].outcome == "miss"
        assert state.pending(1) == []

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 2}) as jnl:
            jnl.commit(outcome(0))
        clean = os.path.getsize(path)
        with open(path, "ab") as fh:         # a write cut off mid-line
            fh.write(b'{"kind":"commit","cell":1,"outc')
        state = replay_journal(path)
        assert sorted(state.committed) == [0]
        assert state.torn_bytes == clean

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 2}) as jnl:
            jnl.commit(outcome(0))
        clean = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b'{"torn')
        with SweepJournal.resume(path) as jnl:
            jnl.commit(outcome(1))
        state = replay_journal(path)
        assert sorted(state.committed) == [0, 1]
        assert state.torn_bytes is None
        assert os.path.getsize(path) > clean

    def test_complete_but_garbled_final_line_counts_as_torn(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0))
        with open(path, "ab") as fh:         # newline landed, payload did not
            fh.write(b"\x00\xffgarbage\n")
        state = replay_journal(path)
        assert sorted(state.committed) == [0]
        assert state.torn_bytes is not None

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0))
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(json.dumps({"kind": "commit", "cell": 1,
                                 "outcome": outcome(1).to_dict()}).encode()
                     + b"\n")
        with pytest.raises(JournalError, match="corrupt"):
            replay_journal(path)

    def test_foreign_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"schema": "something/else"}\n')
        with pytest.raises(JournalError, match="schema"):
            replay_journal(str(path))

    def test_missing_file_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            replay_journal(str(tmp_path / "nope.jsonl"))


class TestJournalReplayProperty:
    def test_replay_is_idempotent_over_any_prefix(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        header = json.dumps({"schema": "repro.fabric.journal/1",
                             "cells": 6}, separators=(",", ":")) + "\n"
        commit_st = st.tuples(st.integers(min_value=0, max_value=5),
                              st.sampled_from(["hit", "miss", "failed"]))
        path = str(tmp_path / "prop.jsonl")

        @settings(max_examples=60, deadline=None)
        @given(commits=st.lists(commit_st, max_size=24),
               cut=st.integers(min_value=0, max_value=24),
               torn=st.binary(max_size=12))
        def check(commits, cut, torn):
            lines = [json.dumps(
                {"kind": "commit", "cell": i,
                 "outcome": outcome(i, kind).to_dict()},
                separators=(",", ":")) + "\n" for i, kind in commits]
            full = header + "".join(lines)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(full)
            whole = replay_journal(path)
            # last-one-wins over arbitrary duplicated commit records
            expect = {}
            for i, kind in commits:
                expect[i] = kind
            assert {i: oc.outcome for i, oc in whole.committed.items()} \
                == expect

            # any prefix replays to the last-wins map of that prefix
            prefix = commits[:min(cut, len(commits))]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header + "".join(lines[:len(prefix)]))
            part = replay_journal(path)
            expect_prefix = {}
            for i, kind in prefix:
                expect_prefix[i] = kind
            assert {i: oc.outcome for i, oc in part.committed.items()} \
                == expect_prefix
            assert set(part.committed) <= set(whole.committed) \
                or not commits

            # a torn final line (no trailing newline) never changes the
            # durable state and reports the clean byte offset
            torn_line = torn.replace(b"\n", b"")
            if torn_line:
                with open(path, "wb") as fh:
                    fh.write(full.encode() + torn_line)
                torn_state = replay_journal(path)
                assert {i: oc.outcome
                        for i, oc in torn_state.committed.items()} == expect
                assert torn_state.torn_bytes == len(full.encode())

        check()


class TestFaultpoints:
    def test_parse_spec_accepts_lists_and_skips_malformed(self):
        spec = faultpoints.parse_spec(
            "worker-cell-start@/tmp/a, orchestrator-pre-commit@/tmp/b,"
            "malformed,@,x@")
        assert spec == {"worker-cell-start": "/tmp/a",
                        "orchestrator-pre-commit": "/tmp/b"}
        assert faultpoints.parse_spec(None) == {}

    def test_crash_env_round_trips_through_parse(self):
        env = faultpoints.crash_env("my-point", "/tmp/f")
        assert faultpoints.parse_spec(env[faultpoints.FAULTPOINT_ENV]) == \
            {"my-point": "/tmp/f"}

    def test_unarmed_point_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(faultpoints.FAULTPOINT_ENV, raising=False)
        faultpoints.maybe_crash("worker-cell-start")   # must not exit
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV, "other@/tmp/x")
        faultpoints.maybe_crash("worker-cell-start")

    def test_armed_point_exits_once_with_the_distinct_code(self, tmp_path):
        # a real subprocess: maybe_crash hard-exits the calling process
        flag = tmp_path / "flag"
        prog = ("from repro.fabric import faultpoints\n"
                "faultpoints.maybe_crash('p1')\n"
                "print('survived')\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   **faultpoints.crash_env("p1", str(flag)))
        first = subprocess.run([sys.executable, "-c", prog], env=env,
                               capture_output=True, text=True)
        assert first.returncode == faultpoints.FAULTPOINT_EXIT
        assert flag.read_text().strip() == "p1"
        second = subprocess.run([sys.executable, "-c", prog], env=env,
                                capture_output=True, text=True)
        assert second.returncode == 0          # flag disarms the point
        assert "survived" in second.stdout


class TestResume:
    def test_resume_reexecutes_only_uncommitted_cells(self, tmp_path):
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)
        assert clean.status == "complete"

        # drop the last two commit records, as a crash would have
        state = replay_journal(journal)
        kept = {i: state.committed[i] for i in sorted(state.committed)[:2]}
        with SweepJournal(journal, header=state.header) as jnl:
            for oc in kept.values():
                jnl.commit(oc)

        seen = []
        resumed = run_sweep(
            SMALL, cache=cache_for(tmp_path, "fresh"), journal=journal,
            resume_from=journal,
            progress=lambda cell, oc: seen.append((cell, oc)))
        # committed cells restore (their records come from the cache);
        # only the dropped cells execute — but the fresh cache here
        # misses, so restored cells whose entries vanished re-execute
        assert resumed.status == "complete"
        assert resumed.manifest.counts()["pending"] == 0

    def test_resumed_records_are_byte_identical(self, tmp_path):
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)

        state = replay_journal(journal)
        kept = {i: state.committed[i] for i in sorted(state.committed)[:1]}
        with SweepJournal(journal, header=state.header) as jnl:
            for oc in kept.values():
                jnl.commit(oc)

        seen = []
        resumed = run_sweep(
            SMALL, cache=cache, journal=journal, resume_from=journal,
            progress=lambda cell, oc: seen.append(oc))
        assert resumed.restored == 1
        assert seen.count("restored") == 1
        assert canonical_records_json(resumed.records) == \
            canonical_records_json(clean.records)
        # and the journal now commits every cell again
        assert sorted(replay_journal(journal).committed) == [0, 1, 2, 3]

    def test_restored_cell_with_lost_cache_entry_reexecutes(self, tmp_path):
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)
        # committed everywhere, but the cache burned down
        resumed = run_sweep(SMALL, cache=cache_for(tmp_path, "empty"),
                            journal=journal, resume_from=journal)
        assert resumed.restored == 0
        assert resumed.manifest.counts()["miss"] == 4
        assert canonical_records_json(resumed.records) == \
            canonical_records_json(clean.records)

    def test_resume_rejects_a_different_grid(self, tmp_path):
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=cache, journal=journal)
        other = GridSpec(presets=("smp-4", "sw-dsm-4"),
                         labels=("PI", "MatMult"), scales=(0.04,))
        with pytest.raises(JournalError, match="different content address"):
            run_sweep(other, cache=cache, journal=str(tmp_path / "j2.jsonl"),
                      resume_from=journal)

    def test_resume_rejects_a_different_cell_count(self, tmp_path):
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=cache, journal=journal)
        smaller = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        with pytest.raises(JournalError, match="refusing to resume"):
            run_sweep(smaller, cache=cache,
                      journal=str(tmp_path / "j2.jsonl"), resume_from=journal)

    def test_failed_cells_restore_unless_retry_failed(self, tmp_path):
        spec = GridSpec(presets=("sw-dsm-2",), labels=("PI", "MatMult"),
                        scales=(0.04,),
                        faults=(None,
                                {"seed": 3,
                                 "crashes": [{"node": 1, "at": 0.0}]}))
        cache = cache_for(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        first = run_sweep(spec, cache=cache, journal=journal)
        failed = first.manifest.counts()["failed"]
        assert failed >= 1

        restored = run_sweep(spec, cache=cache, journal=journal,
                             resume_from=journal)
        assert restored.manifest.counts()["failed"] == failed
        assert restored.restored == len(spec.expand())   # nothing re-ran

        retried = run_sweep(spec, cache=cache, journal=journal,
                            resume_from=journal, retry_failed=True)
        # deterministic chaos: they fail again, but they really re-ran
        assert retried.manifest.counts()["failed"] == failed
        assert retried.restored == len(spec.expand()) - failed


class TestFailurePolicy:
    def test_zero_retries_fails_a_crashed_job_immediately(self, tmp_path,
                                                          monkeypatch):
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_START}@{flag}")
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=cache_for(tmp_path),
                           max_retries=0)
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.attempts == 1
        assert cell.error.startswith("crash: ")

    def test_retry_budget_still_recovers_with_backoff(self, tmp_path,
                                                      monkeypatch):
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_START}@{flag}")
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=cache_for(tmp_path),
                           max_retries=2, retry_backoff=0.05)
        cell = result.manifest.cells[0]
        assert cell.outcome == "miss"
        assert cell.attempts == 2

    def test_max_failures_aborts_and_reports_pending(self, tmp_path):
        # every cell is poisoned; a budget of 1 stops the sweep after
        # the first failure instead of grinding through the whole grid
        spec = GridSpec(presets=("sw-dsm-2",),
                        labels=("PI", "MatMult", "SOR", "LU"),
                        scales=(0.04,),
                        faults=({"seed": 3,
                                 "crashes": [{"node": 1, "at": 0.0}]},))
        result = run_sweep(spec, cache=cache_for(tmp_path), max_failures=1)
        assert result.status == "aborted"
        counts = result.manifest.counts()
        assert counts["failed"] == 1
        assert counts["pending"] == 3
        assert result.manifest.status == "aborted"
        # pending cells have no commit record -> resume picks them up
        assert [c.outcome for c in result.manifest.pending_cells()] \
            == ["pending"] * 3

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            run_sweep(SMALL, cache=cache_for(tmp_path), max_retries=-1)
        with pytest.raises(ValueError, match="max_failures"):
            run_sweep(SMALL, cache=cache_for(tmp_path), max_failures=0)
        with pytest.raises(ValueError, match="retry_backoff"):
            run_sweep(SMALL, cache=cache_for(tmp_path), retry_backoff=-0.1)


class TestCrashResumeCLI:
    """The acceptance scenario, through the real CLI in subprocesses."""

    GRID = {"suite": "crashcli", "presets": ["smp-2"],
            "labels": ["PI", "MatMult"], "scales": [0.04, 0.05]}

    def run_cli(self, *argv, env=None, cwd=None):
        full_env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        if env:
            full_env.update(env)
        return subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=full_env, cwd=cwd, capture_output=True,
                              text=True, timeout=300)

    def test_sigkilled_sweep_resumes_to_byte_parity(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.GRID))
        sweep_dir = tmp_path / "sweep"
        cache_dir = str(tmp_path / "cache")
        flag = tmp_path / "crash.flag"

        crashed = self.run_cli(
            "sweep", "run", "--grid", str(grid), "--workers", "2",
            "--dir", str(sweep_dir), "--cache-dir", cache_dir,
            env=faultpoints.crash_env(faultpoints.ORCH_POST_COMMIT,
                                      str(flag)))
        assert crashed.returncode == faultpoints.FAULTPOINT_EXIT, \
            crashed.stdout + crashed.stderr
        assert flag.exists()

        status = self.run_cli("sweep", "status", "--dir", str(sweep_dir),
                              "--cache-dir", cache_dir)
        assert status.returncode == 0, status.stdout + status.stderr
        assert "pending" in status.stdout

        resumed = self.run_cli("sweep", "resume", str(sweep_dir),
                               "--cache-dir", cache_dir)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr

        ref = self.run_cli(
            "sweep", "run", "--grid", str(grid), "--cache-dir",
            str(tmp_path / "cache2"), "--json-out", str(tmp_path / "REF.json"))
        assert ref.returncode == 0, ref.stdout + ref.stderr

        resumed_doc = json.loads((sweep_dir / "telemetry.json").read_text())
        ref_doc = json.loads((tmp_path / "REF.json").read_text())
        assert canonical_records_json(resumed_doc["records"]) == \
            canonical_records_json(ref_doc["records"])

        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        assert manifest["counts"]["pending"] == 0
        assert manifest["status"] == "complete"

    def test_status_and_report_diagnose_missing_and_stub_logs(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        watch = self.run_cli("sweep", "watch", "--events", missing, "--once")
        assert watch.returncode == 2
        assert "Traceback" not in watch.stderr
        assert "cannot read" in watch.stdout

        report = self.run_cli("sweep", "report", "--events", missing)
        assert report.returncode == 2
        assert "Traceback" not in report.stderr
        assert "cannot read" in report.stdout

        # header-only log: a sweep that died before its first event
        stub = tmp_path / "stub.jsonl"
        stub.write_text(json.dumps(
            {"schema": "repro.fabric.events/1", "suite": "s",
             "cells": 1, "workers": 1}) + "\n")
        watch = self.run_cli("sweep", "watch", "--events", str(stub),
                             "--once")
        assert watch.returncode == 2
        assert "sweep-begin" in watch.stdout
        report = self.run_cli("sweep", "report", "--events", str(stub))
        assert report.returncode == 2
        assert "sweep-begin" in report.stdout

    def test_fsck_quarantines_a_flipped_byte(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"suite": "fsckcli",
                                    "presets": ["smp-2"], "labels": ["PI"],
                                    "scales": [0.04]}))
        cache_dir = tmp_path / "cache"
        run = self.run_cli("sweep", "run", "--grid", str(grid),
                           "--cache-dir", str(cache_dir))
        assert run.returncode == 0, run.stdout + run.stderr

        entries = [p for p in cache_dir.glob("??/*.json")]
        assert entries
        blob = bytearray(entries[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entries[0].write_bytes(bytes(blob))

        found = self.run_cli("sweep", "fsck", "--cache-dir", str(cache_dir))
        assert found.returncode == 1
        assert "corrupt" in found.stdout

        repaired = self.run_cli("sweep", "fsck", "--cache-dir",
                                str(cache_dir), "--repair")
        assert repaired.returncode == 0, repaired.stdout + repaired.stderr
        assert "quarantined" in repaired.stdout
        assert list((cache_dir / "quarantine").iterdir())

        clean = self.run_cli("sweep", "fsck", "--cache-dir", str(cache_dir))
        assert clean.returncode == 0
