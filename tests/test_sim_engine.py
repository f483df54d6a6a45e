"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Tracer


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(0.3, lambda: seen.append("c"))
        engine.schedule(0.1, lambda: seen.append("a"))
        engine.schedule(0.2, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_fifo(self, engine):
        seen = []
        for i in range(10):
            engine.schedule(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == list(range(10))

    def test_clock_advances_to_event_time(self, engine):
        stamps = []
        engine.schedule(2.5, lambda: stamps.append(engine.now))
        engine.schedule(1.0, lambda: stamps.append(engine.now))
        end = engine.run()
        assert stamps == [1.0, 2.5]
        assert end == 2.5

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_zero_delay_runs_after_current_instant_fifo(self, engine):
        seen = []

        def first():
            seen.append("first")
            engine.schedule(0.0, lambda: seen.append("nested"))

        engine.schedule(0.0, first)
        engine.schedule(0.0, lambda: seen.append("second"))
        engine.run()
        assert seen == ["first", "second", "nested"]

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_run_until_bounds_time(self, engine):
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(5.0, lambda: seen.append(5))
        t = engine.run(until=2.0)
        assert seen == [1] and t == 2.0
        # The remaining event still fires on a later unbounded run.
        engine.run()
        assert seen == [1, 5]

    def test_bounded_run_pushback_keeps_order(self, engine):
        """The event that overshoots ``until`` is pushed back under its
        original seq: events scheduled from the bound still run first, and
        same-timestamp events keep their FIFO order across the round trip."""
        seen = []

        def mark(tag):
            return lambda: seen.append((engine.now, tag))

        engine.schedule(1.0, mark("1"))
        engine.schedule(5.0, mark("5a"))
        engine.schedule(5.0, mark("5b"))
        assert engine.run(until=2.0) == 2.0
        engine.schedule(0.0, mark("zero"))
        engine.schedule_at(3.0, mark("3"))
        engine.run()
        assert seen == [(1.0, "1"), (2.0, "zero"), (3.0, "3"),
                        (5.0, "5a"), (5.0, "5b")]

    def test_nested_run_rejected(self, engine):
        def evil():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule(0.0, evil)
        engine.run()


class TestProcessesAndErrors:
    def test_run_process_returns_result(self, engine):
        def body(proc):
            proc.hold(1.0)
            return 42

        assert engine.run_process(body) == 42
        assert engine.now == 1.0

    def test_exception_in_process_propagates(self, engine):
        def body(proc):
            raise ValueError("boom")

        SimProcess(engine, body).start()
        with pytest.raises(ValueError, match="boom"):
            engine.run()

    def test_deadlock_detection(self, engine):
        def body(proc):
            proc.suspend()  # nobody will ever wake us

        SimProcess(engine, body, name="stuck").start()
        with pytest.raises(DeadlockError, match="stuck"):
            engine.run()

    def test_daemons_do_not_deadlock(self, engine):
        def daemon_body(proc):
            proc.suspend()

        def worker(proc):
            proc.hold(1.0)
            return "done"

        SimProcess(engine, daemon_body, daemon=True).start()
        p = SimProcess(engine, worker).start()
        engine.run()
        assert p.result == "done"

    def test_require_process_outside_context(self, engine):
        with pytest.raises(SimulationError):
            engine.require_process()

    def test_current_process_tracking(self, engine):
        observed = []

        def body(proc):
            observed.append(engine.current_process is proc)

        SimProcess(engine, body).start()
        engine.run()
        assert observed == [True]
        assert engine.current_process is None


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            engine = Engine(trace=Tracer(enabled=True))
            trace = []

            def worker(proc, i):
                for step in range(3):
                    proc.hold(0.001 * (i + 1))
                    trace.append((round(engine.now, 9), i, step))

            for i in range(4):
                SimProcess(engine, worker, args=(i,), name=f"w{i}").start()
            engine.run()
            return trace

        assert build_and_run() == build_and_run()
