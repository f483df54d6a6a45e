"""The benchmark's own checks: self-time arithmetic, wrapper transparency,
install/restore, and traced == untraced virtual results."""

import functools
import inspect
import json
import os

import pytest

from layers import PER_LAYER, SELF_TIME_METRICS
from layertrace import BOUNDARIES, Boundary, LayerTracer, install
from workloads import WORKLOADS, Workload, expected_phases, load_expected

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# ------------------------------------------------------------ self time
def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 3] and c [4, 6]; c holds d [4.5, 5]
    clock = FakeClock([0, 1, 3, 4, 4.5, 5, 6, 10])
    t = LayerTracer(clock)
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("c")
    t.enter("d")
    t.exit()
    t.exit()
    t.exit()
    assert t.self_s == {"a": 6, "b": 2, "c": 1.5, "d": 0.5}
    assert t.spans == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert t.depth == 0


def test_self_time_of_nested_spans_of_one_layer_adds_up():
    # x [0, 8] holds x [2, 5]; the layer's self time is the outer span's
    # duration, counted once
    clock = FakeClock([0, 2, 5, 8])
    t = LayerTracer(clock)
    t.enter("x")
    t.enter("x")
    t.exit()
    t.exit()
    assert t.self_s["x"] == 8
    assert t.spans["x"] == 2


def test_self_times_partition_the_root_span():
    # root [0, 12] holds p [1, 7], which holds q [2, 2.5] and q [4, 6]
    clock = FakeClock([0, 1, 2, 2.5, 4, 6, 7, 12])
    t = LayerTracer(clock)
    t.enter("root")
    t.enter("p")
    for _ in range(2):
        t.enter("q")
        t.exit()
    t.exit()
    t.exit()
    assert t.self_s == {"root": 6, "p": 3.5, "q": 2.5}
    assert sum(t.self_s.values()) == 12


# ---------------------------------------------------- wrapper transparency
def program(log, n):
    """Yields, receives sends, survives one thrown error, returns a value."""
    total = 0
    try:
        for i in range(n):
            try:
                got = yield i
            except ValueError as exc:
                log.append(("caught", str(exc)))
                got = 100
            total += got or 0
        return total
    finally:
        log.append("finally")


def drive(gen):
    transcript = [next(gen)]
    transcript.append(gen.send(5))
    transcript.append(gen.throw(ValueError("boom")))
    try:
        gen.send(1)
    except StopIteration as stop:
        transcript.append(("return", stop.value))
    return transcript


def test_generator_wrapper_is_a_generator_function():
    wrapped = LayerTracer().wrap("apps", program)
    assert inspect.isgeneratorfunction(wrapped)
    assert inspect.isgeneratorfunction(functools.partial(wrapped, n=3))


def test_generator_wrapper_passes_values_exceptions_and_returns():
    plain_log, traced_log = [], []
    t = LayerTracer()
    wrapped = t.wrap("apps", program)
    assert drive(program(plain_log, 3)) == drive(wrapped(traced_log, 3))
    assert plain_log == traced_log
    assert t.calls["apps"] == 1
    assert t.spans["apps"] == 4  # first next, send, throw, final send
    assert t.depth == 0


def test_generator_wrapper_passes_close_and_uncaught_errors():
    t = LayerTracer()
    log = []
    gen = t.wrap("apps", program)(log, 5)
    next(gen)
    gen.close()
    assert log == ["finally"]
    gen = t.wrap("apps", program)(log, 5)
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("k"))
    assert t.depth == 0


def test_plain_wrapper_times_a_returned_generator():
    t = LayerTracer()
    wrapped = t.wrap("dsm.jiajia", lambda log: program(log, 2))
    gen = wrapped([])
    assert inspect.isgenerator(gen)
    assert list(gen) == [0, 1]
    assert t.spans["dsm.jiajia"] == 1 + 3  # the call, then three resumes


def test_wrapped_bodies_run_identically_on_the_engine():
    from repro.sim import Engine, SimLock

    def body(proc, lock, ident, out):
        for step in range(3):
            yield from lock.acquire_g()
            yield 0.5 + ident * 0.25
            out.append((proc.engine.now, ident, step))
            lock.release()
            yield 0.125
        return ident

    def simulate(wrap):
        from repro.sim.process import SimProcess

        engine = Engine()
        lock = SimLock(engine)
        out = []
        fn = wrap(body)
        procs = [SimProcess(engine, fn, args=(lock, i, out)).start()
                 for i in range(3)]
        end = engine.run()
        return end, out, [p.result for p in procs], engine.events_executed

    t = LayerTracer()
    assert simulate(lambda f: f) == simulate(lambda f: t.wrap("apps", f))
    assert t.calls["apps"] == 3


# ---------------------------------------------------------- install/restore
def _snapshot():
    import importlib

    snap = {}
    for b in BOUNDARIES:
        owner = importlib.import_module(b.module)
        parts = b.attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        snap[b.name] = owner.__dict__.get(parts[-1])
    return snap


def test_install_finds_every_boundary_and_restore_puts_originals_back():
    before = _snapshot()
    inst = install(LayerTracer())
    try:
        assert inst.missing == []
        assert _snapshot() != before
    finally:
        inst.restore()
    assert inst.restored()
    assert _snapshot() == before


def test_missing_boundary_is_reported_not_raised():
    gone = (Boundary("sim.eventq", "repro.sim.eventq", "CalendarQueueGone.pop"),
            Boundary("x", "repro.no_such_module", "f"))
    inst = install(LayerTracer(), gone)
    assert inst.missing == [b.name for b in gone]
    inst.restore()
    assert inst.restored()


# ---------------------------------------------- traced run is host-only
def test_traced_and_untraced_sor_agree_exactly():
    from sample import sample

    smoke = Workload("smoke-sor", "SOR", 0.0625, "sw-dsm-2", "n=64 SOR")
    plain = sample(smoke, 3, "run")
    traced = sample(smoke, 3, "traced")
    assert plain["verified"] and traced["verified"]
    assert (traced["phases"], traced["events"]) == \
        (plain["phases"], plain["events"])
    assert traced["missing"] == [] and traced["restored"]
    assert len(plain["probes"]) == len(plain["blocks"]) + 1
    assert sum(plain["blocks"]) == plain["host_s"] > 0
    layers = traced["layers"]
    assert layers["sim.engine.events"] == plain["events"]
    assert layers["dsm.diffs.made"] > 0 and layers["core.barriers"] > 0
    for name in ("obs.spans", "obs.sharing", "sim.trace", "obs.metrics"):
        assert layers[f"{name}.calls"] == 0
    assert all(layers[name] >= 0 for name in SELF_TIME_METRICS
               if name in layers)


def test_blocks_are_scaled_by_the_probes_either_side():
    from run import PROBE_REF_S, scaled_host_s

    ref = PROBE_REF_S
    run = {"blocks": [1.0, 2.0], "probes": [ref, ref, 3 * ref]}
    # The second block ran at half the reference speed on average.
    assert scaled_host_s(run) == pytest.approx(1.0 + 2.0 / 2.0)


# ------------------------------------------------------------ definitions
def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]


def test_every_workload_has_a_recorded_virtual_result():
    expected = load_expected()
    for name in WORKLOADS:
        assert expected_phases(expected, name, 0) is not None, name
