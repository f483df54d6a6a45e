"""Host-time attribution by layer, from wrappers the benchmark installs.

:class:`LayerTracer` keeps a stack of open spans in memory. A span is one
call of a wrapped function, or one resume of a wrapped generator. When a
span closes, its duration is added to its parent's child time, and its
self time (duration minus the child time) to its layer. Spans are
strictly nested — the simulation runs on one thread — so the child time
is exactly the part of the span its children cover.

:func:`install` wraps the public functions that bound each layer (the
table :data:`BOUNDARIES`), finding each by module and attribute name. A
boundary whose module or attribute no longer exists is reported as
missing rather than raising. The returned :class:`Installation` puts every
original back.

A wrapper around a generator function is itself a generator function, so
``inspect.isgeneratorfunction`` dispatch (the API's stackless process
path) still sees one. It times each resume and passes sent values,
thrown exceptions and ``close()`` through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class LayerTracer:
    """In-memory span stack with per-layer self time and per-key counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: virtual clock for boundaries that measure virtual duration
        self.vclock: Callable[[], float] = lambda: 0.0
        self.reset()

    def reset(self) -> None:
        self._stack: List[list] = []   # [layer, start, child_time]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.virtual_s: Dict[str, float] = defaultdict(float)

    # ----------------------------------------------------------------- spans
    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[layer] += duration - child
        self.spans[layer] += 1

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -------------------------------------------------------------- wrappers
    def drive(self, layer: str, gen):
        """Delegate to ``gen``, timing each resume as a ``layer`` span."""
        enter, exit_ = self.enter, self.exit
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            enter(layer)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown into gen
                value, error = None, exc

    def wrap(self, layer: str, fn: Callable, key: Optional[str] = None,
             on_call: Optional[Callable[["LayerTracer", tuple, Any], None]] = None,
             guard: Optional[Callable[[tuple], bool]] = None,
             virtual: bool = False) -> Callable:
        """Wrap ``fn`` so each call (or resume) is a ``layer`` span.

        ``key`` names the call counter (default: ``layer``); ``on_call(
        tracer, args, result)`` runs after each plain call; ``guard(args)``
        false makes the call pass straight through, unrecorded; ``virtual``
        adds each generator call's virtual duration to ``virtual_s[key]``.
        A plain function that returns a generator (an active-message
        handler) gets the generator's resumes timed too.
        """
        key = key or layer
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if guard is not None and not guard(args):
                    return (yield from fn(*args, **kwargs))
                tracer.calls[key] += 1
                v0 = tracer.vclock() if virtual else 0.0
                result = yield from tracer.drive(layer, fn(*args, **kwargs))
                if virtual:
                    tracer.virtual_s[key] += tracer.vclock() - v0
                return result
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None and not guard(args):
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_call is not None:
                on_call(tracer, args, result)
            if inspect.isgenerator(result):
                return tracer.drive(layer, result)
            return result
        return wrapper


class _TracedQueue:
    """Stand-in for the engine's event queue with timed push/pop."""

    def __init__(self, queue, tracer: LayerTracer, layer: str) -> None:
        self._queue = queue
        self.push = tracer.wrap(layer, queue.push, key=layer + ".push")
        self.pop = tracer.wrap(layer, queue.pop, key=layer + ".pop")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._queue, name)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


# ------------------------------------------------------------ boundary hooks
def _count_net_bytes(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.counts["machine.net.bytes"] += getattr(args[1], "size", 0)


def _count_diff(tracer: LayerTracer, args: tuple, result: Any) -> None:
    # make_diff(page, twin, current) -> Diff
    tracer.counts["dsm.diffs.compared_bytes"] += len(args[1])
    tracer.counts["dsm.diffs.changed_bytes"] += result.changed_bytes
    tracer.counts["dsm.diffs.runs"] += len(result.runs)


def _count_invalidated(tracer: LayerTracer, args: tuple, result: Any) -> None:
    # invalidate_many returns how many pages were valid
    tracer.counts["memory.page.transitions"] += int(result or 0)


def _count_transition(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.counts["memory.page.transitions"] += 1


def _enabled(args: tuple) -> bool:
    return bool(getattr(args[0], "enabled", True))


@dataclass(frozen=True)
class Boundary:
    """One wrapped public name: ``module`` + dotted ``attr`` path."""

    layer: str
    module: str
    attr: str
    key: Optional[str] = None
    on_call: Optional[Callable] = None
    guard: Optional[Callable] = None
    virtual: bool = False
    #: "call" wraps the function; "queue" wraps a queue factory's result;
    #: "register" wraps active-message handlers by their owner's layer
    kind: str = "call"

    @property
    def name(self) -> str:
        return f"{self.module}:{self.attr}"


def _b(layer: str, module: str, attr: str, **kw) -> Boundary:
    """A boundary whose call counter defaults to ``<layer>.<function>``."""
    kw.setdefault("key", f"{layer}.{attr.split('.')[-1]}")
    return Boundary(layer, module, attr, **kw)


_AM = "repro.msg.active_messages"
_JJ = "repro.dsm.jiajia"
_SCI = "repro.dsm.scivm"

#: The public functions that bound each layer.
BOUNDARIES: Tuple[Boundary, ...] = (
    _b("sim.eventq", "repro.sim.eventq", "make_queue", kind="queue"),
    _b("sim.engine", "repro.sim.engine", "Engine.run"),
    _b("msg.am", _AM, "ActiveMessageLayer.post_g"),
    _b("msg.am", _AM, "ActiveMessageLayer.rpc_g"),
    _b("msg.am", _AM, "ActiveMessageLayer.reply_g"),
    _b("msg.am", _AM, "ActiveMessageLayer.register", kind="register"),
    _b("machine.net", "repro.machine.interconnect", "Network.send",
       on_call=_count_net_bytes),
    _b("dsm.jiajia", _JJ, "JiaJiaSystem.access_runs_g"),
    _b("dsm.jiajia", _JJ, "JiaJiaSystem.lock_g", virtual=True),
    _b("dsm.jiajia", _JJ, "JiaJiaSystem.unlock_g"),
    _b("dsm.jiajia", _JJ, "JiaJiaSystem.barrier_g", virtual=True),
    _b("dsm.diffs", "repro.dsm.jiajia.diffs", "make_diff", on_call=_count_diff),
    _b("dsm.diffs", "repro.dsm.jiajia.diffs", "apply_diff"),
    _b("dsm.scivm", _SCI, "SciVmSystem.access_runs_g"),
    _b("dsm.scivm", _SCI, "SciVmSystem.lock_g", virtual=True),
    _b("dsm.scivm", _SCI, "SciVmSystem.unlock_g"),
    _b("dsm.scivm", _SCI, "SciVmSystem.barrier_g", virtual=True),
    _b("memory", "repro.memory.page", "PageTable.set_state",
       on_call=_count_transition),
    _b("memory", "repro.memory.page", "PageTable.invalidate",
       on_call=_count_transition),
    _b("memory", "repro.memory.page", "PageTable.invalidate_many",
       on_call=_count_invalidated),
    _b("memory", "repro.memory.page", "PageTable.faulting_in_spans"),
    _b("memory", "repro.memory.shared_array", "SharedArray.get_g"),
    _b("memory", "repro.memory.shared_array", "SharedArray.set_g"),
    _b("core", "repro.core.sync_mgmt", "SyncMgmt.lock_g"),
    _b("core", "repro.core.sync_mgmt", "SyncMgmt.unlock_g"),
    _b("core", "repro.core.sync_mgmt", "SyncMgmt.barrier_g"),
    _b("apps.verify", "repro.apps.sor", "_reference", key="apps.verify"),
    _b("apps.verify", "repro.apps.water", "_reference", key="apps.verify"),
    _b("apps.verify", "numpy", "allclose", key="apps.verify"),
    *(_b("obs.spans", "repro.obs.spans", f"ObsRecorder.{m}", key="obs.spans")
      for m in ("begin", "end", "record")),
    *(_b("obs.sharing", "repro.obs.sharing", f"SharingRecorder.{m}",
         key="obs.sharing")
      for m in ("access", "fault", "fetch", "notice", "transition", "remote",
                "lock_acquired", "lock_released", "barrier")),
    # a disabled tracer's emit is a no-op check: only enabled tracers count
    _b("sim.trace", "repro.sim.trace", "Tracer.emit", key="sim.trace", guard=_enabled),
    _b("obs.metrics", "repro.obs.metrics", "MetricsSampler.sample", key="obs.metrics"),
)


def layer_of_object(obj: Any, default: str) -> str:
    """Layer of a bound method's owner: the layer of the first boundary
    class in the owner's MRO (a JiaJia handler is ``dsm.jiajia``)."""
    owner = getattr(obj, "__self__", None)
    if owner is None:
        return default
    for cls in type(owner).__mro__:
        for b in BOUNDARIES:
            if (b.attr.split(".")[0] == cls.__name__
                    and cls.__module__.startswith(b.module)):
                return b.layer
    return default


@dataclass
class Installation:
    """Wrappers in place; :meth:`restore` puts every original back."""

    missing: List[str] = field(default_factory=list)
    _undo: List[Callable[[], None]] = field(default_factory=list)
    _checks: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def restored(self) -> bool:
        """True when every wrapped name holds its original object again."""
        return all(owner.__dict__.get(name, _ABSENT) is orig
                   for owner, name, orig in self._checks)


_ABSENT = object()


def _set(inst: Installation, owner: Any, name: str, new: Any) -> None:
    """Replace ``owner.name`` (a module global, or a class attribute that
    may be inherited) and record how to undo it."""
    orig = owner.__dict__.get(name, _ABSENT)
    setattr(owner, name, new)
    if orig is _ABSENT:
        inst._undo.append(lambda: delattr(owner, name))
    else:
        inst._undo.append(lambda: setattr(owner, name, orig))
    inst._checks.append((owner, name, orig))


def _resolve(b: Boundary) -> Tuple[Any, str, Any]:
    """(owner, attribute name, current function) for a boundary."""
    module = importlib.import_module(b.module)
    owner: Any = module
    parts = b.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: LayerTracer,
            boundaries: Tuple[Boundary, ...] = BOUNDARIES) -> Installation:
    """Wrap every boundary that exists; list the ones that do not."""
    inst = Installation()
    for b in boundaries:
        try:
            owner, name, fn = _resolve(b)
        except (ImportError, AttributeError):
            inst.missing.append(b.name)
            continue
        if b.kind == "queue":
            new = _queue_factory(tracer, b.layer, fn)
        elif b.kind == "register":
            new = _register(tracer, fn)
        else:
            new = tracer.wrap(b.layer, fn, key=b.key, on_call=b.on_call,
                              guard=b.guard, virtual=b.virtual)
        if isinstance(owner, type):
            _set(inst, owner, name, new)
            continue
        # A module-level function: rebind it in every repro module that
        # imported it by name, as well as where it is defined.
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod is owner or mod_name.startswith("repro.")) and \
                    getattr(mod, "__dict__", {}).get(name) is fn:
                _set(inst, mod, name, new)
    return inst


def _queue_factory(tracer: LayerTracer, layer: str, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return _TracedQueue(factory(*args, **kwargs), tracer, layer)
    return make


def _register(tracer: LayerTracer, register: Callable) -> Callable:
    """Wrap ``register(self, node_id, kind, handler)`` so each handler is
    timed under its owner's layer (a JiaJia handler is ``dsm.jiajia``)."""
    @functools.wraps(register)
    def wrapped(self, node_id, kind, handler):
        layer = layer_of_object(handler, "msg.am")
        return register(self, node_id, kind,
                        tracer.wrap(layer, handler, key=layer + ".handler"))
    return wrapped
