"""Host-time layer ledger for the traced run.

:meth:`Ledger.install` wraps, from the outside, every function and
method the program's layer modules define (see :data:`LAYERS`).  A call
that crosses into a layer opens a span (name, start, end, parent); a
call from a layer into itself runs unwrapped, so spans sit exactly on
the layer boundaries.  Generator functions, which the simulator runs as
processes, return a proxy that opens a span on every resume, so the
code of a simulated thread is charged to its own layer and not to the
kernel that resumed it.

Spans are folded into per-layer self time as they close (a span's
duration minus the part its child spans cover), and the first
:data:`SPAN_CAP` spans are kept in memory and written out by
:meth:`Ledger.write`.  Whatever ran outside every span is the
``unattributed`` remainder, so the layer self times plus that remainder
sum to the traced wall time.

Exact counts come from the same boundaries (calls, resumes) and from
each simulated system's ``Tracer`` via ``snapshot``/``delta``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Module-name prefix -> layer; the longest matching prefix wins.  Data
# modules (messages, effects, TIDs, log records) are left out on
# purpose: their cost belongs to whichever layer builds and reads them.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.mach", "mach"),
    ("repro.net", "net"),
    ("repro.log.wal", "log"),
    ("repro.log.batcher", "log"),
    ("repro.log.disk", "log"),
    ("repro.log.storage", "log"),
    ("repro.servers", "servers"),
    ("repro.core.tranman", "core.tranman"),
    ("repro.core.twophase", "core.machines"),
    ("repro.core.nonblocking", "core.machines"),
    ("repro.core.paxoscommit", "core.machines"),
    ("repro.core.abortproto", "core.machines"),
    ("repro.obs", "obs"),
    ("repro.bench", "bench"),
    ("repro.system", "system"),
    ("repro.live.codec", "live.codec"),
    ("repro.live.walfile", "live.walfile"),
    ("repro.live.host", "live.host"),
    ("repro.live.site", "live.site"),
    ("repro.live.scenario", "live.site"),
    ("repro.live.ports", "live.site"),
    ("repro.lint.rules", "lint.perfile"),
    ("repro.lint.flow", "lint.flow"),
    ("repro.lint.races", "lint.races"),
    ("repro.lint.engine", "lint.engine"),
    ("repro.lint.findings", "lint.engine"),
    ("repro.lint.baseline", "lint.engine"),
)

# Spans kept in memory for the trace file; folding is exact regardless.
SPAN_CAP = 50_000

# Generators whose own wake-ups (resumes not delegated to a sub-iterator)
# are counted: the polling sweepers.
SWEEPERS = ("DiskManager._lazy_flush_loop",)

_INHERITED = object()

# Machine entry points counted as one protocol step each.
_STEP_PREFIX = "on_"
_STEP_NAMES = ("start", "recovered")


def layer_of(module: str) -> Optional[str]:
    best: Optional[Tuple[str, str]] = None
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "sid", "parent")

    def __init__(self, layer: str, name: str, start: float, sid: int,
                 parent: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.parent = parent


class Ledger:
    """Span stack, per-layer self time and boundary counts."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.entries: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, List[int]] = {}
        self.sweeps: Dict[str, int] = defaultdict(int)
        self.steps = 0
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.tracer_counts: Dict[str, int] = defaultdict(int)
        self.kernel_events = 0
        self.wal_forces: List[Tuple[float, int]] = []  # (seconds, records)
        self.frame_bytes = 0
        self._next_sid = 1
        self._patched: List[Tuple[Any, str, Any]] = []
        self._tracers: List[Any] = []

    # ---------------------------------------------------------- spans

    def _open(self, layer: str, name: str) -> _Frame:
        stack = self.stack
        parent = stack[-1].sid if stack else 0
        frame = _Frame(layer, name, self.clock(), self._next_sid, parent)
        self._next_sid += 1
        self.entries[layer] += 1
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.name, frame.start, end, frame.sid,
                               frame.parent))

    # -------------------------------------------------------- wrapping

    def wrap(self, fn: Callable[..., Any], layer: str, name: str
             ) -> Callable[..., Any]:
        """``fn`` with a span opened whenever a call crosses into ``layer``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        count = self.calls.setdefault(name, [0])
        stack = self.stack
        step = name.rsplit(".", 1)[-1]
        is_step = layer == "core.machines" and (
            step.startswith(_STEP_PREFIX) or step in _STEP_NAMES)
        ledger = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            count[0] += 1
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            if is_step:
                ledger.steps += 1
            frame = ledger._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._close(frame)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _wrap_generator(self, fn: Callable[..., Any], layer: str, name: str
                        ) -> Callable[..., Any]:
        count = self.calls.setdefault(name, [0])
        ledger = self
        sweeper = name in SWEEPERS

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            count[0] += 1
            return _GenProxy(fn(*args, **kwargs), layer, name, ledger,
                             sweeper)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def proxy_generator(self, gen: Any) -> Any:
        """Wrap a raw generator by the layer of the module that made it."""
        if not isinstance(gen, types.GeneratorType):
            return gen
        module = gen.gi_frame.f_globals.get("__name__", "") \
            if gen.gi_frame is not None else ""
        layer = layer_of(module)
        if layer is None:
            return gen
        return _GenProxy(gen, layer, f"{module}.{gen.__qualname__}", self,
                         False)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the old value back
        (or, for an attribute a class only inherited, removes it)."""
        old = vars(owner).get(attr, _INHERITED)
        self._patched.append((owner, attr, old))
        setattr(owner, attr, value)

    # ------------------------------------------------------- install

    def install(self) -> None:
        """Import every layer module and wrap what each one defines."""
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            if layer_of(info.name) is not None:
                importlib.import_module(info.name)
        replaced: Dict[int, Any] = {}
        for modname in sorted(m for m in sys.modules
                              if m.startswith("repro.")):
            module = sys.modules[modname]
            layer = layer_of(modname)
            if layer is None or module is None:
                continue
            source = getattr(module, "__file__", None)
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == modname:
                    self._wrap_class(value, layer, source)
                elif (isinstance(value, types.FunctionType)
                      and value.__module__ == modname
                      and value.__code__.co_filename == source
                      and not inspect.iscoroutinefunction(value)):
                    wrapped = self.wrap(value, layer,
                                        f"{modname}.{value.__qualname__}")
                    replaced[id(value)] = (value, wrapped)
        self._rebind(replaced)
        self._install_hooks()

    def _wrap_class(self, cls: type, layer: str, source: Optional[str]
                    ) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in ("__init__",
                                                      "__call__"):
                continue
            descriptor: Optional[type] = None
            fn = value
            if isinstance(value, (staticmethod, classmethod)):
                descriptor = type(value)
                fn = value.__func__
            if not isinstance(fn, types.FunctionType):
                continue
            if fn.__code__.co_filename != source:
                continue  # generated (dataclass) or inherited helpers
            if inspect.iscoroutinefunction(fn):
                continue  # run by the event loop: not a call boundary
            wrapped = self.wrap(fn, layer, f"{cls.__name__}.{attr}")
            self.patch(cls, attr, descriptor(wrapped) if descriptor
                      else wrapped)

    def _rebind(self, replaced: Dict[int, Tuple[Any, Any]]) -> None:
        """Point every reference to a wrapped module function at its
        wrapper: the defining module, ``from x import f`` copies in other
        modules, and the lint rule registry."""
        for modname in sorted(m for m in sys.modules
                              if m.startswith("repro")):
            module = sys.modules[modname]
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patch(module, attr, hit[1])
        from repro.lint import registry
        table = registry._REGISTRY
        for rule_id, fn in list(table.items()):
            hit = replaced.get(id(fn))
            if hit is not None and hit[0] is fn:
                self._patched.append((table, rule_id, fn))
                table[rule_id] = hit[1]

    def _install_hooks(self) -> None:
        """Counting hooks that need more than a span: kernel events,
        tracer counters, process bodies, WAL file forces, frame bytes."""
        from repro.live import site, walfile
        from repro.sim import kernel, process, tracing
        ledger = self

        class _EventCounter:
            def on_schedule(self, seq: int) -> None:
                pass

            def before_fire(self, t: float, seq: int, fn: Any,
                            args: Any) -> None:
                ledger.kernel_events += 1

        counter = _EventCounter()
        kernel_init = kernel.Kernel.__init__

        def init_kernel(k: Any, *args: Any, **kwargs: Any) -> None:
            kernel_init(k, *args, **kwargs)
            k.monitor = counter

        self.patch(kernel.Kernel, "__init__", init_kernel)

        tracer_init = tracing.Tracer.__init__

        def init_tracer(tracer: Any, *args: Any, **kwargs: Any) -> None:
            tracer_init(tracer, *args, **kwargs)
            ledger._watch_tracer(tracer)

        self.patch(tracing.Tracer, "__init__", init_tracer)

        process_init = process.Process.__init__

        def init_process(proc: Any, kern: Any, body: Any,
                         *args: Any, **kwargs: Any) -> None:
            process_init(proc, kern, ledger.proxy_generator(body),
                         *args, **kwargs)

        self.patch(process.Process, "__init__", init_process)

        wal_force = walfile.FileWal.force

        def force(wal: Any, lsn: Optional[int] = None) -> Any:
            before = wal.durable_lsn
            t0 = time.perf_counter()
            ready = wal_force(wal, lsn)
            if wal.durable_lsn > before:
                ledger.wal_forces.append((time.perf_counter() - t0,
                                          wal.durable_lsn - before))
            return ready

        self.patch(walfile.FileWal, "force", force)

        encode = site.encode_message_frame

        def encode_frame(*args: Any, **kwargs: Any) -> bytes:
            frame = encode(*args, **kwargs)
            ledger.frame_bytes += len(frame)
            return frame

        self.patch(site, "encode_message_frame", encode_frame)

    def _watch_tracer(self, tracer: Any) -> None:
        before = tracer.snapshot()
        counts = tracer.counters
        fold = self._fold_tracer
        self._tracers.append(weakref.finalize(tracer, fold, before, counts))

    def _fold_tracer(self, before: Dict[str, int],
                     counts: Dict[str, int]) -> None:
        from repro.sim.tracing import Tracer
        for kind, n in Tracer.delta(before, dict(counts)).items():
            self.tracer_counts[kind] += n

    def collect_tracers(self) -> None:
        """Fold the counters of every tracer still alive."""
        for fin in self._tracers:
            fin()
        self._tracers = []

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._patched = []

    # -------------------------------------------------------- results

    def calls_of(self, suffix: str) -> int:
        return sum(c[0] for name, c in self.calls.items()
                   if name == suffix or name.endswith("." + suffix))

    def write(self, path: str) -> None:
        """Write the kept spans as Chrome trace events (Perfetto-loadable)."""
        events = [{"name": name, "ph": "X", "ts": start * 1e6,
                   "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                   "args": {"id": sid, "parent": parent}}
                  for name, start, end, sid, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


class _GenProxy:
    """A generator stand-in that opens a span on every resume."""

    __slots__ = ("gen", "layer", "name", "ledger", "sweeper")

    def __init__(self, gen: Any, layer: str, name: str, ledger: Ledger,
                 sweeper: bool):
        self.gen = gen
        self.layer = layer
        self.name = name
        self.ledger = ledger
        self.sweeper = sweeper

    def __iter__(self) -> "_GenProxy":
        return self

    def __next__(self) -> Any:
        return self._resume(self.gen.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self.gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._resume(self.gen.throw, *args)

    def close(self) -> None:
        self.gen.close()

    @property
    def gi_running(self) -> bool:
        return self.gen.gi_running

    @property
    def gi_frame(self) -> Any:
        return self.gen.gi_frame

    def _resume(self, fn: Callable[..., Any], *args: Any) -> Any:
        ledger = self.ledger
        if self.sweeper and self.gen.gi_yieldfrom is None \
                and self.gen.gi_suspended:
            ledger.sweeps[self.name] += 1
        stack = ledger.stack
        if stack and stack[-1].layer == self.layer:
            return fn(*args)
        frame = ledger._open(self.layer, self.name)
        try:
            return fn(*args)
        finally:
            ledger._close(frame)
