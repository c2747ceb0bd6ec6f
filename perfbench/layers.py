"""Outside-in per-layer host-time attribution.

The traced run never edits the program: :func:`instrument` replaces the
public entry points of each layer's classes with timing wrappers for the
duration of a ``with`` block and restores them afterwards.

* ``Simulator.run`` / ``run_until_event`` are the root spans (layer
  ``sim``); whatever part of them no child span covers is the engine's
  own dispatch cost.
* ``Simulator.process`` wraps each process generator, attributed to the
  ``repro`` package whose module defines the generator.
* ``Controller.spawn`` wraps each activity program the same way, because
  activities run inside the multiplexer's process, not as processes.
* The public methods of each layer's classes (:data:`ENTRY_POINTS`) get
  a span whenever a call crosses from another layer.  Same-layer calls
  run unwrapped: their time is the layer's own either way.

A layer's self time is its spans' time minus the time of their child
spans, summed per resume segment, so the layers' self times add up to
the traced host time.  Spans (name, host start/end, parent, simulated
start/end) stay in memory and are written out by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

#: ``repro`` package (module prefix) -> layer; the longest prefix wins.
PACKAGE_LAYERS = {
    "repro.sim": "sim",
    "repro.noc": "noc",
    "repro.faults": "noc",        # fault injection wraps NocFabric.send
    "repro.dtu": "dtu",
    "repro.mux": "mux",
    "repro.kernel": "kernel",
    "repro.services": "services",
    "repro.apps": "apps",
    "repro.posix": "apps",        # the VFS library the apps link against
    "repro.core": "workload",
    "repro.workloads": "workload",
    "repro.testing": "workload",  # the experiment's online invariant suite
}

#: Every layer a span can be attributed to (``setup`` is excluded from
#: the workload's wall time, like ``build_system`` is untraced).
LAYERS = ("sim", "noc", "dtu", "mux", "kernel", "services", "apps",
          "workload")

#: (module, class, layer, method filter).  ``None`` = every public method.
ENTRY_POINTS = [
    ("repro.noc.fabric", "NocFabric", "noc", ("send",)),
    # the batched NoC path delivers through event callbacks, not send()
    ("repro.noc.fabric", "_Arrival", "noc", ("_arrive", "_delivered")),
    ("repro.dtu.dtu", "Dtu", "dtu", "cmd_"),
    ("repro.dtu.vdtu", "VDtu", "dtu", "priv_"),
    ("repro.mux.api", "ActivityApi", "mux", None),
    ("repro.mux.m3x", "M3xActivityApi", "mux", None),
    ("repro.kernel.controller", "Controller", "kernel", None),
    ("repro.mux.m3x", "M3xController", "kernel", None),
    ("repro.services.m3fs", "FsClient", "services", None),
    ("repro.services.serving", "AdmissionQueue", "services", None),
    ("repro.services.serving", "ServingStack", "services", None),
    ("repro.services.serving", "CircuitBreaker", "services", None),
    ("repro.apps.lsm", "LsmStore", "apps", None),
    ("repro.apps.traceplayer", "TracePlayer", "apps", None),
]

#: Calls that always get a span, also from inside their own layer: the
#: simulated durations of these feed per-layer metrics.
FORCED = frozenset({"ActivityApi.recv", "ActivityApi.syscall",
                    "M3xActivityApi.syscall_forward"})

#: Calls whose return value is recorded (a fetch that found a message).
WATCH_RETURNS = frozenset({"Dtu.cmd_fetch"})


def layer_of_module(module: Optional[str]) -> str:
    best = ""
    for prefix in PACKAGE_LAYERS:
        if (module == prefix or (module or "").startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    if not best:
        raise LookupError(f"module {module!r} belongs to no layer")
    return PACKAGE_LAYERS[best]


def layer_of_generator(gen) -> str:
    return layer_of_module(gen.gi_frame.f_globals.get("__name__"))


class Span:
    __slots__ = ("sid", "parent", "nid", "layer", "h0", "h1", "busy",
                 "own", "s0", "s1", "t0", "child")

    def __init__(self, sid, parent, nid, layer, s0):
        self.sid = sid
        self.parent = parent
        self.nid = nid
        self.layer = layer
        self.h0 = -1.0
        self.h1 = -1.0
        self.busy = 0.0
        self.own = 0.0
        self.s0 = s0
        self.s1 = s0
        self.t0 = 0.0
        self.child = 0.0


class Tracer:
    """Span store and per-layer self-time accumulator for one pass."""

    FIELDS = ("sid", "parent", "name", "layer", "host_start", "host_end",
              "busy_s", "self_s", "sim_start", "sim_end")

    def __init__(self):
        self.enabled = False
        self.sim = None
        self.stack: List[Span] = []
        self.self_s: Dict[str, float] = {k: 0.0 for k in LAYERS}
        self.self_s["setup"] = 0.0
        self.names: List[str] = []
        self._nids: Dict[str, int] = {}
        self.calls: List[int] = []      # calls from another layer
        self.spans: List[int] = []      # spans opened, forced ones too
        self.returns: List[int] = []
        self.sim_ps: List[int] = []
        self.watched: set = set()
        self._open: Dict[int, Span] = {}
        self._next = 1
        self._cols = {f: array("d") for f in self.FIELDS}

    # -- names and counts -----------------------------------------------------

    def nid(self, name: str) -> int:
        nid = self._nids.get(name)
        if nid is None:
            nid = self._nids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.spans.append(0)
            self.returns.append(0)
            self.sim_ps.append(0)
        return nid

    def count(self, name: str) -> int:
        nid = self._nids.get(name)
        return 0 if nid is None else self.calls[nid]

    def mean_sim_ps(self, *names: str) -> float:
        """Mean simulated duration of the named spans (0 if none ran)."""
        nids = [self._nids[n] for n in names if n in self._nids]
        n = sum(self.spans[i] for i in nids)
        return sum(self.sim_ps[i] for i in nids) / n if n else 0.0

    def total_sim_ps(self, name: str) -> int:
        nid = self._nids.get(name)
        return 0 if nid is None else self.sim_ps[nid]

    def returned(self, name: str) -> int:
        nid = self._nids.get(name)
        return 0 if nid is None else self.returns[nid]

    def count_prefix(self, prefix: str) -> int:
        return sum(self.calls[i] for i, n in enumerate(self.names)
                   if n.startswith(prefix))

    # -- spans ----------------------------------------------------------------

    def open(self, nid: int, layer: str) -> Span:
        stack = self.stack
        parent = stack[-1] if stack else None
        now = self.sim.now if self.sim is not None else 0
        span = Span(self._next, parent.sid if parent else 0, nid, layer, now)
        self._next += 1
        self.spans[nid] += 1
        if parent is None or parent.layer != layer:
            self.calls[nid] += 1
        return span

    def enter(self, span: Span) -> None:
        t = perf_counter()
        span.t0 = t
        span.child = 0.0
        if span.h0 < 0:
            span.h0 = t
        self.stack.append(span)

    def exclude(self, seconds: float) -> None:
        """Charge host time spent untraced (system set-up) to ``setup``
        instead of the span that was running around it."""
        self.self_s["setup"] += seconds
        if self.stack:
            self.stack[-1].child += seconds

    def leave(self, span: Span) -> None:
        t = perf_counter()
        self.stack.pop()
        d = t - span.t0
        own = d - span.child
        span.busy += d
        span.own += own
        span.h1 = t
        self.self_s[span.layer] += own
        if self.stack:
            self.stack[-1].child += d

    def finish(self, span: Span) -> None:
        span.s1 = self.sim.now if self.sim is not None else span.s0
        self.sim_ps[span.nid] += span.s1 - span.s0
        self._open.pop(span.sid, None)
        cols = self._cols
        for field, value in (("sid", span.sid), ("parent", span.parent),
                             ("name", span.nid),
                             ("layer", LAYERS.index(span.layer)),
                             ("host_start", span.h0), ("host_end", span.h1),
                             ("busy_s", span.busy), ("self_s", span.own),
                             ("sim_start", span.s0), ("sim_end", span.s1)):
            cols[field].append(value)

    def track(self, span: Span) -> None:
        """Remember a generator's span so :meth:`flush` can close it."""
        self._open[span.sid] = span

    def flush(self) -> None:
        """Record spans still open when the workload ends (processes and
        activities that never exit, generators left suspended)."""
        for span in list(self._open.values()):
            self.finish(span)

    @property
    def n_spans(self) -> int:
        return len(self._cols["sid"])

    def save(self, path) -> None:
        """Write the spans as a JSON header line plus raw float64 columns."""
        header = {"fields": list(self.FIELDS), "n": self.n_spans,
                  "names": self.names, "layers": list(LAYERS),
                  "time_unit": {"host": "s", "sim": "ps"}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field in self.FIELDS:
                self._cols[field].tofile(fh)


def load_spans(path) -> Dict:
    """Read a file written by :meth:`Tracer.save` back into columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field in header["fields"]:
            col = array("d")
            col.fromfile(fh, header["n"])
            cols[field] = col
    header["columns"] = cols
    return header


class TracedGen:
    """Drives a generator inside a span; forwards send/throw/close and
    keeps ``__name__`` (process names feed the program's own tracer)."""

    __slots__ = ("tr", "gen", "span", "__name__")

    def __init__(self, tr: Tracer, gen, span: Span):
        self.tr = tr
        self.gen = gen
        self.span = span
        self.__name__ = getattr(gen, "__name__", "gen")
        tr.track(span)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _step(self, method, arg):
        tr = self.tr
        if not tr.enabled:
            return method(arg)
        span = self.span
        tr.enter(span)
        try:
            value = method(arg)
        except StopIteration as stop:
            tr.leave(span)
            if span.nid in tr.watched:
                tr.returns[span.nid] += stop.value is not None
            tr.finish(span)
            raise
        except BaseException:
            tr.leave(span)
            tr.finish(span)
            raise
        tr.leave(span)
        return value

    def send(self, value):
        return self._step(self.gen.send, value)

    def throw(self, *exc):
        return self._step(lambda e: self.gen.throw(*e), exc)

    def close(self):
        return self.gen.close()


def _wrap_method(tr: Tracer, cls, name: str, fn, layer: str):
    qual = f"{cls.__name__}.{name}"
    nid = tr.nid(qual)
    forced = qual in FORCED
    if qual in WATCH_RETURNS:
        tr.watched.add(nid)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stack = tr.stack
            if not tr.enabled or (not forced and stack
                                  and stack[-1].layer == layer):
                return gen
            return TracedGen(tr, gen, tr.open(nid, layer))
        return gen_wrapper

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        stack = tr.stack
        if not tr.enabled or (not forced and stack
                              and stack[-1].layer == layer):
            return fn(*args, **kwargs)
        span = tr.open(nid, layer)
        tr.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.leave(span)
            tr.finish(span)
        return result
    return call_wrapper


def _methods(cls, selector):
    for name, fn in list(vars(cls).items()):
        if not inspect.isfunction(fn):
            continue
        if selector is None:
            ok = not name.startswith("_")
        elif isinstance(selector, str):
            ok = name.startswith(selector)
        else:
            ok = name in selector
        if ok:
            yield name, fn


@contextmanager
def instrument(tr: Tracer):
    """Install the wrappers for the ``with`` block, then restore."""
    import importlib

    from repro.kernel.controller import Controller
    from repro.sim.engine import Simulator

    saved = []

    def patch(cls, name, new):
        saved.append((cls, name, vars(cls)[name]))
        setattr(cls, name, new)

    for module, clsname, layer, selector in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), clsname)
        for name, fn in _methods(cls, selector):
            patch(cls, name, _wrap_method(tr, cls, name, fn, layer))

    kinds: Dict = {}   # (kind, code object) -> (name id, layer)

    def traced(kind: str, gen) -> TracedGen:
        if isinstance(gen, TracedGen):   # a layer call already wrapped it
            return gen
        key = (kind, gen.gi_code)
        hit = kinds.get(key)
        if hit is None:
            hit = kinds[key] = (tr.nid(f"{kind}:{gen.__name__}"),
                                layer_of_generator(gen))
        return TracedGen(tr, gen, tr.open(*hit))

    # activity programs run inside the multiplexer, not as processes
    wrapped_spawn = vars(Controller)["spawn"]

    def traced_program(program):
        if getattr(program, "_traced", False):
            return program

        def run(api):
            return traced("activity", program(api))
        run._traced = True
        return run

    @functools.wraps(wrapped_spawn)
    def spawn(self, name, tile_id, program, *args, **kwargs):
        return wrapped_spawn(self, name, tile_id, traced_program(program),
                             *args, **kwargs)
    patch(Controller, "spawn", spawn)

    orig_process = vars(Simulator)["process"]

    @functools.wraps(orig_process)
    def process(self, gen, name=None):
        return orig_process(self, traced("process", gen), name)
    patch(Simulator, "process", process)

    for name in ("run", "run_until_event"):
        fn = vars(Simulator)[name]
        patch(Simulator, name, _wrap_method(tr, Simulator, name, fn, "sim"))
    try:
        yield tr
    finally:
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)
