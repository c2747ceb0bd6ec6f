"""The discrete-event simulation kernel.

The design mirrors simpy's condition-free core: a :class:`Simulator` owns
a queue of triggered events; a :class:`Process` wraps a Python generator
and advances it each time an event it waited on fires.

Time is a plain integer (we use picoseconds-free abstract "cycles" or
nanoseconds depending on the embedding; the engine does not care).

Scheduler
---------

Two event-queue implementations share one contract (pop strictly by
timestamp, FIFO among events scheduled for the same instant):

* :class:`CalendarEventQueue` (default) — a calendar queue: a dict
  mapping each distinct timestamp to a list of events in enqueue order,
  plus a min-heap of the distinct timestamps.  Platform workloads
  schedule many events per instant (MMIO charges, DMA completions and
  NoC hops all quantize to the same picosecond grid), so the heap
  shrinks from one entry per *event* to one entry per *distinct time*,
  and no ``(time, seq, event)`` tuple is allocated per enqueue.
* :class:`HeapEventQueue` — the original global ``heapq`` ordered by
  ``(time, seq)`` with a monotone sequence counter.  Kept as the
  reference implementation for differential testing
  (``tests/test_engine_equivalence.py``).

Both produce the same pop order: the sequence counter is assigned in
enqueue order, so within one timestamp the heap's seq order equals the
calendar bucket's append order.  This tie-order invariant is what keeps
the committed golden trace digests byte-identical across schedulers
(DESIGN.md section 13).

Select with ``Simulator(scheduler="heap")`` or
:func:`set_default_scheduler`.

Fast paths
----------

* A process may ``yield <int>`` to sleep that many time units: the
  engine reuses one pre-allocated per-process tick event instead of
  constructing a :class:`Timeout` per sleep.  ``yield None`` is the
  ``yield 0`` cooperative yield.  Both consume exactly one queue entry
  at the same instant as the equivalent ``yield sim.timeout(n)``, so
  traces are unchanged.
* ``run`` and ``run_until_event`` share one drain loop,
  ``Simulator._drain``.  With metrics and profiler both ``None`` (the
  default) and the calendar queue, it inlines the queue, so the cost of
  the hooks is a single check per *run call* instead of a chain of
  ``if`` guards per event.  An attached tracer keeps the inlined loop:
  the engine emits nothing per event, and every trace site is a model
  site guarded by ``sim.tracer``.  Metrics, the profiler or the heap
  queue send every event through :meth:`Simulator.step`.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter as _perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event state markers
_PENDING = object()

# Default tracer picked up by newly constructed Simulators (see
# repro.sim.trace).  None keeps tracing entirely off: the only cost is
# one attribute load + None check per emit site.
_default_tracer = None


def set_default_tracer(tracer) -> None:
    """Install (or clear, with None) the tracer for new Simulators."""
    global _default_tracer
    _default_tracer = tracer


# Default metrics registry / self-profiler, same contract as the tracer:
# picked up by newly constructed Simulators, None keeps the hooks free
# (see repro.obs).
_default_metrics = None
_default_profiler = None


def set_default_metrics(metrics) -> None:
    """Install (or clear, with None) the metrics registry for new
    Simulators."""
    global _default_metrics
    _default_metrics = metrics


def set_default_profiler(profiler) -> None:
    """Install (or clear, with None) the self-profiler for new
    Simulators."""
    global _default_profiler
    _default_profiler = profiler


# Process-global count of events processed across all simulators; the
# bench harness (repro.bench) reads deltas of this to compute events/sec
# without installing any per-step hook.
_events_processed = 0


def events_processed() -> int:
    """Total simulator events processed in this interpreter."""
    return _events_processed


# -- event queues -------------------------------------------------------------

class HeapEventQueue:
    """Reference scheduler: one ``(time, seq, event)`` heap entry per event.

    The monotone ``seq`` breaks same-time ties in enqueue order; this is
    the original implementation and the ground truth the calendar queue
    is differentially tested against.
    """

    __slots__ = ("_heap", "_seq")

    name = "heap"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, "Event"]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: int, event: "Event") -> None:
        heapq.heappush(self._heap, (when, next(self._seq), event))

    def pop(self) -> Tuple[int, "Event"]:
        when, _, event = heapq.heappop(self._heap)
        return when, event

    def peek(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None


class CalendarEventQueue:
    """Calendar queue: per-timestamp buckets + a heap of distinct times.

    ``_buckets`` maps an absolute timestamp to the events scheduled for
    it — a bare event while the instant holds one (the common case:
    ~64% of fig9's timestamps are singletons), upgraded to a list in
    enqueue order on the first collision.  ``_times`` is a min-heap of
    the distinct timestamps present.  ``_head`` is the drain index into
    the minimum list bucket (only the minimum bucket is ever partially
    drained — events cannot be scheduled in the past, so earlier
    buckets cannot appear).  List buckets are removed lazily once
    drained, which keeps the queue coherent even if an event callback
    raises mid-bucket; singletons are removed eagerly at pop.
    """

    __slots__ = ("_buckets", "_times", "_head", "_len")

    name = "calendar"

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._times: List[int] = []
        self._head = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, when: int, event: "Event") -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = event
            heapq.heappush(self._times, when)
        elif type(bucket) is list:
            bucket.append(event)
        else:
            self._buckets[when] = [bucket, event]
        self._len += 1

    def pop(self) -> Tuple[int, "Event"]:
        times = self._times
        buckets = self._buckets
        while True:
            when = times[0]
            bucket = buckets[when]
            if type(bucket) is not list:
                del buckets[when]
                heapq.heappop(times)
                self._len -= 1
                return when, bucket
            head = self._head
            if head < len(bucket):
                self._head = head + 1
                self._len -= 1
                return when, bucket[head]
            # minimum bucket fully drained: retire it and look again
            del buckets[when]
            heapq.heappop(times)
            self._head = 0

    def peek(self) -> Optional[int]:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            bucket = buckets[when]
            if type(bucket) is not list or self._head < len(bucket):
                return when
            del buckets[when]
            heapq.heappop(times)
            self._head = 0
        return None


_SCHEDULERS = {"calendar": CalendarEventQueue, "heap": HeapEventQueue}

DEFAULT_SCHEDULER = "calendar"
_default_scheduler = DEFAULT_SCHEDULER


def set_default_scheduler(name: Optional[str]) -> None:
    """Select the event queue for new Simulators ("calendar" or "heap").

    ``None`` restores the built-in default.
    """
    global _default_scheduler
    if name is None:
        name = DEFAULT_SCHEDULER
    if name not in _SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r} "
                         f"(choose from {sorted(_SCHEDULERS)})")
    _default_scheduler = name


def default_scheduler() -> str:
    """The scheduler new Simulators get ("calendar" or "heap")."""
    return _default_scheduler


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`.  Callbacks attached before the
    trigger run when the simulator pops the event off its queue.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        eq = sim._eq
        if eq.__class__ is CalendarEventQueue:
            # inlined CalendarEventQueue.push — succeed() is the hottest
            # scheduling entry point (every channel op and callback chain)
            when = sim.now + delay
            buckets = eq._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = self
                heapq.heappush(eq._times, when)
            elif bucket.__class__ is list:
                bucket.append(self)
            else:
                buckets[when] = [bucket, self]
            eq._len += 1
        else:
            eq.push(sim.now + delay, self)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If no
        process waits, the simulator raises it at the end of the step
        (unless :meth:`defuse` was called).
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._value = exception
        self._ok = False
        sim = self.sim
        sim._eq.push(sim.now + delay, self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay; created pre-triggered."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._ok = True
        sim._eq.push(sim.now + delay, self)


class Process(Event):
    """Drives a generator; is itself an event that fires on termination.

    The generator may yield:

    * an :class:`Event` — the process resumes when it triggers, receiving
      its value (or having its exception raised inside the generator).
    * an ``int`` — sleep that many time units (equivalent to yielding
      ``sim.timeout(n)``, without allocating a Timeout).
    * ``None`` — the process resumes on the next simulator step (a
      cooperative yield at the current time).
    """

    __slots__ = ("gen", "name", "_target", "_resume_handle", "_tick",
                 "_tick_cbs")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", None) or repr(gen)
        # bootstrap: resume on the next step via the reusable tick event
        tick = Event(sim)
        tick._value = None
        tick.callbacks.append(self._resume)
        self._tick = tick
        self._tick_cbs = tick.callbacks
        self._target: Optional[Event] = tick
        sim._eq.push(sim.now, tick)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        kick = Event(self.sim)
        kick.fail(Interrupt(cause))
        kick.defuse()
        self._wait_on(kick)

    # -- internal machinery -------------------------------------------------

    def _wait_on(self, event: Event) -> None:
        self._target = event
        if event.callbacks is None:
            # already processed: schedule immediate resume
            kick = Event(self.sim)
            if event._ok:
                kick.succeed(event._value)
            else:
                event._defused = True
                kick.fail(event._value)
                kick.defuse()
            kick.callbacks.append(self._resume)
        else:
            event.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                result = self.gen.send(event._value)
            else:
                event._defused = True
                result = self.gen.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None

        if type(result) is int:
            delay = result
            if delay < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {delay}")
        elif result is None:
            delay = 0
        else:
            if not isinstance(result, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {result!r}, "
                    f"expected Event, int or None"
                )
            if result.sim is not sim:
                raise SimulationError("yielded event belongs to another simulator")
            self._wait_on(result)
            return

        # int / None fast path: sleep on the reusable tick event.  Safe to
        # reuse only once the previous incarnation left the queue
        # (_processed); an interrupt can orphan a still-queued tick, in
        # which case a fresh event replaces it.
        tick = self._tick
        if tick._processed:
            tick._value = None
            tick._ok = True
            tick._processed = False
            tick._defused = False
            # the callback list survives pops untouched (a pop
            # detaches it before running it); an interrupt() may have
            # emptied it via remove(), so top it back up
            cbs = self._tick_cbs
            if not cbs:
                cbs.append(self._resume)
            tick.callbacks = cbs
        else:
            tick = Event(sim)
            tick._value = None
            tick.callbacks.append(self._resume)
            self._tick = tick
            self._tick_cbs = tick.callbacks
        self._target = tick
        eq = sim._eq
        when = sim.now + delay
        if eq.__class__ is CalendarEventQueue:
            # inlined CalendarEventQueue.push — every process tick lands here
            buckets = eq._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = tick
                heapq.heappush(eq._times, when)
            elif bucket.__class__ is list:
                bucket.append(tick)
            else:
                buckets[when] = [bucket, tick]
            eq._len += 1
        else:
            eq.push(when, tick)


class Simulator:
    """The event loop.  Owns simulated time and the pending-event queue."""

    def __init__(self, start: int = 0, scheduler: Optional[str] = None):
        self.now: int = start
        self.scheduler = scheduler or _default_scheduler
        if self.scheduler not in _SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {self.scheduler!r} "
                f"(choose from {sorted(_SCHEDULERS)})")
        self._active_process: Optional[Process] = None
        self._eq = _SCHEDULERS[self.scheduler]()
        self.tracer = _default_tracer
        self.trace_id = (_default_tracer.register_sim()
                         if _default_tracer is not None else 0)
        self.metrics = _default_metrics
        self.profiler = _default_profiler

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when the first of ``events`` fires.

        Value is the ``(event, value)`` pair of the winner.  Losing
        events are left untouched (their values remain retrievable).
        """
        events = list(events)
        result = Event(self)

        def _on_fire(ev: Event) -> None:
            if result.triggered:
                return
            if ev._ok:
                result.succeed((ev, ev._value))
            else:
                ev._defused = True
                result.fail(ev._value)
                result.defuse()

        for ev in events:
            if ev.callbacks is None:
                _on_fire(ev)
                break
            ev.callbacks.append(_on_fire)
        return result

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when all of ``events`` have fired."""
        events = list(events)
        result = Event(self)
        remaining = [len(events)]
        if not events:
            result.succeed([])
            return result

        def _on_fire(ev: Event) -> None:
            if result.triggered:
                return
            if not ev._ok:
                ev._defused = True
                result.fail(ev._value)
                result.defuse()
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                result.succeed([e._value for e in events])

        for ev in events:
            if ev.callbacks is None:
                _on_fire(ev)
            else:
                ev.callbacks.append(_on_fire)
        return result

    # -- scheduling ----------------------------------------------------------

    def step(self) -> None:
        """Process the next triggered event (single-step API)."""
        global _events_processed
        when, event = self._eq.pop()
        self.now = when
        _events_processed += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.on_step(self, event)
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        profiler = self.profiler
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            profiler.on_step()
            clock = _perf_counter  # repro: noqa[REP001] host-clock self-profiling
            for callback in callbacks:
                t0 = clock()
                callback(event)
                profiler.record(getattr(callback, "__self__", None),
                                clock() - t0)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} lies in the past (now={self.now})")
        self._drain(Event(self), until)   # a stop event nobody triggers
        if until is not None:
            self.now = until

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        ``limit`` guards against runaway simulations.
        """
        if event._value is _PENDING:
            self._drain(event, limit)
            if event._value is _PENDING:
                if not len(self._eq):
                    raise SimulationError(
                        "simulation starved before event triggered")
                raise SimulationError(f"event did not trigger before t={limit}")
        if not event._ok:
            event._defused = True
            raise event._value
        return event._value

    def _drain(self, stop: Event, bound: Optional[int]) -> None:
        """Process events until ``stop`` triggers, the queue empties, or
        the next event lies past ``bound`` (``None``: no bound).

        With metrics and profiler off and the calendar queue the loop
        inlines the queue, tracer or not (see "Fast paths" in the module
        docstring); otherwise every event goes through :meth:`step`.
        """
        global _events_processed
        q = self._eq
        pending = _PENDING
        if (self.metrics is not None or self.profiler is not None
                or type(q) is not CalendarEventQueue):
            while stop._value is pending:
                when = q.peek()
                if when is None or (bound is not None and when > bound):
                    return
                self.step()
            return
        # The queue's _head/_len are only read by pop()/peek()/len(), none
        # of which can run while this loop owns the queue (no metrics, no
        # profiler), so both are maintained in locals and written back on
        # exit.
        buckets = q._buckets
        times = q._times
        pop_time = heapq.heappop
        head = q._head
        n = 0
        try:
            while stop._value is pending and times:
                when = times[0]
                bucket = buckets[when]
                if type(bucket) is not list:
                    if bound is not None and when > bound:
                        return
                    self.now = when
                    del buckets[when]
                    pop_time(times)
                    event = bucket
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    n += 1
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    continue
                if head >= len(bucket):
                    del buckets[when]
                    pop_time(times)
                    head = 0
                    continue
                if bound is not None and when > bound:
                    return
                self.now = when
                while head < len(bucket):
                    event = bucket[head]
                    head += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    n += 1
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if stop._value is not pending:
                        return
                del buckets[when]
                pop_time(times)
                head = 0
        finally:
            q._head = head
            q._len -= n
            _events_processed += n

    @property
    def peek(self) -> Optional[int]:
        """Time of the next pending event, or None if the queue is empty."""
        return self._eq.peek()
