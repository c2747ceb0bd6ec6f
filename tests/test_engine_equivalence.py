"""Differential testing: calendar queue vs the reference heap scheduler.

The calendar event queue replaced the global heap as the default
scheduler for throughput; its contract is *exact* behavioral equality —
same pop order (FIFO within a timestamp), same process interleaving,
same traces.  These tests drive hypothesis-generated schedules through
both ``Simulator(scheduler="calendar")`` and ``scheduler="heap"`` and
assert the observable histories are identical, covering the cases where
a bucketed queue could plausibly diverge from a ``(time, seq)`` heap:

* many events colliding on one timestamp (FIFO tie-order),
* events succeeded/failed with and without delay, defused failures,
* processes interrupted mid-wait (their pending resume is retracted),
* reschedules: new events created for times already drained past,
  equal to ``now``, and far in the future,
* ``run(until=...)`` stopping between buckets, and ``run_until_event``
  stopping mid-bucket, on each side of the engine's drain loop (the
  inlined calendar path, bare or with a tracer attached, and the hooked
  path through ``step()``).
"""

from inspect import getgeneratorstate

from hypothesis import given, settings, strategies as st

from repro.obs.profile import SelfProfiler
from repro.sim import Channel, Interrupt, SimulationError, Simulator, engine
from repro.sim.channel import ChannelClosed
from repro.sim.trace import Tracer, capture
from repro.testing.golden import canonical_json

SCHEDULERS = ("calendar", "heap")

# (scheduler, hook): the drain loop's inlined calendar path, the
# reference heap, the calendar queue driven through step() because a
# SelfProfiler is installed, and the inlined path with a tracer attached
# (the engine emits no per-event trace, so a tracer keeps the fast loop)
DRAIN_PATHS = (("calendar", None), ("heap", None), ("calendar", "profiler"),
               ("calendar", "tracer"))


def _drain_sim(scheduler, hook):
    sim = Simulator(scheduler=scheduler)
    if hook == "profiler":
        sim.profiler = SelfProfiler()
    elif hook == "tracer":
        Tracer(record=False).attach(sim)
    return sim


# -- schedule scripts ---------------------------------------------------------
#
# A script is data, interpreted identically on every simulator: a list
# of per-process action lists.  Actions reference shared events and
# channels by index, so the generated program is scheduler-agnostic.

_ACTION = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 3)),         # int fast path
    st.tuples(st.just("timeout"), st.integers(0, 5)),       # Timeout event
    st.tuples(st.just("wait"), st.integers(0, 3)),          # shared event
    st.tuples(st.just("fire"), st.integers(0, 3),           # succeed(delay=d)
              st.integers(0, 4)),
    st.tuples(st.just("fail"), st.integers(0, 3),           # fail + defuse
              st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, 1)),           # channel put
    st.tuples(st.just("get"), st.integers(0, 1)),           # channel get
    st.tuples(st.just("interrupt"), st.integers(0, 5)),     # poke a process
)

_SCRIPT = st.lists(st.lists(_ACTION, min_size=1, max_size=8),
                   min_size=2, max_size=6)


def _run_script(script, scheduler):
    """Interpret ``script``; return the observable history."""
    sim = Simulator(scheduler=scheduler)
    events = [sim.event() for _ in range(4)]
    chans = [Channel(sim, name=f"ch{i}") for i in range(2)]
    history = []
    procs = []

    def runner(pid, actions):
        for step, action in enumerate(actions):
            op = action[0]
            try:
                if op == "delay":
                    yield action[1]
                elif op == "timeout":
                    yield sim.timeout(action[1], value=("t", pid, step))
                elif op == "wait":
                    ev = events[action[1]]
                    if not ev.processed:
                        value = yield ev
                        history.append((sim.now, pid, step, "woke", value))
                elif op == "fire":
                    ev = events[action[1]]
                    if not ev.triggered:
                        ev.succeed(("v", pid, step), delay=action[2])
                elif op == "fail":
                    ev = events[action[1]]
                    if not ev.triggered:
                        ev.fail(RuntimeError(f"boom{pid}.{step}"),
                                delay=action[2])
                        ev.defuse()
                elif op == "put":
                    yield chans[action[1]].put((pid, step))
                elif op == "get":
                    got = chans[action[1]].try_get()
                    history.append((sim.now, pid, step, "got", got))
                elif op == "interrupt":
                    target = procs[action[1] % len(procs)]
                    # unstarted generators cannot absorb a throw; both
                    # schedulers would crash identically, which proves
                    # nothing — restrict to started, parked processes
                    if (target.is_alive and target is not sim._active_process
                            and getgeneratorstate(target.gen) != "GEN_CREATED"):
                        target.interrupt((pid, step))
            except Interrupt as intr:
                history.append((sim.now, pid, step, "intr", intr.cause))
            except ChannelClosed:
                history.append((sim.now, pid, step, "closed"))
            except RuntimeError as exc:
                history.append((sim.now, pid, step, "err", str(exc)))
            history.append((sim.now, pid, step, op))
            if sim.tracer is not None:
                sim.tracer.emit(sim, "script_op", pid=pid, step=step, op=op)

    for pid, actions in enumerate(script):
        procs.append(sim.process(runner(pid, actions), name=f"p{pid}"))
    # an interrupted process abandons its pending event; if that event
    # carried a failure it pops unabsorbed and stops the run — on both
    # schedulers, at the same point, which is exactly what we compare
    try:
        sim.run(until=200)
    except Exception as exc:
        # type only: messages can embed repr() addresses
        history.append(("run-error", type(exc).__name__))
    # wind down: release anything parked on a never-fired event/channel
    for ev in events:
        if not ev.triggered:
            ev.succeed(("flush",))
    for ch in chans:
        ch.close()
    try:
        sim.run(until=400)
    except Exception as exc:
        history.append(("tail-error", type(exc).__name__))
    return history, sim.now


@given(script=_SCRIPT)
@settings(max_examples=120, deadline=None)
def test_calendar_and_heap_pop_identical_histories(script):
    baseline = _run_script(script, "heap")
    assert _run_script(script, "calendar") == baseline


@given(script=_SCRIPT)
@settings(max_examples=30, deadline=None)
def test_calendar_and_heap_produce_identical_traces(script):
    blobs = []
    for scheduler in SCHEDULERS:
        with capture() as tracer:
            outcome = _run_script(script, scheduler)
        blobs.append((canonical_json(tracer), outcome))
    assert blobs[0] == blobs[1]


@given(delays=st.lists(st.integers(0, 2), min_size=5, max_size=40))
@settings(max_examples=60, deadline=None)
def test_same_timestamp_ties_pop_fifo(delays):
    """Heavy collisions: every pop order must match the reference."""
    orders = []
    for scheduler in SCHEDULERS:
        sim = Simulator(scheduler=scheduler)
        order = []
        for i, d in enumerate(delays):
            sim.event().succeed(i, delay=d).callbacks.append(
                lambda ev: order.append((sim.now, ev.value)))
        sim.run()
        orders.append(order)
    assert orders[0] == orders[1]
    # and within each timestamp, creation order is preserved
    by_time = {}
    for when, idx in orders[0]:
        by_time.setdefault(when, []).append(idx)
    for when, idxs in by_time.items():
        assert idxs == sorted(idxs), f"tie order broken at t={when}"


@given(until=st.integers(0, 30),
       delays=st.lists(st.integers(0, 25), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_run_until_stops_identically(until, delays):
    results = []
    for scheduler, hook in DRAIN_PATHS:
        sim = _drain_sim(scheduler, hook)
        seen = []
        for i, d in enumerate(delays):
            sim.event().succeed(i, delay=d).callbacks.append(
                lambda ev: seen.append((sim.now, ev.value)))
        before = engine.events_processed()
        sim.run(until=until)
        results.append((seen, sim.now, sim.peek,
                        engine.events_processed() - before))
    assert all(r == results[0] for r in results)


@given(delays=st.lists(st.integers(0, 3), min_size=1, max_size=30),
       trigger=st.integers(0, 35),
       fire_delay=st.integers(0, 2),
       limit=st.one_of(st.none(), st.integers(0, 4)))
@settings(max_examples=80, deadline=None)
def test_run_until_event_stops_mid_bucket_and_resumes(delays, trigger,
                                                      fire_delay, limit):
    """Event ``trigger`` fires the target from inside its (usually
    shared) bucket, so the inlined loop returns with the bucket half
    drained and must write its ``_head``/``_len`` back; ``run()`` then
    resumes from exactly that point.  A ``trigger`` past the end leaves
    the target unfired (starvation), and ``limit`` can cut the run
    short first."""
    results = []
    for scheduler, hook in DRAIN_PATHS:
        sim = _drain_sim(scheduler, hook)
        target = sim.event()
        seen = []

        def on_pop(ev):
            seen.append((sim.now, ev.value))
            if ev.value == trigger:
                target.succeed(("hit", sim.now), delay=fire_delay)

        for i, d in enumerate(delays):
            sim.event().succeed(i, delay=d).callbacks.append(on_pop)
        before = engine.events_processed()
        try:
            outcome = sim.run_until_event(target, limit=limit)
        except SimulationError as exc:
            outcome = str(exc)
        at_stop = (list(seen), outcome, sim.now, sim.peek, len(sim._eq),
                   engine.events_processed() - before)
        sim.run()
        results.append((at_stop, seen, sim.now, sim.peek, len(sim._eq),
                        engine.events_processed() - before))
    assert all(r == results[0] for r in results)
