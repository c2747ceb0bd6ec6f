"""The metrics registry: counters, gauges and histograms on sim time.

A :class:`MetricsRegistry` is a trace subscriber: :data:`METRICS` maps
each trace kind (:mod:`repro.sim.trace`) to the metrics it feeds, so
metric names live in this module only and the models have one
instrumentation path, ``tracer.emit``.  Design constraints, in order:

1. **Zero cost when off.**  Without a tracer every emit site costs one
   attribute load + ``is not None``.
2. **No observer effect when on.**  The registry only *reads* trace
   events, so enabling metrics leaves traces byte-identical (asserted
   by the zero-cost test suite).
3. **Bounded memory.**  Time series are throttled: a gauge records a
   point only when the value changed or ``interval_ps`` of simulated
   time passed since the last point.

Name convention: ``tile<N>/<component>/<metric>`` for per-tile series
(``<N>`` is the event's ``tile`` field), ``ctrl/<metric>`` for the
controller.  Everything is JSON-safe via :meth:`MetricsRegistry.as_dict`.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Gauge",
    "METRICS",
    "MetricsRegistry",
    "capture_metrics",
]

# simulated-time throttle between gauge points (10 us)
GAUGE_INTERVAL_PS = 10_000_000

# trace kind -> the metrics it feeds, as (write, name, field) triples.
# ``write`` is "inc" (counter), "series" (counter plus a throttled series
# of its running total), "sample" (gauge of ``field``) or "observe"
# (histogram of ``field``); ``{tile}`` in a name is the event's tile.
METRICS: Dict[str, Tuple[Tuple[str, str, Optional[str]], ...]] = {
    "credit_stall": (("inc", "tile{tile}/dtu/credit_stalls", None),),
    "send_done": (("series", "tile{tile}/dtu/sends", None),),
    "recv_done": (("series", "tile{tile}/dtu/recvs", None),),
    "core_req_enq": (("sample", "tile{tile}/vdtu/core_req_q", "qlen"),),
    "core_req_ack": (("sample", "tile{tile}/vdtu/core_req_q", "qlen"),),
    "tmux_pick": (("sample", "tile{tile}/tilemux/ready_q", "qlen"),),
    "ctx_switch": (("series", "tile{tile}/tilemux/ctx_switches", None),
                   ("observe", "tile{tile}/tilemux/switch_ps", "dur")),
    "preempt": (("series", "tile{tile}/sched/preempts", None),),
    "migrate_out": (("series", "tile{tile}/sched/migrations_out", None),),
    "migrate_in": (("series", "tile{tile}/sched/migrations_in", None),),
    "syscall": (("series", "ctrl/syscalls", None),),
    "syscall_q": (("sample", "ctrl/sysc_q", "qlen"),),
    "m3x_slowpath": (("series", "tile{tile}/m3x/slow_paths", None),),
    "m3x_forward": (("series", "ctrl/forwards", None),
                    ("sample", "ctrl/slowpath_q", "slowpath_q")),
    "m3x_switch": (("series", "ctrl/switches", None),),
    "msg_timeout": (("inc", "tile{tile}/recovery/ack_timeouts", None),),
    "msg_dedup": (("inc", "tile{tile}/recovery/dedup_hits", None),),
    "retransmit": (("inc", "tile{tile}/recovery/retransmits", None),
                   ("observe", "tile{tile}/recovery/backoff_ps", "backoff")),
}


class Gauge:
    """A throttled (timestamp, value) series on simulated time."""

    __slots__ = ("name", "series", "interval_ps", "_next_ts", "_last")

    def __init__(self, name: str, interval_ps: int = GAUGE_INTERVAL_PS):
        self.name = name
        self.series: List[Tuple[int, float]] = []
        self.interval_ps = interval_ps
        self._next_ts = -1
        self._last: Optional[float] = None

    def sample(self, now: int, value) -> None:
        """Record ``(now, value)`` unless it is redundant.

        A point is kept when the value changed since the last point or
        the throttle interval elapsed; repeated identical values inside
        the interval collapse to one point."""
        if value != self._last or now >= self._next_ts:
            self.series.append((now, value))
            self._last = value
            self._next_ts = now + self.interval_ps

    @property
    def last(self):
        return self._last


class _Histogram:
    """Value samples with summary statistics (no simulated-time axis)."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def observe(self, value) -> None:
        self.samples.append(value)

    def summary(self) -> Dict[str, float]:
        s = sorted(self.samples)
        if not s:
            return {"count": 0}
        def q(frac: float) -> float:
            return float(s[min(len(s) - 1, int(round(frac * (len(s) - 1))))])
        return {"count": len(s), "min": float(s[0]), "max": float(s[-1]),
                "mean": sum(s) / len(s), "p50": q(0.50), "p99": q(0.99)}


class MetricsRegistry:
    """Counters, throttled gauges, cumulative time series, histograms.

    One registry usually spans a whole workload (every simulator on the
    tracer it subscribes to feeds it — multi-platform points aggregate,
    which is what the figure-level summaries want).
    """

    def __init__(self, gauge_interval_ps: int = GAUGE_INTERVAL_PS):
        self.gauge_interval_ps = gauge_interval_ps
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, _Histogram] = {}

    # -- wiring ----------------------------------------------------------------

    def attach(self, tracer) -> "MetricsRegistry":
        tracer.subscribe(self.on_event)
        return self

    def on_event(self, ev) -> None:
        """Trace subscriber: apply the :data:`METRICS` row of ``ev.kind``."""
        writes = METRICS.get(ev.kind)
        if writes is None:
            return
        fields = ev.fields
        for write, name, field in writes:
            name = name.format_map(fields)
            if write == "series":
                self.series_inc(name, ev.ts)
            elif write == "inc":
                self.inc(name)
            elif write == "sample":
                self.sample(name, ev.ts, fields[field])
            else:
                self.observe(name, fields[field])

    # -- write paths -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name, self.gauge_interval_ps)
        return g

    def sample(self, name: str, now: int, value) -> None:
        self.gauge(name).sample(now, value)

    def series_inc(self, name: str, now: int, n: int = 1) -> None:
        """Counter + throttled series of its cumulative value — the
        'rate' primitive (consumers difference the series)."""
        total = self.counters.get(name, 0) + n
        self.counters[name] = total
        self.gauge(name).sample(now, total)

    def observe(self, name: str, value) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = _Histogram(name)
        h.observe(value)

    # -- read paths ------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self.counters.get(name, 0)

    def series(self, name: str) -> List[Tuple[int, float]]:
        g = self.gauges.get(name)
        return list(g.series) if g is not None else []

    def series_names(self) -> List[str]:
        return sorted(self.gauges)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (also the pickle-friendly pool format)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {name: [[ts, v] for ts, v in g.series]
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }

    @staticmethod
    def merge_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Aggregate several :meth:`as_dict` snapshots by summing their
        counters.  Series and histograms are per point, so they are
        dropped; callers that want them read each snapshot."""
        counters: Dict[str, int] = {}
        for d in dicts:
            if not d:
                continue
            for k, v in d.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
        return {"counters": counters}


@contextmanager
def capture_metrics(registry: Optional[MetricsRegistry] = None):
    """Meter every simulator built inside the block.

    The registry subscribes to the installed tracer (``repro trace``, a
    golden recording) or, without one, to a record-free tracer installed
    for the block.

    >>> with capture_metrics() as metrics:
    ...     run_fig6(Fig6Params(iterations=10, warmup=2))
    >>> metrics.counter_value("tile0/dtu/sends")
    """
    from repro.sim import engine
    from repro.sim.trace import capture

    registry = registry if registry is not None else MetricsRegistry()
    with ExitStack() as stack:
        tracer = engine._default_tracer
        if tracer is None:
            tracer = stack.enter_context(capture(record=False))
        registry.attach(tracer)
        stack.callback(tracer.unsubscribe, registry.on_event)
        yield registry
