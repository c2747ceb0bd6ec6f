"""Observability: metrics, span timelines, and simulator self-profiling.

Three independent layers, all **off by default**:

* :class:`MetricsRegistry` — counters, throttled time-series gauges and
  histograms sampled on *simulated* time, derived from the trace stream
  of :mod:`repro.sim.trace` (one table maps trace kinds to metrics);
* :class:`SpanCollector` — per-activity/per-tile interval timelines
  (running / blocked / switching / quarantined) derived from the trace
  stream, exportable as JSON or a Chrome ``trace_event`` file;
* :class:`SelfProfiler` — wall-clock per simulated subsystem, events/sec,
  event-class counts and event-queue depth, from the engine's one
  per-step hook (``sim.profiler``), for finding where the *simulator
  itself* spends time.

Metrics and spans are trace subscribers, so the models have one
instrumentation path: every site guards on ``sim.tracer is not None``.

The uniform way to arm them is :func:`repro.api.build_system` with a
:class:`~repro.api.MetricsSpec`; :func:`capture_metrics` is the
lower-level context manager (the analogue of
:func:`repro.sim.trace.capture`).
"""

from repro.obs.metrics import MetricsRegistry, capture_metrics
from repro.obs.profile import SelfProfiler, capture_profile
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "MetricsRegistry",
    "SelfProfiler",
    "Span",
    "SpanCollector",
    "capture_metrics",
    "capture_profile",
]
