"""``build_system``: the one way to construct a simulated system.

:func:`build_system` takes a frozen :class:`~repro.api.SystemConfig`,
builds the platform (``M3vPlatform``/``M3Platform``/``M3xPlatform``) or
the ``LinuxMachine`` it describes, attaches the cross-cutting layers
(tracer, metrics, spans, recovery policy, fault plan, serving stack)
and returns that platform or machine itself.  The layers it attached
are set on the result as ``config``, ``metrics``, ``spans`` and
``serving``; the tracer and profiler are ``sim.tracer`` and
``sim.profiler``.

Globally installed defaults win: inside ``trace.capture()`` /
``obs.capture_metrics()`` / ``obs.capture_profile()`` blocks (and the
runner's trace/metrics modes, which use them) the already-installed
tracer is reused instead of the config's ``TraceSpec``, so workloads
stay observable from the outside exactly as before the facade.  A
``MetricsSpec`` registry and span collector subscribe to that tracer,
or to a record-free one created for the build.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.api.config import SystemConfig
from repro.sim import engine

__all__ = ["build_system"]


def _construct(config: SystemConfig):
    if config.kind == "linux":
        from repro.linuxsim import LinuxMachine

        return LinuxMachine(with_net=config.with_net,
                            wire_latency_us=config.wire_latency_us,
                            remote_proc_us=config.remote_proc_us)
    from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform

    cls = {"m3v": M3vPlatform, "m3": M3Platform, "m3x": M3xPlatform}[config.kind]
    return cls(config)


def build_system(config: Optional[SystemConfig] = None,
                 **overrides) -> Any:
    """Build the system described by ``config`` (keyword overrides
    patch it first), attach its layers and return the platform or
    machine.  See the module docstring for the precedence rules."""
    config = config if config is not None else SystemConfig()
    if overrides:
        config = replace(config, **overrides)

    # Layers: reuse the globally installed tracer; otherwise create one
    # from the config's specs and install it only for the construction
    # window (each build creates exactly one Simulator, which latches
    # it in __init__).
    tracer = engine._default_tracer
    own_tracer = False
    if tracer is None and config.trace is not None:
        from repro.sim.trace import Tracer

        tracer = Tracer(exclude=config.trace.exclude,
                        record=config.trace.record)
        own_tracer = True
    metrics = spans = None
    if config.metrics is not None:
        from repro.obs import MetricsRegistry, SpanCollector

        if tracer is None:
            from repro.sim.trace import Tracer

            tracer = Tracer(record=False)
            own_tracer = True
        metrics = MetricsRegistry().attach(tracer)
        if config.metrics.spans:
            spans = SpanCollector().attach(tracer)

    try:
        if own_tracer:
            engine.set_default_tracer(tracer)
        system = _construct(config)
    finally:
        if own_tracer:
            engine.set_default_tracer(None)

    system.config = config
    system.metrics, system.spans, system.serving = metrics, spans, None
    if config.kind != "linux":
        if config.recovery is not None:
            from repro.mux.recovery import enable_recovery

            enable_recovery(system, config.recovery)
        if config.faults is not None and config.faults.rate > 0:
            from repro.faults import FaultPlan

            FaultPlan.lossy(config.faults.seed, config.faults.rate,
                            deadline_ps=config.faults.deadline_ps
                            ).apply(system)
        if config.serving is not None:
            from repro.services.serving import ServingStack

            system.serving = ServingStack(
                config.serving, plat=system,
                controller=getattr(system, "controller", None))
    return system
