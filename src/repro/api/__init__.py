"""The system-construction facade.

>>> from repro.api import SystemConfig, MetricsSpec, build_system
>>> plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2,
...                                  metrics=MetricsSpec(spans=True)))
>>> plat.controller            # build_system returns the platform itself
>>> plat.metrics               # the attached MetricsRegistry

``SystemConfig()`` is the FPGA prototype shape; keyword overrides
(``build_system(kind="m3x", n_proc_tiles=4)``) patch it.
"""

from repro.api.config import (
    FaultSpec,
    MetricsSpec,
    PlacementSpec,
    SYSTEM_KINDS,
    SchedSpec,
    ServingSpec,
    SystemConfig,
    TraceSpec,
)
from repro.api.system import build_system

__all__ = [
    "FaultSpec",
    "MetricsSpec",
    "PlacementSpec",
    "SYSTEM_KINDS",
    "SchedSpec",
    "ServingSpec",
    "SystemConfig",
    "TraceSpec",
    "build_system",
]
