"""The system-construction facade.

>>> from repro.api import SystemConfig, MetricsSpec, build_system
>>> system = build_system(SystemConfig(kind="m3v", n_proc_tiles=2,
...                                    metrics=MetricsSpec(spans=True)))
>>> system.controller          # delegates to the underlying platform
>>> system.metrics             # the attached MetricsRegistry

The environment can *default* what a config leaves unset (see
:func:`env_overrides`), but an explicit ``SystemConfig`` field always
wins.
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
from repro.api.env import EnvOverrides, env_overrides
from repro.api.system import System, build_system

__all__ = [
    "EnvOverrides",
    "FaultSpec",
    "MetricsSpec",
    "PlacementSpec",
    "SYSTEM_KINDS",
    "SchedSpec",
    "ServingSpec",
    "System",
    "SystemConfig",
    "TraceSpec",
    "build_system",
    "env_overrides",
]
