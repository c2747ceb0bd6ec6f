"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Dict, Generator

from repro.api import System, SystemConfig, build_system
from repro.core.platform import M3vPlatform, PlatformConfig
from repro.tiles.costs import BOOM, ROCKET


def fpga_config(**overrides) -> PlatformConfig:
    """The FPGA prototype shape: 8 BOOM processing tiles + controller
    on a Rocket core + 2 DDR4 memory tiles (Figure 4)."""
    config = PlatformConfig(n_proc_tiles=8, proc_core=BOOM,
                            controller_core=ROCKET, n_mem_tiles=2)
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


def fpga_sysconfig(kind: str = "m3v", **overrides) -> SystemConfig:
    """The FPGA prototype shape as a facade :class:`SystemConfig`."""
    config = SystemConfig(kind=kind, n_proc_tiles=8, proc_core=BOOM,
                          controller_core=ROCKET, n_mem_tiles=2)
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


def fpga_system(kind: str = "m3v", **overrides) -> System:
    """Build an FPGA-shaped system through :func:`repro.api.build_system`."""
    return build_system(fpga_sysconfig(kind, **overrides))


def linux_system(**overrides) -> System:
    """Build the Linux reference machine through the facade."""
    return build_system(SystemConfig(kind="linux", **overrides))


def rendezvous(api, env: Dict, *keys) -> Generator:
    """Boot-time helper: wait for the harness to publish channel ids.

    Timer-polls every 1 µs and holds the core while it waits."""
    while any(k not in env for k in keys):
        yield 1_000_000


def wait_all(plat: M3vPlatform, acts, limit: int = 10**14) -> None:
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=limit)
