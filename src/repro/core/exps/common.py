"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Dict, Generator

from repro.core.platform import M3vPlatform


def rendezvous(api, env: Dict, *keys) -> Generator:
    """Boot-time helper: wait for the harness to publish channel ids.

    Timer-polls every 1 µs and holds the core while it waits."""
    while any(k not in env for k in keys):
        yield 1_000_000


def wait_all(plat: M3vPlatform, acts, limit: int = 10**14) -> None:
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=limit)
