"""Tests for the original-M3 platform mode (no tile multiplexing)."""

import pytest

from repro.api import SystemConfig, build_system
from repro.kernel.controller import SyscallError


def platform():
    return build_system(SystemConfig(kind="m3", n_proc_tiles=4,
                                     n_mem_tiles=1))


def test_one_activity_per_tile_enforced():
    plat = platform()

    def forever(api):
        yield from api.compute(10**9)

    plat.run_proc(plat.controller.spawn("first", 0, forever))
    with pytest.raises(SyscallError, match="at most one activity"):
        plat.run_proc(plat.controller.spawn("second", 0, forever))


def test_tile_reusable_after_termination():
    plat = platform()
    done = []

    def quick(api):
        yield from api.compute(100)
        done.append(api.sim.now)

    a = plat.run_proc(plat.controller.spawn("a", 0, quick))
    plat.sim.run_until_event(a.exit_event, limit=10**13)
    b = plat.run_proc(plat.controller.spawn("b", 0, quick))
    plat.sim.run_until_event(b.exit_event, limit=10**13)
    assert len(done) == 2


def test_dedicated_tiles_still_communicate():
    plat = platform()
    env, out = {}, {}

    def server(api):
        while "rep" not in env:
            yield api.sim.timeout(1_000_000)
        msg = yield from api.recv(env["rep"])
        yield from api.reply(env["rep"], msg, data=msg.data * 3, size=16)

    def client(api):
        while "sep" not in env:
            yield api.sim.timeout(1_000_000)
        out["v"] = yield from api.call(env["sep"], env["rpl"], 7, 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s))
    env.update(rep=rep, sep=sep, rpl=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert out["v"] == 21
    # physically isolated tiles: no context switch ever happened
    assert plat.stats.counter_value("tilemux/ctx_switches") <= 2
