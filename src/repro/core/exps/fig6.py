"""Figure 6: local/remote communication on M3v and Linux references.

Four bars: Linux yield (2x), Linux syscall, M3v local RPC, M3v remote
RPC — all no-op round-trips on the 80 MHz BOOM FPGA cores, 1000 runs
with a warm system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.api import build_system
from repro.mux.api import Board, rendezvous
from repro.tiles.costs import BOOM


@dataclass
class Fig6Params:
    iterations: int = 1000
    warmup: int = 50


def _measure_m3v_rpc(local: bool, p: Fig6Params) -> float:
    """Mean no-op RPC latency in ps."""
    plat = build_system()
    env = Board(plat.sim)
    out: Dict = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data=0, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for _ in range(p.warmup):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        start = api.sim.now
        for _ in range(p.iterations):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        out["ps"] = (api.sim.now - start) / p.iterations
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    server_act = plat.run_proc(ctrl.spawn("server", 0 if local else 1, server))
    client_act = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(client_act, server_act,
                                                    credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(client_act.exit_event, limit=10**14)
    return out["ps"]


def _measure_linux_syscall(p: Fig6Params) -> float:
    machine = build_system(kind="linux")
    out: Dict = {}

    def prog(api):
        for _ in range(p.warmup):
            yield from api.noop_syscall()
        start = api.sim.now
        for _ in range(p.iterations):
            yield from api.noop_syscall()
        out["ps"] = (api.sim.now - start) / p.iterations

    proc = machine.spawn("bench", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**14)
    return out["ps"]


def _measure_linux_yield2(p: Fig6Params) -> float:
    """Two context switches: ping yields to pong, pong yields back."""
    machine = build_system(kind="linux")
    out: Dict = {}
    n = p.iterations

    def ponger(api):
        for _ in range(n + p.warmup + 5):
            yield from api.sched_yield()

    def pinger(api):
        for _ in range(p.warmup):
            yield from api.sched_yield()
        start = api.sim.now
        for _ in range(n):
            yield from api.sched_yield()
        out["ps"] = (api.sim.now - start) / n

    machine.spawn("ponger", ponger)
    proc = machine.spawn("pinger", pinger)
    machine.sim.run_until_event(proc.exit_event, limit=10**14)
    return out["ps"]


# -- sweep decomposition (repro.runner) ---------------------------------------
#
# One point per bar; each point builds its own platform, so points are
# pure and picklable and the parallel runner can fan them out.

FIG6_KINDS = ("linux_yield_2x", "linux_syscall", "m3v_local", "m3v_remote")


@dataclass(frozen=True)
class Fig6Point:
    kind: str
    iterations: int = 1000
    warmup: int = 50


def fig6_points(params: Fig6Params = None) -> List[Fig6Point]:
    p = params or Fig6Params()
    return [Fig6Point(kind, p.iterations, p.warmup) for kind in FIG6_KINDS]


def run_fig6_point(pt: Fig6Point) -> float:
    """Mean round-trip latency in ps for one bar of Figure 6."""
    p = Fig6Params(iterations=pt.iterations, warmup=pt.warmup)
    if pt.kind == "linux_yield_2x":
        return _measure_linux_yield2(p)
    if pt.kind == "linux_syscall":
        return _measure_linux_syscall(p)
    if pt.kind in ("m3v_local", "m3v_remote"):
        return _measure_m3v_rpc(local=pt.kind == "m3v_local", p=p)
    raise ValueError(f"unknown fig6 point kind {pt.kind!r}")


def reduce_fig6(params: Fig6Params,
                values: List[float]) -> Dict[str, Dict[str, float]]:
    period_ps = BOOM.clock.period_ps
    return {pt.kind: {"us": ps / 1e6, "kcycles": ps / period_ps / 1e3}
            for pt, ps in zip(fig6_points(params), values)}


def run_fig6(params: Fig6Params = None) -> Dict[str, Dict[str, float]]:
    """Returns rows: name -> {us, kcycles} like the two x-axes of Fig 6."""
    p = params or Fig6Params()
    return reduce_fig6(p, [run_fig6_point(pt) for pt in fig6_points(p)])
