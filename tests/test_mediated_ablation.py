"""Tests for the mediated-vDTU ablation (section 3.5)."""

from repro.api import SystemConfig, build_system
from repro.mux.mediated import MediatedActivityApi


def measure_rpc(mediated: bool) -> float:
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1))
    if mediated:
        for tid in plat.proc_tile_ids:
            plat.mux(tid).api_class = MediatedActivityApi
    env, out = {}, {}

    def server(api):
        while "s_rep" not in env:
            yield api.sim.timeout(1_000_000)
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data=0, size=16)

    def client(api):
        while "c_sep" not in env:
            yield api.sim.timeout(1_000_000)
        for _ in range(5):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        start = api.sim.now
        for _ in range(20):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        out["ps"] = (api.sim.now - start) / 20
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**14)
    out["traps"] = plat.stats.counter_value("mediated/traps")
    return out


def test_mediated_api_traps_on_every_command():
    out = measure_rpc(mediated=True)
    # per RPC: send, fetch(es), ack on both sides all trap
    assert out["traps"] > 25 * 4


def test_mediation_costs_an_order_of_magnitude():
    direct = measure_rpc(mediated=False)["ps"]
    mediated = measure_rpc(mediated=True)["ps"]
    assert mediated > 5 * direct


def test_direct_api_never_traps_for_mediation():
    out = measure_rpc(mediated=False)
    assert out["traps"] == 0
