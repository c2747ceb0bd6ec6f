"""Integration tests for the M3x baseline: remote multiplexing + slow path."""

import pytest

from repro.api import SystemConfig, build_system
from repro.mux.api import Board, rendezvous
from repro.sim import engine


def m3x_platform(**kw):
    kw.setdefault("n_proc_tiles", 4)
    kw.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(kind="m3x"), **kw)


def test_m3x_spawn_and_exit():
    plat = m3x_platform()
    done = []

    def prog(api):
        yield from api.compute(500)
        done.append(api.sim.now)
        yield from api.exit(7)

    act = plat.run_proc(plat.controller.spawn("solo", 0, prog))
    code = plat.sim.run_until_event(act.exit_event, limit=10**12)
    assert code == 7 and done


def test_m3x_remote_rpc_fast_path():
    """Cross-tile communication with both partners running stays on
    the fast path — no controller involvement."""
    plat = m3x_platform()
    env, result = Board(plat.sim), {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        msg = yield from api.recv(env["s_rep"])
        yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        result["v"] = yield from api.call(env["c_sep"], env["c_rep"], 41, 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["v"] == 42
    assert plat.stats.counter_value("ctrl/forwards") == 0


def test_m3x_tile_local_rpc_takes_slow_path():
    """Two activities on one tile can only talk through the controller
    (section 2.2): every request and reply is forwarded."""
    plat = m3x_platform()
    env, result = Board(plat.sim), {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        for _ in range(3):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        v = 0
        for _ in range(3):
            v = yield from api.call(env["c_sep"], env["c_rep"], v, 16)
        result["v"] = v

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 2, server))
    c = plat.run_proc(ctrl.spawn("client", 2, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["v"] == 3
    assert plat.stats.counter_value("ctrl/forwards") >= 6  # 2 per RPC
    assert plat.stats.counter_value("m3x/switches") > 0


def measure_local_rpc(kind, n=10, **kw):
    plat = build_system(SystemConfig(kind=kind, n_proc_tiles=4,
                                     n_mem_tiles=1), **kw)
    env, out = Board(plat.sim), {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data="pong", size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for _ in range(3):
            yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
        start = api.sim.now
        for _ in range(n):
            yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
        out["ps"] = (api.sim.now - start) / n
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 0, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    return out["ps"]


def test_m3x_local_rpc_much_slower_than_m3v():
    """Section 6.2: M3x needs ~27k cycles for a tile-local RPC where
    M3v needs ~5k — the slow path dominates."""
    m3x = measure_local_rpc("m3x")
    m3v = measure_local_rpc("m3v")
    assert m3x > 3 * m3v


def test_m3x_three_activities_round_robin_via_controller():
    plat = m3x_platform()
    env, log = Board(plat.sim), []

    def worker(tag):
        def prog(api):
            yield from rendezvous(api, env, f"{tag}_rep")
            msg = yield from api.recv(env[f"{tag}_rep"])
            log.append((tag, msg.data))
            yield from api.reply(env[f"{tag}_rep"], msg, data=tag, size=16)
        return prog

    def driver(api):
        yield from rendezvous(api, env, "a_sep", "b_sep")
        ra = yield from api.call(env["a_sep"], env["d_rep_a"], "to-a", 16)
        rb = yield from api.call(env["b_sep"], env["d_rep_b"], "to-b", 16)
        log.append(("driver", ra, rb))

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("a", 3, worker("a")))
    b = plat.run_proc(ctrl.spawn("b", 3, worker("b")))
    d = plat.run_proc(ctrl.spawn("driver", 3, driver))
    sa, ra_, rpa = plat.run_proc(ctrl.wire_channel(d, a))
    sb, rb_, rpb = plat.run_proc(ctrl.wire_channel(d, b))
    env.update(a_rep=ra_, b_rep=rb_, a_sep=sa, b_sep=sb,
               d_rep_a=rpa, d_rep_b=rpb)
    plat.sim.run_until_event(d.exit_event, limit=10**13)
    assert ("driver", "a", "b") in log


# -- one library: the credit wait ---------------------------------------------

def _two_sends_one_credit(kind, sender_tile, receiver_tile,
                          neighbour=False):
    """Two back-to-back sends over a 1-credit channel; returns the
    platform, the payloads the receiver got and the simulator events
    the exchange took.  ``neighbour`` parks an idle activity on the
    sender's tile."""
    plat = build_system(SystemConfig(kind=kind), n_proc_tiles=4,
                        n_mem_tiles=1)
    board, got = Board(plat.sim), []

    def sender(api):
        yield from rendezvous(api, board, "sep")
        for i in range(2):
            yield from api.send(board["sep"], i, 16)

    def receiver(api):
        yield from rendezvous(api, board, "rep")
        yield from api.compute(200_000)  # still busy when the sends go out
        for _ in range(2):
            msg = yield from api.recv(board["rep"])
            got.append(msg.data)
            yield from api.ack(board["rep"], msg)

    def idle(api):
        yield from rendezvous(api, board, "never")

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("sender", sender_tile, sender))
    if neighbour:
        plat.run_proc(ctrl.spawn("idle", sender_tile, idle))
    r = plat.run_proc(ctrl.spawn("receiver", receiver_tile, receiver))
    sep, rep, _ = plat.run_proc(ctrl.wire_channel(s, r, credits=1))
    before = engine.events_processed()
    board.update(sep=sep, rep=rep)
    plat.sim.run_until_event(r.exit_event, limit=10**13)
    plat.sim.run_until_event(s.exit_event, limit=10**13)
    return plat, got, engine.events_processed() - before


@pytest.mark.parametrize("kind", ["m3x", "m3v"])
def test_cross_tile_sender_waits_for_credits(kind):
    """M3x's library is M3v's: a sender out of credits waits until the
    busy receiver on another tile acks, instead of faulting with
    MISSING_CREDITS."""
    plat, got, _ = _two_sends_one_credit(kind, sender_tile=0,
                                         receiver_tile=1)
    assert got == [0, 1]
    assert plat.stats.counter_value("ctrl/forwards") == 0


@pytest.mark.parametrize("kind", ["m3x", "m3v"])
def test_credit_wait_beside_an_idle_neighbour_does_not_spin(kind):
    """With another activity resident the waiting sender yields; RCTMux
    has nothing else to run and says so, and the library then re-polls
    on its 5 us timer instead of trapping back at once."""
    _, _, alone = _two_sends_one_credit(kind, sender_tile=0,
                                        receiver_tile=1)
    _, got, shared = _two_sends_one_credit(kind, sender_tile=0,
                                           receiver_tile=1, neighbour=True)
    assert got == [0, 1]
    assert shared < 1.2 * alone


def test_m3x_same_tile_sends_take_the_slow_path():
    """On one M3x tile the receiver is never running while the sender
    is, so both sends bounce and are forwarded: the credit wait never
    kicks in and the run completes."""
    plat, got, _ = _two_sends_one_credit("m3x", sender_tile=2,
                                         receiver_tile=2)
    assert got == [0, 1]
    assert plat.stats.counter_value("ctrl/forwards") == 2
    assert plat.stats.counter_value("m3x/slow_paths") == 2
