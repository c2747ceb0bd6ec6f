"""The boot board and its rendezvous: waiters block in the multiplexer.

An activity waiting for the harness to publish a channel id traps with
a ``wait`` TMCall and holds no core; the next write to the board wakes
it.  Covered on both multiplexers (TileMux and M3x's RCTMux):

* a write wakes the waiter, which never timer-polls;
* a write that lands during the trap entry refuses the wait at once
  (the event already fired, so blocking would wait forever);
* writes nobody waits for schedule no event.
"""

import pytest

from repro.api import SystemConfig, build_system
from repro.mux.api import Board, TmCall, rendezvous
from repro.sim.trace import capture

LIMIT = 10**13


def _platform(kind):
    return build_system(SystemConfig(kind=kind, n_proc_tiles=4,
                                     n_mem_tiles=1))


def _watched(gen, items):
    """Drive ``gen`` like ``yield from`` and record every yielded item."""
    value = None
    while True:
        try:
            item = gen.send(value)
        except StopIteration as stop:
            return stop.value
        items.append(item)
        value = yield item


def test_board_fires_only_for_waiters():
    plat = _platform("m3v")
    board = Board(plat.sim)
    board["a"] = 1                      # nobody waits: nothing scheduled
    assert board._changed is None
    ev = board.changed
    assert board.changed is ev and not ev.triggered
    board.update(b=2, c=3)
    assert ev.triggered and board == {"a": 1, "b": 2, "c": 3}
    assert board.changed is not ev      # the next write fires a new one


@pytest.mark.parametrize("kind", ["m3v", "m3x"])
def test_board_write_wakes_waiter_without_polling(kind):
    items, woke = [], []

    def waiter(api):
        yield from _watched(rendezvous(api, board, "a", "b"), items)
        woke.append(api.sim.now)

    with capture() as tracer:
        plat = _platform(kind)
        board = Board(plat.sim)
        act = plat.run_proc(plat.controller.spawn("waiter", 1, waiter))
        plat.sim.run(until=plat.sim.now + 50_000_000)   # 50 us at boot
        board["a"] = 1                  # one key is not enough
        plat.sim.run(until=plat.sim.now + 50_000_000)
        assert not woke
        published = plat.sim.now
        board["b"] = 2
        plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    assert woke and woke[0] > published
    assert [type(i) for i in items] == [TmCall, TmCall]
    assert {i.op for i in items} == {"wait"}
    wakes = [ev for ev in tracer.events if ev.kind == "act_wake"
             and ev.fields["act"] == act.act_id]
    assert [ev.fields["reason"] for ev in wakes] == ["wait", "wait"]


@pytest.mark.parametrize("kind", ["m3v", "m3x"])
def test_board_write_during_wait_trap_entry_refuses_the_wait(kind):
    # the key lands halfway through the trap entry: the board event has
    # fired (and been processed) before the multiplexer could hang the
    # waiter on it, so the wait must be refused, not committed
    woke = []

    def waiter(api):
        half = api.mux._tmcall_enter_ps // 2
        api.sim.timeout(half).callbacks.append(
            lambda _ev: board.__setitem__("go", True))
        yield from rendezvous(api, board, "go")
        woke.append(api.sim.now)

    with capture() as tracer:
        plat = _platform(kind)
        board = Board(plat.sim)
        act = plat.run_proc(plat.controller.spawn("waiter", 1, waiter))
        plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    assert woke
    mine = [ev.kind for ev in tracer.events
            if ev.fields.get("act") == act.act_id]
    assert "act_block" not in mine and "act_wake" not in mine
