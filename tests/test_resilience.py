"""Fault injection and recovery (ISSUE: robustness tentpole).

Four layers:

* a hypothesis property: under seeded packet loss/corruption the
  recovery layer still delivers every logical message **exactly once,
  in order**, with the PR-1 invariant suite checking conservation
  online;
* fault-rate zero is the plain model — applying a rate-0 plan leaves
  the execution trace byte-identical, and the rate-0 figR point carries
  zero recovery/fault counters;
* each injector (lossy links, transient EP faults, stuck tiles) against
  a live workload, plus the degraded-mode path: watchdog barks reach
  the controller and repeated fault reports quarantine a tile;
* figR smoke points for both systems at a non-zero rate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, build_system
from repro.core.exps.figr import FigRPoint, run_figr_point
from repro.faults import (
    HwFaultPlan,
    LossyLinks,
    RecoveryPolicy,
    StuckTile,
    TransientEpFaults,
    enable_recovery,
)
from repro.sim.trace import Tracer, capture
from repro.testing.golden import canonical_json
from repro.testing.invariants import InvariantSuite

LIMIT = 10**13


def rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def _echo(plat, n_msgs, rtts):
    """Round-trip echo: client calls 0..n-1, collects RTTs."""
    env = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        for _ in range(n_msgs):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, msg.data, 32)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for i in range(n_msgs):
            t0 = api.sim.now
            value = yield from api.call(env["c_sep"], env["c_rep"], i, 32)
            assert value == i
            rtts.append(api.sim.now - t0)

    ctrl = plat.controller
    srv = plat.run_proc(ctrl.spawn("server", 0, server))
    cli = plat.run_proc(ctrl.spawn("client", 1, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    return cli


# -- at-most-once, in-order delivery under seeded loss ------------------------

@given(rate=st.sampled_from([0.05, 0.1, 0.2]),
       fault_seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_lossy_delivery_is_exactly_once_in_order(rate, fault_seed):
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
    tracer = Tracer(record=False).attach(plat.sim)
    suite = InvariantSuite().attach(tracer)
    enable_recovery(plat, RecoveryPolicy(max_retries=16, seed=fault_seed))
    HwFaultPlan.lossy(f"prop:{fault_seed}", rate).apply(plat)

    n_msgs = 12
    env, received = {}, []

    def server(api):
        yield from rendezvous(api, env, "rep")
        for _ in range(n_msgs):
            msg = yield from api.recv(env["rep"])
            received.append(msg.data)
            yield from api.ack(env["rep"], msg)

    def client(api):
        yield from rendezvous(api, env, "sep")
        for i in range(n_msgs):
            yield from api.send(env["sep"], i, 32)

    ctrl = plat.controller
    srv = plat.run_proc(ctrl.spawn("server", 0, server))
    cli = plat.run_proc(ctrl.spawn("client", 1, client))
    sep, rep, _ = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
    env.update(rep=rep, sep=sep)

    plat.sim.run_until_event(srv.exit_event, limit=LIMIT)
    suite.finish()
    # no loss, no duplication, no reordering — despite dropped packets
    assert received == list(range(n_msgs))


def test_lossy_injector_requires_recovery():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
    with pytest.raises(RuntimeError, match="enable_recovery"):
        HwFaultPlan.lossy("nope", 0.1).apply(plat)


# -- fault rate 0 is byte-identical to the plain model ------------------------

def _echo_trace(with_plan: bool):
    with capture() as tracer:
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
        if with_plan:
            HwFaultPlan.lossy("zero", 0.0).apply(plat)
        rtts = []
        cli = _echo(plat, 5, rtts)
        plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    assert len(rtts) == 5
    return tracer


def test_rate_zero_plan_leaves_trace_byte_identical():
    plain = _echo_trace(with_plan=False)
    planned = _echo_trace(with_plan=True)
    assert canonical_json(plain) == canonical_json(planned)


def test_figr_rate_zero_has_no_recovery_activity():
    value = run_figr_point(FigRPoint("m3v", 0.0, pairs=1, messages=8))
    assert value["round_trips"] == 8
    for counter in ("retransmits", "timeouts", "dedups", "dropped",
                    "corrupted", "failures"):
        assert value[counter] == 0, counter


# -- the individual injectors against a live workload -------------------------

def test_ep_faults_are_ridden_out_by_retries():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
    enable_recovery(plat, RecoveryPolicy(seed=3))
    plan = HwFaultPlan(seed=3)
    plan.add(TransientEpFaults(mean_gap_ps=40_000_000,
                               window_ps=10_000_000))
    plan.apply(plat)
    rtts = []
    cli = _echo(plat, 10, rtts)
    plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    assert len(rtts) == 10
    assert plat.stats.counter_value("faults/ep_faults") > 0
    assert plat.stats.counter_value("recovery/retransmits") > 0


def test_stuck_tile_episodes_are_survived():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
    enable_recovery(plat, RecoveryPolicy(seed=5))
    plan = HwFaultPlan(seed=5)
    plan.add(StuckTile(mean_gap_ps=150_000_000, stall_ps=40_000_000))
    plan.apply(plat)
    rtts = []
    cli = _echo(plat, 10, rtts)
    plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    assert len(rtts) == 10
    assert plat.stats.counter_value("faults/stuck_episodes") > 0


def test_corruption_is_detected_and_retransmitted():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2)).platform
    enable_recovery(plat, RecoveryPolicy(max_retries=16, seed=11))
    plan = HwFaultPlan(seed=11)
    plan.add(LossyLinks(drop=0.0, corrupt=0.2))
    plan.apply(plat)
    rtts = []
    cli = _echo(plat, 12, rtts)
    plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    assert len(rtts) == 12
    assert plat.stats.counter_value("faults/pkts_corrupted") > 0
    assert plat.stats.counter_value("recovery/retransmits") > 0


# -- degraded mode: watchdog and quarantine -----------------------------------

def test_watchdog_reports_a_spinning_activity():
    plat = build_system(SystemConfig(kind="m3v", timeslice_us=20.0,
                                     n_proc_tiles=2)).platform
    enable_recovery(plat, RecoveryPolicy(watchdog_slices=4))

    def spinner(api):
        # a wedged poll loop: burns whole timeslices without ever
        # trapping to TileMux (no TmCall = no forward progress)
        for _ in range(100):
            yield api.sim.timeout(5_000_000)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("spin-a", 0, spinner))
    b = plat.run_proc(ctrl.spawn("spin-b", 0, spinner))  # forces preemption
    plat.sim.run_until_event(a.exit_event, limit=LIMIT)
    plat.sim.run_until_event(b.exit_event, limit=LIMIT)
    plat.sim.run(until=plat.sim.now + 10_000_000)  # drain the notify
    assert plat.stats.counter_value("tilemux/watchdog_barks") > 0
    assert plat.stats.counter_value("ctrl/fault_reports") > 0


def test_repeated_faults_quarantine_a_tile_and_steer_spawns():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=3)).platform
    enable_recovery(plat, RecoveryPolicy(quarantine_faults=3))
    ctrl = plat.controller
    for _ in range(3):
        ctrl.report_tile_fault(0, "test")
    assert 0 in ctrl.quarantined
    assert plat.stats.counter_value("ctrl/quarantines") == 1
    assert ctrl.place_tile(0) != 0          # new placements steered away
    assert ctrl.place_tile(1) == 1          # healthy tiles unaffected

    def prog(api):
        yield from api.compute(100)

    act = plat.run_proc(ctrl.spawn("migrant", 0, prog))
    plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    assert act.tile_id != 0
    assert plat.stats.counter_value("ctrl/migrated_spawns") >= 1
    # repeated reports don't quarantine twice
    ctrl.report_tile_fault(0, "test")
    assert plat.stats.counter_value("ctrl/quarantines") == 1


# -- figR smoke ---------------------------------------------------------------

@pytest.mark.parametrize("system", ["m3v", "m3x"])
def test_figr_point_completes_under_faults(system):
    value = run_figr_point(FigRPoint(system, 0.1, pairs=1, messages=8))
    assert value["round_trips"] == 8
    assert value["failures"] == 0
    assert value["goodput_rps"] > 0
    assert value["dropped"] + value["corrupted"] > 0
