"""SLO-driven multi-tenant serving (ISSUE figS tentpole).

Five layers:

* unit tests for the protection stack primitives — token buckets,
  deadline-aware admission queues, the service estimator, and the
  quarantine-aware circuit breaker;
* the open-loop workload generator: seeded, hash-seed independent,
  globally unique uids, deadlines derived from tenant SLOs;
* the Virtual-Link MPMC queue: FIFO order, shared-capacity rejection,
  CAS contention serialization;
* figS smoke points: conservation (every request resolves exactly
  once) on both systems, protection counters, idle receive loops that
  block instead of sleep-polling, and the reduced curve's shape hooks;
* regressions for the scheduler bugs this PR fixed: the m3v TileMux
  averted-lost-wakeup park and the M3x sleep/wakeup notify protocol.
"""

import pytest

from repro.api import ServingSpec, SystemConfig, build_system
from repro.api import SystemConfig, build_system
from repro.core.exps.figs import FigSParams, FigSPoint, figs_points, \
    reduce_figs, run_figs_point
from repro.core.report import shape_checks
from repro.mux.api import ActivityApi
from repro.mux.mpmc import VirtualLinkQueue
from repro.services.serving import (
    AdmissionQueue,
    CircuitBreaker,
    ServiceEstimator,
    ServingStack,
    TokenBucket,
)
from repro.sim import Simulator
from repro.testing.chaos import ChaosCampaign, Floor, Phase, run_campaign
from repro.workloads.serving import (
    DEFAULT_TENANTS,
    Request,
    TenantClass,
    open_loop_arrivals,
)

LIMIT = 10**13


# -- protection stack units ---------------------------------------------------

def test_token_bucket_enforces_rate_and_burst():
    b = TokenBucket(rate_rps=1000.0, burst=2.0)  # 1 token per ms
    assert b.allow(0) and b.allow(0)             # burst of 2
    assert not b.allow(0)                        # drained
    assert not b.allow(500_000_000)              # 0.5 ms: refilled 0.5
    assert b.allow(1_600_000_000)                # 1.6 ms: >1 token again


def test_token_bucket_rate_zero_is_unmetered():
    b = TokenBucket(rate_rps=0.0)
    assert all(b.allow(0) for _ in range(100))


def test_service_estimator_ewma_converges():
    est = ServiceEstimator(initial_ps=0)
    for _ in range(100):
        est.observe(8_000)
    assert 7_000 <= est.estimate_ps <= 8_000


def _req(uid, deadline_ps):
    return Request(uid=uid, tenant="gold", client_id=0, key_idx=uid,
                   op="get", arrival_ps=0, deadline_ps=deadline_ps,
                   gateway=0)


def test_admission_queue_sheds_full_and_deadline():
    q = AdmissionQueue(slots=2)
    est = 1_000
    assert q.offer(_req(0, 10_000), now_ps=0, est_ps=est) == "admitted"
    # depth 1 → needs 2 * est = 2000 ps; deadline 1500 is hopeless
    assert q.offer(_req(1, 1_500), now_ps=0, est_ps=est) == "deadline"
    assert q.offer(_req(2, 10_000), now_ps=0, est_ps=est) == "admitted"
    assert q.offer(_req(3, 10_000), now_ps=0, est_ps=est) == "full"
    assert len(q) == 2


def test_admission_queue_scrub_drops_hopeless_work():
    q = AdmissionQueue(slots=8)
    for uid, dl in enumerate((5_000, 100_000, 6_000, 100_000)):
        assert q.offer(_req(uid, dl), now_ps=0, est_ps=1_000) == "admitted"
    # time advances: the two tight deadlines are now unmeetable
    shed = q.scrub(now_ps=5_000, est_ps=1_000)
    assert [r.uid for r in shed] == [0, 2]
    assert len(q) == 2
    # survivors keep FIFO order; push_front restores a bounced item
    first = q.pop()
    q.push_front(first)
    assert q.pop().uid == first.uid


def test_circuit_breaker_opens_and_reprobes():
    br = CircuitBreaker(failures=2, cooldown_ps=1_000)
    assert br.healthy(0, now_ps=0)
    br.record_failure(0, now_ps=0)
    assert br.healthy(0, now_ps=0)          # one failure: still closed
    br.record_failure(0, now_ps=0)
    assert not br.healthy(0, now_ps=500)    # open, inside cooldown
    assert br.healthy(0, now_ps=1_500)      # cooldown over: half-open
    br.record_success(0)
    br.record_failure(0, now_ps=2_000)
    assert br.healthy(0, now_ps=2_000)      # success reset the count


def test_circuit_breaker_respects_controller_quarantine():
    class Ctrl:
        quarantined = {3}

    br = CircuitBreaker(failures=2, cooldown_ps=1_000, controller=Ctrl(),
                        tile_of={0: 3, 1: 4})
    assert not br.healthy(0, now_ps=0)      # its tile is quarantined
    assert br.healthy(1, now_ps=0)


def test_serving_stack_quota_admission():
    stack = ServingStack(ServingSpec(quota_mult=1.0, quota_burst=1.0))
    stack.set_quota("gold", 1000.0)
    assert stack.admit_tenant("gold", 0)
    assert not stack.admit_tenant("gold", 0)      # burst 1 drained
    assert stack.admit_tenant("silver", 0)        # no quota set: unmetered
    q = stack.make_queue()
    assert q.slots == ServingSpec().queue_slots


# -- open-loop workload -------------------------------------------------------

def test_open_loop_arrivals_deterministic_and_unique():
    a = open_loop_arrivals(0, 200, 5000.0, seed=9)
    b = open_loop_arrivals(0, 200, 5000.0, seed=9)
    assert a == b
    other_gw = open_loop_arrivals(1, 200, 5000.0, seed=9)
    assert a != other_gw
    uids = {r.uid for r in a} | {r.uid for r in other_gw}
    assert len(uids) == 400                      # globally unique


def test_open_loop_arrivals_shape():
    reqs = open_loop_arrivals(2, 300, 10_000.0, keyspace=64, seed=4)
    slo = {t.name: t.slo_us for t in DEFAULT_TENANTS}
    last = 0
    for r in reqs:
        assert r.arrival_ps > last               # strictly increasing
        last = r.arrival_ps
        assert r.deadline_ps == r.arrival_ps + int(slo[r.tenant] * 1e6)
        assert 0 <= r.key_idx < 64
        assert r.op in ("get", "put")
        assert r.gateway == 2
    names = {r.tenant for r in reqs}
    assert names == {t.name for t in DEFAULT_TENANTS}
    # mean gap tracks the offered rate (Poisson, so loosely)
    span_s = (reqs[-1].arrival_ps - reqs[0].arrival_ps) / 1e12
    rate = (len(reqs) - 1) / span_s
    assert 6_000 < rate < 16_000


def test_open_loop_arrivals_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        open_loop_arrivals(0, 10, 0.0)


# -- ServingSpec / build_system plumbing --------------------------------------

def test_serving_spec_validates_backend():
    with pytest.raises(ValueError):
        ServingSpec(backend="carrier-pigeon")


def test_build_system_attaches_stack_only_when_asked():
    plain = build_system(SystemConfig(kind="m3v", n_proc_tiles=2))
    assert plain.serving is None
    served = build_system(SystemConfig(kind="m3v", n_proc_tiles=2,
                                       serving=ServingSpec(quota_mult=2.0)))
    assert isinstance(served.serving, ServingStack)
    assert served.serving.spec.quota_mult == 2.0


# -- Virtual-Link MPMC queue --------------------------------------------------

def _vlq_platform():
    return build_system(SystemConfig(kind="m3v", n_proc_tiles=3,
                                     n_mem_tiles=1)).platform


def test_vlq_fifo_and_shared_capacity():
    plat = _vlq_platform()
    vlq = VirtualLinkQueue(plat, capacity=2, name="t")
    got, rejected = [], []

    def producer(api, base):
        for i in range(3):
            ok = yield from vlq.try_put(api, base + i)
            if not ok:
                rejected.append(base + i)

    def consumer(api):
        yield from api.sleep_us(50.0)
        while len(vlq):
            item = yield from vlq.try_get(api)
            got.append(item)

    ctrl = plat.controller
    p = plat.run_proc(ctrl.spawn("p", 0, lambda api: producer(api, 100)))
    c = plat.run_proc(ctrl.spawn("c", 1, consumer))
    plat.sim.run_until_event(c.exit_event, limit=LIMIT)
    # capacity 2 shared: exactly one producer put was rejected
    assert rejected == [102]
    assert got == [100, 101]                     # FIFO
    assert plat.stats.counter_value("mpmc/t/puts") == 2
    assert plat.stats.counter_value("mpmc/t/gets") == 2
    assert plat.stats.counter_value("mpmc/t/full_rejects") == 1


def test_vlq_contention_serializes_at_home_tile():
    plat = _vlq_platform()
    vlq = VirtualLinkQueue(plat, capacity=8, name="c", op_ps=40_000)
    rt = vlq._round_trip_ps()
    # two operations hit the same pointer word at the same instant: the
    # loser queues behind the winner for exactly one op slot
    assert vlq._occupy() == 40_000 + rt
    assert vlq._occupy() == 80_000 + rt
    # after the home controller drains, the next op is uncontended again
    plat.sim.run(until=plat.sim.now + 200_000)
    assert vlq._occupy() == 40_000 + rt


# -- figS smoke ---------------------------------------------------------------

def _smoke_pt(**kw):
    kw.setdefault("kv_shards", 2)
    kw.setdefault("gateways", 2)
    kw.setdefault("requests", 6)
    return FigSPoint(**kw)


def test_figs_m3v_point_conserves_requests():
    res = run_figs_point(_smoke_pt(system="m3v", load=2.0,
                                   fault_rate=0.05))
    expected = 2 * 6
    assert res["completed"] + res["shed"] + res["failed"] == expected
    assert res["goodput_rps"] > 0
    assert set(res["tenants"]) <= {t.name for t in DEFAULT_TENANTS}
    assert res["offered_rps"] == pytest.approx(6000.0)


def test_figs_m3x_point_takes_slow_paths():
    res = run_figs_point(_smoke_pt(system="m3x", load=1.0,
                                   fault_rate=0.0))
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 6
    # multiplexed KV/gateway/sink tiles force controller slow paths
    assert res["slow_paths"] > 0


def test_figs_noprot_runs_unbounded():
    res = run_figs_point(_smoke_pt(system="m3v", load=2.0,
                                   protection=False, fault_rate=0.0))
    assert res["completed"] == 2 * 6             # nothing shed, ever
    assert res["shed"] == 0
    assert res["shed_quota"] == res["shed_deadline"] == res["shed_full"] == 0


def test_figs_mpmc_backend_runs():
    res = run_figs_point(_smoke_pt(system="m3v", load=1.0, backend="mpmc",
                                   fault_rate=0.0))
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 6


def _count_waits(monkeypatch):
    """Count ``sleep_us``/``block`` calls per activity role (the
    activity name without its index: lb, kv, gw, sink)."""
    calls = {}
    for op in ("sleep_us", "block"):
        orig = getattr(ActivityApi, op)

        def counted(api, *args, _orig=orig, _op=op):
            key = (api.act.name.rstrip("0123456789"), _op)
            calls[key] = calls.get(key, 0) + 1
            return _orig(api, *args)

        monkeypatch.setattr(ActivityApi, op, counted)
    return calls


@pytest.mark.parametrize("system,load", [("m3v", 0.3), ("m3x", 2.0)])
def test_figs_receive_loops_block_instead_of_sleep_polling(monkeypatch,
                                                           system, load):
    # idle sinks and an idle balancer block until a core request wakes
    # them; the balancer sleeps only while a shard queue waits for a
    # credit, and every such wait follows a backpressure event
    calls = _count_waits(monkeypatch)
    pt = _smoke_pt(system=system, load=load, requests=10)
    res = run_figs_point(pt)
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 10
    assert calls.get(("sink", "sleep_us"), 0) == 0
    assert calls.get(("sink", "block"), 0) > 0
    assert calls.get(("lb", "block"), 0) > 0
    assert calls.get(("lb", "sleep_us"), 0) <= res["backpressure"]
    # same seed, same point: the event-driven loops stay deterministic
    assert run_figs_point(pt) == res


def test_figs_traced_point_never_steps(monkeypatch):
    # the online invariant suite attaches a tracer; the engine emits no
    # per-event trace, so the point must stay on the inlined drain loop
    # instead of sending every event through Simulator.step
    pt = _smoke_pt(system="m3v", load=0.3, fault_rate=0.02)
    res = run_figs_point(pt)
    steps = []
    orig = Simulator.step

    def counted(sim):
        steps.append(sim.now)
        return orig(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    assert run_figs_point(pt) == res
    assert steps == []


def test_figs_points_cover_all_arms():
    p = FigSParams(loads=[0.5, 2.0], systems=["m3v", "m3x"],
                   ablation_loads=[2.0], backend_loads=[2.0])
    pts = figs_points(p)
    arms = reduce_figs(p, [{"marker": i} for i in range(len(pts))])
    assert set(arms) == {"m3v", "m3x", "m3v_noprot", "m3v_mpmc",
                         "m3v_static", "m3v_adapt"}
    assert set(arms["m3v"]) == {0.5, 2.0}
    assert set(arms["m3v_noprot"]) == {2.0}
    # the adaptive pair differs only in scheduling/placement: same packed
    # layout, same skew, same (pinned) request count on both sides
    pairs = {pt.rebalance: pt for pt in pts if pt.pack != 1}
    assert set(pairs) == {False, True}
    st, ad = pairs[False], pairs[True]
    assert (st.pack, st.skew, st.requests) == (ad.pack, ad.skew, ad.requests)
    assert st.requests == p.adaptive_requests
    assert (st.sched, ad.sched) == ("rr", "edf")


def test_figs_shape_checks_accept_good_curve_and_catch_collapse():
    def row(goodput, p99, met=10, completed=10):
        return {"goodput_rps": goodput, "p99_us": p99, "slo_met": met,
                "completed": completed}

    good = {"figS": {
        "m3v": {"0.7": row(2000, 1500), "2.0": row(3900, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(150, 80000)},
    }}
    assert [f for f in shape_checks(good) if "figS" in f] == []

    collapsed = {"figS": {
        "m3v": {"0.7": row(2000, 1500, met=4), "2.0": row(1000, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(3800, 5000)},
    }}
    failures = [f for f in shape_checks(collapsed) if "figS" in f]
    assert len(failures) == 4          # all four figS claims violated


def test_figs_shape_checks_enforce_adaptive_gap():
    def row(gold_p99, migrations):
        return {"migrations": migrations,
                "tenants": {"gold": {"slo_us": 10_000.0,
                                     "p99_us": gold_p99}}}

    good = {"figS": {
        "m3v_static": {"1.1": row(11_300.0, 0)},
        "m3v_adapt": {"1.1": row(9_500.0, 7)},
    }}
    assert shape_checks(good) == []

    # adaptive arm misses the SLO and never migrates: both claims fire
    broken = {"figS": {
        "m3v_static": {"1.1": row(11_300.0, 0)},
        "m3v_adapt": {"1.1": row(12_000.0, 0)},
    }}
    failures = shape_checks(broken)
    assert len(failures) == 2
    assert any("adaptive placement holds" in f for f in failures)
    assert any("live-migrates" in f for f in failures)

    # static arm inside SLO means the scenario shows no gap at all
    no_gap = {"figS": {
        "m3v_static": {"1.1": row(8_000.0, 0)},
        "m3v_adapt": {"1.1": row(7_500.0, 5)},
    }}
    assert any("breaks gold p99 SLO" in f for f in shape_checks(no_gap))


# -- chaos harness ------------------------------------------------------------

def test_floor_checks_bounds():
    floor = Floor(min_goodput_frac=0.5, max_p99_us=1_000.0,
                  max_failed_frac=0.1)
    ok = {"goodput_rps": 600.0, "p99_us": 900.0, "failed": 0}
    assert floor.check(ok, expected=10, offered_rps=1000.0) == []
    bad = {"goodput_rps": 400.0, "p99_us": 2_000.0, "failed": 3}
    problems = floor.check(bad, expected=10, offered_rps=1000.0)
    assert len(problems) == 3


def test_chaos_campaign_passes_and_fails_deterministically():
    base = dict(requests=4, kv_shards=2, gateways=2)
    ok = run_campaign(ChaosCampaign(
        name="smoke", phases=[Phase("p", 1.0, 0.02, Floor())], **base))
    assert ok.ok and ok.phases[0].ok
    assert "PASS" in ok.summary()
    # an absurd floor must fail the phase, not raise
    bad = run_campaign(ChaosCampaign(
        name="doomed",
        phases=[Phase("p", 1.0, 0.02, Floor(min_goodput_frac=2.0))],
        **base))
    assert not bad.ok
    assert any("below floor" in p for p in bad.phases[0].problems)
    # seeded: the same campaign reproduces the same stats
    again = run_campaign(ChaosCampaign(
        name="smoke", phases=[Phase("p", 1.0, 0.02, Floor())], **base))
    assert again.phases[0].stats == ok.phases[0].stats


def test_chaos_min_migrations_guards_against_vacuous_pass():
    # a phase that demands live migrations must fail when the
    # rebalancer is off — the migration-storm campaign cannot pass
    # with the mechanism parked
    res = run_campaign(ChaosCampaign(
        name="static",
        phases=[Phase("p", 1.0, 0.02, Floor(), min_migrations=1)],
        requests=4, kv_shards=2, gateways=2))
    assert not res.ok
    assert any("live migrations" in p for p in res.phases[0].problems)


# -- scheduler regressions (bugs fixed by this PR) ----------------------------

def test_m3v_sleepers_survive_overload_fanin():
    """Regression: TileMux._idle parked the core even when its own
    CUR_ACT exchange had just averted a lost wakeup, stranding the
    requeued activity forever (no core request → no IRQ).  An overload
    point with sleeping pollers + fan-in traffic reproduced the hang;
    it must now terminate well before the simulation limit."""
    res = run_figs_point(_smoke_pt(system="m3v", load=1.5,
                                   fault_rate=0.02))
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 6


def test_m3x_descheduled_sleeper_timer_wakes_via_controller():
    """Regression: an M3x activity whose sleep timer fired while it
    was descheduled (or mid-save) was dropped by both the mux and the
    controller.  The WAKEUP notify + post-save requeue keep it
    schedulable; the run must terminate and the new notify counters
    must tick."""
    plat = build_system(SystemConfig(kind="m3x", n_proc_tiles=2,
                                     n_mem_tiles=1)).platform
    order = []

    def napper(api):
        for i in range(4):
            yield from api.sleep_us(40.0)
            order.append(("nap", i))

    def worker(api):
        for i in range(4):
            yield from api.compute(2_000)
            order.append(("work", i))
            yield from api.sleep_us(15.0)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("napper", 0, napper))
    b = plat.run_proc(ctrl.spawn("worker", 0, worker))
    plat.sim.run_until_event(a.exit_event, limit=LIMIT)
    plat.sim.run_until_event(b.exit_event, limit=LIMIT)
    assert [x for x in order if x[0] == "nap"] == \
        [("nap", i) for i in range(4)]
    # naps block-notified the controller, and at least one timer fired
    # while the napper was descheduled
    assert plat.stats.counter_value("m3x/block_notifies") > 0
    assert plat.stats.counter_value("m3x/wake_notifies") > 0
