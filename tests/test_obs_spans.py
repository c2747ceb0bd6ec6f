"""Span timelines and the simulator self-profiler."""

import json

import pytest

from repro.obs import SelfProfiler, SpanCollector, capture_profile
from repro.sim.trace import TraceEvent, capture


def _ev(seq, ts, kind, **fields):
    return TraceEvent(seq=seq, ts=ts, sim=0, kind=kind, fields=fields)


# -- span folding on synthetic events -----------------------------------------

def test_running_and_switching_spans_from_switch_events():
    c = SpanCollector()
    c.feed([
        _ev(0, 100, "act_switch", tile=1, old_act=0xFFFF, new_act=3),
        _ev(1, 900, "act_switch", tile=1, old_act=3, new_act=4),
        _ev(2, 2000, "act_exit", tile=1, act=4),
    ])
    c.finish()
    running = sorted(c.of_state("running"), key=lambda s: s.start)
    assert [(s.act, s.start, s.end) for s in running] == \
        [(3, 100, 900), (4, 900, 2000)]
    assert c.busy_ps(1) == 800 + 1100


def test_switch_gap_becomes_switching_span():
    c = SpanCollector()
    c.feed([
        _ev(0, 0, "act_switch", tile=0, old_act=0xFFFF, new_act=1),
        _ev(1, 500, "act_switch", tile=0, old_act=1, new_act=0xFFFF),
        _ev(2, 700, "act_switch", tile=0, old_act=0xFFFF, new_act=2),
    ])
    c.finish(end_ts=1000)
    switching = c.of_state("switching")
    assert [(s.start, s.end) for s in switching] == [(500, 700)]
    assert switching[0].act is None


def test_blocked_spans_pair_block_and_wake():
    c = SpanCollector()
    c.feed([
        _ev(0, 10, "act_block", tile=2, act=5),
        _ev(1, 60, "act_wake", tile=2, act=5),
        _ev(2, 80, "act_block", tile=2, act=6),     # never woken
    ])
    c.finish(end_ts=100)
    blocked = sorted(c.of_state("blocked"), key=lambda s: s.start)
    assert [(s.act, s.start, s.end) for s in blocked] == \
        [(5, 10, 60), (6, 80, 100)]


def test_quarantine_span_runs_to_end_of_trace():
    c = SpanCollector()
    c.feed([_ev(0, 50, "tile_quarantine", tile=3)])
    c.finish(end_ts=400)
    q = c.of_state("quarantined")
    assert [(s.tile, s.act, s.start, s.end) for s in q] == \
        [(3, None, 50, 400)]


# -- real workload + export ---------------------------------------------------

@pytest.fixture(scope="module")
def fig6_spans():
    from repro.core.exps.fig6 import Fig6Params, run_fig6_point, fig6_points

    pt = [p for p in fig6_points(Fig6Params(iterations=10, warmup=2))
          if p.kind == "m3v_local"][0]
    with capture() as tracer:
        run_fig6_point(pt)
    return SpanCollector().feed(tracer.events).finish()


def test_workload_produces_well_formed_spans(fig6_spans):
    assert fig6_spans.spans
    for span in fig6_spans.spans:
        assert span.state in SpanCollector.STATES
        assert span.end > span.start
    assert fig6_spans.of_state("running")
    assert fig6_spans.busy_ps(0) > 0


def test_span_json_and_chrome_exports_parse(fig6_spans):
    spans = json.loads(fig6_spans.to_json())
    assert spans and {"sim", "tile", "act", "state", "start", "end"} \
        <= set(spans[0])
    chrome = json.loads(fig6_spans.to_chrome())
    events = chrome["traceEvents"]
    names = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    assert names and slices
    for e in slices:
        assert e["dur"] > 0 and e["ts"] >= 0


def test_live_attach_matches_post_hoc_feed():
    from repro.core.exps.fig6 import Fig6Params, run_fig6_point, fig6_points

    pt = [p for p in fig6_points(Fig6Params(iterations=5, warmup=1))
          if p.kind == "m3v_local"][0]
    with capture() as tracer:
        live = SpanCollector().attach(tracer)
        run_fig6_point(pt)
    live.finish()
    replay = SpanCollector().feed(tracer.events).finish()
    assert live.to_json() == replay.to_json()


# -- self-profiler ------------------------------------------------------------

def test_bucket_attribution_by_process_name_prefix():
    p = SelfProfiler()
    assert p.bucket_of("tilemux3") == "tilemux"
    assert p.bucket_of("dtu2-rx") == "dtu"
    assert p.bucket_of("controller") == "controller"
    assert p.bucket_of("m3xmux1") == "m3xmux"
    assert p.bucket_of("linux-proc") == "linux"
    assert p.bucket_of("bench") == "workload"


def test_capture_profile_measures_a_workload():
    from repro.core.exps.fig6 import Fig6Params, run_fig6_point, fig6_points

    pt = [p for p in fig6_points(Fig6Params(iterations=5, warmup=1))
          if p.kind == "m3v_local"][0]
    with capture_profile() as prof:
        run_fig6_point(pt)
    assert prof.events > 0
    assert "tilemux" in prof.buckets and "dtu" in prof.buckets
    assert prof.wall_s > 0 and prof.events_per_sec > 0
    table = prof.table()
    assert "tilemux" in table and "events/s" in table
    # the engine pays the perf_counter pair only while installed
    from repro.sim import engine
    assert engine._default_profiler is None


def test_profile_dict_round_trip_and_merge():
    from repro.sim.engine import Simulator

    sim = Simulator()
    p = SelfProfiler()
    p.record(None, 0.25)
    p.on_step(sim, sim.event())
    p.stop()
    d = p.as_dict()
    json.dumps(d)
    merged = SelfProfiler()
    merged.merge(d)
    merged.merge(d)
    assert merged.events == 2
    assert merged.event_counts == {"Event": 2}
    assert merged.buckets["other"][0] == pytest.approx(0.5)
    assert merged.buckets["other"][1] == 2


def test_profiler_on_step_counts_event_classes_and_samples_queue_depth():
    from repro.sim.engine import Simulator

    prof = SelfProfiler()
    sim = Simulator()
    sim.profiler = prof
    done = []

    def proc():
        yield sim.timeout(100)
        yield sim.timeout(100)
        done.append(sim.now)

    sim.process(proc())
    sim.run(until=1_000)
    assert done
    assert sum(prof.event_counts.values()) == prof.events > 0
    assert prof.evq_depth and all(isinstance(ts, int)
                                  for ts, _ in prof.evq_depth)
    assert prof.as_dict()["evq_depth"] == [list(s) for s in prof.evq_depth]
