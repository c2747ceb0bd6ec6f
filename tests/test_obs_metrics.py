"""The metrics registry: primitives, the trace-kind table, metered
workloads, and the runner's metrics-artifact sidecars."""

import json
from dataclasses import dataclass

import pytest

from repro.obs import MetricsRegistry, capture_metrics
from repro.obs.metrics import METRICS, Gauge
from repro.runner import ResultCache, Runner, Sweep, register, unregister


# -- primitives ---------------------------------------------------------------

def test_counter_inc():
    m = MetricsRegistry()
    m.inc("a/b")
    m.inc("a/b", 4)
    assert m.counter_value("a/b") == 5
    assert m.counter_value("missing") == 0


def test_gauge_throttle_collapses_identical_values():
    g = Gauge("q", interval_ps=1000)
    g.sample(0, 3)          # first point always records
    g.sample(10, 3)         # same value inside the interval: dropped
    g.sample(20, 4)         # changed value: recorded
    g.sample(30, 4)         # unchanged again: dropped
    g.sample(1500, 4)       # interval elapsed: recorded even if equal
    assert g.series == [(0, 3), (20, 4), (1500, 4)]
    assert g.last == 4


def test_series_inc_records_cumulative_totals():
    m = MetricsRegistry(gauge_interval_ps=0)
    m.series_inc("dtu/sends", 100)
    m.series_inc("dtu/sends", 200)
    m.series_inc("dtu/sends", 300, n=2)
    assert m.counter_value("dtu/sends") == 4
    assert m.series("dtu/sends") == [(100, 1), (200, 2), (300, 4)]


def test_histogram_summary_percentiles():
    m = MetricsRegistry()
    for v in range(1, 101):
        m.observe("lat", v)
    s = m.as_dict()["histograms"]["lat"]
    assert s["count"] == 100
    assert s["min"] == 1 and s["max"] == 100
    assert s["p50"] == pytest.approx(50, abs=1)
    assert s["p99"] == pytest.approx(99, abs=1)


def test_as_dict_is_json_safe_and_merge_sums_counters():
    m = MetricsRegistry()
    m.inc("x", 2)
    m.observe("h", 1.5)
    m.sample("g", 0, 7)
    d = m.as_dict()
    json.dumps(d)   # must not raise
    merged = MetricsRegistry.merge_dicts([d, d, None, {}])
    assert merged["counters"]["x"] == 4


# -- the trace-kind table -----------------------------------------------------

def test_every_metered_kind_is_a_documented_trace_kind():
    from repro.sim import trace

    for kind in METRICS:
        assert f"``{kind}``" in trace.__doc__, kind


def test_registry_applies_the_table_row_of_each_event():
    from repro.sim.trace import TraceEvent

    m = MetricsRegistry(gauge_interval_ps=0)
    m.on_event(TraceEvent(0, 100, 0, "ctx_switch",
                          {"tile": 3, "act": 7, "dur": 250}))
    m.on_event(TraceEvent(1, 200, 0, "m3x_forward",
                          {"tile": 1, "act": 7, "slowpath_q": 2}))
    m.on_event(TraceEvent(2, 300, 0, "act_block", {"tile": 3, "act": 7}))
    assert m.series("tile3/tilemux/ctx_switches") == [(100, 1)]
    assert m.as_dict()["histograms"]["tile3/tilemux/switch_ps"]["max"] == 250
    assert m.counter_value("ctrl/forwards") == 1
    assert m.series("ctrl/slowpath_q") == [(200, 2)]
    assert sorted(m.counters) == ["ctrl/forwards",
                                  "tile3/tilemux/ctx_switches"]


# -- instrumented workloads ---------------------------------------------------

def _fig6_m3v_counters():
    from repro.core.exps.fig6 import Fig6Params, run_fig6_point, fig6_points

    pt = [p for p in fig6_points(Fig6Params(iterations=10, warmup=2))
          if p.kind == "m3v_local"][0]
    with capture_metrics() as m:
        run_fig6_point(pt)
    return m


def test_fig6_point_populates_dtu_and_tilemux_metrics():
    m = _fig6_m3v_counters()
    assert m.counter_value("tile0/dtu/sends") > 0
    assert m.counter_value("tile0/dtu/recvs") > 0
    assert m.counter_value("tile0/tilemux/ctx_switches") > 0
    names = m.series_names()
    assert "tile0/tilemux/ready_q" in names
    assert "tile0/vdtu/core_req_q" in names
    switch = m.as_dict()["histograms"]["tile0/tilemux/switch_ps"]
    assert switch["count"] > 0 and switch["min"] > 0


def test_metered_point_never_steps(monkeypatch):
    # metrics ride the trace, which keeps the inlined drain loop: a
    # metered point must not send its events through Simulator.step
    from repro.sim.engine import Simulator

    steps = []
    orig = Simulator.step

    def counted(sim):
        steps.append(sim.now)
        return orig(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    m = _fig6_m3v_counters()
    assert m.counter_value("tile0/dtu/sends") > 0
    assert steps == []


def test_metrics_are_deterministic_across_runs():
    a = _fig6_m3v_counters().as_dict()
    b = _fig6_m3v_counters().as_dict()
    assert a == b


def test_m3x_slow_paths_and_controller_queue_are_metered():
    from repro.core.exps.figr import FigRPoint, run_figr_point

    with capture_metrics() as m:
        run_figr_point(FigRPoint("m3x", 0.0, messages=20))
    assert m.counter_value("ctrl/switches") > 0
    slow = sum(v for k, v in m.counters.items()
               if k.endswith("m3x/slow_paths"))
    assert slow > 0
    assert m.series("ctrl/slowpath_q")          # sampled over time
    assert m.series("ctrl/sysc_q")


def test_recovery_metrics_under_faults():
    from repro.core.exps.figr import FigRPoint, run_figr_point

    with capture_metrics() as m:
        run_figr_point(FigRPoint("m3v", 0.2, messages=10))
    retx = sum(v for k, v in m.counters.items()
               if k.endswith("recovery/retransmits"))
    assert retx > 0
    backoffs = [h for name, h in m.as_dict()["histograms"].items()
                if name.endswith("recovery/backoff_ps")]
    assert backoffs and backoffs[0]["count"] > 0


# -- runner metrics artifacts -------------------------------------------------

@dataclass(frozen=True)
class ToyCfg:
    idx: int


def _toy_point(cfg):
    from repro.sim.engine import Simulator

    sim = Simulator()

    def proc():
        if sim.tracer is not None:
            sim.tracer.emit(sim, "syscall", tile=0, act=1, op="noop")
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=1_000)
    return cfg.idx * 10


@pytest.fixture
def toy_sweep(tmp_path):
    fp = tmp_path / "toy_costs.py"
    fp.write_text("X = 1\n")
    register(Sweep("toy-obs", lambda _p: [ToyCfg(i) for i in range(2)],
                   _toy_point, lambda _p, vs: vs,
                   fingerprint_paths=(str(fp),)))
    yield
    unregister("toy-obs")


def test_runner_stores_metrics_sidecars_next_to_results(toy_sweep, tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    cold = Runner(jobs=1, cache=cache, metrics=True)
    cold.run_sweep("toy-obs")
    assert cold.simulated == 2
    for o in cold.last_outcomes:
        assert o.metrics is not None
        assert o.metrics["counters"]["ctrl/syscalls"] == 1
        sidecar = cache.artifact_path(o.key, "metrics")
        assert sidecar.exists()

    warm = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"),
                  metrics=True)
    warm.run_sweep("toy-obs")
    assert warm.simulated == 0 and warm.served == 2
    assert all(o.metrics["counters"]["ctrl/syscalls"] == 1
               for o in warm.last_outcomes)


def test_cache_hit_without_sidecar_resimulates(toy_sweep, tmp_path):
    root = tmp_path / "cache"
    plain = Runner(jobs=1, cache=ResultCache(root=root))
    plain.run_sweep("toy-obs")     # results cached, no metrics sidecars
    assert plain.simulated == 2

    metered = Runner(jobs=1, cache=ResultCache(root=root), metrics=True)
    metered.run_sweep("toy-obs")
    assert metered.simulated == 2  # hits without sidecars re-ran
    assert all(o.metrics is not None for o in metered.last_outcomes)

    warm = Runner(jobs=1, cache=ResultCache(root=root), metrics=True)
    warm.run_sweep("toy-obs")
    assert warm.simulated == 0 and warm.served == 2


def test_traced_and_metered_run_returns_digest_and_metrics():
    # run_point nests capture() inside capture_metrics(): the trace
    # tracer must feed the enclosing registry
    from repro.core.exps.fig6 import Fig6Params

    runner = Runner(jobs=1, trace=True, metrics=True)
    runner.run_sweep("fig6", Fig6Params(iterations=10, warmup=2))
    m3v = [o for o in runner.last_outcomes
           if o.spec.config.kind == "m3v_local"]
    assert m3v and m3v[0].trace_digest["n_events"] > 0
    assert m3v[0].metrics["counters"]["tile0/dtu/sends"] > 0


def test_unmetered_run_ignores_sidecars(toy_sweep, tmp_path):
    root = tmp_path / "cache"
    Runner(jobs=1, cache=ResultCache(root=root), metrics=True) \
        .run_sweep("toy-obs")
    warm = Runner(jobs=1, cache=ResultCache(root=root))
    warm.run_sweep("toy-obs")
    assert warm.served == 2
    assert all(o.metrics is None for o in warm.last_outcomes)
