"""Engine throughput: the churn microbenchmark and fig9 quick sweep.

These are the pytest-benchmark twins of ``repro bench`` — same
workloads, but measured under the benchmark fixture so they land in
the same reporting pipeline as the figure microbenchmarks.  The
committed trajectory lives in ``BENCH_engine.json``; the regression
gate is ``scripts/check_perf.sh``.
"""

from conftest import paper_scale, print_table

from repro.bench import churn_workload
from repro.sim import engine


def churn_args():
    if paper_scale():
        return (20, 10_000)
    return (10, 2_000)


def test_engine_churn(benchmark):
    pairs, rounds = churn_args()
    events = benchmark.pedantic(churn_workload, args=(pairs, rounds),
                                rounds=1, iterations=1)
    wall = benchmark.stats.stats.total
    print_table("Engine churn (channel ping-pong + timer ticks)", [
        f"{events} events in {wall:.3f}s "
        f"({events / wall:,.0f} events/s, scheduler="
        f"{engine.default_scheduler()})",
    ])
    assert events > 0


def test_fig9_quick_events_per_sec(benchmark):
    from repro.core.exps.fig9 import Fig9Params, run_fig9

    params = Fig9Params(trace="find", tile_counts=[1, 2], runs=1,
                        find_dirs=4, find_files=6, sqlite_txns=4)
    before = engine.events_processed()
    benchmark.pedantic(run_fig9, args=(params,), rounds=1, iterations=1)
    events = engine.events_processed() - before
    wall = benchmark.stats.stats.total
    print_table("fig9 quick: engine throughput", [
        f"{'':14s} {'wall':>8s} {'events':>8s} {'ev/s':>10s}",
        f"{'current':14s} {wall:8.3f} {events:8d} {events / wall:10,.0f}",
    ])
    assert events > 0
