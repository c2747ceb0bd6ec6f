"""The benchmark's workloads, one measured pass at a time.

A *pass* runs every point of a workload once, each on a freshly built
system (cold: empty modelled TLBs, empty queues, no warm-up run beyond
what the experiment itself does).  Points are driven through the
experiments' public point functions (``run_figs_point``,
``run_fig9_point``); the benchmark sees the built systems by wrapping
``build_system`` where the experiment module looks it up.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Single-tile find runs/s reported by the paper (EXPERIMENTS.md, Fig. 9).
PAPER_FIND_RUNS_PER_S = {"m3v": 84.0, "m3x": 45.0}

#: fs-find must keep the paper's single-tile shape: M³v ahead of M³x.
FIND_MIN_SPEEDUP = 1.3

#: figS points pooled per pass, each with its own seed derived from the
#: benchmark seed: pooling makes a pass move less from seed to seed.
SERVE_POINTS = 4

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass
class Point:
    label: str
    params: object               # the experiment's point (its inputs)
    run: Callable[[], object]
    ops: int                     # open-loop requests, or trace plays


@dataclass
class Workload:
    name: str
    why: str
    points: Callable[[int], List[Point]]
    serving: bool


def _serve_points(system: str, load: float) -> Callable[[int], List[Point]]:
    def points(seed: int) -> List[Point]:
        from repro.core.exps.figs import FigSPoint, run_figs_point

        k = SERVE_POINTS
        out = []
        for i in range(k):
            pt = FigSPoint(system, load, seed=seed * k + i)
            out.append(Point(f"{system}@{load}/seed{pt.seed}", pt,
                             lambda pt=pt: run_figs_point(pt),
                             ops=pt.gateways * pt.requests))
        return out
    return points


def _find_points(seed: int) -> List[Point]:
    # the find trace is fixed: the seed selects nothing here
    from repro.core.exps.fig9 import Fig9Point, run_fig9_point

    pts = [Fig9Point(system, 1, trace="find") for system in ("m3v", "m3x")]
    # each point plays the trace once to warm up, then pt.runs times
    return [Point(pt.system, pt, lambda pt=pt: run_fig9_point(pt),
                  ops=1 + pt.runs) for pt in pts]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("serve-light",
             "figS M3v at 0.3x load: idle balancer and sinks sleep-poll, so "
             "TileMux timer wakeups and activity switches dominate",
             _serve_points("m3v", 0.3), serving=True),
    Workload("serve-overload",
             "figS M3x at 2.0x load: controller slow paths and admission "
             "shedding do the work, TileMux none",
             _serve_points("m3x", 2.0), serving=True),
    Workload("fs-find",
             "fig9 find trace on one tile, M3v and M3x: message-driven "
             "m3fs RPC storms on DTU, NoC and controller; seed-independent",
             _find_points, serving=False),
]}


@dataclass
class PointResult:
    label: str
    value: object                 # the point function's return value
    wall_s: float                 # host seconds, build_system excluded
    build_s: float                # host seconds inside build_system
    events: int
    stats: Dict[str, float]       # StatRegistry snapshot of the system
    ops: int
    latencies_ps: List[int] = field(default_factory=list)
    met: int = 0

    @property
    def failed(self) -> int:
        """Requests that failed or were never resolved (shed ones are
        answered: admission control refused them on purpose)."""
        if not isinstance(self.value, dict):
            return 0
        return self.ops - self.value["completed"] - self.value["shed"]


@dataclass
class PassResult:
    points: List[PointResult]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.points)

    @property
    def build_s(self) -> float:
        return sum(p.build_s for p in self.points)

    @property
    def events(self) -> int:
        return sum(p.events for p in self.points)

    def counter(self, name: str) -> int:
        return sum(int(p.stats.get(f"count/{name}", 0)) for p in self.points)

    def signature(self, n: Optional[int] = None) -> str:
        """Every simulated output of the (first ``n``) points; must
        repeat bit for bit."""
        return json.dumps([[p.label, p.value, p.events, p.stats,
                            p.latencies_ps] for p in self.points[:n]],
                          sort_keys=True)


class _Capture:
    """Sees the systems a point builds, and (serving points) each
    completed request's latency at the sink's ack — exactly the moment
    figS records it."""

    def __init__(self, tracer=None, serving: bool = False):
        self.tracer = tracer
        self.serving = serving
        self.systems: List = []
        self.build_s = 0.0
        self.latencies: List[int] = []
        self.met = 0

    def __enter__(self):
        from repro.core.exps import fig9, figs
        from repro.mux.api import ActivityApi

        self._saved = [(figs, "build_system", figs.build_system),
                       (fig9, "build_system", fig9.build_system)]
        orig = figs.build_system
        tracer = self.tracer

        def build_system(*args, **kwargs):
            if tracer is not None:
                tracer.enabled = False
                tracer.sim = None
            t0 = perf_counter()
            system = orig(*args, **kwargs)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.exclude(dt)
                tracer.sim = system.sim
                tracer.enabled = True
            self.build_s += dt
            self.systems.append(system)
            return system

        figs.build_system = fig9.build_system = build_system
        if self.serving:
            ack = ActivityApi.ack
            self._saved.append((ActivityApi, "ack", ack))
            capture = self

            def probed_ack(api, ep, msg):
                yield from ack(api, ep, msg)
                if api.act.name.startswith("sink"):
                    req = msg.data
                    now = api.sim.now
                    capture.latencies.append(now - req.arrival_ps)
                    capture.met += now <= req.deadline_ps
            ActivityApi.ack = probed_ack
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        return False


def run_pass(workload: Workload, seed: int, tracer=None,
             limit: Optional[int] = None) -> PassResult:
    """One pass over the workload's points (the first ``limit`` of them);
    traced when ``tracer`` is set."""
    from repro.sim.engine import events_processed

    results = []
    for point in workload.points(seed)[:limit]:
        gc.collect()
        with _Capture(tracer, workload.serving) as cap:
            e0 = events_processed()
            if tracer is not None:
                tracer.sim = None
                root = tracer.open(tracer.nid(f"point:{point.label}"),
                                   "workload")
                tracer.enabled = True
                tracer.enter(root)
            t0 = perf_counter()
            try:
                value = point.run()
            finally:
                t1 = perf_counter()
                if tracer is not None:
                    tracer.leave(root)
                    tracer.finish(root)
                    tracer.flush()
                    tracer.enabled = False
            events = events_processed() - e0
        (system,) = cap.systems
        results.append(PointResult(
            point.label, value, t1 - t0 - cap.build_s, cap.build_s, events,
            system.stats.snapshot(), point.ops, cap.latencies, cap.met))
    return PassResult(results)


def percentile(sorted_vals: List[int], q: float) -> Optional[float]:
    """figS's nearest-rank percentile, or None with too few samples
    beyond it to tell it apart from noise."""
    if not sorted_vals:
        return None
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    if len(sorted_vals) - 1 - idx < MIN_BEYOND:
        return None
    return float(sorted_vals[idx])


def sim_metrics(workload: Workload, res: PassResult) -> Dict[str, object]:
    """The simulated end-to-end metrics (exact; repeat bit for bit)."""
    if not workload.serving:
        rps = {p.label: float(p.value) for p in res.points}
        err = sum(abs(rps[s] - ref) / ref
                  for s, ref in PAPER_FIND_RUNS_PER_S.items())
        return {"sim_runs_per_s.m3v": rps["m3v"],
                "sim_runs_per_s.m3x": rps["m3x"],
                "paper_err_pct": 100.0 * err / len(PAPER_FIND_RUNS_PER_S),
                "error_frac": 0.0}
    attempted = sum(p.ops for p in res.points)
    met = sum(p.value["slo_met"] for p in res.points)
    completed = sum(p.value["completed"] for p in res.points)
    shed = sum(p.value["shed"] for p in res.points)
    failed = sum(p.value["failed"] for p in res.points)
    unresolved = attempted - completed - shed - failed
    span_s = sum(p.value["span_ms"] for p in res.points) / 1e3
    lats = sorted(lat for p in res.points for lat in p.latencies_ps)
    p50, p90 = percentile(lats, 0.50), percentile(lats, 0.90)
    return {"sim_goodput_rps": met / span_s,
            "sim_p50_us": None if p50 is None else p50 / 1e6,
            "sim_p90_us": None if p90 is None else p90 / 1e6,
            "sim_completed": completed,
            "slo_miss_frac": (attempted - met) / attempted,
            "error_frac": (failed + shed + unresolved) / attempted}


def check_pass(workload: Workload, res: PassResult) -> List[str]:
    """Output checks on one pass; returns the failures found."""
    bad = []
    for p in res.points:
        if workload.serving:
            v = p.value
            resolved = v["completed"] + v["shed"] + v["failed"]
            if resolved != p.ops:
                bad.append(f"{p.label}: {resolved}/{p.ops} resolved")
            if len(p.latencies_ps) != v["completed"] or p.met != v["slo_met"]:
                bad.append(f"{p.label}: sink probe saw {len(p.latencies_ps)}"
                           f" completions ({p.met} met), point reports "
                           f"{v['completed']} ({v['slo_met']} met)")
        elif not p.value > 0:
            bad.append(f"{p.label}: no runs completed")
    if not workload.serving:
        rps = {p.label: p.value for p in res.points}
        if not rps["m3v"] > FIND_MIN_SPEEDUP * rps["m3x"]:
            bad.append(f"fs-find lost the paper's shape: m3v {rps['m3v']:.1f}"
                       f" <= {FIND_MIN_SPEEDUP} x m3x {rps['m3x']:.1f} runs/s")
    return bad
