"""Measure one workload: untraced passes for the end-to-end metrics, a
separate traced pass for the per-layer split, output checks on both."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from perfbench.layers import LAYERS, Tracer, instrument
from perfbench.workloads import (WORKLOADS, PassResult, Workload,
                                 check_pass, run_pass, sim_metrics)

ROOT = Path(__file__).resolve().parent.parent

#: Traced layer self times must add up to the traced wall time this well.
LAYER_SUM_TOLERANCE = 0.05

#: Fresh-interpreter import samples behind ``setup_s``.
IMPORT_SAMPLES = 5
IMPORTS = "repro.api, repro.core.exps.figs, repro.core.exps.fig9"

#: The end-to-end metrics the benchmark contract carries: host costs,
#: defined and never zero on every workload.  (name, unit, better)
HOST_METRICS = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Simulated end-to-end metrics: exact, printed in the report and checked
#: for bit-for-bit repetition.  (name, unit, better, workloads)
SIM_METRICS = [
    ("sim_goodput_rps", "1/s", "higher", "serve"),
    ("sim_p50_us", "sim_us", "lower", "serve"),
    ("sim_p90_us", "sim_us", "lower", "serve"),
    ("sim_completed", "count", "higher", "serve"),
    ("slo_miss_frac", "ratio", "lower", "serve"),
    ("error_frac", "ratio", "lower", "all"),
    ("sim_runs_per_s.m3v", "1/s", "higher", "find"),
    ("sim_runs_per_s.m3x", "1/s", "higher", "find"),
    ("paper_err_pct", "%", "lower", "find"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _shed(res: PassResult) -> int:
    return sum(res.counter(f"serving/shed_{why}")
               for why in ("quota", "deadline", "full"))


def _offered(res: PassResult) -> int:
    """Requests offered to the serving layer (figS points return dicts)."""
    return sum(p.ops for p in res.points if isinstance(p.value, dict))


#: (name, unit, better, f(layer run)) — see README.md for what each
#: should move, on which workload.
PER_LAYER: List = [
    ("sim.events", "count", "lower", lambda L: L.res.events),
    ("sim.ns_per_event", "ns", "lower",
     lambda L: _ratio(1e9 * L.self_s("sim"), L.res.events)),
    ("sim.self_s", "s", "lower", lambda L: L.self_s("sim")),
    ("dtu.cmds", "count", "lower", lambda L: L.tr.count_prefix("Dtu.cmd_")),
    ("dtu.self_s", "s", "lower", lambda L: L.self_s("dtu")),
    ("dtu.fetch_hit_ratio", "ratio", "higher",
     lambda L: _ratio(L.tr.returned("Dtu.cmd_fetch"),
                      L.tr.count("Dtu.cmd_fetch"))),
    ("dtu.ack_timeouts", "count", "lower",
     lambda L: L.res.counter("dtu/ack_timeouts")),
    ("vdtu.act_switches", "count", "lower",
     lambda L: L.res.counter("vdtu/act_switches")),
    ("vdtu.core_reqs", "count", "lower",
     lambda L: L.res.counter("vdtu/core_reqs")),
    ("mux.self_s", "s", "lower", lambda L: L.self_s("mux")),
    ("mux.api_calls", "count", "lower",
     lambda L: L.tr.count_prefix("ActivityApi.")
     + L.tr.count_prefix("M3xActivityApi.")),
    ("mux.sleep_calls", "count", "lower",
     lambda L: L.tr.count("ActivityApi.sleep_us")),
    ("mux.ctx_switches", "count", "lower",
     lambda L: L.res.counter("tilemux/ctx_switches")
     + L.res.counter("m3x/switches")),
    ("mux.preemptions", "count", "lower",
     lambda L: L.res.counter("tilemux/preemptions")),
    ("mux.recv_wait_sim_ms", "sim_ms", "lower",
     lambda L: L.tr.total_sim_ps("ActivityApi.recv") / 1e9),
    ("m3x.slow_paths", "count", "lower",
     lambda L: L.res.counter("m3x/slow_paths")),
    ("kernel.self_s", "s", "lower", lambda L: L.self_s("kernel")),
    ("kernel.syscalls", "count", "lower",
     lambda L: L.res.counter("ctrl/syscalls")),
    ("kernel.ext_reqs", "count", "lower",
     lambda L: L.res.counter("ctrl/ext_reqs")),
    ("kernel.syscall_sim_us", "sim_us", "lower",
     lambda L: L.tr.mean_sim_ps("ActivityApi.syscall",
                                "M3xActivityApi.syscall_forward") / 1e6),
    ("noc.packets", "count", "lower", lambda L: L.res.counter("noc/packets")),
    ("noc.bytes", "B", "lower", lambda L: L.res.counter("noc/bytes")),
    ("noc.self_s", "s", "lower", lambda L: L.self_s("noc")),
    ("services.self_s", "s", "lower", lambda L: L.self_s("services")),
    ("serving.admitted", "count", "higher",
     lambda L: L.res.counter("serving/admitted")),
    ("serving.shed", "count", "lower", lambda L: _shed(L.res)),
    ("serving.backpressure", "count", "lower",
     lambda L: L.res.counter("serving/backpressure")),
    # requests never shed at any stage, of all requests offered
    ("serving.admit_ratio", "ratio", "higher",
     lambda L: _ratio(_offered(L.res) - _shed(L.res), _offered(L.res))),
    ("m3fs.calls", "count", "lower", lambda L: L.tr.count_prefix("FsClient.")),
    ("apps.self_s", "s", "lower", lambda L: L.self_s("apps")),
    ("lsm.ops", "count", "lower",
     lambda L: sum(L.tr.count(f"LsmStore.{op}")
                   for op in ("get", "put", "delete", "scan"))),
    ("recovery.retransmits", "count", "lower",
     lambda L: L.res.counter("recovery/retransmits")),
    ("faults.pkts_dropped", "count", "lower",
     lambda L: L.res.counter("faults/pkts_dropped")),
    ("workload.self_s", "s", "lower", lambda L: L.self_s("workload")),
    ("trace.overhead_s", "s", "lower",
     lambda L: L.traced_wall_s - L.untraced_wall_s),
]


@dataclass
class LayerRun:
    """One traced pass and what the per-layer metrics read from it."""
    tr: Tracer
    res: PassResult
    untraced_wall_s: float

    @property
    def traced_wall_s(self) -> float:
        return self.res.wall_s

    def self_s(self, layer: str) -> float:
        return self.tr.self_s[layer]

    @property
    def layer_sum_s(self) -> float:
        return sum(self.tr.self_s[k] for k in LAYERS)


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: bool
    passes: List[PassResult] = field(default_factory=list)
    layer_runs: List[LayerRun] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    host: Dict[str, float] = field(default_factory=dict)
    sim: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures

    def result(self) -> Dict:
        done = self.passes + [L.res for L in self.layer_runs]
        attempted = sum(p.ops for r in done for p in r.points)
        failed = sum(p.failed for r in done for p in r.points)
        if self.trace:
            metrics = {name: {"value": self.layers[name], "unit": unit}
                       for name, unit, _, _ in PER_LAYER
                       if name in self.layers}
        else:
            metrics = {name: {"value": self.host[name], "unit": unit}
                       for name, unit, _ in HOST_METRICS
                       if name in self.host}
        return {"correct": self.correct, "attempted": max(1, attempted),
                "failed": failed, "metrics": metrics}


def scrub_env() -> None:
    """Drop every ``REPRO_*`` knob: the benchmark measures the system as
    built, with its defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_seconds(samples: int = IMPORT_SAMPLES) -> List[float]:
    """Time the program's imports in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import time; t = time.perf_counter(); "
            f"import {IMPORTS}; print(time.perf_counter() - t)")
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def repeat(fn: Callable[[], object], budget_s: float) -> List:
    """Call ``fn`` at least once, and again while another call of the
    same length still fits in ``budget_s``."""
    out = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(fn())
        now = perf_counter()
        if now - start + (now - t0) > budget_s:
            return out


def _check_repeats(o: Outcome, runs: List[PassResult], what: str) -> None:
    for i, r in enumerate(runs):
        if r.signature() != o.passes[0].signature(len(r.points)):
            o.failures.append(f"{what} {i} changed simulated outputs "
                              f"(events {r.events} vs {o.passes[0].events})")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_dir: Optional[Path] = None) -> Outcome:
    """Measure ``name``: untraced passes for ``seconds`` (half of it when
    ``trace``, the rest for traced passes), then every output check."""
    wl: Workload = WORKLOADS[name]
    o = Outcome(name, seed, trace)
    budget = seconds / 2 if trace else seconds
    o.passes = repeat(lambda: run_pass(wl, seed), budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for res in o.passes:
        o.failures += check_pass(wl, res)
    if len(o.passes) > 1 or trace:
        _check_repeats(o, o.passes[1:], "untraced pass")
    else:
        # one pass filled the budget: repeat its first point, untimed
        _check_repeats(o, [run_pass(wl, seed, limit=1)], "repeated point")
    walls = [r.wall_s for r in o.passes]
    o.host["wall_s"] = statistics.median(walls)
    o.host["peak_rss_mb"] = peak_rss_mb
    o.sim = sim_metrics(wl, o.passes[0])
    if not trace:
        builds = statistics.median(r.build_s for r in o.passes)
        o.host["setup_s"] = statistics.median(import_seconds()) + builds
        return o

    def traced_pass() -> LayerRun:
        tr = Tracer()
        with instrument(tr):
            res = run_pass(wl, seed, tracer=tr)
        return LayerRun(tr, res, o.host["wall_s"])

    o.layer_runs = repeat(traced_pass, seconds - budget)
    _check_repeats(o, [L.res for L in o.layer_runs], "traced pass")
    for L in o.layer_runs:
        gap = abs(L.layer_sum_s - L.traced_wall_s) / L.traced_wall_s
        if gap > LAYER_SUM_TOLERANCE:
            o.failures.append(
                f"layer self times sum to {L.layer_sum_s:.3f} s, traced "
                f"wall is {L.traced_wall_s:.3f} s ({100 * gap:.1f}% apart)")
    for metric, _, _, fn in PER_LAYER:
        o.layers[metric] = statistics.median(fn(L) for L in o.layer_runs)
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        o.layer_runs[-1].tr.save(spans_dir / f"spans-{name}.bin")
    return o


def report(o: Outcome, out=sys.stdout) -> None:
    """Every metric of the run by name, with its unit."""
    wl = WORKLOADS[o.workload]
    kind = "serve" if wl.serving else "find"
    n = len(o.passes)
    print(f"== {o.workload} (seed {o.seed}): {wl.why}", file=out)
    if not wl.serving:
        print("   the find trace is fixed: the seed changes nothing here",
              file=out)
    print(f"-- end to end (host: median of {n} untraced pass"
          f"{'es' if n > 1 else ''}; simulated: exact)", file=out)
    for name, unit, _ in HOST_METRICS:
        if name in o.host:
            print(f"   {name:<24}{o.host[name]:>14.4f} {unit}", file=out)
    print(f"   {'(events per pass)':<24}{o.passes[0].events:>14d}", file=out)
    print(f"   {'(pass walls, s)':<24}"
          + " ".join(f"{r.wall_s:.3f}" for r in o.passes), file=out)
    for name, unit, _, where in SIM_METRICS:
        if where not in (kind, "all"):
            continue
        value = o.sim.get(name)
        text = ("n/a (<10 samples beyond)" if value is None
                else f"{value:>14.4f} {unit}")
        print(f"   {name:<24}{text}", file=out)
    print("   (no reference numbers exist for this workload: the model is "
          "unvalidated here)" if wl.serving else
          "   (paper_err_pct: vs the paper's single-tile find runs/s)",
          file=out)
    if o.layer_runs:
        L = o.layer_runs[-1]
        print(f"-- per layer (traced pass; {L.tr.n_spans} spans; layer self "
              f"times sum to {L.layer_sum_s:.3f} s of {L.traced_wall_s:.3f} s"
              f" traced wall)", file=out)
        for name, unit, _, _ in PER_LAYER:
            print(f"   {name:<24}{o.layers[name]:>14.4f} {unit}", file=out)
    for msg in o.failures:
        print(f"!! check failed: {msg}", file=out)
