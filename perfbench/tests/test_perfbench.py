"""The benchmark's own tests: contract, attribution, checks, held-out seed.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They take a few minutes: the held-out-seed test runs every workload once.
"""

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import bench, layers, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = _spec()
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == bench.HOST_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in bench.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_covers_every_repro_package_the_workloads_run():
    assert layers.layer_of_module("repro.mux.tilemux") == "mux"
    assert layers.layer_of_module("repro.core.exps.figs") == "workload"
    assert layers.layer_of_module("repro.faults") == "noc"
    with pytest.raises(LookupError):
        layers.layer_of_module("perfbench.layers")


def _small_find(find_dirs=4, find_files=10):
    from repro.core.exps.fig9 import Fig9Point, run_fig9_point

    pt = Fig9Point("m3x", 1, find_dirs=find_dirs, find_files=find_files)
    return workloads.Workload(
        "find-small", "attribution self-test",
        lambda seed: [workloads.Point("m3x", pt, lambda: run_fig9_point(pt),
                                      ops=3)],
        serving=False)


class DelayedTracer(layers.Tracer):
    """Busy-waits for ``delay_s`` each time a span of ``layer`` is entered,
    inside the wrapper: host time only that layer should be charged."""

    def __init__(self, layer, delay_s):
        super().__init__()
        self.layer, self.delay_s, self.delayed = layer, delay_s, 0

    def enter(self, span):
        super().enter(span)
        if span.layer == self.layer:
            self.delayed += 1
            end = time.perf_counter() + self.delay_s
            while time.perf_counter() < end:
                pass


def _traced(wl, tr=None):
    tr = tr or layers.Tracer()
    with layers.instrument(tr):
        res = workloads.run_pass(wl, 1, tracer=tr)
    return tr, res


def test_traced_pass_reproduces_the_untraced_outputs_and_adds_up():
    wl = _small_find()
    plain = workloads.run_pass(wl, 1)
    tr, res = _traced(wl)
    assert res.signature() == plain.signature()
    total = sum(tr.self_s[k] for k in layers.LAYERS)
    assert abs(total - res.wall_s) <= 0.05 * res.wall_s
    for layer in ("sim", "noc", "dtu", "mux", "kernel", "services", "apps",
                  "workload"):
        assert tr.self_s[layer] > 0, layer
    # the wrappers are gone again after the traced pass
    from repro.dtu.dtu import Dtu
    assert not hasattr(Dtu.cmd_fetch, "__wrapped__")


def test_injected_delay_shows_up_in_its_own_layer_only():
    """A busy-wait inside the dtu wrapper must land in dtu.self_s, by
    about the injected amount, and leave every other layer alone."""
    wl = _small_find()
    base = min((_traced(wl)[0] for _ in range(3)),
               key=lambda tr: sum(tr.self_s.values()))
    delay_s = 100e-6
    slow, _ = _traced(wl, DelayedTracer("dtu", delay_s))
    injected = slow.delayed * delay_s
    assert injected > 0.3, "too little injected to tell from noise"
    rise = slow.self_s["dtu"] - base.self_s["dtu"]
    assert abs(rise - injected) <= 0.15 * injected, (rise, injected)
    for layer in layers.LAYERS:
        if layer != "dtu":
            moved = slow.self_s[layer] - base.self_s[layer]
            assert moved <= 0.05 * injected + 0.25 * base.self_s[layer], \
                (layer, moved, injected)


def test_a_changed_simulated_output_fails_the_run(monkeypatch):
    from repro.api import SystemConfig
    from repro.core.exps import figs

    calls = itertools.count()

    def drifting():
        figs.build_system(SystemConfig(kind="m3v", n_proc_tiles=1))
        return next(calls)

    wl = workloads.Workload(
        "drift", "a point whose output changes from pass to pass",
        lambda seed: [workloads.Point("drift", None, drifting, ops=1)],
        serving=False)
    monkeypatch.setitem(workloads.WORKLOADS, "drift", wl)
    monkeypatch.setattr(bench, "check_pass", lambda wl, res: [])
    monkeypatch.setattr(bench, "sim_metrics", lambda wl, res: {})
    monkeypatch.setattr(bench, "import_seconds", lambda: [0.0])
    # one pass fills the budget: its first point is repeated untimed
    out = bench.run_workload("drift", 1, seconds=0.0, trace=False)
    assert len(out.passes) == 1
    assert out.failures == ["repeated point 0 changed simulated outputs "
                            "(events 0 vs 0)"]
    out = bench.run_workload("drift", 1, seconds=5.0, trace=False)
    assert len(out.passes) > 1
    assert "untraced pass 0 changed simulated outputs" in out.failures[0]
    # the traced pass is held to the untraced outputs too
    out = bench.run_workload("drift", 1, seconds=0.0, trace=True)
    assert "traced pass 0 changed simulated outputs" in out.failures[0]


def test_a_lost_paper_shape_fails_fs_find():
    find = workloads.WORKLOADS["fs-find"]
    fake = workloads.PassResult([
        workloads.PointResult("m3v", 60.0, 0.0, 0.0, 1, {}, 3),
        workloads.PointResult("m3x", 50.0, 0.0, 0.0, 1, {}, 3)])
    assert any("paper's shape" in msg
               for msg in workloads.check_pass(find, fake))


def test_percentile_needs_ten_samples_beyond_it():
    vals = list(range(100))
    assert workloads.percentile(vals, 0.90) == 89.0
    assert workloads.percentile(vals[:50], 0.90) is None
    assert workloads.percentile(vals[:50], 0.50) == 24.0  # round(24.5)


def test_seed_changes_only_the_serving_inputs():
    for name, wl in workloads.WORKLOADS.items():
        a = [p.params for p in wl.points(1)]
        b = [p.params for p in wl.points(7)]
        if wl.serving:
            assert a != b, name
            assert {p.seed for p in a}.isdisjoint({p.seed for p in b})
        else:
            assert a == b, name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_passes_every_check(name):
    """One traced run per workload on a seed never used for tuning."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--spans-dir",
         ".perfbench-out/test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert "check failed" not in proc.stdout
    if name == "fs-find":
        assert "the seed changes nothing here" in proc.stdout
    spans = layers.load_spans(ROOT / ".perfbench-out" / "test" /
                              f"spans-{name}.bin")
    assert spans["n"] > 0 and "Dtu.cmd_fetch" in spans["names"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fs-find",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
