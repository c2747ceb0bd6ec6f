"""The bench subsystem: schema, determinism, and the regression gate.

Three layers, matching how ``scripts/check_perf.sh`` can fail:

* **schema** — every emitted BENCH document validates, and
  :func:`repro.bench.validate` rejects structurally broken ones;
* **determinism** — simulated-event counts are a pure function of the
  workload: identical across runs, PYTHONHASHSEEDs, and processes
  (this is what lets the gate treat a count mismatch as a hard error);
* **gate** — :func:`repro.bench.compare` passes noise and improvements,
  fails big throughput drops and any change in event counts; the shell
  wrapper trips end-to-end on a sleep-injected regression via
  ``REPRO_BENCH_HANDICAP_S``.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import bench

REPO = Path(__file__).resolve().parents[1]

COUNT_SNIPPET = """\
from repro.bench import churn_workload
print(churn_workload(4, 300))
"""


def _committed_doc():
    """A realistic committed document to diff against."""
    return {
        "schema": bench.SCHEMA,
        "kind": "figs",
        "fingerprint": bench.fingerprint(),
        "benches": {
            "fig9_quick": {"wall_s": 0.4, "events": 70440,
                           "events_per_sec": 176100.0, "runs": 3},
        },
    }


# -- schema -------------------------------------------------------------------

def test_emitted_engine_document_validates():
    doc = bench.run_engine_bench(runs=1)
    assert bench.validate(doc) == []
    assert doc["schema"] == "repro-bench/1"
    # the entries scripts/check_perf.sh requires, and nothing else
    assert set(doc["benches"]) == {"engine_churn", "fig9_quick",
                                   "fig9_64_serial"}


def test_written_files_roundtrip(tmp_path):
    paths = bench.write_bench_files(tmp_path, runs=1, which="figs")
    assert [p.name for p in paths] == [bench.FIGS_FILE]
    with open(paths[0]) as fh:
        doc = json.load(fh)
    assert bench.validate(doc) == []
    for name in ("fig6_quick", "fig8_quick", "fig9_quick", "figS_quick"):
        assert doc["benches"][name]["events"] > 0


@pytest.mark.parametrize("mutate,expect", [
    (lambda d: d.update(schema="bogus/9"), "schema"),
    (lambda d: d.update(kind="nope"), "kind"),
    (lambda d: d.pop("fingerprint"), "fingerprint"),
    (lambda d: d.update(benches={}), "no benches"),
    (lambda d: d["benches"]["fig9_quick"].pop("events"), "events"),
    (lambda d: d["benches"]["fig9_quick"].update(events=0), "nonpositive"),
])
def test_validate_rejects_broken_documents(mutate, expect):
    doc = _committed_doc()
    mutate(doc)
    problems = bench.validate(doc)
    assert problems and any(expect in p for p in problems), problems


# -- determinism --------------------------------------------------------------

def test_churn_event_count_is_exact_and_repeatable():
    assert bench.churn_workload(4, 300) == bench.churn_workload(4, 300)


def test_event_counts_identical_across_hash_seeds():
    counts = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ,
                   PYTHONHASHSEED=seed,
                   PYTHONPATH=str(REPO / "src"))
        out = subprocess.run([sys.executable, "-c", COUNT_SNIPPET],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        counts.add(int(out.stdout.strip()))
    assert len(counts) == 1, f"event count varies with hash seed: {counts}"


def test_measure_raises_on_nondeterministic_workload():
    from repro.sim import Simulator

    drift = [100, 100, 105]  # third run schedules extra events

    def workload():
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield 1

        sim.process(ticker(drift.pop(0)), name="drift")
        sim.run()

    with pytest.raises(RuntimeError, match="not deterministic"):
        bench.measure("drifty", workload, runs=2)


def test_handicap_parses_global_and_per_bench(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_HANDICAP_S", "0.5")
    assert bench._handicap_s("fig9_quick") == 0.5
    monkeypatch.setenv("REPRO_BENCH_HANDICAP_S", "fig9_quick:0.25, other:1")
    assert bench._handicap_s("fig9_quick") == 0.25
    assert bench._handicap_s("engine_churn") == 0.0
    monkeypatch.delenv("REPRO_BENCH_HANDICAP_S")
    assert bench._handicap_s("fig9_quick") == 0.0


# -- gate logic ---------------------------------------------------------------

def _fresh(wall_scale=1.0, events_delta=0):
    doc = copy.deepcopy(_committed_doc())
    b = doc["benches"]["fig9_quick"]
    b["wall_s"] = round(b["wall_s"] * wall_scale, 6)
    b["events"] += events_delta
    b["events_per_sec"] = round(b["events"] / b["wall_s"], 1)
    return doc


def test_compare_passes_identical_and_improved_runs():
    committed = _committed_doc()
    assert bench.compare(committed, _fresh()) == []
    assert bench.compare(committed, _fresh(wall_scale=0.5)) == []


def test_compare_tolerates_noise_within_threshold():
    assert bench.compare(_committed_doc(), _fresh(wall_scale=1.2)) == []


def test_compare_fails_past_threshold():
    problems = bench.compare(_committed_doc(), _fresh(wall_scale=1.6))
    assert problems and "regressed" in problems[0]


def test_compare_hard_fails_on_event_count_change():
    # even when *faster*, changed work is flagged for a deliberate re-baseline
    problems = bench.compare(_committed_doc(),
                             _fresh(wall_scale=0.5, events_delta=-10))
    assert problems and "event count changed" in problems[0]


def test_compare_flags_missing_bench():
    fresh = _fresh()
    del fresh["benches"]["fig9_quick"]
    problems = bench.compare(_committed_doc(), fresh)
    assert any("missing from fresh run" in p for p in problems)


# -- the shell gate, end to end ----------------------------------------------

def _run_gate(extra_env):
    env = dict(os.environ, PERF_RUNS="1", **extra_env)
    return subprocess.run(["sh", str(REPO / "scripts" / "check_perf.sh")],
                          capture_output=True, text=True, env=env)


@pytest.mark.slow
def test_check_perf_trips_on_injected_regression(tmp_path):
    out = _run_gate({"REPRO_BENCH_HANDICAP_S": "fig9_quick:2.0",
                     "PERF_OUT_DIR": str(tmp_path)})
    assert out.returncode != 0
    assert "PERF GATE FAILED" in out.stdout, out.stdout + out.stderr
    assert "fig9_quick" in out.stdout


@pytest.mark.slow
def test_check_perf_passes_without_handicap(tmp_path):
    # a wide threshold isolates the gate's logic from machine noise;
    # the event-count hard check is threshold-independent either way
    out = _run_gate({"PERF_THRESHOLD": "0.9",
                     "PERF_OUT_DIR": str(tmp_path)})
    assert out.returncode == 0, out.stdout + out.stderr
    assert "perf gate passed" in out.stdout
