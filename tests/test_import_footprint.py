"""Import footprint of a figure run: importing the serving and fig9
experiments (the modules the benchmark workloads run) loads only those
figure modules.  numpy belongs to the voice experiment and the Rice
compressor, and the Linux baseline to the microbenchmark figures; a
package-level re-export that drags either in shows up here."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# the benchmark's setup imports (perfbench/bench.py IMPORTS)
WORKLOAD_IMPORTS = "repro.api, repro.core.exps.figs, repro.core.exps.fig9"

# experiment modules a figS/fig9 run needs
OWN_EXPS = {"repro.core.exps", "repro.core.exps.common",
            "repro.core.exps.figs", "repro.core.exps.fig9"}

_PROBE = """
import sys
import {imports}
print("\\n".join(sorted(sys.modules)))
"""


def loaded_after(imports: str) -> set:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(imports=imports)],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_workload_imports_skip_numpy_linuxsim_and_sibling_figures():
    mods = loaded_after(WORKLOAD_IMPORTS)
    assert "repro.core.exps.figs" in mods and "repro.core.exps.fig9" in mods
    assert "numpy" not in mods
    assert not any(m == "repro.linuxsim" or m.startswith("repro.linuxsim.")
                   for m in mods)
    siblings = sorted(m for m in mods if m.startswith("repro.core.exps.")
                      and m not in OWN_EXPS)
    assert siblings == []


def test_voice_experiment_does_load_numpy():
    """Positive control: the probe sees numpy when a user really needs it."""
    assert "numpy" in loaded_after("repro.core.exps.voice")
