"""The repository's benchmark, as one command.

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 45 --trace 0

measures one workload and prints its metrics by name, with units; the
last line of standard output is the JSON result (``--trace 0``: the
end-to-end metrics of BENCHMARK.json, ``--trace 1``: the per-layer
ones).  ``--workload all`` runs every workload, each in its own process,
with ``--trace 1`` by default so that every metric is printed.  The exit
code is non-zero when any output check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("serve-light", "serve-overload", "fs-find")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--spans-dir", default=".perfbench-out",
                    help="where the traced run writes its spans "
                         "(relative to the repository root)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        trace = 1 if args.trace is None else args.trace
        codes = []
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--spans-dir", args.spans_dir]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    bench.scrub_env()
    trace = bool(args.trace)
    outcome = bench.Outcome(args.workload, args.seed, trace)
    try:
        outcome = bench.run_workload(args.workload, args.seed, args.seconds,
                                     trace, spans_dir=ROOT / args.spans_dir)
    except Exception:  # a crashed point is a failed output check
        traceback.print_exc()
        outcome.failures.append("the workload raised; see the traceback")
    else:
        bench.report(outcome)
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
