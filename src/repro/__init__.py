"""repro — a reproduction of "Efficient and Scalable Core Multiplexing
with M3v" (Asmussen et al., ASPLOS '22).

A cycle-approximate discrete-event simulation of the M3v tiled
platform (NoC, vDTU, TileMux, controller, OS services), the M3x
baseline it improves on, and the single-tile Linux baseline — plus the
paper's workloads and a benchmark harness that regenerates every table
and figure of the evaluation.  See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Entry points:

* :func:`repro.api.build_system` — assemble any platform through the
  facade (the only construction entry point);
* :mod:`repro.core.exps` — one experiment runner per table/figure;
* :mod:`repro.linuxsim` — the Linux baseline machine.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
