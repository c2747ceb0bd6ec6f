"""Experiment runners: one module per table/figure of the paper.

Each runner builds the right platform(s), executes the workload, and
returns plain result rows that the benchmark harness prints and
EXPERIMENTS.md records.  Paper-scale parameters are the defaults of
each ``*Params`` dataclass; benchmarks may shrink them for quick runs.

Every figure is additionally decomposed into pure, picklable *point
functions* (a frozen ``*Point`` config in, a plain result out) plus a
``reduce_*`` function that assembles the figure's result structure from
the point values in order.  ``run_*`` is exactly
``reduce(map(point_fn, points))``, so the serial entry points and the
parallel runner (:mod:`repro.runner`) execute identical code per point
— the basis of the serial/parallel parity guarantee.

The package re-exports nothing: import the figure module you run
(``from repro.core.exps.fig9 import Fig9Params``), so a run loads only
its own figure and not numpy, which only ``voice`` needs.
"""
