"""Top-level system assembly and experiment plumbing.

* :mod:`repro.core.platform` — builds complete M3v, M3 and M3x
  platforms (tiles, NoC, DTUs, multiplexers, controller) from a
  :class:`~repro.api.SystemConfig`;
* :mod:`repro.core.exps` — one experiment runner per table/figure;
* :mod:`repro.core.report` — ASCII figures and the EXPERIMENTS.md
  paper-vs-measured report.
"""

from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform

__all__ = ["M3Platform", "M3vPlatform", "M3xPlatform"]
