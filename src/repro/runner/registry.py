"""The sweep registry: a figure as data.

A :class:`Sweep` declares an experiment as a list of points plus a
reducer: ``points(params)`` expands sweep-level parameters into frozen
per-point configs, ``point_fn(config)`` simulates exactly one point
(pure, picklable — it builds its own platforms), and
``reduce(params, values)`` assembles the figure's result structure from
the point values *in points order*.  The scheduler
(:mod:`repro.runner.scheduler`) only ever sees this interface, so
fanning a figure out over worker processes cannot change its results.

``fingerprint_paths`` lists the source files whose contents are hashed
into every cache key of the sweep (:mod:`repro.runner.cache`); by
default the experiment module itself plus the cost calibration
(``repro/tiles/costs.py``) — the two inputs that determine simulated
numbers for a fixed config.  Editing either re-simulates the sweep's
points; unrelated sweeps keep their cache entries.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Sweep", "get_sweep", "register", "sweep_names", "unregister"]


@dataclass(frozen=True)
class Sweep:
    name: str
    points: Callable[[Any], List[Any]]
    point_fn: Callable[[Any], Any]
    reduce: Callable[[Any, List[Any]], Any]
    params_cls: Optional[type] = None
    fingerprint_paths: Tuple[str, ...] = field(default_factory=tuple)


SWEEPS: Dict[str, Sweep] = {}
_BUILTIN_LOADED = False


def register(sweep: Sweep, replace: bool = False) -> Sweep:
    if sweep.name in SWEEPS and not replace:
        raise ValueError(f"sweep {sweep.name!r} already registered")
    SWEEPS[sweep.name] = sweep
    return sweep


def unregister(name: str) -> None:
    SWEEPS.pop(name, None)


def default_fingerprint_paths(point_fn: Callable) -> Tuple[str, ...]:
    """The experiment module defining ``point_fn`` + the cost model."""
    from repro.tiles import costs

    return (inspect.getsourcefile(point_fn), costs.__file__)


def get_sweep(name: str) -> Sweep:
    _load_builtin()
    try:
        return SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; known: "
                       f"{', '.join(sorted(SWEEPS))}") from None


def sweep_names() -> List[str]:
    _load_builtin()
    return sorted(SWEEPS)


def _load_builtin() -> None:
    """Register the paper's figures on first use (import-cycle safe)."""
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    from repro.core.exps import (fig6, fig7, fig8, fig9, fig10, figr,
                                 figs, voice)

    builtin = [
        ("fig6", fig6.Fig6Params, fig6.fig6_points, fig6.run_fig6_point,
         fig6.reduce_fig6),
        ("fig7", fig7.Fig7Params, fig7.fig7_points, fig7.run_fig7_point,
         fig7.reduce_fig7),
        ("fig8", fig8.Fig8Params, fig8.fig8_points, fig8.run_fig8_point,
         fig8.reduce_fig8),
        ("fig9", fig9.Fig9Params, fig9.fig9_points, fig9.run_fig9_point,
         fig9.reduce_fig9),
        ("fig10", fig10.Fig10Params, fig10.fig10_points,
         fig10.run_fig10_point, fig10.reduce_fig10),
        ("voice", voice.VoiceParams, voice.voice_points,
         voice.run_voice_point, voice.reduce_voice),
        ("figR", figr.FigRParams, figr.figr_points, figr.run_figr_point,
         figr.reduce_figr),
        ("figS", figs.FigSParams, figs.figs_points, figs.run_figs_point,
         figs.reduce_figs),
    ]
    for name, params_cls, points, point_fn, reduce in builtin:
        if name in SWEEPS:       # a test replaced it before first load
            continue
        paths = default_fingerprint_paths(point_fn)
        if name == "figR":
            # figR numbers also depend on the injectors + recovery layer
            from repro import faults
            from repro.mux import recovery

            paths = paths + (faults.__file__, recovery.__file__)
        elif name == "figS":
            # figS additionally depends on the serving stack, the
            # open-loop workload, the MPMC channel backend, the
            # scheduling/placement layer behind the adaptive arms, and
            # (like figR) the fault/recovery layer it runs under
            from repro import faults
            from repro.kernel import rebalance
            from repro.mux import mpmc, recovery
            from repro.mux import sched as mux_sched
            from repro.services import serving as serving_stack
            from repro.workloads import serving as serving_wl

            paths = paths + (faults.__file__, recovery.__file__,
                             serving_stack.__file__, serving_wl.__file__,
                             mpmc.__file__, mux_sched.__file__,
                             rebalance.__file__)
        register(Sweep(name=name, points=points, point_fn=point_fn,
                       reduce=reduce, params_cls=params_cls,
                       fingerprint_paths=paths))
