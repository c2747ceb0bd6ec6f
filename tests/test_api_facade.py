"""The ``repro.api`` construction facade."""

import dataclasses

import pytest

from repro.api import (
    MetricsSpec,
    SYSTEM_KINDS,
    SystemConfig,
    TraceSpec,
    build_system,
)
from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform
from repro.dtu import Dtu, VDtu
from repro.kernel.controller import Controller
from repro.mux.m3x import M3xController, M3xMux
from repro.mux.tilemux import TileMux
from repro.sim import engine
from repro.tiles import BOOM, ROCKET


def _small(kind, **layers):
    return SystemConfig(kind=kind, n_proc_tiles=2, n_mem_tiles=1, **layers)


# -- building -----------------------------------------------------------------

# per kind: processing-tile DTU, processing-tile multiplexer, controller
_TILE_PIECES = {"m3v": (VDtu, TileMux, Controller),
                "m3": (VDtu, TileMux, Controller),
                "m3x": (Dtu, M3xMux, M3xController)}


@pytest.mark.parametrize("kind,cls", [("m3v", M3vPlatform),
                                      ("m3", M3Platform),
                                      ("m3x", M3xPlatform)])
def test_build_system_tiled_kinds(kind, cls):
    dtu_cls, mux_cls, ctrl_cls = _TILE_PIECES[kind]
    config = _small(kind)
    plat = build_system(config)
    assert type(plat) is cls
    assert plat.config is config
    for tile in plat.proc_tiles():
        assert type(tile.dtu) is dtu_cls
        assert type(tile.mux) is mux_cls
    assert type(plat.controller) is ctrl_cls
    assert plat.rebalancer is None
    assert plat.metrics is None and plat.spans is None
    assert plat.serving is None


def test_build_system_linux_kind():
    from repro.linuxsim import LinuxMachine

    config = SystemConfig(kind="linux", with_net=True)
    machine = build_system(config)
    assert type(machine) is LinuxMachine
    assert machine.config is config


def test_keyword_overrides_patch_the_config():
    plat = build_system(_small("m3v"), n_proc_tiles=3)
    assert plat.config.n_proc_tiles == 3
    assert len(plat.proc_tile_ids) == 3


def test_default_config_is_the_fpga_prototype():
    """Figure 4's FPGA shape; fig6/7/8/10 and voice build with it."""
    config = SystemConfig()
    assert config.kind == "m3v"
    assert config.n_proc_tiles == 8
    assert config.proc_core is BOOM
    assert config.controller_core is ROCKET
    assert config.n_mem_tiles == 2
    assert config.dram_bytes == 64 * 1024 * 1024


# -- the config object --------------------------------------------------------

def test_config_is_frozen():
    config = _small("m3v")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.kind = "m3x"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown system kind"):
        SystemConfig(kind="windows")
    assert set(SYSTEM_KINDS) == {"m3v", "m3", "m3x", "linux"}


def test_with_returns_a_derived_config():
    base = _small("m3v")
    derived = base.with_(kind="m3x", n_proc_tiles=5)
    assert (derived.kind, derived.n_proc_tiles) == ("m3x", 5)
    assert (base.kind, base.n_proc_tiles) == ("m3v", 2)


# -- layer precedence and cleanup ---------------------------------------------

def test_installed_tracer_wins_over_config_spec():
    from repro.sim.trace import capture

    with capture() as tracer:
        system = build_system(_small("m3v", trace=TraceSpec()))
        assert system.sim.tracer is tracer
    assert engine._default_tracer is None


def test_config_layers_do_not_leak_into_engine_defaults():
    system = build_system(_small("m3v", trace=TraceSpec(record=True),
                                 metrics=MetricsSpec()))
    assert engine._default_tracer is None
    # ...but the built simulator latched the tracer, which feeds metrics
    tracer = system.sim.tracer
    assert tracer is not None and system.metrics is not None
    assert system.metrics.on_event in tracer._subscribers


def test_metrics_spec_with_spans_attaches_a_collector():
    system = build_system(_small("m3v", metrics=MetricsSpec(spans=True)))
    assert system.spans is not None

    def prog(api):
        yield from api.compute(1000)

    act = system.run_proc(system.controller.spawn("worker", 0, prog))
    system.sim.run_until_event(act.exit_event, limit=10**12)
    system.spans.finish()
    assert system.spans.of_state("running")
    assert system.metrics.counter_value("tile0/tilemux/ctx_switches") > 0


# -- the legacy builders are gone ---------------------------------------------

def test_legacy_builders_removed():
    """The PR-4 ``build_m3v``/``build_m3``/``build_m3x`` shims are
    deleted; ``build_system`` is the only construction entry point."""
    import repro
    import repro.core
    import repro.core.platform as platform_mod

    for name in ("build_m3v", "build_m3", "build_m3x"):
        assert not hasattr(platform_mod, name)
        assert not hasattr(repro.core, name)
        with pytest.raises(AttributeError):
            getattr(repro, name)


# -- metrics must not perturb simulation --------------------------------------

@pytest.mark.golden
def test_fig6_golden_digest_unchanged_with_metrics_enabled():
    from repro.obs import capture_metrics
    from repro.testing.golden import digest, load_golden, record_trace

    with capture_metrics() as m:
        tracer = record_trace("fig6")
    assert digest(tracer) == load_golden("fig6")
    # and the metering actually happened
    assert m.counter_value("tile0/dtu/sends") > 0


@pytest.mark.golden
def test_fig8_golden_digest_unchanged_with_metrics_enabled():
    from repro.obs import capture_metrics
    from repro.testing.golden import digest, load_golden, record_trace

    with capture_metrics():
        tracer = record_trace("fig8")
    assert digest(tracer) == load_golden("fig8")
