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
from repro.core.platform import (
    M3Platform,
    M3vPlatform,
    M3xPlatform,
    PlatformConfig,
)
from repro.sim import engine


def _small(kind, **layers):
    return SystemConfig(kind=kind, n_proc_tiles=2, n_mem_tiles=1, **layers)


# -- building -----------------------------------------------------------------

@pytest.mark.parametrize("kind,cls", [("m3v", M3vPlatform),
                                      ("m3", M3Platform),
                                      ("m3x", M3xPlatform)])
def test_build_system_tiled_kinds(kind, cls):
    system = build_system(_small(kind))
    assert type(system.impl) is cls
    assert system.kind == kind
    assert system.platform is system.impl
    assert system.sim is system.impl.sim
    # attribute fall-through: a System drops in wherever a plat was used
    assert system.controller is system.impl.controller
    assert system.now_us == system.impl.now_us


def test_build_system_linux_kind():
    from repro.linuxsim import LinuxMachine

    system = build_system(SystemConfig(kind="linux", with_net=True))
    assert type(system.impl) is LinuxMachine
    assert system.machine is system.impl
    assert system.sim is system.impl.sim


def test_keyword_overrides_patch_the_config():
    system = build_system(_small("m3v"), n_proc_tiles=3)
    assert system.config.n_proc_tiles == 3
    assert len(system.platform.proc_tile_ids) == 3


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


def test_platform_config_round_trips_through_from_platform():
    pc = PlatformConfig(n_proc_tiles=3, n_mem_tiles=1)
    assert SystemConfig.from_platform("m3x", pc).platform_config() == pc


# -- layer precedence and cleanup ---------------------------------------------

def test_installed_tracer_wins_over_config_spec():
    from repro.sim.trace import capture

    with capture() as tracer:
        system = build_system(_small("m3v", trace=TraceSpec()))
        assert system.tracer is tracer
        assert system.sim.tracer is tracer
    assert engine._default_tracer is None


def test_config_layers_do_not_leak_into_engine_defaults():
    system = build_system(_small("m3v", trace=TraceSpec(record=True),
                                 metrics=MetricsSpec()))
    assert engine._default_tracer is None
    assert engine._default_metrics is None
    # ...but the built simulator latched them
    assert system.sim.tracer is system.tracer
    assert system.sim.metrics is system.metrics
    assert system.tracer is not None and system.metrics is not None


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


def _rpc_digest(build):
    """Trace digest of one remote ping-pong on a freshly built system."""
    from repro.core.exps.common import rendezvous
    from repro.sim.trace import capture
    from repro.testing.golden import digest

    env = {}
    result = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        msg = yield from api.recv(env["s_rep"])
        yield from api.reply(env["s_rep"], msg, data=msg.data * 2, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        value = yield from api.call(env["c_sep"], env["c_rep"],
                                    data=21, size=16)
        result["value"] = value

    with capture() as tracer:
        plat = build()
        ctrl = plat.controller
        s = plat.run_proc(ctrl.spawn("server", 1, server))
        c = plat.run_proc(ctrl.spawn("client", 0, client))
        sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s))
        env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
        plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["value"] == 42
    return digest(tracer)


@pytest.mark.parametrize("kind", ["m3v", "m3x"])
def test_from_platform_builds_the_same_system_as_direct_config(kind):
    def via_from_platform():
        pc = PlatformConfig(n_proc_tiles=4, n_mem_tiles=1)
        return build_system(SystemConfig.from_platform(kind, pc))

    def via_facade():
        return build_system(SystemConfig(kind=kind, n_proc_tiles=4,
                                         n_mem_tiles=1))

    assert _rpc_digest(via_from_platform) == _rpc_digest(via_facade)


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
