"""Error-path tests for controller system calls and kernel plumbing."""

import pytest

from repro.api import SystemConfig, build_system
from repro.dtu import Perm
from repro.kernel.memalloc import OutOfMemory, PhysAllocator, PhysRegion
from repro.kernel.protocol import Syscall
from repro.mux.api import RpcError


def platform():
    return build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1))


def run_act(plat, prog, tile=0, **kw):
    act = plat.run_proc(plat.controller.spawn("t", tile, prog, **kw))
    plat.sim.run_until_event(act.exit_event, limit=10**14)
    return act


def test_syscall_with_bad_selector_returns_error():
    plat = platform()
    out = {}

    def prog(api):
        try:
            yield from api.syscall(Syscall.ACTIVATE, {"sel": 999})
        except RpcError as exc:
            out["err"] = str(exc)

    run_act(plat, prog)
    assert "no capability" in out["err"]


def test_activate_sgate_before_rgate_fails():
    plat = platform()
    out = {}

    def prog(api):
        rsel = yield from api.syscall(Syscall.CREATE_RGATE, {})
        ssel = yield from api.syscall(Syscall.CREATE_SGATE,
                                      {"rgate_sel": rsel})
        try:
            yield from api.syscall(Syscall.ACTIVATE, {"sel": ssel})
        except RpcError as exc:
            out["err"] = str(exc)

    run_act(plat, prog)
    assert "not activated" in out["err"]


def test_derive_mgate_cannot_widen_permissions():
    plat = platform()
    out = {}

    def prog(api):
        msel = yield from api.syscall(Syscall.CREATE_MGATE,
                                      {"size": 4096, "perm": Perm.R})
        try:
            yield from api.syscall(Syscall.DERIVE_MGATE,
                                   {"mgate_sel": msel, "offset": 0,
                                    "size": 4096, "perm": Perm.RW})
        except RpcError as exc:
            out["err"] = str(exc)

    run_act(plat, prog)
    assert "widen" in out["err"]


def test_revoke_deactivates_endpoint():
    plat = platform()
    out = {}

    def prog(api):
        msel = yield from api.syscall(Syscall.CREATE_MGATE, {"size": 4096})
        ep = yield from api.syscall(Syscall.ACTIVATE, {"sel": msel})
        yield from api.write(ep, 0, b"live")
        yield from api.syscall(Syscall.REVOKE, {"sel": msel})
        try:
            yield from api.read(ep, 0, 4)
        except Exception as exc:
            out["err"] = type(exc).__name__

    run_act(plat, prog)
    assert out["err"] == "DtuFault"  # endpoint invalidated by revocation


def test_delegate_to_unknown_activity_fails():
    plat = platform()
    out = {}

    def prog(api):
        msel = yield from api.syscall(Syscall.CREATE_MGATE, {"size": 4096})
        try:
            yield from api.syscall(Syscall.DELEGATE,
                                   {"sel": msel, "target_act": 4242})
        except RpcError as exc:
            out["err"] = str(exc)

    run_act(plat, prog)
    assert "unknown activity" in out["err"]


def test_spawn_with_unregistered_pager_fails():
    plat = platform()
    from repro.kernel.controller import SyscallError

    def prog(api):
        yield from api.compute(1)

    with pytest.raises(SyscallError, match="not registered"):
        plat.run_proc(plat.controller.spawn("x", 0, prog, pager="ghost"))


def test_create_mgate_exhausts_memory():
    plat = platform()
    out = {}

    def prog(api):
        try:
            while True:  # the DRAM is finite
                yield from api.syscall(Syscall.CREATE_MGATE,
                                       {"size": 8 * 1024 * 1024})
        except RpcError as exc:
            out["err"] = str(exc)

    # OutOfMemory surfaces as a crash in the controller unless wrapped;
    # it propagates as a simulation error we can observe either way
    try:
        run_act(plat, prog)
    except OutOfMemory:
        out["err"] = "oom"
    assert out.get("err")


def test_phys_allocator_rejects_zero():
    alloc = PhysAllocator([PhysRegion(0, 0, 4096)])
    with pytest.raises(ValueError):
        alloc.alloc(0)


def test_ep_exhaustion_detected():
    plat = platform()
    ctrl = plat.controller
    from repro.kernel.controller import SyscallError

    with pytest.raises(SyscallError, match="out of endpoints"):
        for _ in range(200):
            ctrl.alloc_ep(0)
