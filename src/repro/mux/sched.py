"""Pluggable TileMux scheduling policies (ROADMAP item 4).

TileMux historically hard-coded a preemptive round-robin over a
``deque``.  This module extracts that ready-queue behind a small policy
interface so the scheduling discipline becomes a frozen, comparable
configuration knob (:class:`SchedSpec` on ``repro.api.SystemConfig``)
instead of a code fork.  Four disciplines ship:

* ``rr`` — the original round-robin; byte-identical to the historical
  inline deque (the default, so every golden trace digest is preserved);
* ``edf`` — earliest deadline first.  Deadlines are *advisory* and come
  from the workload layer via :meth:`repro.mux.api.ActivityApi.set_deadline`
  (the serving stack stamps each request's deadline on its worker);
  activities without a deadline run FIFO behind all deadlined ones;
* ``lottery`` — proportional-share lottery scheduling over per-activity
  ``tickets``; the draw stream is tile-local and seeded, so results are
  independent of hash seed;
* ``autotune`` — round-robin order with a per-activity timeslice that
  adapts to observed behaviour: an activity that burns consecutive full
  slices (CPU-bound) has its slice doubled to amortize context-switch
  cost, one that traps early (I/O-bound) has it halved, both clamped to
  ``[slice_min_us, slice_max_us]``.

All policies expose the ``deque`` verbs TileMux already used
(``append``/``popleft``/``remove``/``in``/``len``/truthiness) plus the
scheduling hooks (``slice_ps``/``on_preempt``/``on_trap``), so the hot
path stays the same shape for the default policy.  Policies are
tile-local state: only the owning tile's TileMux picks from them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

__all__ = ["SCHED_POLICIES", "SchedSpec", "SchedPolicy", "RoundRobinPolicy",
           "EdfPolicy", "LotteryPolicy", "AutotunePolicy", "make_policy"]

SCHED_POLICIES = ("rr", "edf", "lottery", "autotune")


@dataclass(frozen=True)
class SchedSpec:
    """Frozen TileMux scheduling configuration.

    ``policy`` selects the discipline (see module docstring); ``seed``
    feeds the lottery draw stream (combined with the tile id, so every
    tile draws independently); the slice bounds apply to ``autotune``
    only.  The default spec reproduces the historical scheduler
    exactly — same picks, same costs, same trace.
    """

    policy: str = "rr"            # rr | edf | lottery | autotune
    seed: int = 1                 # lottery draw stream seed
    slice_min_us: float = 125.0   # autotune lower clamp
    slice_max_us: float = 4000.0  # autotune upper clamp

    def __post_init__(self):
        if self.policy not in SCHED_POLICIES:
            raise ValueError(f"unknown sched policy {self.policy!r}; "
                             f"expected one of {SCHED_POLICIES}")
        if self.slice_min_us <= 0 or self.slice_max_us < self.slice_min_us:
            raise ValueError(f"bad autotune slice bounds "
                             f"[{self.slice_min_us}, {self.slice_max_us}] us")


class SchedPolicy:
    """Base policy: the original round-robin deque.

    Subclasses override :meth:`popleft` (the pick) and the hooks; the
    queue container itself stays a deque so membership/removal verbs
    behave identically everywhere.
    """

    name = "rr"

    def __init__(self, spec: SchedSpec, tile_id: int):
        self.spec = spec
        self.tile_id = tile_id
        self._q: Deque = deque()

    # -- deque verbs (TileMux's historical ready-queue surface) ------------

    def append(self, act) -> None:
        self._q.append(act)

    def popleft(self):
        return self._q.popleft()

    def remove(self, act) -> None:
        self._q.remove(act)

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    def __contains__(self, act) -> bool:
        return act in self._q

    def __iter__(self):
        return iter(self._q)

    # -- scheduling hooks ---------------------------------------------------

    def slice_ps(self, act, base_ps: int) -> int:
        """The timeslice to grant ``act`` on this dispatch."""
        return base_ps

    def on_preempt(self, act) -> bool:
        """``act`` burned its whole slice; True if the policy adapted."""
        return False

    def on_trap(self, act) -> bool:
        """``act`` gave up the core before its slice ended (block, yield
        or sleep TMCall); True if the policy adapted."""
        return False


RoundRobinPolicy = SchedPolicy


class EdfPolicy(SchedPolicy):
    """Earliest deadline first over the advisory ``deadline_ps``.

    Ties (equal deadlines, and all no-deadline activities) resolve in
    FIFO order — deque position is the tiebreak, so a pure-EDF queue
    with no deadlines degenerates to exact round-robin.
    """

    name = "edf"

    _NO_DEADLINE = float("inf")

    def popleft(self):
        q = self._q
        best_i = 0
        best_d = q[0].deadline_ps
        if best_d is None:
            best_d = self._NO_DEADLINE
        for i in range(1, len(q)):
            d = q[i].deadline_ps
            if d is None:
                d = self._NO_DEADLINE
            if d < best_d:
                best_i, best_d = i, d
        act = q[best_i]
        del q[best_i]
        return act


class LotteryPolicy(SchedPolicy):
    """Proportional-share lottery over per-activity ``tickets``.

    The RNG is a private, seeded stream keyed on (tile, spec.seed):
    draws depend only on the deterministic sequence of picks on this
    tile, never on hash seed.
    """

    name = "lottery"

    def __init__(self, spec: SchedSpec, tile_id: int):
        super().__init__(spec, tile_id)
        self._rng = random.Random(f"sched:{tile_id}:{spec.seed}")

    def popleft(self):
        q = self._q
        if len(q) == 1:
            return q.popleft()
        total = 0
        for act in q:
            total += act.tickets
        draw = self._rng.randrange(total)
        for i, act in enumerate(q):
            draw -= act.tickets
            if draw < 0:
                del q[i]
                return act
        raise AssertionError("lottery draw out of range")  # pragma: no cover


class AutotunePolicy(SchedPolicy):
    """Round-robin order with per-activity timeslice adaptation.

    The adapted slice rides on the activity (``sched_slice_ps``) so it
    survives live migration to another tile.
    """

    name = "autotune"

    def __init__(self, spec: SchedSpec, tile_id: int):
        super().__init__(spec, tile_id)
        self._min_ps = round(spec.slice_min_us * 1_000_000)
        self._max_ps = round(spec.slice_max_us * 1_000_000)

    def _clamp(self, ps: int) -> int:
        return min(max(ps, self._min_ps), self._max_ps)

    def slice_ps(self, act, base_ps: int) -> int:
        if act.sched_slice_ps is None:
            act.sched_slice_ps = self._clamp(base_ps)
        return act.sched_slice_ps

    def on_preempt(self, act) -> bool:
        cur = act.sched_slice_ps
        if cur is None:
            return False
        grown = self._clamp(cur * 2)
        if grown == cur:
            return False
        act.sched_slice_ps = grown
        return True

    def on_trap(self, act) -> bool:
        cur = act.sched_slice_ps
        if cur is None:
            return False
        shrunk = self._clamp(cur // 2)
        if shrunk == cur:
            return False
        act.sched_slice_ps = shrunk
        return True


_POLICY_CLASSES = {
    "rr": RoundRobinPolicy,
    "edf": EdfPolicy,
    "lottery": LotteryPolicy,
    "autotune": AutotunePolicy,
}


def make_policy(spec: Optional[SchedSpec], tile_id: int) -> SchedPolicy:
    """Instantiate the ready-queue policy for one tile."""
    spec = spec if spec is not None else SchedSpec()
    return _POLICY_CLASSES[spec.policy](spec, tile_id)
