"""Pluggable TileMux scheduling policies (ROADMAP item 4).

TileMux historically hard-coded a preemptive round-robin over a
``deque``.  This module extracts that ready-queue behind a small policy
interface so the scheduling discipline becomes a frozen, comparable
configuration knob (:class:`SchedSpec` on ``repro.api.SystemConfig``)
instead of a code fork.  Two disciplines ship:

* ``rr`` — the original round-robin; byte-identical to the historical
  inline deque (the default, so every golden trace digest is preserved);
* ``edf`` — earliest deadline first.  Deadlines are *advisory* and come
  from the workload layer via :meth:`repro.mux.api.ActivityApi.set_deadline`
  (the serving stack stamps each request's deadline on its worker);
  activities without a deadline run FIFO behind all deadlined ones.

Both policies expose the ``deque`` verbs TileMux already used
(``append``/``popleft``/``remove``/``in``/``len``/truthiness) and differ
only in the pick, so the hot path stays the same shape for the default
policy.  Every activity gets TileMux's fixed timeslice.  Policies are
tile-local state: only the owning tile's TileMux picks from them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

__all__ = ["SCHED_POLICIES", "SchedSpec", "SchedPolicy", "RoundRobinPolicy",
           "EdfPolicy", "make_policy"]

SCHED_POLICIES = ("rr", "edf")


@dataclass(frozen=True)
class SchedSpec:
    """Frozen TileMux scheduling configuration.

    ``policy`` selects the discipline (see module docstring).  The
    default spec reproduces the historical scheduler exactly — same
    picks, same costs, same trace.
    """

    policy: str = "rr"            # rr | edf

    def __post_init__(self):
        if self.policy not in SCHED_POLICIES:
            raise ValueError(f"unknown sched policy {self.policy!r}; "
                             f"expected one of {SCHED_POLICIES}")


class SchedPolicy:
    """Base policy: the original round-robin deque.

    Subclasses override :meth:`popleft` (the pick); the queue container
    itself stays a deque so membership/removal verbs behave identically
    everywhere.
    """

    name = "rr"

    def __init__(self):
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


_POLICY_CLASSES = {
    "rr": RoundRobinPolicy,
    "edf": EdfPolicy,
}


def make_policy(spec: Optional[SchedSpec]) -> SchedPolicy:
    """Instantiate the ready-queue policy for one tile."""
    spec = spec if spec is not None else SchedSpec()
    return _POLICY_CLASSES[spec.policy]()
