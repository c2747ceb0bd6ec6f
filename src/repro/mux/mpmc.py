"""A Virtual-Link-style MPMC queue as an alternative channel backend.

Per-pair DTU endpoints (``Controller.wire_channel``) give every
producer/consumer pair its own send gate, credits, and receive slots.
For fan-in traffic — many gateways feeding one balancer — that costs
O(pairs) endpoints and per-pair credit management, and a single slow
producer cannot lend its slack to the others.

Virtual-Link (PAPERS.md) instead places one bounded multi-producer
multi-consumer queue in shared memory: producers enqueue with a CAS on
the tail pointer, consumers dequeue with a CAS on the head, and the
capacity is shared across all producers.  :class:`VirtualLinkQueue`
models that design point on top of the simulator:

* every enqueue/dequeue pays the library cost plus one NoC round trip
  to the queue's home memory tile (slot write/read + pointer CAS);
* CAS contention is modeled by serializing operations at the home
  memory controller: concurrent operations queue behind each other for
  ``op_ps`` each, so heavy fan-in shows up as enqueue latency exactly
  like a contended cache line would;
* capacity is one shared bound — ``try_put`` returns False when the
  queue is full (backpressure for overload-aware producers), ``get``
  parks the consumer until an item arrives (the VL doorbell).

The queue lives on the *memory* plane: items never traverse the DTU
message path, so the user-plane fault injectors (:mod:`repro.faults`)
do not apply to it — consistent with the hardware model, where the
protected memory plane delivers or the machine checks.

**Scheduling caveat**: ``get`` parks the calling activity on a
simulation event while it *holds the core*; use it only from an
activity that does not share its tile.  A Virtual-Link queue raises no
vDTU core request, so nothing can ``block`` on it: a consumer that must
keep the core free polls ``try_get`` between sleeps, as the figS
balancer does.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.noc import NocParams
from repro.sim.channel import Channel

#: CAS + pointer update at the home memory controller; mirrors the
#: DTU's MMIO access cost scale (tens of ns), not a core-clock cost.
DEFAULT_OP_PS = 40_000

#: Wire bytes per pointer/slot access round trip (header + one slot).
_ACCESS_BYTES = 64


class VirtualLinkQueue:
    """One bounded MPMC queue homed on a memory tile.

    ``plat`` is any built tiled platform (duck-typed: ``sim`` and
    ``config.noc`` are used); ``capacity`` is the shared slot count.
    All public methods are activity-program generators taking the
    caller's :class:`~repro.mux.api.ActivityApi`.
    """

    def __init__(self, plat, capacity: int, name: str = "vlq",
                 noc: NocParams = None, op_ps: int = DEFAULT_OP_PS):
        self.sim = plat.sim
        self.name = name
        self.noc = noc if noc is not None else plat.config.noc
        self.op_ps = int(op_ps)
        self._chan = Channel(self.sim, capacity=capacity, name=name)
        self._busy_until = 0
        stats = getattr(plat, "stats", None)
        self._ctr_puts = stats.counter(f"mpmc/{name}/puts") if stats else None
        self._ctr_gets = stats.counter(f"mpmc/{name}/gets") if stats else None
        self._ctr_full = stats.counter(f"mpmc/{name}/full_rejects") \
            if stats else None

    def __len__(self) -> int:
        return len(self._chan)

    @property
    def full(self) -> bool:
        return self._chan.full

    # ------------------------------------------------------------- modeling

    def _round_trip_ps(self) -> int:
        """Core -> home memory tile -> core, header + one slot access."""
        per_link = self.noc.transfer_ps(_ACCESS_BYTES) + self.noc.hop_latency_ps
        return 2 * per_link

    def _occupy(self) -> int:
        """Serialize one CAS at the home memory controller.

        Returns the delay until this operation's slot completes: the
        round trip plus any queueing behind concurrent operations on
        the same pointer word (the contention model).
        """
        start = max(self.sim.now, self._busy_until)
        done = start + self.op_ps
        self._busy_until = done
        return (done - self.sim.now) + self._round_trip_ps()

    # ------------------------------------------------------------ operations

    def try_put(self, api, item: Any) -> Generator:
        """Enqueue if a slot is free; returns False when full.

        The producer pays the marshalling cost and the round trip even
        for a rejected enqueue — it had to read the tail pointer to
        learn the queue is full.
        """
        yield from api.compute(api.costs.lib_send)
        yield self._occupy()
        ok = self._chan.try_put(item)
        if ok:
            if self._ctr_puts is not None:
                self._ctr_puts.add()
        elif self._ctr_full is not None:
            self._ctr_full.add()
        return ok

    def put(self, api, item: Any) -> Generator:
        """Blocking enqueue: waits (holding the core) for a free slot."""
        yield from api.compute(api.costs.lib_send)
        yield self._occupy()
        yield self._chan.put(item)
        if self._ctr_puts is not None:
            self._ctr_puts.add()

    def get(self, api) -> Generator:
        """Dequeue; parks on the VL doorbell while empty (see caveat)."""
        yield from api.compute(api.costs.lib_fetch)
        item = yield self._chan.get()
        yield self._occupy()
        if self._ctr_gets is not None:
            self._ctr_gets.add()
        return item

    def try_get(self, api) -> Generator:
        """Dequeue one item, or return None when the queue is empty.

        Items must not be None (the figS requests never are); an empty
        poll still pays the fetch cost and head-pointer read.
        """
        yield from api.compute(api.costs.lib_fetch)
        ok, item = self._chan.try_get()
        if not ok:
            yield self._round_trip_ps()   # read an empty head pointer
            return None
        yield self._occupy()
        if self._ctr_gets is not None:
            self._ctr_gets.add()
        return item
