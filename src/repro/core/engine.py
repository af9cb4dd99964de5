"""Discrete-event simulation engine.

HolDCSim is an event-driven simulator; this module is its heart.  The engine
keeps a binary heap of pending events ordered by ``(time, sequence)`` so that
execution is globally time-ordered and FIFO-stable among events scheduled for
the same instant.

Two scheduling surfaces share the heap:

* :meth:`Engine.post` / :meth:`Engine.post_at` — the **fast path**.  The heap
  entry is a plain ``(time, seq, callback, args)`` tuple; nothing else is
  allocated and heap sifts compare tuples in C.  Use it for the
  overwhelmingly common fire-and-forget events (task completions, arrivals,
  packet hops, periodic controller ticks).
* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` — the **cancellable
  path**.  An :class:`EventHandle` is materialised only here, for callers
  that keep the return value to :meth:`EventHandle.cancel` later (delay
  timers, LPI timers, wake races).  The heap entry is ``(time, seq, None,
  handle)`` so entries stay homogeneous tuples; because ``seq`` is unique,
  comparisons never reach the payload slots.

Cancellation is lazy (the entry stays queued and is skipped when popped),
which keeps ``cancel()`` O(1).  Policies that cancel constantly — delay
timers rearm on every task — would otherwise grow the heap without bound, so
the engine compacts it whenever cancelled entries outnumber live ones (and
the heap is big enough for compaction to pay for itself).

Simulating a >20K-server farm (Table I of the paper) pushes millions of
events through this loop; one private loop behind :meth:`Engine.run` and
:meth:`Engine.step` inlines the pop-dispatch cycle and avoids allocation
beyond the heap entry itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

#: Compaction is considered once the heap holds at least this many entries;
#: below it, lazily dropping cancelled entries on pop is cheaper than a sweep.
COMPACTION_MIN_HEAP = 64

_Entry = Tuple[float, int, Optional[Callable[..., Any]], Any]


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used inconsistently.

    Examples: scheduling an event in the past, or re-entering :meth:`Engine.run`
    from inside an event callback.
    """


class EventHandle:
    """A cancellable scheduled event.

    Instances are created by :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at` and should not be constructed directly.  The
    only public operation is :meth:`cancel`; a cancelled event stays in the
    heap but is skipped when popped (lazy deletion), which keeps cancellation
    O(1).  The owning engine counts cancellations and periodically compacts
    the heap when they dominate.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Cancel this event; cancelling twice (or after firing) is a no-op."""
        if self.cancelled:
            return
        still_queued = self.callback is not None
        self.cancelled = True
        # Drop references so cancelled timers do not pin large object graphs
        # (servers, switches) until their heap entry is finally popped.
        self.callback = None
        self.args = ()
        if still_queued and self._engine is not None:
            self._engine._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled nor fired."""
        return not self.cancelled and self.callback is not None

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


class Engine:
    """The discrete-event simulation core.

    Typical use::

        engine = Engine()
        engine.post(1.0, server.tick)          # fire-and-forget (fast path)
        handle = engine.schedule(1.5, server.wake)   # cancellable
        engine.run(until=3600.0)

    Invariants (covered by property-based tests):

    * callbacks execute in non-decreasing time order;
    * two events scheduled for the same time run in scheduling order,
      regardless of which scheduling surface queued them;
    * ``engine.now`` equals the firing event's timestamp inside callbacks.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0  # cancelled EventHandles still sitting in the heap
        self._dispatch_hook: Optional[Callable[[float, Callable[..., Any], tuple], None]] = None
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    @property
    def dispatch_hook(self) -> Optional[Callable[[float, Callable[..., Any], tuple], None]]:
        """The installed dispatch hook, or None (the fast path)."""
        return self._dispatch_hook

    def set_dispatch_hook(
        self, hook: Optional[Callable[[float, Callable[..., Any], tuple], None]]
    ) -> None:
        """Install ``hook(time, callback, args)`` around event dispatch.

        The hook *replaces* the ``callback(*args)`` call and is responsible
        for invoking it (so a profiler can time exactly the dispatch).  Pass
        None to uninstall.  The loop reads the hook once per :meth:`run` or
        :meth:`step` call and tests it per event; with no hook installed
        the telemetry microbench in ``repro bench`` holds dispatch to within
        its gate of the committed baseline.  Installing a hook while
        :meth:`run` is executing takes effect on the next call.
        """
        if hook is not None and not callable(hook):
            raise TypeError(f"dispatch hook must be callable or None, got {hook!r}")
        self._dispatch_hook = hook

    # ------------------------------------------------------------------
    # Scheduling — fast (fire-and-forget) path
    # ------------------------------------------------------------------
    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``; not cancellable.

        This is the hot path: the heap entry is a plain tuple and no handle
        is allocated.  Use :meth:`schedule_at` when the event may need to be
        cancelled.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds; not cancellable."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Scheduling — cancellable path
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        handle = EventHandle(time, self._seq, callback, args, self)
        heapq.heappush(self._heap, (time, self._seq, None, handle))
        self._seq += 1
        return handle

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain.

        Unlike :meth:`run`, a step ignores an earlier :meth:`stop`: the
        caller asked for exactly one event.
        """
        return self._loop(None, None, True)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the next event is strictly later than this time
                (the clock is advanced to ``until``).  ``None`` drains the queue.
            max_events: safety valve; execute at most this many events, then
                raise :class:`SimulationError` if more remain (useful to catch
                accidental event storms in tests).  Draining the queue in
                exactly ``max_events`` events is not an error.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        try:
            self._loop(until, max_events)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def _loop(
        self, until: Optional[float], max_events: Optional[int], once: bool = False
    ) -> bool:
        """Pop and dispatch events; the one loop behind :meth:`run` and :meth:`step`.

        Returns True right after an event when ``once`` or when that event
        called :meth:`stop`, and False once no event at or before ``until``
        remains.  The dispatch hook is read once per call, so installing one
        mid-run takes effect on the next call.
        """
        first = self.events_executed
        pop = heapq.heappop
        hook = self._dispatch_hook
        while True:
            # Re-read the heap each iteration: compaction (triggered by
            # cancellations inside callbacks) rebinds the list.
            heap = self._heap
            while heap and heap[0][2] is None and heap[0][3].cancelled:
                pop(heap)
                self._cancelled -= 1
            if not heap or (until is not None and heap[0][0] > until):
                return False
            if max_events is not None and self.events_executed - first >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _seq, callback, args = pop(heap)
            if callback is None:
                handle: EventHandle = args
                callback, args = handle.callback, handle.args
                # Mark fired before invoking so `pending` is False inside
                # the callback.
                handle.callback = None
                handle.args = ()
            self._now = time
            self.events_executed += 1
            if hook is None:
                callback(*args)
            else:
                hook(time, callback, args)
            if once or self._stopped:
                return True

    def run_until(self, t: float) -> None:
        """Advance the clock to exactly ``t``, executing events **before** it.

        This is the exclusive-horizon window primitive used by the sharded
        runtime (:mod:`repro.parallel`): events with timestamps strictly less
        than ``t`` execute, events at exactly ``t`` stay queued for the next
        window, and the clock lands on ``t`` so barrier-time work (boundary
        message delivery) runs with ``now == t`` ahead of any event at ``t``.

        Implemented as :meth:`run` with an inclusive horizon one ulp below
        ``t`` — the per-event dispatch loop is untouched, so windowed
        execution pays nothing on the hot path.
        """
        if t < self._now:
            raise SimulationError(
                f"cannot run_until t={t} before current time t={self._now}"
            )
        if t > self._now:
            self.run(until=math.nextafter(t, -math.inf))
        if not self._stopped and self._now < t:
            self._now = t

    def stop(self) -> None:
        """Stop the loop after the current event; usable from callbacks."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True if the last :meth:`run` ended via an explicit :meth:`stop`.

        Invariant audits use this to distinguish "queue drained" from
        "deliberately halted with work outstanding" at simulation end.
        """
        return self._stopped

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support for whole-world checkpoints.

        The dispatch hook is observer wiring (a profiler or trace recorder,
        possibly holding open file handles) — never simulated state — so it
        is dropped; a restored run re-installs its own observers.
        """
        state = self.__dict__.copy()
        state["_dispatch_hook"] = None
        state["_running"] = False
        return state

    def snapshot(self) -> dict:
        """Capture the engine's complete dynamic state for checkpointing.

        Returns a plain dict (clock, sequence counter, heap entries,
        cancellation bookkeeping, event count) that :meth:`restore` accepts.
        The heap entries are shared, not copied: callbacks and
        :class:`EventHandle` objects are aliased by the snapshot, so a
        durable checkpoint must pickle the engine *together with* the model
        objects those callbacks close over — one ``pickle.dumps`` of the
        whole world, which is exactly what :mod:`repro.checkpoint` does.
        The dispatch hook is deliberately excluded: it is observer wiring
        (telemetry/profiling), not simulated state.
        """
        if self._running:
            raise SimulationError("cannot snapshot while Engine.run() is executing")
        return {
            "now": self._now,
            "seq": self._seq,
            "heap": list(self._heap),
            "cancelled": self._cancelled,
            "stopped": self._stopped,
            "events_executed": self.events_executed,
        }

    def restore(self, state: dict) -> None:
        """Adopt a state captured by :meth:`snapshot`.

        The heap list is re-heapified defensively (snapshot order is already
        a valid heap, so this is O(n) and changes nothing) and the installed
        dispatch hook is left untouched — a restored run re-attaches its own
        observers.
        """
        if self._running:
            raise SimulationError("cannot restore while Engine.run() is executing")
        self._now = float(state["now"])
        self._seq = int(state["seq"])
        self._heap = list(state["heap"])
        heapq.heapify(self._heap)
        self._cancelled = int(state["cancelled"])
        self._stopped = bool(state["stopped"])
        self.events_executed = int(state["events_executed"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(n); for tests)."""
        return sum(
            1
            for entry in self._heap
            if entry[2] is not None or entry[3].pending
        )

    def queued_count(self) -> int:
        """Raw heap length including lazily-deleted entries (O(1))."""
        return len(self._heap)

    def _note_cancelled(self) -> None:
        """A queued handle was cancelled; compact when garbage dominates."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap) >= COMPACTION_MIN_HEAP:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Entries carry their original ``(time, seq)`` keys, so re-heapifying
        the survivors preserves both time ordering and same-time FIFO order.
        """
        self._heap = [
            entry
            for entry in self._heap
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.6f} queued={len(self._heap)}>"
