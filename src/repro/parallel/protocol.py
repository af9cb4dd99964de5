"""Conservative time-window protocol primitives.

The sharded runtime advances every partition in lock-step windows of width
``W`` and exchanges boundary messages only at window edges.  With lookahead
``L`` (the minimum inter-partition propagation delay, see
:func:`repro.network.boundary.derive_lookahead`) a message sent at simulated
time ``t`` is delivered at the first window edge ``k*W >= t + L``
(:func:`delivery_edge_index`).  Delivery happens *at* the edge — the
receiving engine's clock sits exactly on ``k*W`` (via
:meth:`~repro.core.engine.Engine.run_until`) and the message is applied as a
direct call before any event at time ``>= k*W`` runs — so no partition ever
observes an event in its past, and the delivered timestamp is bit-identical
no matter how partitions are packed onto worker processes.

The runtime's one coordinator loop drives these primitives for every shard
count — the same endpoint bookkeeping, in-flight ledger and barrier state
machine whether the partitions share one in-process engine or are spread
over worker processes — so every shard count takes identical decisions at
identical edges.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Tuple


class ProtocolError(RuntimeError):
    """A conservative-window invariant was violated (a bug, not bad input)."""


class EngineClock:
    """Picklable reader of an engine's simulated clock.

    Endpoints need ``now()`` to stamp sends; a plain lambda would work but
    cannot be pickled, and endpoints live inside checkpointed worlds
    (:mod:`repro.checkpoint`).  With no engine bound it reads 0.0, matching
    the pre-wiring default.
    """

    __slots__ = ("engine",)

    def __init__(self, engine=None):
        self.engine = engine

    def __call__(self) -> float:
        engine = self.engine
        return 0.0 if engine is None else engine.now


class Message(NamedTuple):
    """One boundary message, picklable and totally ordered.

    ``src_seq`` is the sender endpoint's local sequence number; deliveries at
    an edge are applied in ``(src_pid, src_seq)`` order, which is a pure
    function of the model (not of worker packing).
    """

    due_edge: int
    dst_pid: int
    src_pid: int
    src_seq: int
    kind: str
    payload: tuple


def delivery_edge_index(t: float, lookahead_s: float, window_s: float) -> int:
    """First window edge index ``k`` with ``k * window_s >= t + lookahead_s``.

    A send exactly on edge ``w`` (``t == w * W`` with ``L == W``) lands on
    edge ``w + 1``; a send strictly inside window ``w`` lands on ``w + 2``.
    Every endpoint computes this with the same float expression, so due edges
    are bit-identical by construction.
    """
    if window_s <= 0:
        raise ProtocolError(f"window must be positive, got {window_s}")
    if lookahead_s <= 0:
        raise ProtocolError(f"lookahead must be positive, got {lookahead_s}")
    edge = math.ceil((t + lookahead_s) / window_s)
    # Guard the degenerate float case where (t + L)/W rounds just below an
    # integer: delivery below t + L would violate the lookahead contract.
    if edge * window_s < t + lookahead_s:
        edge += 1
    return edge


class ShardEndpoint:
    """Per-partition boundary-message port with a deterministic journal.

    The endpoint is the *only* channel between partitions.  Sends are
    buffered in an outbox drained at the next barrier; deliveries arrive
    pre-sorted per edge and are applied in ``(src_pid, src_seq)`` order.
    Every send/recv appends a journal entry ``(time, pid, seq, op, data)``
    that the merge layer reassembles in ``(time, pid, seq)`` order and
    fingerprints — the bit-identity witness across shard counts.
    """

    def __init__(self, pid: int, window_s: float, lookahead_s: float):
        self.pid = pid
        self.window_s = window_s
        self.lookahead_s = lookahead_s
        self.sent = 0
        self.received = 0
        self._seq = 0
        self._journal_seq = 0
        self._outbox: List[Message] = []
        self._inbox: Dict[int, List[Message]] = {}
        self.journal: List[Tuple[float, int, int, str, tuple]] = []
        #: Set by the runtime so sends can read the simulated clock.
        self.now: Callable[[], float] = EngineClock()

    # -- sending ---------------------------------------------------------
    def send(self, dst_pid: int, kind: str, payload: tuple) -> Message:
        t = self.now()
        due = delivery_edge_index(t, self.lookahead_s, self.window_s)
        msg = Message(due, dst_pid, self.pid, self._seq, kind, payload)
        self._seq += 1
        self.sent += 1
        self._outbox.append(msg)
        self._record(t, "send", (dst_pid, kind, due) + payload)
        return msg

    def drain_outbox(self) -> List[Message]:
        out, self._outbox = self._outbox, []
        return out

    # -- receiving -------------------------------------------------------
    def deposit(self, msg: Message) -> None:
        if msg.dst_pid != self.pid:
            raise ProtocolError(
                f"message for partition {msg.dst_pid} deposited at {self.pid}"
            )
        self._inbox.setdefault(msg.due_edge, []).append(msg)

    def deliver(self, edge: int, handler: Callable[[Message], None]) -> int:
        """Apply all messages due at ``edge`` in ``(src_pid, src_seq)`` order.

        The caller guarantees the engine clock sits exactly on the edge, so
        handlers run at the delivered timestamp ahead of any queued event at
        that time.  Returns the number of messages applied.
        """
        batch = self._inbox.pop(edge, [])
        batch.sort(key=lambda m: (m.src_pid, m.src_seq))
        t = edge * self.window_s
        for msg in batch:
            if msg.due_edge * self.window_s < 0:  # pragma: no cover - guard
                raise ProtocolError("negative delivery time")
            self.received += 1
            self._record(
                t, "recv", (msg.src_pid, msg.src_seq, msg.kind) + msg.payload
            )
            handler(msg)
        return len(batch)

    def pending_messages(self) -> int:
        """Deposited but undelivered messages (must be zero at shutdown)."""
        return sum(len(v) for v in self._inbox.values())

    def _record(self, t: float, op: str, data: tuple) -> None:
        self.journal.append((t, self.pid, self._journal_seq, op, data))
        self._journal_seq += 1


class InFlightLedger:
    """Counts routed-but-undelivered messages per due edge.

    The barrier controller must only start draining when *nothing* is in
    flight; otherwise a job or ack delivered two edges later would arrive at
    a quiesced partition.  The coordinator feeds it from its one routing
    step, so the drain decision lands on the same edge for every shard
    count.
    """

    def __init__(self) -> None:
        self._due: Dict[int, int] = {}

    def add(self, msg: Message) -> None:
        self._due[msg.due_edge] = self._due.get(msg.due_edge, 0) + 1

    def pop_edge(self, edge: int) -> None:
        self._due.pop(edge, None)

    def in_flight_after(self, edge: int) -> int:
        return sum(n for due, n in self._due.items() if due > edge)


class BarrierController:
    """Two-phase deterministic termination: RUNNING → DRAINING → stop.

    At each edge the runtime reports whether every readiness condition held
    *before* that edge's deliveries and how many messages remain in flight.
    The first edge where both hold starts the drain: partitions quiesce their
    periodic controllers, then a **fixed** number of further windows run so
    already-queued ticks fire and settle, after which the run stops
    unconditionally at a canonical edge ``T_end`` — event heaps need not be
    empty (periodic controllers would never let them be).
    """

    RUNNING = "running"
    DRAINING = "draining"

    def __init__(self, drain_windows: int, max_windows: int):
        if drain_windows < 1:
            raise ProtocolError(f"need >= 1 drain window, got {drain_windows}")
        self.state = self.RUNNING
        self.drain_windows = drain_windows
        self.max_windows = max_windows
        self.drain_edge: int = -1
        self.stop_edge: int = -1

    def decide(self, edge: int, all_ready: bool, in_flight: int) -> Tuple[bool, bool]:
        """Return ``(quiesce_now, stop_now)`` for the barrier at ``edge``."""
        quiesce_now = False
        if self.state == self.RUNNING and all_ready and in_flight == 0:
            self.state = self.DRAINING
            self.drain_edge = edge
            self.stop_edge = edge + self.drain_windows
            quiesce_now = True
        stop_now = self.state == self.DRAINING and edge >= self.stop_edge
        if not stop_now and edge >= self.max_windows:
            raise ProtocolError(
                f"no quiescence after {edge} windows "
                f"(state={self.state}, in_flight={in_flight}) — "
                "check ready conditions or raise max_windows"
            )
        return quiesce_now, stop_now


def drain_window_count(drain_s: float, window_s: float) -> int:
    """Windows to run after quiesce so queued periodic ticks settle."""
    return max(1, math.ceil(drain_s / window_s))
