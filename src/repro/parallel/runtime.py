"""Sharded execution: one coordinator window loop for every shard count.

The coordinator (:class:`_Coordinator`) drives a list of worker handles.
Each handle fronts one :class:`_ShardWorker` — an engine plus the
partition models packed onto it:

* :class:`_InlineHandle` (``shards=1``) holds every partition on one engine
  in this process;
* :class:`_ProcessHandle` (``shards>1``) is one spawned worker behind a
  pipe.

Every shard count runs the same loop at each window edge:

1. advance every worker's engine to the edge
   (:meth:`~repro.core.engine.Engine.run_until`, exclusive horizon — the
   clock lands exactly on the edge);
2. collect outboxes and compute drain-readiness (readiness is evaluated
   **before** this edge's deliveries);
3. route boundary messages into the
   :class:`~repro.parallel.protocol.InFlightLedger` and a pending map keyed
   by due edge;
4. hand each worker the messages due at this edge, applied in
   ``(src_pid, src_seq)`` order as direct calls at the edge timestamp;
5. take the barrier decision
   (:class:`~repro.parallel.protocol.BarrierController`): quiesce periodic
   controllers when everything is ready and nothing is in flight, then stop
   unconditionally after a fixed drain-window count at a canonical ``T_end``.

Because every decision input is a pure function of the model, runs take
the same actions at the same edges whatever the shard count, and
per-partition event streams are bit-identical — verified by the
determinism tests via the merged journal fingerprint.

Worker crashes never hang the barrier: pipe waits are bounded by
``barrier_timeout_s`` and a dead or wedged shard surfaces as a structured
:class:`ShardCrashError` naming the shard and window.  At ``shards=1`` there
is no pipe and no chaos hook, and a partition exception propagates raw.

Durability (:class:`DurabilityOptions`, backed by :mod:`repro.checkpoint`)
adds three behaviors on top of that loop:

* **checkpoint** — at a window barrier every worker is pickled and written
  atomically, with the coordinator state and a config fingerprint, as one
  :class:`_BarrierSnapshot`.  A barrier is a naturally consistent cut:
  inside a worker no boundary message is in flight (undelivered messages
  wait in the coordinator's pending map, which is captured);
* **restore** — a run started with ``restore_from`` adopts the checkpointed
  workers and continues; the merged result is bit-identical to the
  uninterrupted run because the endpoint journals ride inside the workers;
* **self-heal** — when a spawned shard dies (:class:`ShardCrashError`) or
  fails (:class:`ShardError`) and a retry budget is configured, every worker
  is killed, respawned from the last in-memory barrier snapshot, and the
  coordinator rolls its own ledger/barrier/pending state back to the same
  edge — bounded by exponential backoff before the original structured
  error surfaces.  Chaos injections at or before the crashed window are
  disarmed on respawn, so an injected fault behaves like a transient one.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.checkpoint import (
    FileLock,
    check_restorable,
    read_checkpoint,
    scenario_fingerprint,
    write_checkpoint,
)
from repro.core.engine import Engine
from repro.core.invariants import (
    AuditReport, audit_parallel, audit_run, check_audit_mode,
)
from repro.network.boundary import BoundaryLink, derive_lookahead, full_mesh
from repro.parallel.merge import MergedStats, merge_snapshots
from repro.parallel.protocol import (
    BarrierController,
    InFlightLedger,
    Message,
    ProtocolError,
    ShardEndpoint,
    drain_window_count,
)
from repro.parallel.scenarios import ShardSpec
from repro.scheduling.shard_map import ShardPlan

#: Default bound on one barrier wait before a shard is declared dead.
DEFAULT_BARRIER_TIMEOUT_S = 120.0

#: In-memory snapshot cadence (windows) when self-healing is on but no
#: explicit --checkpoint-every was given: frequent enough that a heal loses
#: little progress, rare enough that snapshot pickling stays off the profile.
DEFAULT_HEAL_SNAPSHOT_WINDOWS = 16

#: Pickle protocol for world snapshots (matches the sweep journal's choice).
_PICKLE_PROTOCOL = 4


class ShardError(RuntimeError):
    """A shard failed with an in-worker exception at a known window."""

    def __init__(self, shard: int, window: int, detail: str):
        self.shard = shard
        self.window = window
        self.detail = detail
        super().__init__(
            f"shard {shard} failed at window {window}: {detail.strip().splitlines()[-1] if detail.strip() else detail}"
        )


class ShardCrashError(ShardError):
    """A shard process died or stopped responding mid-window."""

    def __init__(self, shard: int, window: int, detail: str):
        RuntimeError.__init__(
            self, f"shard {shard} crashed at window {window}: {detail}"
        )
        self.shard = shard
        self.window = window
        self.detail = detail


class RunInterrupted(RuntimeError):
    """A durable run stopped early (signal or ``stop_after_windows``).

    Carries everything the CLI needs for its resume hint; the checkpoint (if
    a path was configured) is already on disk when this is raised.
    """

    def __init__(
        self,
        scenario: str,
        edge: int,
        t_edge: float,
        checkpoint_path: Optional[str],
        reason: str,
    ):
        self.scenario = scenario
        self.edge = edge
        self.t_edge = t_edge
        self.checkpoint_path = checkpoint_path
        self.reason = reason
        saved = (
            f"; state checkpointed to {checkpoint_path}"
            if checkpoint_path
            else " (no --checkpoint path: progress not saved)"
        )
        super().__init__(
            f"{scenario} run interrupted ({reason}) at window {edge} "
            f"(t={t_edge:.3f}s){saved}"
        )


@dataclass
class DurabilityOptions:
    """Checkpoint/restore/self-heal policy for one sharded run.

    ``checkpoint_every_s`` is *simulated* seconds (quantized to window
    edges); 0 disables periodic disk checkpoints but a final checkpoint is
    still written on interrupt when ``checkpoint_path`` is set.  A heal
    budget without an explicit cadence snapshots in memory every
    :data:`DEFAULT_HEAL_SNAPSHOT_WINDOWS` windows.
    """

    checkpoint_path: Optional[str] = None
    checkpoint_every_s: float = 0.0
    restore_from: Optional[str] = None
    heal_retries: int = 0
    heal_backoff_s: float = 0.5
    heal_backoff_factor: float = 2.0
    #: Stop (with a final checkpoint) after this many windows *this session*;
    #: used by the CI kill-and-restore smoke to time-box the first leg.
    stop_after_windows: Optional[int] = None

    def cadences(self, window_s: float) -> Tuple[int, int]:
        """``(snapshot_every, disk_every)`` in windows; 0 means never."""
        disk_every = 0
        if self.checkpoint_path and self.checkpoint_every_s > 0:
            disk_every = max(1, round(self.checkpoint_every_s / window_s))
        snap_every = disk_every
        if snap_every == 0 and self.heal_retries > 0:
            snap_every = DEFAULT_HEAL_SNAPSHOT_WINDOWS
        return snap_every, disk_every


@dataclass
class ShardRunResult:
    """Outcome of one scenario execution through :func:`run_sharded`."""

    spec: ShardSpec
    shards: int
    windows: int
    t_end: float
    wall_seconds: float
    merged: MergedStats
    link_messages: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Barrier edge this run was restored from (None = started fresh).
    restored_edge: Optional[int] = None
    #: Shard failures healed by rollback-and-respawn during this run.
    heals: int = 0

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.merged.events_executed / self.wall_seconds


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _boundary_links(spec: ShardSpec) -> Dict[Tuple[int, int], BoundaryLink]:
    return full_mesh(spec.n_partitions, spec.boundary_latency_s)


def _route(msg: Message, edge: int, ledger: InFlightLedger, links) -> None:
    if msg.due_edge < edge:
        raise ProtocolError(
            f"message {msg.kind!r} {msg.src_pid}->{msg.dst_pid} due at edge "
            f"{msg.due_edge} collected at barrier {edge} — lookahead violated"
        )
    ledger.add(msg)
    link = links.get((msg.src_pid, msg.dst_pid))
    if link is not None:
        link.record()


class _SignalCatcher:
    """Latch SIGINT/SIGTERM so the window loop can cut a final checkpoint.

    Installed only for durable runs (plain runs keep raw KeyboardInterrupt
    semantics) and only in the main thread — elsewhere ``signal.signal``
    is illegal and the catcher degrades to an inert flag.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    @property
    def reason(self) -> str:
        try:
            return signal.Signals(self.signum).name if self.signum else "signal"
        except ValueError:  # pragma: no cover - unnamed signal number
            return f"signal {self.signum}"

    def _handle(self, signum, frame) -> None:
        self.signum = signum

    def __enter__(self) -> "_SignalCatcher":
        if not self.enabled:
            return self
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def _checkpoint_meta(spec: ShardSpec, shards: int, edge: int) -> Dict[str, object]:
    return {
        "scenario": spec.name,
        "fingerprint": scenario_fingerprint(spec),
        "shards": shards,
        "n_partitions": spec.n_partitions,
        "edge": edge,
        "sim_time": edge * spec.window_s,
        "window_s": spec.window_s,
    }


def _interrupt_reason(
    catcher: Optional[_SignalCatcher],
    durability: Optional[DurabilityOptions],
    windows_this_session: int,
) -> Optional[str]:
    """Why the loop should stop at this barrier, or None to keep going."""
    if catcher is not None and catcher.triggered:
        return catcher.reason
    if (
        durability is not None
        and durability.stop_after_windows is not None
        and windows_this_session >= durability.stop_after_windows
    ):
        return f"--stop-after-windows {durability.stop_after_windows}"
    return None


# ----------------------------------------------------------------------
# Worker: one engine and the partitions packed onto it
# ----------------------------------------------------------------------
class _ShardWorker:
    """One :class:`Engine` plus the endpoints and partition models of ``pids``.

    Pickling a worker at a barrier is its checkpoint blob: no boundary
    message is in flight inside it there (undelivered messages wait in the
    coordinator's pending map).
    """

    def __init__(self, spec: ShardSpec, pids: List[int]):
        plan = spec.plan(n_workers=1)  # layout is worker-count independent
        lookahead = derive_lookahead(_boundary_links(spec).values())
        if lookahead == float("inf"):  # single partition: no boundary constraint
            lookahead = spec.boundary_latency_s
        self.window_s = spec.window_s
        self.pids = pids
        self.edge = 0
        self.engine = Engine()
        self.endpoints = {
            pid: ShardEndpoint(pid, spec.window_s, lookahead) for pid in pids
        }
        self.parts = {
            pid: spec.model(spec, plan, pid, self.engine, self.endpoints[pid])
            for pid in pids
        }
        for pid in pids:
            self.parts[pid].start()

    @classmethod
    def open(
        cls, spec: ShardSpec, pids: List[int], blob: Optional[bytes]
    ) -> "_ShardWorker":
        """A fresh worker, or the one pickled in ``blob`` at a barrier cut."""
        return pickle.loads(blob) if blob is not None else cls(spec, pids)

    def advance(self) -> Tuple[List[Message], bool]:
        """Run to the next edge; return its outbox and pre-delivery readiness."""
        self.edge += 1
        t_edge = self.edge * self.window_s
        self.engine.run_until(t_edge)
        outgoing: List[Message] = []
        for pid in self.pids:
            outgoing.extend(self.endpoints[pid].drain_outbox())
        return outgoing, all(self.parts[pid].ready(t_edge) for pid in self.pids)

    def deliver(self, msgs: List[Message], quiesce: bool) -> None:
        """Apply this edge's messages, then quiesce if the barrier said so."""
        for msg in msgs:
            self.endpoints[msg.dst_pid].deposit(msg)
        for pid in self.pids:
            self.endpoints[pid].deliver(self.edge, self.parts[pid].on_message)
        if quiesce:
            for pid in self.pids:
                self.parts[pid].quiesce()

    def finish(self, t_end: float, audit: str) -> Tuple[List[dict], int]:
        """Audit every partition; return their snapshots and the event count."""
        for part in self.parts.values():
            AuditReport.enforce(audit, lambda: audit_run(
                part.engine,
                servers=part.servers,
                scheduler=part.scheduler,
                now=t_end,
                **part.audit_kwargs(),
            ))
        snapshots = [self.parts[pid].snapshot(t_end) for pid in self.pids]
        return snapshots, self.engine.events_executed


def _fire_chaos(spec: ShardSpec, pids: List[int], edge: int) -> None:
    for cpid, cwindow, action in spec.chaos:
        if cpid in pids and cwindow == edge:
            if action == "exit":
                os._exit(23)
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if action == "raise":
                raise RuntimeError(
                    f"chaos: partition {cpid} raised at window {edge}"
                )
            if action == "hang":
                time.sleep(3600.0)


def _shard_worker_main(
    conn, spec: ShardSpec, pids: List[int], restore_blob: Optional[bytes] = None
) -> None:
    """Spawned-process body: pipe I/O and chaos around one :class:`_ShardWorker`."""
    worker: Optional[_ShardWorker] = None
    try:
        # The coordinator owns interrupt handling: it cuts a consistent
        # checkpoint at the next barrier.  A terminal SIGINT is delivered to
        # the whole process group, so workers must not die under it.
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # pragma: no cover - non-main thread
            pass
        worker = _ShardWorker.open(spec, pids, restore_blob)
        while True:
            outgoing, ready = worker.advance()
            _fire_chaos(spec, pids, worker.edge)
            conn.send(("window", worker.edge, outgoing, ready))
            msgs, quiesce, cut, t_end = conn.recv()
            worker.deliver(msgs, quiesce)
            if t_end is not None:
                conn.send(("done", worker.edge) + worker.finish(t_end, spec.audit))
                return
            if cut:  # barrier snapshot: post-delivery, post-quiesce cut
                blob = pickle.dumps(worker, protocol=_PICKLE_PROTOCOL)
                conn.send(("ckpt", worker.edge, blob))
    except Exception:
        try:
            edge = worker.edge if worker is not None else 0
            conn.send(("error", edge, traceback.format_exc()))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Worker handles: what the coordinator loop drives
# ----------------------------------------------------------------------
# Both handles answer the same four calls at every edge: ``report`` (the
# worker's outbox and readiness), ``deliver`` (this edge's messages, the
# quiesce flag, whether to cut a snapshot, and ``t_end`` on the last edge),
# ``collect`` (the cut's blob or the final results) and ``close``.
class _InlineHandle:
    """``shards=1``: every partition on one engine in this process.

    No pipe, no chaos hooks, and a partition exception propagates raw.
    """

    def __init__(self, spec: ShardSpec, pids: List[int], blob: Optional[bytes]):
        self.audit = spec.audit
        self.worker = _ShardWorker.open(spec, pids, blob)
        self._reply: tuple = ()

    def report(self, edge: int) -> Tuple[List[Message], bool]:
        return self.worker.advance()

    def deliver(
        self,
        edge: int,
        msgs: List[Message],
        quiesce: bool,
        cut: bool,
        t_end: Optional[float] = None,
    ) -> None:
        self.worker.deliver(msgs, quiesce)
        if t_end is not None:
            self._reply = self.worker.finish(t_end, self.audit)
        elif cut:
            self._reply = (pickle.dumps(self.worker, protocol=_PICKLE_PROTOCOL),)

    def collect(self, edge: int, kind: str) -> tuple:
        return self._reply

    def close(self) -> None:
        pass


class _ProcessHandle:
    """``shards>1``: one spawned worker behind a pipe, with bounded waits.

    A dead or wedged worker surfaces as :class:`ShardCrashError` and an
    in-worker exception as :class:`ShardError`, both naming shard and window.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shard: int,
        pids: List[int],
        blob: Optional[bytes],
        timeout_s: float,
    ):
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self.shard = shard
        self.timeout_s = timeout_s
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, spec, pids, blob),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def report(self, edge: int) -> Tuple[List[Message], bool]:
        return self.collect(edge, "window")

    def collect(self, edge: int, kind: str) -> tuple:
        """Bounded read of this worker's ``kind`` reply for ``edge``."""
        if not self.conn.poll(self.timeout_s):
            state = "alive but unresponsive" if self.proc.is_alive() else (
                f"dead (exitcode {self.proc.exitcode})"
            )
            raise ShardCrashError(
                self.shard, edge,
                f"no barrier message within {self.timeout_s:.0f}s; process {state}",
            )
        try:
            msg = self.conn.recv()
        except (EOFError, ConnectionResetError):
            self.proc.join(timeout=1.0)
            raise ShardCrashError(
                self.shard, edge,
                f"pipe closed mid-window (exitcode {self.proc.exitcode})",
            ) from None
        if msg[0] == "error":
            raise ShardError(self.shard, msg[1], msg[2])
        if msg[0] != kind or msg[1] != edge:
            raise ProtocolError(
                f"shard {self.shard} out of step: expected {kind!r} for "
                f"window {edge}, got {msg[:2]}"
            )
        return msg[2:]

    def deliver(
        self,
        edge: int,
        msgs: List[Message],
        quiesce: bool,
        cut: bool,
        t_end: Optional[float] = None,
    ) -> None:
        try:
            self.conn.send((msgs, quiesce, cut, t_end))
        except (BrokenPipeError, OSError):
            self.proc.join(timeout=1.0)
            raise ShardCrashError(
                self.shard, edge,
                f"pipe closed on send (exitcode {self.proc.exitcode})",
            ) from None

    def close(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        self.conn.close()


# ----------------------------------------------------------------------
# Coordinator: the one window loop
# ----------------------------------------------------------------------
class _BarrierSnapshot:
    """One consistent cut of a run: worker blobs + coordinator state."""

    __slots__ = ("edge", "workers", "coord")

    def __init__(self, edge: int, workers: List[bytes], coord: bytes):
        self.edge = edge
        self.workers = workers
        self.coord = coord

    def payload(self) -> bytes:
        return pickle.dumps(
            {"edge": self.edge, "workers": self.workers, "coord": self.coord},
            protocol=_PICKLE_PROTOCOL,
        )

    @classmethod
    def from_payload(cls, doc: dict) -> "_BarrierSnapshot":
        return cls(doc["edge"], doc["workers"], doc["coord"])


class _Coordinator:
    """One attempt-scoped execution of the window loop.

    The surrounding heal loop (:func:`_run_coordinated`) constructs a fresh
    ``_Coordinator`` per attempt; ``self.last_snapshot`` is how a failed
    attempt hands its rollback point to the next one.
    """

    def __init__(
        self,
        spec: ShardSpec,
        plan: ShardPlan,
        barrier_timeout_s: float,
        durability: Optional[DurabilityOptions],
        catcher: Optional[_SignalCatcher],
        snapshot: Optional[_BarrierSnapshot],
    ):
        self.spec = spec
        self.plan = plan
        self.barrier_timeout_s = barrier_timeout_s
        self.durability = durability
        self.catcher = catcher
        self.last_snapshot = snapshot
        self.n_workers = plan.n_workers
        self.worker_pids = [
            plan.partitions_of_worker(w) for w in range(self.n_workers)
        ]
        self.pid_to_worker = {
            pid: w for w, pids in enumerate(self.worker_pids) for pid in pids
        }

    # -- state (re)construction ------------------------------------------
    def _restore_coord_state(self, snapshot: Optional[_BarrierSnapshot]):
        links = _boundary_links(self.spec)
        if snapshot is None:
            ledger = InFlightLedger()
            controller = BarrierController(
                drain_window_count(self.spec.drain_s, self.spec.window_s),
                self.spec.max_windows,
            )
            pending: Dict[int, Dict[int, List[Message]]] = {}
            edge = 0
        else:
            coord = pickle.loads(snapshot.coord)
            if coord["edge"] != snapshot.edge:  # pragma: no cover - guard
                raise ProtocolError(
                    f"snapshot edge mismatch: coordinator at {coord['edge']}, "
                    f"workers at {snapshot.edge}"
                )
            ledger = coord["ledger"]
            controller = coord["controller"]
            pending = coord["pending"]
            for key, count in coord["link_messages"].items():
                links[key].messages = count
            edge = snapshot.edge
        return links, ledger, controller, pending, edge

    def _coord_blob(self, ledger, controller, pending, links, edge: int) -> bytes:
        return pickle.dumps(
            {
                "edge": edge,
                "ledger": ledger,
                "controller": controller,
                "pending": pending,
                "link_messages": {k: link.messages for k, link in links.items()},
            },
            protocol=_PICKLE_PROTOCOL,
        )

    # -- one attempt ------------------------------------------------------
    def run_attempt(self):
        spec = self.spec
        durability = self.durability
        links, ledger, controller, pending, edge = self._restore_coord_state(
            self.last_snapshot
        )
        start_edge = edge
        snap_every, disk_every = (
            durability.cadences(spec.window_s) if durability is not None else (0, 0)
        )
        # Heal snapshots feed a respawn; an inline run has no process to
        # respawn, so it cuts only for the disk or an interrupt.
        heal_every = snap_every if self.n_workers > 1 else 0
        path = durability.checkpoint_path if durability is not None else None

        handles: List[Union[_InlineHandle, _ProcessHandle]] = []
        try:
            for w, pids in enumerate(self.worker_pids):
                blob = self.last_snapshot.workers[w] if self.last_snapshot else None
                handles.append(
                    _InlineHandle(spec, pids, blob)
                    if self.n_workers == 1
                    else _ProcessHandle(spec, w, pids, blob, self.barrier_timeout_s)
                )
            while True:
                edge += 1
                reports = [h.report(edge) for h in handles]
                all_ready = all(ready for _, ready in reports)
                for outgoing, _ in reports:
                    for msg in outgoing:
                        _route(msg, edge, ledger, links)
                        pending.setdefault(msg.due_edge, {}).setdefault(
                            self.pid_to_worker[msg.dst_pid], []
                        ).append(msg)
                due_now = pending.pop(edge, {})
                ledger.pop_edge(edge)
                quiesce_now, stop_now = controller.decide(
                    edge, all_ready, ledger.in_flight_after(edge)
                )
                if stop_now:
                    t_end = edge * spec.window_s
                    for w, h in enumerate(handles):
                        h.deliver(edge, due_now.get(w, []), False, False, t_end=t_end)
                    break

                reason = _interrupt_reason(
                    self.catcher, durability, edge - start_edge
                )
                write_now = path is not None and (
                    reason is not None or (disk_every > 0 and edge % disk_every == 0)
                )
                cut = (
                    reason is not None
                    or write_now
                    or (heal_every > 0 and edge % heal_every == 0)
                )
                for w, h in enumerate(handles):
                    h.deliver(edge, due_now.get(w, []), quiesce_now, cut)
                if cut:
                    self.last_snapshot = _BarrierSnapshot(
                        edge,
                        [h.collect(edge, "ckpt")[0] for h in handles],
                        self._coord_blob(ledger, controller, pending, links, edge),
                    )
                    if write_now:
                        write_checkpoint(
                            path,
                            self.last_snapshot.payload(),
                            _checkpoint_meta(spec, self.n_workers, edge),
                        )
                    if reason is not None:
                        raise RunInterrupted(
                            spec.name, edge, edge * spec.window_s, path, reason
                        )

            snapshots: List[dict] = []
            engine_events: List[int] = []
            for h in handles:
                worker_snapshots, events = h.collect(edge, "done")
                snapshots.extend(worker_snapshots)
                engine_events.append(events)
        finally:
            for h in handles:
                h.close()

        link_messages = {key: link.messages for key, link in links.items()}
        return snapshots, engine_events, edge, t_end, link_messages


def _run_coordinated(
    spec: ShardSpec,
    plan: ShardPlan,
    barrier_timeout_s: float,
    durability: Optional[DurabilityOptions] = None,
    catcher: Optional[_SignalCatcher] = None,
):
    snapshot: Optional[_BarrierSnapshot] = None
    if durability is not None and durability.restore_from:
        header, payload = read_checkpoint(durability.restore_from)
        check_restorable(header, spec, plan.n_workers, durability.restore_from)
        snapshot = _BarrierSnapshot.from_payload(pickle.loads(payload))
    restored_edge = snapshot.edge if snapshot is not None else None

    heal_budget = durability.heal_retries if durability is not None else 0
    heals = 0
    while True:
        coordinator = _Coordinator(
            spec, plan, barrier_timeout_s, durability, catcher, snapshot
        )
        try:
            outcome = coordinator.run_attempt()
            return outcome + (restored_edge, heals)
        except (ShardCrashError, ShardError) as err:
            # Only spawned workers raise these: an inline partition's
            # exception is not a shard failure and propagates raw.  Roll
            # back to the last consistent cut (or a fresh start when the
            # failure predates the first snapshot) and replay.  Bounded by
            # the heal budget with exponential backoff; chaos injections at
            # or before the crashed window are disarmed so the injected
            # fault is transient, like the real crashes this models.
            if heals >= heal_budget:
                raise
            delay = durability.heal_backoff_s * (
                durability.heal_backoff_factor ** heals
            )
            heals += 1
            snapshot = coordinator.last_snapshot
            rollback = snapshot.edge if snapshot is not None else 0
            print(
                f"[repro.parallel] shard {err.shard} failed at window "
                f"{err.window}: healing (attempt {heals}/{heal_budget}) — "
                f"rolling every shard back to window {rollback}, "
                f"respawning after {delay:.1f}s",
                file=sys.stderr,
            )
            time.sleep(delay)
            spec = replace(
                spec,
                chaos=tuple(c for c in spec.chaos if c[1] > err.window),
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_sharded(
    spec: ShardSpec,
    shards: int = 1,
    barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
    durability: Optional[DurabilityOptions] = None,
) -> ShardRunResult:
    """Execute ``spec`` on ``shards`` workers (1 = in this process).

    Merged results are bit-identical across every legal ``shards`` value;
    the shard count only changes wall-clock time.  ``durability`` adds
    checkpoint/restore and self-healing (see :class:`DurabilityOptions`) —
    restored runs are bit-identical to uninterrupted ones.
    """
    # Fail before spawning workers, not in every worker after its run.
    check_audit_mode(spec.audit)
    plan = spec.plan(n_workers=shards)
    lock: Optional[FileLock] = None
    if durability is not None and durability.checkpoint_path:
        lock = FileLock(durability.checkpoint_path).acquire()
    start = time.perf_counter()
    try:
        with _SignalCatcher(durability is not None) as catcher:
            (
                snapshots, events, windows, t_end, link_messages,
                restored_edge, heals,
            ) = _run_coordinated(spec, plan, barrier_timeout_s, durability, catcher)
    finally:
        if lock is not None:
            lock.release()
    wall = time.perf_counter() - start

    merged = merge_snapshots(spec.name, snapshots, events, t_end, windows)
    AuditReport.enforce(
        spec.audit, lambda: audit_parallel(snapshots, spec.window_s, t_end)
    )
    return ShardRunResult(
        spec=spec,
        shards=shards,
        windows=windows,
        t_end=t_end,
        wall_seconds=wall,
        merged=merged,
        link_messages=link_messages,
        restored_edge=restored_edge,
        heals=heals,
    )
