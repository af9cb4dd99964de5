"""Declarative sweeps and their resilient (optionally parallel) execution.

A sweep is a list of :class:`SweepPoint`\\ s, each naming a module-level
callable plus keyword arguments.  :func:`run_sweep` evaluates every point and
returns the results **in point order**, independent of how (or where) the
points actually ran:

* ``jobs=1`` evaluates inline, in order;
* ``jobs=N`` fans points out to a supervised ``ProcessPoolExecutor`` using
  the **spawn** start method.  Spawn (rather than fork) keeps workers free of
  inherited interpreter state — no lazily-forked RNG state, no copied engine
  globals — so the same spec produces the same bytes on Linux, macOS and
  Windows.

Long sweeps are treated like the production job queues they model: a crashed
or hung worker must not throw away hours of completed points.  The
supervisor (:func:`run_sweep_detailed` + :class:`SweepOptions`) adds

* a per-point wall-clock **timeout watchdog** — a point that overruns is
  killed (the whole worker pool is terminated and respawned; in-flight
  innocents are requeued without being charged an attempt);
* **retry with exponential backoff** and deterministic jitter seeded off the
  point's fingerprint — never off wall clock or a global RNG, so scheduling
  noise cannot leak into simulation results;
* **worker-crash recovery** — a ``BrokenProcessPool`` (worker SIGKILLed,
  OOM-killed, or segfaulted) respawns the pool and requeues the in-flight
  points instead of aborting the sweep;
* an on-disk **journal** (:class:`~repro.runner.journal.SweepJournal`) that
  checkpoints each completed point, so an interrupted sweep resumes with
  cached results for every unchanged point;
* a structured :class:`SweepResult` with per-point status so callers can
  degrade gracefully to partial results (``keep_going``) instead of
  all-or-nothing lists.

Determinism contract: a point's randomness must be fully determined by its
``kwargs`` (experiments take an explicit ``seed``).  Where a sweep does not
pin seeds itself, :meth:`SweepSpec.from_grid` derives one per point from
``(base_seed, point_index)`` via :func:`derive_point_seed`, so results are
bit-identical regardless of worker count, completion order, retries, or
resume-from-journal.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.runner.journal import SweepJournal, decode_result, point_fingerprint
from repro.telemetry import session as telemetry_session
from repro.telemetry.session import PointCapture, TelemetryCapture, capture_point


def derive_point_seed(base_seed: int, point_index: int) -> int:
    """Derive a stable, well-mixed per-point seed from ``(base_seed, index)``.

    Uses BLAKE2b over the decimal rendering of the pair, so nearby indices
    yield unrelated seeds and the mapping is identical on every platform and
    Python version (``hash()`` is salted; arithmetic mixes poorly).
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{point_index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1  # keep it positive / int64-safe


def _short_value(value: Any) -> str:
    """Compact rendering of one kwarg value for auto-derived point labels."""
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (int, bool, str)) or value is None:
        return str(value)
    rendered = getattr(value, "name", None)
    if isinstance(rendered, str):
        return rendered
    return type(value).__name__


def derive_label(kwargs: Dict[str, Any], exclude: Sequence[str] = ()) -> str:
    """A human-readable label from a kwarg dict (``k=v`` pairs, truncated)."""
    parts = [
        f"{key}={_short_value(val)}"
        for key, val in kwargs.items()
        if key not in exclude
    ]
    label = ",".join(parts)
    return label if len(label) <= 80 else label[:77] + "..."


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation of ``fn(**kwargs)``.

    ``fn`` must be an importable module-level callable and every kwarg must
    be picklable — both are required for spawn-based workers.  ``index`` is
    the point's position in the sweep; results are always returned in index
    order.
    """

    index: int
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass
class SweepSpec:
    """A named, ordered collection of sweep points."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, fn: Callable[..., Any], label: str = "", **kwargs: Any) -> SweepPoint:
        """Append one point; returns it for inspection.

        When no explicit ``label`` is given, one is derived from the kwargs
        so logs and journals name points by their parameters rather than by
        bare indices.
        """
        if not label:
            label = derive_label(kwargs)
        point = SweepPoint(index=len(self.points), fn=fn, kwargs=kwargs, label=label)
        self.points.append(point)
        return point

    @classmethod
    def from_grid(
        cls,
        name: str,
        fn: Callable[..., Any],
        grid: Sequence[Dict[str, Any]],
        base_seed: Optional[int] = None,
        seed_key: str = "seed",
        label_fn: Optional[Callable[[Dict[str, Any]], str]] = None,
    ) -> "SweepSpec":
        """Build a spec from a list of kwarg dicts.

        When ``base_seed`` is given, every point that does not already pin
        ``seed_key`` receives ``derive_point_seed(base_seed, index)``.
        Labels come from ``label_fn(grid_kwargs)`` when provided, else are
        derived from the grid kwargs (derived seeds excluded, pinned ones
        kept — the pin is part of the point's identity).
        """
        spec = cls(name)
        for index, kwargs in enumerate(grid):
            kwargs = dict(kwargs)
            label = label_fn(kwargs) if label_fn is not None else derive_label(kwargs)
            if base_seed is not None and seed_key not in kwargs:
                kwargs[seed_key] = derive_point_seed(base_seed, index)
            spec.add(fn, label=label, **kwargs)
        return spec

    def __len__(self) -> int:
        return len(self.points)


def _execute_point(
    point: SweepPoint, capture: Optional[TelemetryCapture] = None
) -> Any:
    """Top-level worker entry point (must be picklable by name).

    With a :class:`~repro.telemetry.session.TelemetryCapture` the point runs
    under a child telemetry session and returns a
    :class:`~repro.telemetry.session.PointCapture` wrapping value + payload;
    the supervisor unwraps it.  Workers are spawned, so the parent's active
    session never leaks in — the capture spec is the only channel.
    """
    if capture is None:
        return point.execute()
    return capture_point(capture, point)


# ----------------------------------------------------------------------
# Resilient execution: options, outcomes, errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepOptions:
    """Execution policy for a resilient sweep.

    Attributes:
        point_timeout_s: wall-clock budget per point **attempt**.  A point
            that overruns is killed (the worker pool is terminated and
            respawned) and retried if attempts remain.  ``None`` disables the
            watchdog.  Enforcement requires worker processes; with ``jobs=1``
            the supervisor transparently uses a single-worker pool.
        retries: extra attempts after the first (so a point runs at most
            ``retries + 1`` times).  Applies to raised exceptions and
            timeouts; worker crashes get one extra grace attempt because a
            crash may have been collateral damage from a pool-mate.
        retry_backoff_s: delay before the first retry; grows by
            ``retry_backoff_factor`` per attempt, capped at
            ``max_backoff_s``, and jittered deterministically from the
            point's fingerprint (never from wall clock or global RNG).
        keep_going: evaluate every point even after failures; failed points
            surface as ``None`` values / non-``ok`` outcomes instead of
            aborting the sweep.
        journal_path: JSONL checkpoint file; every completed point is
            appended (and fsync'd) as it finishes.
        resume: reuse ``ok`` results recorded in ``journal_path`` for points
            whose fingerprint (sweep name + fn + kwargs) is unchanged.
        trace_dir: directory for per-point post-mortem trace streams.  Each
            point streams its trace events to
            ``trace_dir/point-NNNNN.trace.jsonl`` while it runs; the file of
            a point that fails, times out, or is SIGKILLed survives for
            post-mortem (read it with
            :func:`repro.telemetry.trace.read_stream`), while successful
            points' streams are deleted.  Works with or without an active
            telemetry session.
        trace_fsync: fsync per-point trace streams on every flushed line so
            they survive power loss, not just process death (slower).
    """

    point_timeout_s: Optional[float] = None
    retries: int = 0
    retry_backoff_s: float = 0.5
    retry_backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    keep_going: bool = False
    journal_path: Optional[str] = None
    resume: bool = False
    trace_dir: Optional[str] = None
    trace_fsync: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be positive, got {self.point_timeout_s}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.retry_backoff_factor < 1.0:
            raise ValueError(
                f"retry_backoff_factor must be >= 1, got {self.retry_backoff_factor}"
            )
        if self.resume and not self.journal_path:
            raise ValueError("resume=True requires a journal_path")


@dataclass
class PointOutcome:
    """What happened to one sweep point.

    ``status`` is one of ``"ok"`` (value present), ``"failed"`` (raised or
    crashed on every attempt), ``"timeout"`` (overran the watchdog on every
    attempt), or ``"skipped"`` (never finally attempted because the sweep
    aborted first).  ``cached`` marks results replayed from the journal.
    ``telemetry`` is the point's captured telemetry payload (trace events,
    metrics snapshot, profile summary) when a session was active.
    """

    index: int
    label: str
    fingerprint: str
    status: str = "skipped"
    attempts: int = 0
    duration_s: float = 0.0
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepResult:
    """Per-point outcomes of a sweep, in point order."""

    name: str
    outcomes: List[PointOutcome]

    def values(self) -> List[Any]:
        """Point results in order; non-``ok`` points yield ``None``."""
        return [outcome.value if outcome.ok else None for outcome in self.outcomes]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def failures(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.status in ("failed", "timeout")]

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts.get(k, 0)} {k}" for k in ("ok", "failed", "timeout", "skipped") if counts.get(k)]
        cached = sum(1 for o in self.outcomes if o.cached)
        if cached:
            parts.append(f"{cached} from journal")
        return f"sweep {self.name!r}: {len(self.outcomes)} points ({', '.join(parts)})"


class SweepError(RuntimeError):
    """A sweep point exhausted its attempts (and ``keep_going`` was off)."""

    def __init__(self, result: SweepResult, first_failure: PointOutcome):
        self.result = result
        self.first_failure = first_failure
        label = first_failure.label or f"#{first_failure.index}"
        super().__init__(
            f"sweep {result.name!r} point {label} {first_failure.status} "
            f"after {first_failure.attempts} attempt(s): {first_failure.error}"
        )


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep: the pool was torn down and the journal flushed.

    Derives from :class:`KeyboardInterrupt` so un-caught interrupts keep
    their usual semantics; the CLI catches it to print a resume hint.
    """

    def __init__(self, name: str, completed: int, total: int,
                 journal_path: Optional[str]):
        self.name = name
        self.completed = completed
        self.total = total
        self.journal_path = journal_path
        super().__init__(
            f"sweep {name!r} interrupted: {completed}/{total} points completed"
        )


def _backoff_s(options: SweepOptions, fingerprint: str, attempt: int) -> float:
    """Backoff before retry number ``attempt`` (deterministic jitter).

    Jitter is derived from the point's fingerprint and the attempt number —
    deliberately *not* from wall clock or any RNG shared with the
    simulations — so retry scheduling is reproducible and cannot perturb
    simulation results.
    """
    if options.retry_backoff_s <= 0:
        return 0.0
    base = min(
        options.retry_backoff_s * options.retry_backoff_factor ** (attempt - 1),
        options.max_backoff_s,
    )
    digest = hashlib.blake2b(
        f"{fingerprint}:{attempt}".encode("ascii"), digest_size=8
    ).digest()
    jitter = int.from_bytes(digest, "big") / 2**64  # [0, 1)
    return base * (0.5 + jitter)


class _Attempt:
    """Supervisor bookkeeping for one in-flight or queued point attempt."""

    __slots__ = ("point", "fingerprint", "attempt", "crashes", "started", "deadline")

    def __init__(self, point: SweepPoint, fingerprint: str):
        self.point = point
        self.fingerprint = fingerprint
        self.attempt = 1       # 1-based; charged on raise/timeout
        self.crashes = 0       # pool-break strikes (blame is ambiguous)
        self.started = 0.0     # monotonic submit time of the current attempt
        self.deadline: Optional[float] = None


def _ok_outcome(att: _Attempt, value: Any) -> PointOutcome:
    """The ``ok`` outcome of ``att``'s current attempt, unwrapping telemetry."""
    telemetry = None
    if isinstance(value, PointCapture):
        telemetry = value.payload
        value = value.value
    return PointOutcome(
        index=att.point.index,
        label=att.point.label,
        fingerprint=att.fingerprint,
        status="ok",
        attempts=att.attempt,
        duration_s=time.monotonic() - att.started,
        value=value,
        telemetry=telemetry,
    )


def _failed_outcome(att: _Attempt, status: str, error: str) -> PointOutcome:
    """The final ``failed``/``timeout`` outcome of ``att``."""
    return PointOutcome(
        index=att.point.index,
        label=att.point.label,
        fingerprint=att.fingerprint,
        status=status,
        attempts=att.attempt,
        duration_s=time.monotonic() - att.started if att.started else 0.0,
        error=error,
    )


def _record_outcome(
    outcomes: Dict[int, PointOutcome],
    journal: Optional[SweepJournal],
    outcome: PointOutcome,
) -> None:
    """Store a point's final outcome and journal it."""
    outcomes[outcome.index] = outcome
    if journal is not None:
        journal.record(
            outcome.fingerprint,
            index=outcome.index,
            label=outcome.label,
            status=outcome.status,
            attempts=outcome.attempts,
            duration_s=outcome.duration_s,
            value=outcome.value,
            error=outcome.error,
            telemetry=outcome.telemetry,
        )


class _PoolSupervisor:
    """Drive sweep points through a spawn pool with watchdog + retry + requeue.

    The supervisor owns the executor: on a timeout or a broken pool it kills
    every worker process, respawns the pool, and requeues whatever was in
    flight.  Results are delivered through ``outcomes`` (indexed by point)
    and journaled as they complete.
    """

    def __init__(
        self,
        name: str,
        attempts: List[_Attempt],
        n_workers: int,
        options: SweepOptions,
        outcomes: Dict[int, PointOutcome],
        journal: Optional[SweepJournal],
        capture: Optional[TelemetryCapture] = None,
    ):
        self.name = name
        self.options = options
        self.outcomes = outcomes
        self.journal = journal
        self.capture = capture
        self.n_workers = n_workers
        self.ready: Deque[_Attempt] = deque(attempts)
        self.delayed: List[tuple] = []  # (release_monotonic, _Attempt)
        self.inflight: Dict[Future, _Attempt] = {}
        self.aborted: Optional[PointOutcome] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -------------------------------------------------
    def _spawn_pool(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers, mp_context=self._ctx
        )

    def _kill_pool(self) -> None:
        """Terminate every worker immediately and discard the executor."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        executor.shutdown(wait=True, cancel_futures=True)

    # -- main loop ------------------------------------------------------
    def run(self) -> None:
        self._spawn_pool()
        try:
            while (self.ready or self.delayed or self.inflight) and not self.aborted:
                now = time.monotonic()
                self._release_delayed(now)
                self._fill_slots()
                if not self.inflight:
                    # Everything runnable is waiting out a backoff.
                    next_release = min(t for t, _ in self.delayed)
                    time.sleep(max(0.0, min(next_release - time.monotonic(), 0.5)))
                    continue
                done, _ = wait(
                    list(self.inflight),
                    timeout=self._wait_timeout(now),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    pool_broken |= self._handle_done(future)
                if pool_broken:
                    self._recover_broken_pool()
                    continue
                self._check_deadlines()
            if self.aborted is not None:
                self._mark_unfinished_skipped()
        except KeyboardInterrupt:
            self._kill_pool()
            raise
        finally:
            self._kill_pool()

    def _wait_timeout(self, now: float) -> float:
        """How long to block in ``wait``: until the next deadline or release."""
        horizon = 0.5
        if self.options.point_timeout_s is not None and self.inflight:
            next_deadline = min(
                att.deadline for att in self.inflight.values() if att.deadline
            )
            horizon = min(horizon, next_deadline - now)
        if self.delayed:
            horizon = min(horizon, min(t for t, _ in self.delayed) - now)
        return max(0.01, horizon)

    def _release_delayed(self, now: float) -> None:
        still_waiting = []
        for release_at, att in self.delayed:
            if release_at <= now:
                self.ready.append(att)
            else:
                still_waiting.append((release_at, att))
        self.delayed = still_waiting

    def _fill_slots(self) -> None:
        assert self._executor is not None
        while self.ready and len(self.inflight) < self.n_workers:
            att = self.ready.popleft()
            att.started = time.monotonic()
            if self.options.point_timeout_s is not None:
                att.deadline = att.started + self.options.point_timeout_s
            future = self._executor.submit(_execute_point, att.point, self.capture)
            self.inflight[future] = att

    # -- completion paths -----------------------------------------------
    def _handle_done(self, future: Future) -> bool:
        """Process one finished future; True if the pool broke under it."""
        att = self.inflight.pop(future, None)
        if att is None:  # already reassigned by a kill path
            return False
        try:
            value = future.result()
        except BrokenProcessPool:
            # Put it back so _recover_broken_pool sees the full in-flight set.
            self.inflight[future] = att
            return True
        except Exception as exc:  # the point itself raised in the worker
            self._attempt_failed(att, "failed", f"{type(exc).__name__}: {exc}")
            return False
        _record_outcome(self.outcomes, self.journal, _ok_outcome(att, value))
        return False

    def _attempt_failed(self, att: _Attempt, status: str, error: str) -> None:
        """An attempt raised or timed out; retry with backoff or finalise."""
        if att.attempt <= self.options.retries:
            delay = _backoff_s(self.options, att.fingerprint, att.attempt)
            att.attempt += 1
            att.deadline = None
            if delay > 0:
                self.delayed.append((time.monotonic() + delay, att))
            else:
                self.ready.append(att)
            return
        self._finalise_failure(att, status, error)

    def _finalise_failure(self, att: _Attempt, status: str, error: str) -> None:
        outcome = _failed_outcome(att, status, error)
        _record_outcome(self.outcomes, self.journal, outcome)
        if not self.options.keep_going and self.aborted is None:
            self.aborted = outcome

    # -- failure recovery -----------------------------------------------
    def _recover_broken_pool(self) -> None:
        """A worker died (SIGKILL/OOM/segfault): respawn and requeue.

        Blame cannot be attributed — the executor only reports that *a*
        process died — so every in-flight point gets a crash strike and is
        requeued.  A point whose strikes exceed ``retries + 1`` is written
        off as failed: innocents requeued alongside a crasher complete on a
        later round and never accumulate that many strikes.
        """
        victims = list(self.inflight.values())
        self.inflight.clear()
        self._kill_pool()
        for att in victims:
            att.crashes += 1
            att.deadline = None
            if att.crashes > self.options.retries + 1:
                self._finalise_failure(
                    att, "failed",
                    f"worker process crashed {att.crashes} times running this point",
                )
            else:
                self.ready.appendleft(att)
        self._spawn_pool()

    def _check_deadlines(self) -> None:
        """Kill and recycle the pool if any in-flight point overran."""
        if self.options.point_timeout_s is None:
            return
        now = time.monotonic()
        overdue = [
            (future, att)
            for future, att in self.inflight.items()
            if att.deadline is not None and now >= att.deadline and not future.done()
        ]
        if not overdue:
            return
        overdue_atts = {att for _, att in overdue}
        # There is no per-task kill in ProcessPoolExecutor: terminate the
        # whole pool, charge the overrunners, requeue the innocents free.
        survivors = [
            att for att in self.inflight.values() if att not in overdue_atts
        ]
        self.inflight.clear()
        self._kill_pool()
        for att in survivors:
            att.deadline = None
            self.ready.appendleft(att)
        for _, att in overdue:
            self._attempt_failed(
                att, "timeout",
                f"exceeded point timeout of {self.options.point_timeout_s:g}s",
            )
        self._spawn_pool()

    # -- misc -----------------------------------------------------------
    def _mark_unfinished_skipped(self) -> None:
        pending = list(self.ready) + [att for _, att in self.delayed] + list(
            self.inflight.values()
        )
        self.inflight.clear()
        for att in pending:
            if att.point.index not in self.outcomes:
                self.outcomes[att.point.index] = PointOutcome(
                    index=att.point.index,
                    label=att.point.label,
                    fingerprint=att.fingerprint,
                    status="skipped",
                    attempts=att.attempt - 1,
                )


def _run_inline(
    name: str,
    attempts: List[_Attempt],
    options: SweepOptions,
    outcomes: Dict[int, PointOutcome],
    journal: Optional[SweepJournal],
    capture: Optional[TelemetryCapture] = None,
) -> None:
    """Single-process supervised execution (no watchdog: nothing to kill)."""
    aborted = False
    for att in attempts:
        if aborted:
            outcomes[att.point.index] = PointOutcome(
                index=att.point.index,
                label=att.point.label,
                fingerprint=att.fingerprint,
                status="skipped",
            )
            continue
        while True:
            att.started = time.monotonic()
            try:
                value = _execute_point(att.point, capture)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                if att.attempt <= options.retries:
                    delay = _backoff_s(options, att.fingerprint, att.attempt)
                    att.attempt += 1
                    if delay > 0:
                        time.sleep(delay)
                    continue
                outcome = _failed_outcome(
                    att, "failed", f"{type(exc).__name__}: {exc}"
                )
            else:
                outcome = _ok_outcome(att, value)
            break
        _record_outcome(outcomes, journal, outcome)
        if not outcome.ok and not options.keep_going:
            aborted = True


def host_cpus() -> int:
    """CPUs this process may actually use, for elastic worker sizing.

    ``os.cpu_count()`` reports the machine, not the process: in containers
    and under ``taskset`` the scheduler affinity mask is often far smaller.
    Prefer ``len(os.sched_getaffinity(0))`` where the platform exposes it
    (Linux) so worker clamping — and the ``host.cpus`` field recorded in
    ``BENCH_core.json`` — reflect the CPUs sweeps can really occupy.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def run_sweep_detailed(
    spec: SweepSpec, jobs: int = 1, options: Optional[SweepOptions] = None
) -> SweepResult:
    """Evaluate ``spec`` under ``options`` and return per-point outcomes.

    This is the resilient core; :func:`run_sweep` wraps it for callers that
    only want the values.  Outcomes always cover every point, in order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if options is None:
        # Elastic workers: without an explicit resilience policy the pool
        # exists purely for throughput, so never spawn more workers than the
        # host has CPUs — on a 1-CPU host ``--jobs 4`` would pay the full
        # spawn/pickle tax (the 0.666x sweep "speedup" in BENCH_core.json)
        # for zero parallelism.  Callers passing SweepOptions keep exact
        # pool semantics: timeouts/retry isolation need worker processes
        # regardless of CPU count.  The clamp is affinity-aware: what counts
        # is the CPUs this process may run on, not what the machine has.
        jobs = min(jobs, host_cpus())
    options = options or SweepOptions()

    # Telemetry: freeze the active session (and/or post-mortem trace_dir)
    # into a picklable per-point capture spec.  Points then record under
    # child sessions — identically inline or in spawned workers — and the
    # parent reassembles the payloads in point order below.
    active_session = telemetry_session.ACTIVE
    capture = TelemetryCapture.from_context(
        active_session, options.trace_dir, fsync=options.trace_fsync
    )

    fingerprints = [
        point_fingerprint(spec.name, p.fn, p.kwargs) for p in spec.points
    ]
    outcomes: Dict[int, PointOutcome] = {}

    journal: Optional[SweepJournal] = None
    if options.journal_path:
        journal = SweepJournal(options.journal_path, sweep_name=spec.name)

    # Resume: replay recorded ok results for unchanged points.  Duplicate
    # fingerprints (identical points swept twice) consume cache entries in
    # point order so each occurrence gets its own recorded result.
    if journal is not None and options.resume:
        cache = journal.load()
        consumed: Dict[str, int] = {}
        for point, fingerprint in zip(spec.points, fingerprints):
            entries = cache.get(fingerprint, [])
            cursor = consumed.get(fingerprint, 0)
            while cursor < len(entries) and entries[cursor].get("status") != "ok":
                cursor += 1
            if cursor < len(entries):
                entry = entries[cursor]
                consumed[fingerprint] = cursor + 1
                outcomes[point.index] = PointOutcome(
                    index=point.index,
                    label=point.label or entry.get("label", ""),
                    fingerprint=fingerprint,
                    status="ok",
                    attempts=int(entry.get("attempts", 1)),
                    duration_s=float(entry.get("duration_s", 0.0)),
                    value=decode_result(entry["result"]),
                    cached=True,
                    telemetry=entry.get("telemetry"),
                )

    todo = [
        _Attempt(point, fingerprint)
        for point, fingerprint in zip(spec.points, fingerprints)
        if point.index not in outcomes
    ]

    use_pool = bool(todo) and (
        (jobs > 1 and len(todo) > 1) or options.point_timeout_s is not None
    )
    n_workers = max(1, min(jobs, len(todo))) if todo else 0
    if jobs > 1 and todo:
        # One stderr line so degraded parallelism (e.g. a one-point sweep
        # with --jobs 8) is visible rather than silent.
        mode = "worker process(es)" if use_pool else "worker (inline)"
        cached = len(spec.points) - len(todo)
        cached_note = f", {cached} from journal" if cached else ""
        print(
            f"[repro.sweep] {spec.name!r}: {len(todo)} point(s){cached_note} "
            f"on {n_workers if use_pool else 1} {mode} (requested jobs={jobs})",
            file=sys.stderr,
        )

    if todo and journal is not None:
        journal.open()
    try:
        if use_pool:
            supervisor = _PoolSupervisor(
                spec.name, todo, n_workers, options, outcomes, journal,
                capture=capture,
            )
            supervisor.run()
        elif todo:
            _run_inline(spec.name, todo, options, outcomes, journal, capture)
    except KeyboardInterrupt as exc:
        if journal is not None:
            journal.close()
        completed = sum(1 for o in outcomes.values() if o.ok)
        raise SweepInterrupted(
            spec.name, completed, len(spec.points), options.journal_path
        ) from exc
    finally:
        if journal is not None:
            journal.close()

    ordered = []
    for point, fingerprint in zip(spec.points, fingerprints):
        outcome = outcomes.get(point.index)
        if outcome is None:  # aborted before this point was attempted
            outcome = PointOutcome(
                index=point.index,
                label=point.label,
                fingerprint=fingerprint,
                status="skipped",
            )
        ordered.append(outcome)

    # Hand each point's telemetry payload to the parent session in point
    # order — completion order, worker count, retries, and journal resume
    # all wash out here, which is what makes exported traces byte-identical
    # across --jobs 1 / --jobs 4 / --resume.
    if active_session is not None:
        for outcome in ordered:
            if outcome.telemetry is not None:
                active_session.add_point_capture(outcome.label, outcome.telemetry)
    return SweepResult(name=spec.name, outcomes=ordered)


def run_sweep(
    spec: SweepSpec, jobs: int = 1, options: Optional[SweepOptions] = None
) -> List[Any]:
    """Evaluate every point of ``spec``; results come back in point order.

    Args:
        spec: the sweep to run.
        jobs: worker processes.  ``1`` (the default) runs inline with zero
            multiprocessing overhead; ``N > 1`` uses a supervised spawn-pool
            of ``min(jobs, len(spec))`` workers.  Without ``options`` the
            worker count is additionally clamped to the host CPU count, so
            over-subscribed requests (``--jobs 4`` on one CPU) skip the
            spawn tax and run inline.  Results are identical either way
            because each point's randomness is sealed in its kwargs.
        options: resilience policy (timeouts, retries, journal/resume,
            keep-going).  Without options, a failing point propagates its
            exception (inline) or raises :class:`SweepError` (pool), exactly
            all-or-nothing as before.

    Returns:
        One result per point, in point order.  With ``keep_going``, points
        that exhausted their attempts yield ``None``.

    Raises:
        SweepError: a point failed and ``keep_going`` is off.
        SweepInterrupted: Ctrl-C arrived mid-sweep (journal already flushed).
    """
    if options is None and jobs == 1 and telemetry_session.ACTIVE is None:
        # Legacy fast path: inline, zero supervision overhead, exceptions
        # propagate unwrapped.  Diverted when a telemetry session is active
        # so points are captured per-point (same assembly as jobs=N).
        return [point.execute() for point in spec.points]
    result = run_sweep_detailed(spec, jobs=jobs, options=options)
    keep_going = options.keep_going if options is not None else False
    if not keep_going and not result.ok:
        failures = result.failures()
        first = failures[0] if failures else next(
            o for o in result.outcomes if not o.ok
        )
        raise SweepError(result, first)
    return result.values()
