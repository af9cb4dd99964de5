"""The server model: sockets, local queues, system sleep states, power.

A server accepts tasks from the global scheduler, queues them locally,
executes them on cores, and reports completions back.  Its power controller
(see :mod:`repro.power`) decides when to enter system sleep states; the
server enforces the legal transition graph::

    S0 --sleep()--> ENTERING_SLEEP --entry latency--> S3/S5
    S3/S5 --request_wake()--> WAKING --exit latency--> S0

A wake requested while the server is still entering sleep is honoured as
soon as entry completes (the "wake race" every delay-timer policy hits).

Fault injection (:mod:`repro.faults`) adds one more state: FAILED.  A failed
server aborts all in-flight tasks, drops its local queue, draws no power and
refuses work until :meth:`Server.repair` returns it to S0.

Energy is accounted per component — CPU, DRAM, platform — exactly the
breakdown Fig. 9 of the paper reports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import ServerConfig
from repro.core.engine import Engine, EventHandle
from repro.core.stats import EnergyAccount, StateTracker
from repro.jobs.task import Task
from repro.server.core_unit import Core
from repro.server.local_scheduler import make_local_scheduler
from repro.server.processor import Processor
from repro.server.states import PackageState, ResidencyCategory, SystemState
from repro.telemetry import session as telemetry

SLEEP_LEVELS = {"s3": SystemState.S3, "s5": SystemState.S5}


class Server:
    """One simulated server (Fig. 2 of the paper)."""

    def __init__(
        self,
        engine: Engine,
        config: ServerConfig,
        server_id: int = 0,
        name: Optional[str] = None,
        allow_package_c6: bool = True,
        auto_wake_on_arrival: bool = True,
    ):
        self.engine = engine
        self.config = config
        self.server_id = server_id
        self.name = name or f"{config.name}-{server_id}"
        self.auto_wake_on_arrival = auto_wake_on_arrival
        self.system_state = SystemState.S0
        self._sleep_target = SystemState.S3
        self._wake_pending = False
        self._transition: Optional[EventHandle] = None
        # True only inside start_task_on_core's assign window, where the
        # core-state notification is provably a zero-length no-op.
        self._notify_held = False
        # Callbacks fired on fail()/repair() so the global scheduler can keep
        # an O(1) cached candidate list instead of rescanning the farm.
        self._availability_listeners: List[Callable[["Server"], None]] = []

        self.processors: List[Processor] = [
            Processor(
                engine,
                config.processor,
                socket_index=i,
                server_label=self.name,
                allow_package_c6=allow_package_c6,
            )
            for i in range(config.n_sockets)
        ]
        for proc in self.processors:
            proc.on_task_complete = self._on_core_complete
            proc.on_power_change = self._on_power_change
            proc._server = self
        # Single-socket fast path: component powers in S0/ENTERING_SLEEP are
        # a pure function of (core-state mask, package state, any-busy,
        # P-state), so cache the computed tuples; entries are produced by the
        # general path below and are therefore bit-identical to a fresh
        # computation.  The map is shared across every server built from
        # this config object at the same P-state, so a homogeneous farm
        # warms it once rather than once per server.
        self._single_proc = self.processors[0] if len(self.processors) == 1 else None
        self._repoint_cpower_cache()
        # Constant (cpu, dram, platform) tuples for the states whose draw
        # doesn't depend on core/package state; same expressions as the
        # branches they replace, evaluated once.
        plat = config.platform
        core_profile = config.processor.core_profile
        pkg_profile = config.processor.package_profile
        self._p_failed = (0.0, 0.0, 0.0)
        self._p_s3 = (0.0, plat.dram_selfrefresh_w, plat.s3_w)
        self._p_s5 = (0.0, 0.0, plat.s5_w)
        self._p_waking = (
            config.n_sockets
            * (pkg_profile.pc0_w + config.processor.n_cores * core_profile.c1_w),
            plat.dram_active_w,
            plat.wake_w,
        )
        self._all_cores: List[Core] = [
            core for proc in self.processors for core in proc.cores
        ]
        self.local_scheduler = make_local_scheduler(self, config.queue_policy)

        # Observers wired by the global scheduler / power policies.
        self.on_task_complete: Optional[Callable[["Server", Task], None]] = None
        self.power_controller = None  # set via attach_controller()

        # Telemetry.
        now = engine.now
        self.residency = StateTracker(ResidencyCategory.IDLE, now)
        self.cpu_energy = EnergyAccount("cpu", 0.0, now)
        self.dram_energy = EnergyAccount("dram", 0.0, now)
        self.platform_energy = EnergyAccount("platform", 0.0, now)
        self.tasks_completed = 0
        self.tasks_submitted = 0
        self.failure_count = 0
        self.repair_count = 0
        self.tags: Dict[str, object] = {}
        self._state_since = now  # start of the current system_state interval
        self._update_power()
        self._update_residency()

    # ------------------------------------------------------------------
    # Idle and availability notifications
    # ------------------------------------------------------------------
    def _on_idle(self) -> None:
        """The server just went fully idle: let its controller react."""
        if self.power_controller is not None:
            self.power_controller.on_server_idle(self)

    def add_availability_listener(self, callback: Callable[["Server"], None]) -> None:
        """Register a callback invoked after fail() and repair()."""
        self._availability_listeners.append(callback)

    def _notify_availability(self) -> None:
        for callback in self._availability_listeners:
            callback(self)

    # ------------------------------------------------------------------
    # Controller attachment
    # ------------------------------------------------------------------
    def attach_controller(self, controller) -> None:
        """Attach a power controller (see :mod:`repro.power.controller`)."""
        self.power_controller = controller
        controller.attach(self)

    # ------------------------------------------------------------------
    # Task intake and execution
    # ------------------------------------------------------------------
    def submit_task(self, task: Task) -> None:
        """Accept a task from the global scheduler (or the network)."""
        if self.system_state is SystemState.FAILED:
            raise RuntimeError(f"cannot submit task to failed server {self.name}")
        self.tasks_submitted += 1
        task.server_id = self.server_id
        self.local_scheduler.enqueue(task)
        if self.power_controller is not None:
            self.power_controller.on_task_arrival(self, task)
        if self.system_state is SystemState.S0:
            self.local_scheduler.dispatch()
        elif self.auto_wake_on_arrival:
            self.request_wake()

    @property
    def can_execute(self) -> bool:
        """True while the platform is in S0 and cores may start tasks."""
        return self.system_state is SystemState.S0

    def all_cores(self) -> List[Core]:
        """Every core across all sockets."""
        return list(self._all_cores)

    def find_available_core(self) -> Optional[Core]:
        """The best free core across sockets (fastest first), or None."""
        best: Optional[Core] = None
        for proc in self.processors:
            core = proc.first_available_core()
            if core is not None and (best is None or core.speed_factor > best.speed_factor):
                best = core
        return best

    def start_task_on_core(self, core: Core, task: Task) -> None:
        """Dispatch ``task`` on ``core``, charging package-C6 exit latency."""
        if not self.can_execute:
            raise RuntimeError(f"{self.name} cannot execute in {self.system_state.value}")
        delay = core.processor.prepare_dispatch()
        # The C1/C6->ACTIVE transition inside assign() fires a power-change
        # notification before current_task is set; its accrual is zero-length
        # (same timestamp) and its residency category matches the preceding
        # prepare_dispatch state, so it is observably a no-op.  Suppress it
        # and publish the real post-assign values once below.
        self._notify_held = True
        try:
            core.assign(task, extra_start_delay=delay)
        finally:
            self._notify_held = False
        self._update_power()
        self._update_residency()

    def preempt_core(self, core: Core) -> Optional[Task]:
        """Abort the task running on ``core`` and hand the core new work.

        Returns the aborted task (restartable: resubmit it to run it again),
        or None if the core was idle.  Used by failure-injection studies and
        by policies that reclaim cores.
        """
        task = core.preempt()
        if task is not None:
            self.local_scheduler.on_core_free(core)
            self._update_power()
            self._update_residency()
        return task

    def _on_core_complete(self, core: Core, task: Task) -> None:
        self.tasks_completed += 1
        self.local_scheduler.on_core_free(core)
        # No power/residency update here: Core._complete's C1 transition (and
        # any dispatch on_core_free triggered) already set the exact values
        # at this timestamp; a repeat would accrue zero-length intervals.
        if self.on_task_complete is not None:
            self.on_task_complete(self, task)
        if self.power_controller is not None:
            self.power_controller.on_task_complete(self, task)
        if self.is_idle:
            self._on_idle()

    # ------------------------------------------------------------------
    # Load metrics (used by global scheduling and pool policies)
    # ------------------------------------------------------------------
    @property
    def running_task_count(self) -> int:
        """Tasks currently occupying cores."""
        n = 0
        for proc in self.processors:
            n += proc._busy
        return n

    @property
    def queued_task_count(self) -> int:
        """Tasks waiting in the local queue(s)."""
        return self.local_scheduler.queued_count

    @property
    def pending_task_count(self) -> int:
        """Running + queued tasks — the per-server load estimator input."""
        return self.running_task_count + self.queued_task_count

    @property
    def is_idle(self) -> bool:
        """No running and no queued tasks."""
        return self.pending_task_count == 0

    @property
    def total_cores(self) -> int:
        return self.config.total_cores

    # ------------------------------------------------------------------
    # System sleep state machine
    # ------------------------------------------------------------------
    def sleep(self, level: str = "s3") -> bool:
        """Begin the transition to a system sleep state.

        Returns False (and does nothing) if the server has pending work or is
        already sleeping/transitioning — policies are expected to drain a
        server before parking it.
        """
        if level not in SLEEP_LEVELS:
            raise ValueError(f"unknown sleep level {level!r}; expected one of {list(SLEEP_LEVELS)}")
        if self.system_state is not SystemState.S0 or not self.is_idle:
            return False
        self._sleep_target = SLEEP_LEVELS[level]
        self._wake_pending = False
        for proc in self.processors:
            proc.force_sleep()
        self._set_system_state(SystemState.ENTERING_SLEEP)
        entry = (
            self.config.platform.s3_entry_latency_s
            if self._sleep_target is SystemState.S3
            else self.config.platform.s5_entry_latency_s
        )
        self._transition = self.engine.schedule(entry, self._sleep_entry_complete)
        return True

    def request_wake(self) -> None:
        """Ask a sleeping (or falling-asleep) server to return to S0."""
        if self.system_state in (SystemState.S0, SystemState.WAKING, SystemState.FAILED):
            return
        if self.system_state is SystemState.ENTERING_SLEEP:
            self._wake_pending = True
            return
        self._begin_wake()

    def _sleep_entry_complete(self) -> None:
        self._transition = None
        self._set_system_state(self._sleep_target)
        if self._wake_pending:
            self._wake_pending = False
            self._begin_wake()

    def _begin_wake(self) -> None:
        self._set_system_state(SystemState.WAKING)
        exit_latency = (
            self.config.platform.s3_exit_latency_s
            if self._sleep_target is SystemState.S3
            else self.config.platform.s5_exit_latency_s
        )
        self._transition = self.engine.schedule(exit_latency, self._wake_complete)

    def _wake_complete(self) -> None:
        self._transition = None
        self._set_system_state(SystemState.S0)
        for proc in self.processors:
            proc.wake_from_sleep()
        if self.power_controller is not None:
            self.power_controller.on_server_awake(self)
        self.local_scheduler.dispatch()
        if self.is_idle:
            self._on_idle()

    # ------------------------------------------------------------------
    # Failure and repair (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    @property
    def is_failed(self) -> bool:
        """True while the server is down due to an injected fault."""
        return self.system_state is SystemState.FAILED

    def fail(self) -> List[Task]:
        """Crash the server: abort in-flight work, drop the local queue.

        Returns every task that was running or queued here — these are lost
        (tasks are restartable units) and must be re-dispatched elsewhere by
        the global scheduler's recovery path.  Failing an already-failed
        server is a no-op returning no tasks.
        """
        if self.system_state is SystemState.FAILED:
            return []
        if self._transition is not None and self._transition.pending:
            self._transition.cancel()
        self._transition = None
        self._wake_pending = False
        lost: List[Task] = []
        for core in self.all_cores():
            task = core.preempt()
            if task is not None:
                lost.append(task)
        lost.extend(self.local_scheduler.drain())
        for proc in self.processors:
            proc.force_sleep()
        self.failure_count += 1
        self._set_system_state(SystemState.FAILED)
        self._notify_availability()
        return lost

    def repair(self) -> bool:
        """Return a failed server to S0, ready to accept work again."""
        if self.system_state is not SystemState.FAILED:
            return False
        self.repair_count += 1
        self._set_system_state(SystemState.S0)
        for proc in self.processors:
            proc.wake_from_sleep()
        self._notify_availability()
        if self.power_controller is not None:
            self.power_controller.on_server_awake(self)
        if self.is_idle:
            self._on_idle()
        return True

    def _set_system_state(self, state: SystemState) -> None:
        if state is self.system_state:
            return
        ts = telemetry.ACTIVE
        if ts is not None and ts.power is not None:
            # Close the span for the state we are leaving.
            now = self.engine.now
            ts.power.complete(
                "power",
                self.system_state.value,
                f"server/{self.name}",
                self._state_since,
                now - self._state_since,
            )
        self._state_since = self.engine.now
        self.system_state = state
        self._update_power()
        self._update_residency()

    # ------------------------------------------------------------------
    # Power and residency accounting
    # ------------------------------------------------------------------
    def _on_power_change(self) -> None:
        if self._notify_held:
            return
        self._update_power()
        self._update_residency()

    def _repoint_cpower_cache(self) -> None:
        """Bind ``_cpower_cache`` to the shared per-(config, P-state) map.

        Called at construction and after every ``Processor.set_frequency``:
        cached tuples embed the active-core power, so a retuned server must
        read the map for its new frequency (same-frequency peers keep
        sharing theirs).
        """
        proc1 = self._single_proc
        freq = proc1.frequency_ghz if proc1 is not None else None
        shared = self.config.__dict__.setdefault("_cpower_caches", {})
        self._cpower_cache: Dict[int, Tuple[float, float, float]] = shared.setdefault(
            freq, {}
        )

    def _component_powers(self) -> Tuple[float, float, float]:
        """(cpu, dram, platform) draw; several calls per task at farm scale.

        Explicit accumulation loops match the former ``sum(genexpr)`` float
        order exactly.
        """
        state = self.system_state
        if state is SystemState.FAILED:
            return self._p_failed
        if state is SystemState.S3:
            return self._p_s3
        if state is SystemState.S5:
            return self._p_s5
        if state is SystemState.WAKING:
            # Components ramp at full draw while resuming; the CPU is modelled
            # at package-active/core-halt power for the wake duration.
            return self._p_waking
        # S0 and ENTERING_SLEEP: power follows actual core/package states.
        proc1 = self._single_proc
        key = None
        if proc1 is not None:
            # Packed int key: (mask, in-PC6, any-busy, entering-sleep).
            # Processor.set_frequency clears the cache, so the P-state
            # needn't be part of the key.
            key = (
                (proc1._state_mask << 3)
                | ((proc1.package_state is PackageState.PC6) << 2)
                | ((proc1._busy > 0) << 1)
                | (state is SystemState.ENTERING_SLEEP)
            )
            hit = self._cpower_cache.get(key)
            if hit is not None:
                return hit
        platform = self.config.platform
        cpu = 0
        for proc in self.processors:
            cpu = cpu + proc.power_w()
        any_busy = False
        for proc in self.processors:
            if proc._busy:
                any_busy = True
                break
        dram = platform.dram_active_w if any_busy else platform.dram_idle_w
        other = platform.other_active_w if any_busy else platform.other_idle_w
        if state is SystemState.ENTERING_SLEEP:
            other = platform.other_idle_w
            dram = platform.dram_idle_w
        result = (cpu, dram, other)
        if key is not None:
            self._cpower_cache[key] = result
        return result

    def _update_power(self) -> None:
        now = self.engine._now
        cpu, dram, plat = self._component_powers()
        # Inlined EnergyAccount.set_power (same accrual expression, minus the
        # backwards-time guard): this runs several times per dispatched task.
        acct = self.cpu_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = cpu
        acct._since = now
        acct = self.dram_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = dram
        acct._since = now
        acct = self.platform_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = plat
        acct._since = now

    def _residency_category(self) -> str:
        state = self.system_state
        if state is SystemState.FAILED:
            return ResidencyCategory.FAILED
        if state in (SystemState.S3, SystemState.S5, SystemState.ENTERING_SLEEP):
            return ResidencyCategory.SYS_SLEEP
        if state is SystemState.WAKING:
            return ResidencyCategory.WAKE_UP
        procs = self.processors
        for proc in procs:
            if proc._busy:
                return ResidencyCategory.ACTIVE
        for proc in procs:
            if proc.package_state is not PackageState.PC6:
                return ResidencyCategory.IDLE
        return ResidencyCategory.PKG_C6

    def _update_residency(self) -> None:
        self.residency.set_state(self._residency_category(), self.engine._now)

    # ------------------------------------------------------------------
    # Telemetry accessors
    # ------------------------------------------------------------------
    @property
    def power_w(self) -> float:
        """Total instantaneous server power (CPU + DRAM + platform)."""
        cpu, dram, plat = self._component_powers()
        return cpu + dram + plat

    @property
    def cpu_power_w(self) -> float:
        """Instantaneous CPU (package + cores) power."""
        return self._component_powers()[0]

    def energy_breakdown_j(self, now: Optional[float] = None) -> Dict[str, float]:
        """Energy per component in joules up to ``now`` (Fig. 9's breakdown)."""
        t = self.engine.now if now is None else now
        return {
            "cpu": self.cpu_energy.energy_j(t),
            "dram": self.dram_energy.energy_j(t),
            "platform": self.platform_energy.energy_j(t),
        }

    def total_energy_j(self, now: Optional[float] = None) -> float:
        """Total server energy in joules up to ``now``."""
        return sum(self.energy_breakdown_j(now).values())

    def residency_fractions(self, now: Optional[float] = None) -> Dict[str, float]:
        """Fraction of time per Fig.-8 category since simulation start."""
        t = self.engine.now if now is None else now
        fractions = self.residency.residency_fractions(t)
        return {cat: fractions.get(cat, 0.0) for cat in ResidencyCategory.ALL}

    def __repr__(self) -> str:
        return (
            f"<Server {self.name} {self.system_state.value} "
            f"busy={self.running_task_count}/{self.total_cores} "
            f"queued={self.queued_task_count}>"
        )
