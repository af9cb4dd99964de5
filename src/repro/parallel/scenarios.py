"""Partition-aware reference scenarios for the sharded runtime.

A scenario here is a farm split into ``P`` fixed partitions that interact
*only* through the boundary-message bus (:mod:`repro.parallel.protocol`):

* a **front end** living on partition 0 draws Poisson arrivals and service
  times from the root seed's ``"arrivals"``/``"service"`` streams and routes
  each job to a partition by deterministic round-robin
  (:meth:`~repro.scheduling.shard_map.ShardPlan.route_job`), dispatching it
  as a ``"job"`` boundary message;
* each partition owns its servers, scheduler and per-partition subsystems
  (the joint energy manager), all seeded from
  ``RandomSource(seed).spawn(f"part{pid}")``;
* completions/failures flow back to the front end as ``"ack"`` messages.

Because partitions share no state and the bus quantizes every interaction to
window edges, the per-partition event streams are a function of the scenario
alone — not of how partitions are packed onto worker processes.  That is the
bit-identity property the determinism tests assert.

Each scenario is one :class:`ShardSpec` subclass next to its
:class:`PartitionModel`; the spec's type picks the model.  A partition wires
its farm with the same builder its serial experiment uses
(:func:`~repro.experiments.common.build_farm` or
:func:`~repro.experiments.joint_energy.build_joint_cluster`).  Only the
front end differs from the serial run on purpose: the serial experiments'
zero-delay scheduler→server calls would force a zero lookahead, which
serializes shards, so dispatch here pays one quantized boundary latency —
the price of parallelism the DESIGN.md protocol section derives — and each
partition draws from its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource, exponential
from repro.experiments.common import build_farm
from repro.experiments.joint_energy import _DagJobFactory, build_joint_cluster
from repro.jobs.task import Job
from repro.parallel.protocol import EngineClock, Message, ShardEndpoint
from repro.scheduling.policies import RoundRobinPolicy
from repro.scheduling.shard_map import ShardPlan
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import ExponentialService

#: The front end always lives on partition 0.
FRONTEND_PID = 0

#: Chaos actions understood by the worker runtime (crash-handling tests).
#: ``kill`` is SIGKILL — no Python cleanup runs, the hardest crash shape.
CHAOS_ACTIONS = ("exit", "raise", "hang", "kill")


@dataclass
class ShardSpec:
    """What the window runtime reads; each scenario subclasses it.

    A subclass adds the fields its partition model reads and sets ``name``
    and ``model``.  The spec is picklable and complete: ``n_partitions`` is a
    *model* parameter (results depend on it), while the worker count passed
    to :func:`repro.parallel.run_sharded` is purely an execution parameter
    and never changes results.
    """

    n_partitions: int = 4
    seed: int = 1
    #: Window width W; partitions synchronize at edges k*W.
    window_s: float = 0.25
    #: Declared inter-partition propagation delay (the lookahead L).
    boundary_latency_s: float = 0.25
    #: Simulated time to keep running after quiesce so queued ticks settle.
    drain_s: float = 0.5
    audit: str = "warn"
    #: ``(pid, window, action)`` triples fired by the worker runtime just
    #: before reporting that window's barrier; used by the crash tests.
    chaos: Tuple[Tuple[int, int, str], ...] = ()

    #: Scenario name, rendered as ``merged scenario=...``.
    name: ClassVar[str]
    #: The :class:`PartitionModel` subclass that builds one partition.
    model: ClassVar[type]
    #: A run still open after this many windows is a bug, not a long run.
    max_windows: ClassVar[int] = 200_000

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.boundary_latency_s <= 0:
            raise ValueError("window and boundary latency must be positive")
        for _, _, action in self.chaos:
            if action not in CHAOS_ACTIONS:
                raise ValueError(f"chaos action {action!r} not in {CHAOS_ACTIONS}")

    def plan(self, n_workers: int = 1) -> ShardPlan:
        return ShardPlan(self.n_servers, self.n_partitions, n_workers)


# ----------------------------------------------------------------------
# Front end (partition 0)
# ----------------------------------------------------------------------
class FrontEnd:
    """Seeded arrival source + ack sink, quantized through the bus.

    Draws are taken from the *root* seed's streams (never from partition
    RNGs), and jobs are identified by their dispatch index — so payloads are
    a pure function of the spec regardless of execution mode.

    Arrivals are drawn *statefully* (``t += Exp(rate)`` against a kept
    clock) rather than through :meth:`PoissonProcess.arrivals`: the draw
    sequence is identical, but a generator object cannot be pickled and the
    front end lives inside checkpointed worlds (:mod:`repro.checkpoint`).
    """

    def __init__(
        self,
        spec: ShardSpec,
        plan: ShardPlan,
        engine: Engine,
        endpoint: ShardEndpoint,
        rate: float,
        draw,
    ):
        root = RandomSource(spec.seed)
        self.spec = spec
        self.plan = plan
        self.engine = engine
        self.endpoint = endpoint
        self._service_rng = root.stream("service")
        self._arrivals = PoissonProcess(rate, root.stream("arrivals"))
        self._arrival_t = self._arrivals.start_time
        self._draw = draw
        self.jobs_dispatched = 0
        self.acks_ok = 0
        self.acks_failed = 0
        self.source_done = spec.n_jobs <= 0

    def _next_arrival(self) -> float:
        # Bit-identical to PoissonProcess.arrivals(): t += Exp(rate).
        self._arrival_t += exponential(self._arrivals.rng, self._arrivals.rate_per_s)
        return self._arrival_t

    def start(self) -> None:
        if not self.source_done:
            self.engine.post_at(self._next_arrival(), self._arrive)

    def _arrive(self) -> None:
        idx = self.jobs_dispatched
        payload = (idx,) + self._draw(self._service_rng)
        self.endpoint.send(self.plan.route_job(idx), "job", payload)
        self.jobs_dispatched += 1
        if self.jobs_dispatched >= self.spec.n_jobs:
            self.source_done = True
        else:
            self.engine.post_at(self._next_arrival(), self._arrive)

    def on_ack(self, msg: Message) -> None:
        if msg.payload[1]:
            self.acks_ok += 1
        else:
            self.acks_failed += 1

    def ready(self) -> bool:
        """Drain-readiness, evaluated at a barrier *before* its deliveries."""
        return self.source_done and (
            self.acks_ok + self.acks_failed >= self.jobs_dispatched
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "fe_dispatched": self.jobs_dispatched,
            "fe_acks_ok": self.acks_ok,
            "fe_acks_failed": self.acks_failed,
        }


# ----------------------------------------------------------------------
# Service-time draws (module-level classes: closures cannot be pickled,
# and the front end holding them lives inside checkpointed worlds)
# ----------------------------------------------------------------------
class ExponentialDraw(ExponentialService):
    """Single-task service draw: the serial farms' exponential service time."""

    def __call__(self, rng: np.random.Generator) -> tuple:
        return (self.sample(rng),)


# ----------------------------------------------------------------------
# Partition models
# ----------------------------------------------------------------------
class PartitionModel:
    """One partition: servers + scheduler + scenario subsystems on an engine.

    Subclasses implement ``_build`` (wire the farm), ``_build_job`` (rebuild
    a job from a ``"job"`` payload), and may extend ``start``/``quiesce``/
    ``extra_snapshot``.
    """

    def __init__(
        self,
        spec: ShardSpec,
        plan: ShardPlan,
        pid: int,
        engine: Engine,
        endpoint: ShardEndpoint,
    ):
        self.spec = spec
        self.plan = plan
        self.pid = pid
        self.engine = engine
        self.endpoint = endpoint
        endpoint.now = EngineClock(engine)
        self.part_seed = RandomSource(spec.seed).spawn(f"part{pid}").seed
        self.n_local = plan.partition_size(pid)
        self.servers: List = []
        self.scheduler = None
        self._build()
        self.scheduler.on_job_complete = self._ack_ok
        self.scheduler.on_job_failed = self._ack_failed
        self.frontend: Optional[FrontEnd] = None
        if pid == FRONTEND_PID:
            self.frontend = FrontEnd(
                spec, plan, engine, endpoint,
                rate=self.arrival_rate(),
                draw=self.draw_services(),
            )

    # -- scenario hooks --------------------------------------------------
    def _build(self) -> None:
        raise NotImplementedError

    def _build_job(self, payload: tuple, now: float) -> Job:
        raise NotImplementedError

    def arrival_rate(self) -> float:
        spec = self.spec
        return arrival_rate_for_utilization(
            spec.utilization, spec.mean_service_s, spec.n_servers, spec.n_cores
        )

    def draw_services(self):
        return ExponentialDraw(self.spec.mean_service_s)

    # -- bus ------------------------------------------------------------
    def _ack_ok(self, job: Job) -> None:
        self.endpoint.send(FRONTEND_PID, "ack", (job.job_id, 1))

    def _ack_failed(self, job: Job) -> None:
        self.endpoint.send(FRONTEND_PID, "ack", (job.job_id, 0))

    def on_message(self, msg: Message) -> None:
        if msg.kind == "job":
            self.scheduler.submit_job(self._build_job(msg.payload, self.engine.now))
        elif msg.kind == "ack":
            if self.frontend is None:
                raise RuntimeError(f"partition {self.pid} got an ack without a front end")
            self.frontend.on_ack(msg)
        else:
            raise RuntimeError(f"unknown boundary message kind {msg.kind!r}")

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self.frontend is not None:
            self.frontend.start()

    def ready(self, edge_time: float) -> bool:
        """Only the front-end partition gates the drain; others always agree."""
        if self.frontend is None:
            return True
        return self.frontend.ready()

    def quiesce(self) -> None:
        """Stop periodic controllers so the drain windows can settle."""

    def snapshot(self, t_end: float) -> Dict[str, object]:
        sched = self.scheduler
        snap: Dict[str, object] = {
            "pid": self.pid,
            "n_servers": self.n_local,
            "jobs_submitted": sched.jobs_submitted,
            "jobs_completed": sched.jobs_completed,
            "jobs_failed": sched.jobs_failed,
            "active_jobs": sched.active_jobs,
            "tasks_lost": sched.tasks_lost,
            "tasks_retried": sched.tasks_retried,
            "tasks_abandoned": sched.tasks_abandoned,
            "slo_violations": sched.slo_violations,
            "job_latency": [float(x) for x in sched.job_latency.samples],
            "task_queue_delay": [float(x) for x in sched.task_queue_delay.samples],
            "energy_j": sum(s.total_energy_j(t_end) for s in self.servers),
            "bus_sent": self.endpoint.sent,
            "bus_received": self.endpoint.received,
            "bus_pending": self.endpoint.pending_messages(),
            "journal": list(self.endpoint.journal),
        }
        if self.frontend is not None:
            snap.update(self.frontend.snapshot())
        snap.update(self.extra_snapshot(t_end))
        return snap

    def extra_snapshot(self, t_end: float) -> Dict[str, object]:
        return {}


class ScalabilityPartition(PartitionModel):
    """Plain farm under round-robin dispatch (the Table I shape)."""

    def _build(self) -> None:
        farm = build_farm(
            self.n_local,
            small_cloud_server(n_cores=self.spec.n_cores),
            policy=RoundRobinPolicy(),
            seed=self.part_seed,
            engine=self.engine,
        )
        self.servers = farm.servers
        self.scheduler = farm.scheduler

    def _build_job(self, payload: tuple, now: float) -> Job:
        idx, service = payload
        job = Job(arrival_time=now, job_id=idx, job_type="shard-single")
        job.add_task(service, name="task")
        return job


@dataclass
class ScalabilitySpec(ShardSpec):
    """Sharded Table I point: big farm, short exponential tasks."""

    seed: int = 13
    window_s: float = 1e-3
    boundary_latency_s: float = 1e-3
    drain_s: float = 2e-3
    n_servers: int = 64
    n_jobs: int = 400

    name: ClassVar[str] = "scalability"
    model: ClassVar[type] = ScalabilityPartition
    n_cores: ClassVar[int] = 4
    utilization: ClassVar[float] = 0.3
    mean_service_s: ClassVar[float] = 0.005


class JointPartition(PartitionModel):
    """One fat-tree cluster per partition under the joint energy manager.

    Partition-local server ids are 0..k^3/4-1 (the fat-tree names its hosts
    ``h0..h{n-1}``); ids are only meaningful within the partition.  Stage
    times and the mean job work come from the serial experiment's job
    factory.
    """

    def _build(self) -> None:
        spec = self.spec
        cluster = build_joint_cluster(
            self.engine,
            spec.mode,
            k=spec.fat_tree_k,
            n_cores=spec.n_cores,
            link_rate_bps=spec.link_rate_bps,
            tau_s=spec.tau_s,
            switch_idle_threshold_s=spec.switch_idle_threshold_s,
        )
        self.cluster = cluster
        self.servers = cluster.farm.servers
        self.scheduler = cluster.farm.scheduler
        # Stage draws take the front end's rng, not the factory's.
        self.jobs = _DagJobFactory(None)

    def arrival_rate(self) -> float:
        spec = self.spec
        return (
            spec.utilization * spec.n_servers * spec.n_cores
            / self.jobs.mean_job_work_s
        )

    def draw_services(self):
        return self.jobs.stage_times

    def _build_job(self, payload: tuple, now: float) -> Job:
        idx, s0, s1 = payload
        job = Job(arrival_time=now, job_id=idx, job_type="shard-pipeline")
        job.add_task(s0, name="stage-0")
        job.add_task(s1, name="stage-1")
        job.add_edge(0, 1, self.spec.transfer_bytes)
        return job

    def start(self) -> None:
        self.cluster.manager.start()
        super().start()

    def quiesce(self) -> None:
        self.cluster.manager.stop()

    def extra_snapshot(self, t_end: float) -> Dict[str, object]:
        return {
            "network_energy_j": self.cluster.topo.network_energy_j(t_end),
            "manager_activations": self.cluster.manager.activations,
        }


@dataclass
class JointSpec(ShardSpec):
    """Sharded joint-energy reference: one fat-tree(k) cluster per partition."""

    n_partitions: int = 2
    seed: int = 11
    n_jobs: int = 60
    utilization: float = 0.3
    fat_tree_k: int = 4

    name: ClassVar[str] = "joint"
    model: ClassVar[type] = JointPartition
    mode: ClassVar[str] = "network-aware"
    n_cores: ClassVar[int] = 10
    link_rate_bps: ClassVar[float] = 10e9
    transfer_bytes: ClassVar[float] = 1e6
    tau_s: ClassVar[float] = 1.0
    switch_idle_threshold_s: ClassVar[float] = 2.0

    @property
    def n_servers(self) -> int:
        return self.n_partitions * self.fat_tree_k**3 // 4
