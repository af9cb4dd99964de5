"""Partition-aware reference scenarios for the sharded runtime.

A scenario here is a farm split into ``P`` fixed partitions that interact
*only* through the boundary-message bus (:mod:`repro.parallel.protocol`):

* a **front end** living on partition 0 draws Poisson arrivals and service
  times from the root seed's ``"arrivals"``/``"service"`` streams and routes
  each job to a partition by deterministic round-robin
  (:meth:`~repro.scheduling.shard_map.ShardPlan.route_job`), dispatching it
  as a ``"job"`` boundary message;
* each partition owns its servers, scheduler and per-partition subsystems
  (fault injector, facility, DVFS governor, joint energy manager), all
  seeded from ``RandomSource(seed).spawn(f"part{pid}")``;
* completions/failures flow back to the front end as ``"ack"`` messages.

Because partitions share no state and the bus quantizes every interaction to
window edges, the per-partition event streams are a function of the scenario
alone — not of how partitions are packed onto worker processes.  That is the
bit-identity property the determinism tests assert.

These are deliberately *new* reference scenarios rather than shims over the
serial experiments: the serial experiments' zero-delay scheduler→server
calls would force a zero lookahead, which serializes shards.  The dispatch
path here instead pays one quantized boundary latency, which is the price of
parallelism the DESIGN.md protocol section derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import FaultConfig, small_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource, exponential
from repro.experiments.common import build_farm
from repro.experiments.joint_energy import build_joint_cluster
from repro.faults.injector import FaultInjector
from repro.jobs.task import Job
from repro.parallel.protocol import EngineClock, Message, ShardEndpoint
from repro.scheduling.policies import RoundRobinPolicy
from repro.scheduling.shard_map import ShardPlan
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization

#: The front end always lives on partition 0.
FRONTEND_PID = 0

SCENARIOS = ("scalability", "faults", "facility", "joint", "ai")

#: Chaos actions understood by the worker runtime (crash-handling tests).
#: ``kill`` is SIGKILL — no Python cleanup runs, the hardest crash shape.
CHAOS_ACTIONS = ("exit", "raise", "hang", "kill")


@dataclass
class ScenarioSpec:
    """Complete, picklable description of one sharded reference scenario.

    ``n_partitions`` is a *model* parameter (results depend on it);
    the worker count passed to :func:`repro.parallel.run_sharded` is purely
    an execution parameter and never changes results.
    """

    name: str = "scalability"
    n_servers: int = 64
    n_jobs: int = 400
    n_cores: int = 4
    utilization: float = 0.3
    mean_service_s: float = 0.005
    seed: int = 13
    n_partitions: int = 4
    #: Window width W; partitions synchronize at edges k*W.
    window_s: float = 1e-3
    #: Declared inter-partition propagation delay (the lookahead L).
    boundary_latency_s: float = 1e-3
    #: Simulated time to keep running after quiesce so queued ticks settle.
    drain_s: float = 2e-3
    duration_s: Optional[float] = None
    max_windows: int = 200_000
    audit: str = "warn"
    # -- faults ---------------------------------------------------------
    mtbf_s: float = 8.0
    mttr_s: float = 2.0
    retry_limit: int = 3
    slo_latency_s: Optional[float] = None
    # -- facility -------------------------------------------------------
    setpoint_c: float = 24.0
    carbon: str = "solar"
    price: str = "time-of-use"
    zones_per_partition: int = 1
    thermal_limit_c: float = 45.0
    facility_tick_s: float = 0.5
    # -- joint ----------------------------------------------------------
    joint_mode: str = "network-aware"
    fat_tree_k: int = 4
    link_rate_bps: float = 10e9
    transfer_bytes: float = 1e6
    tau_s: float = 1.0
    switch_idle_threshold_s: float = 2.0
    # -- ai training ----------------------------------------------------
    group_size: int = 8
    ai_steps: int = 2
    ai_algorithm: str = "ring"
    ai_compute_s: float = 0.05
    ai_size_bytes: float = 4e6
    #: 0 selects :func:`repro.experiments.ai_training.default_phase_batch`.
    ai_phase_batch: int = 0
    # -- test hooks -----------------------------------------------------
    #: ``(pid, window, action)`` triples fired by the worker runtime just
    #: before reporting that window's barrier; used by the crash tests.
    chaos: Tuple[Tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ValueError(f"scenario {self.name!r} not in {SCENARIOS}")
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
        spec: ScenarioSpec,
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

    def ready(self, edge_time: float) -> bool:
        """Drain-readiness, evaluated at a barrier *before* its deliveries."""
        if not self.source_done:
            return False
        if self.acks_ok + self.acks_failed < self.jobs_dispatched:
            return False
        if self.spec.duration_s is not None and edge_time < self.spec.duration_s:
            return False
        return True

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
class ExponentialDraw:
    """Single-task service draw: Exp(mean) with ExponentialService's floor."""

    __slots__ = ("mean",)

    def __init__(self, mean: float):
        self.mean = mean

    def __call__(self, rng: np.random.Generator) -> tuple:
        # Same floor as ExponentialService: zero-length tasks break timing.
        return (max(1e-9, float(rng.exponential(self.mean))),)


class PipelineDraw:
    """Two-stage joint-scenario draw: independent U(0.4, 1.2) stage times."""

    __slots__ = ()

    def __call__(self, rng: np.random.Generator) -> tuple:
        return (
            float(rng.uniform(0.4, 1.2)),
            float(rng.uniform(0.4, 1.2)),
        )


class EmptyDraw:
    """No per-job draws: the job is a pure function of spec + job index."""

    __slots__ = ()

    def __call__(self, rng: np.random.Generator) -> tuple:
        return ()


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
        spec: ScenarioSpec,
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
        self.facility = None
        self.availability = ()
        self._build()
        self.scheduler.on_job_complete = self._ack_ok
        self.scheduler.on_job_failed = self._ack_failed
        self.frontend: Optional[FrontEnd] = None
        if pid == FRONTEND_PID:
            self.frontend = FrontEnd(
                spec, plan, engine, endpoint,
                rate=self.arrival_rate(spec),
                draw=self.draw_services(spec),
            )

    # -- scenario hooks --------------------------------------------------
    def _build(self) -> None:
        raise NotImplementedError

    def _build_job(self, payload: tuple, now: float) -> Job:
        raise NotImplementedError

    @staticmethod
    def arrival_rate(spec: ScenarioSpec) -> float:
        return arrival_rate_for_utilization(
            spec.utilization, spec.mean_service_s, spec.n_servers, spec.n_cores
        )

    @staticmethod
    def draw_services(spec: ScenarioSpec):
        return ExponentialDraw(spec.mean_service_s)

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
        return self.frontend.ready(edge_time)

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

    def audit_kwargs(self) -> Dict[str, object]:
        return {
            "availability": tuple(self.availability),
            "facility": self.facility,
        }


class ScalabilityPartition(PartitionModel):
    """Plain farm under round-robin dispatch (the Table I shape)."""

    def _build(self) -> None:
        spec = self.spec
        config = small_cloud_server(n_cores=spec.n_cores)
        farm = build_farm(
            self.n_local,
            config,
            policy=RoundRobinPolicy(),
            seed=self.part_seed,
            engine=self.engine,
        )
        self.farm = farm
        self.servers = farm.servers
        self.scheduler = farm.scheduler

    def _build_job(self, payload: tuple, now: float) -> Job:
        idx, service = payload
        job = Job(arrival_time=now, job_id=idx, job_type="shard-single")
        job.add_task(service, name="task")
        return job


class FaultsPartition(ScalabilityPartition):
    """Scalability farm plus a per-partition fault injector with retries."""

    def _build(self) -> None:
        super()._build()
        spec = self.spec
        fault_config = FaultConfig(
            enabled=True,
            server_mtbf_s=spec.mtbf_s,
            server_mttr_s=spec.mttr_s,
            retry_limit=spec.retry_limit,
            slo_latency_s=spec.slo_latency_s,
        )
        sched = self.scheduler
        sched.retry_limit = fault_config.retry_limit
        sched.retry_backoff_s = fault_config.retry_backoff_s
        sched.retry_backoff_factor = fault_config.retry_backoff_factor
        sched.slo_latency_s = fault_config.slo_latency_s
        self.injector = FaultInjector(
            self.engine,
            fault_config,
            self.farm.rng,
            servers=self.servers,
            scheduler=sched,
        )

    def start(self) -> None:
        self.injector.start()
        super().start()

    def quiesce(self) -> None:
        self.injector.stop()

    def audit_kwargs(self) -> Dict[str, object]:
        # Read the trackers at audit time (they are created by start());
        # holding a live dict view on self would break world pickling.
        kwargs = super().audit_kwargs()
        kwargs["availability"] = tuple(self.injector.trackers.values())
        return kwargs

    def extra_snapshot(self, t_end: float) -> Dict[str, object]:
        summary = self.injector.summary(t_end)
        return {
            "availability": summary["fleet_availability"],
            "failures_injected": summary["failures_injected"],
        }


class FacilityPartition(ScalabilityPartition):
    """Scalability farm plus a per-partition facility loop + DVFS governor."""

    def _build(self) -> None:
        super()._build()
        from dataclasses import replace

        from repro.facility import (
            Facility,
            FacilityConfig,
            ThrottleConfig,
            carbon_profile,
            outside_temperature_profile,
            price_profile,
        )
        from repro.power.dvfs import DvfsGovernor

        spec = self.spec
        period_s = spec.duration_s if spec.duration_s is not None else 40.0
        self.governor = DvfsGovernor(self.engine, self.servers)
        base = FacilityConfig(
            tick_s=spec.facility_tick_s,
            n_zones=spec.zones_per_partition,
            throttle=ThrottleConfig(limit_c=spec.thermal_limit_c),
        )
        self.facility = Facility(
            self.engine,
            self.servers,
            replace(base, setpoint_c=spec.setpoint_c),
            carbon=carbon_profile(spec.carbon, period_s=period_s),
            price=price_profile(spec.price, period_s=period_s),
            outside=outside_temperature_profile(period_s=period_s),
            governor=self.governor,
        )

    def start(self) -> None:
        self.governor.start()
        self.facility.start(until=self.spec.duration_s)
        super().start()

    def quiesce(self) -> None:
        self.facility.stop()
        self.governor.stop()

    def extra_snapshot(self, t_end: float) -> Dict[str, object]:
        summary = self.facility.summary(t_end)
        return {f"facility_{k}": v for k, v in sorted(summary.items())}


class JointPartition(PartitionModel):
    """One fat-tree cluster per partition under the joint energy manager.

    Partition-local server ids are 0..k^3/4-1 (the fat-tree names its hosts
    ``h0..h{n-1}``); ids are only meaningful within the partition.
    """

    def _build(self) -> None:
        spec = self.spec
        cluster = build_joint_cluster(
            self.engine,
            spec.joint_mode,
            k=spec.fat_tree_k,
            n_cores=spec.n_cores,
            link_rate_bps=spec.link_rate_bps,
            tau_s=spec.tau_s,
            switch_idle_threshold_s=spec.switch_idle_threshold_s,
        )
        if len(cluster.servers) != self.n_local:
            raise ValueError(
                f"joint scenario needs n_servers = n_partitions * (k^3/4); "
                f"partition {self.pid} got {self.n_local} servers but the "
                f"k={spec.fat_tree_k} cluster has {len(cluster.servers)}"
            )
        self.cluster = cluster
        self.servers = cluster.servers
        self.scheduler = cluster.scheduler

    @staticmethod
    def arrival_rate(spec: ScenarioSpec) -> float:
        mean_job_work_s = 2 * (0.4 + 1.2) / 2.0
        return spec.utilization * spec.n_servers * spec.n_cores / mean_job_work_s

    @staticmethod
    def draw_services(spec: ScenarioSpec):
        return PipelineDraw()

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


class AiPartition(PartitionModel):
    """One fat-tree training cluster per partition (collective workloads).

    Each ``"job"`` message rebuilds a deterministic synchronized-training
    job (:func:`repro.collective.training_step_job`) from the spec and the
    job index alone, so the sharded run is a pure function of the scenario.
    """

    def _build(self) -> None:
        from repro.experiments.ai_training import build_ai_cluster

        spec = self.spec
        cluster = build_ai_cluster(
            self.engine,
            k=spec.fat_tree_k,
            n_cores=spec.n_cores,
            link_rate_bps=spec.link_rate_bps,
        )
        if len(cluster.servers) != self.n_local:
            raise ValueError(
                f"ai scenario needs n_servers = n_partitions * (k^3/4); "
                f"partition {self.pid} got {self.n_local} servers but the "
                f"k={spec.fat_tree_k} cluster has {len(cluster.servers)}"
            )
        self.cluster = cluster
        self.servers = cluster.servers
        self.scheduler = cluster.scheduler

    @staticmethod
    def arrival_rate(spec: ScenarioSpec) -> float:
        # One training job roughly every job-length of compute; the exact
        # value only shapes overlap, determinism does not depend on it.
        return 1.0 / max(spec.ai_steps * spec.ai_compute_s, 1e-3)

    @staticmethod
    def draw_services(spec: ScenarioSpec):
        return EmptyDraw()

    def _build_job(self, payload: tuple, now: float) -> Job:
        from repro.experiments.ai_training import default_phase_batch
        from repro.collective import training_step_job

        spec = self.spec
        (idx,) = payload
        batch = spec.ai_phase_batch or default_phase_batch(spec.group_size)
        return training_step_job(
            spec.group_size,
            spec.ai_steps,
            compute_s=spec.ai_compute_s,
            size_bytes=spec.ai_size_bytes,
            algorithm=spec.ai_algorithm,
            phase_batch=batch,
            arrival_time=now,
            job_id=idx,
        )

    def extra_snapshot(self, t_end: float) -> Dict[str, object]:
        net = self.cluster.network
        placement = self.cluster.placement
        return {
            "network_energy_j": self.cluster.topo.network_energy_j(t_end),
            "bytes_delivered": net.bytes_delivered,
            "trains_engaged": net.trains_engaged,
            "trains_materialized": net.trains_materialized,
            "transfers_launched": self.scheduler.transfers_launched,
            "groups_placed": placement.groups_placed,
            "cross_pod_spills": placement.cross_pod_spills,
        }


_PARTITION_CLASSES = {
    "scalability": ScalabilityPartition,
    "faults": FaultsPartition,
    "facility": FacilityPartition,
    "joint": JointPartition,
    "ai": AiPartition,
}


def build_partition(
    spec: ScenarioSpec,
    plan: ShardPlan,
    pid: int,
    engine: Engine,
    endpoint: ShardEndpoint,
) -> PartitionModel:
    """Instantiate the scenario's partition model for partition ``pid``."""
    return _PARTITION_CLASSES[spec.name](spec, plan, pid, engine, endpoint)


# ----------------------------------------------------------------------
# Spec factories (the reference scenarios)
# ----------------------------------------------------------------------
def scalability_spec(
    n_servers: int = 64,
    n_jobs: int = 400,
    n_partitions: int = 4,
    utilization: float = 0.3,
    seed: int = 13,
    audit: str = "warn",
) -> ScenarioSpec:
    """Sharded Table I point: big farm, short exponential tasks."""
    return ScenarioSpec(
        name="scalability",
        n_servers=n_servers,
        n_jobs=n_jobs,
        n_cores=4,
        utilization=utilization,
        mean_service_s=0.005,
        seed=seed,
        n_partitions=n_partitions,
        window_s=1e-3,
        boundary_latency_s=1e-3,
        drain_s=2e-3,
        audit=audit,
    )


def faults_spec(
    n_servers: int = 24,
    n_jobs: int = 300,
    n_partitions: int = 4,
    duration_s: float = 12.0,
    seed: int = 1,
    audit: str = "warn",
) -> ScenarioSpec:
    """Sharded fault-resilience reference: per-partition MTBF/MTTR faulting."""
    return ScenarioSpec(
        name="faults",
        n_servers=n_servers,
        n_jobs=n_jobs,
        n_cores=2,
        utilization=0.3,
        mean_service_s=0.005,
        seed=seed,
        n_partitions=n_partitions,
        window_s=0.25,
        boundary_latency_s=0.25,
        drain_s=0.5,
        duration_s=duration_s,
        audit=audit,
    )


def facility_spec(
    n_servers: int = 16,
    n_jobs: int = 300,
    n_partitions: int = 4,
    duration_s: float = 12.0,
    setpoint_c: float = 26.0,
    carbon: str = "solar",
    seed: int = 1,
    audit: str = "warn",
) -> ScenarioSpec:
    """Sharded facility-carbon reference: per-partition thermal/cooling loop."""
    return ScenarioSpec(
        name="facility",
        n_servers=n_servers,
        n_jobs=n_jobs,
        n_cores=2,
        utilization=0.6,
        mean_service_s=0.005,
        seed=seed,
        n_partitions=n_partitions,
        window_s=0.25,
        boundary_latency_s=0.25,
        drain_s=0.5,
        duration_s=duration_s,
        setpoint_c=setpoint_c,
        carbon=carbon,
        audit=audit,
    )


def ai_spec(
    n_partitions: int = 2,
    n_jobs: Optional[int] = None,
    group_size: int = 8,
    n_steps: int = 2,
    algorithm: str = "ring",
    fat_tree_k: int = 4,
    seed: int = 11,
    audit: str = "warn",
) -> ScenarioSpec:
    """Sharded ai-training reference: one fat-tree training cluster each."""
    cluster_servers = fat_tree_k**3 // 4
    return ScenarioSpec(
        name="ai",
        n_servers=n_partitions * cluster_servers,
        n_jobs=n_jobs if n_jobs is not None else n_partitions,
        n_cores=4,
        seed=seed,
        n_partitions=n_partitions,
        window_s=0.25,
        boundary_latency_s=0.25,
        drain_s=0.5,
        group_size=group_size,
        ai_steps=n_steps,
        ai_algorithm=algorithm,
        fat_tree_k=fat_tree_k,
        audit=audit,
    )


def joint_spec(
    n_partitions: int = 2,
    n_jobs: int = 60,
    utilization: float = 0.3,
    fat_tree_k: int = 4,
    joint_mode: str = "network-aware",
    seed: int = 11,
    audit: str = "warn",
) -> ScenarioSpec:
    """Sharded joint-energy reference: one fat-tree cluster per partition."""
    cluster_servers = fat_tree_k**3 // 4
    return ScenarioSpec(
        name="joint",
        n_servers=n_partitions * cluster_servers,
        n_jobs=n_jobs,
        n_cores=10,
        utilization=utilization,
        seed=seed,
        n_partitions=n_partitions,
        window_s=0.25,
        boundary_latency_s=0.25,
        drain_s=0.5,
        joint_mode=joint_mode,
        fat_tree_k=fat_tree_k,
        audit=audit,
    )
