"""Scalability — the Table I claim that HolDCSim handles >20K servers.

Builds a farm of (by default) 20,480 four-core servers, drives it with
Poisson single-task jobs for a short simulated span, and reports wall-clock
throughput (events/second, jobs/second).  Completing this run at all is the
Table I row; the throughput numbers let users judge what their own studies
will cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import ServerConfig, small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import audit_farm, build_farm, drive
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.scheduling.policies import RoundRobinPolicy
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory


@dataclass
class ScalabilityResult:
    n_servers: int
    n_jobs: int
    sim_duration_s: float
    wall_seconds: float
    events_executed: int

    @property
    def events_per_second(self) -> float:
        return self.events_executed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def jobs_per_wall_second(self) -> float:
        return self.n_jobs / self.wall_seconds if self.wall_seconds else 0.0

    def render(self) -> str:
        return (
            f"Table I (scalability) — {self.n_servers:,} servers: "
            f"{self.n_jobs:,} jobs over {self.sim_duration_s:.2f} simulated s "
            f"in {self.wall_seconds:.1f} wall s "
            f"({self.events_per_second:,.0f} events/s, "
            f"{self.jobs_per_wall_second:,.0f} jobs/s)"
        )


def run_scalability(
    n_servers: int = 20_480,
    n_jobs: int = 200_000,
    utilization: float = 0.3,
    mean_service_s: float = 0.005,
    seed: int = 13,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
    pool: str = "auto",
) -> ScalabilityResult:
    """Simulate a >20K-server farm and measure simulator throughput.

    ``pool`` is accepted only as ``"auto"``, for the repository benchmark
    (``perfbench/workloads.py``), which still passes it; every farm runs the
    exact per-server path.  The keyword goes once that caller drops it.
    """
    if pool != "auto":
        raise ValueError(
            f"pool={pool!r}: the pooled idle-server path was removed; "
            f"every farm runs the exact per-server path"
        )
    config = server_config or small_cloud_server(n_cores=4)
    farm = build_farm(n_servers, config, policy=RoundRobinPolicy(), seed=seed)
    rng = RandomSource(seed)
    rate = arrival_rate_for_utilization(
        utilization, mean_service_s, n_servers, config.total_cores
    )
    factory = SingleTaskJobFactory(
        ExponentialService(mean_service_s), rng.stream("service")
    )
    # Time the simulation only: the post-run conservation audit still runs
    # (below) but is verification, not simulated work, so it stays outside
    # the throughput window — at farm scale it would otherwise skew
    # events/s by several percent.
    start = time.perf_counter()
    driver = drive(
        farm,
        PoissonProcess(rate, rng.stream("arrivals")),
        factory,
        max_jobs=n_jobs,
        drain=True,
        audit="off",
    )
    wall = time.perf_counter() - start
    audit_farm(farm, driver=driver, audit=audit)
    return ScalabilityResult(
        n_servers=n_servers,
        n_jobs=farm.scheduler.jobs_completed,
        sim_duration_s=farm.engine.now,
        wall_seconds=wall,
        events_executed=farm.engine.events_executed,
    )


@dataclass
class ScalabilitySweep:
    """Simulator throughput across farm sizes (the Table I trajectory)."""

    points: List[ScalabilityResult]

    def render(self) -> str:
        lines = ["Table I sweep — throughput vs farm size"]
        for p in self.points:
            lines.append(p.render())
        return "\n".join(lines)


def run_scalability_sweep(
    server_counts: Sequence[int],
    n_jobs: int = 200_000,
    utilization: float = 0.3,
    mean_service_s: float = 0.005,
    seed: int = 13,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    audit: str = "warn",
) -> ScalabilitySweep:
    """Run the scalability point at several farm sizes.

    Note: parallel workers (``jobs > 1``) compete for cores, which perturbs
    the *wall-clock* measurements; sweep sequentially when the throughput
    numbers matter, in parallel when only checking completion.
    """
    spec = SweepSpec("scalability")
    for n_servers in server_counts:
        spec.add(
            run_scalability,
            n_servers=n_servers,
            n_jobs=n_jobs,
            utilization=utilization,
            mean_service_s=mean_service_s,
            seed=seed,
            audit=audit,
        )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    return ScalabilitySweep(points=[p for p in points if p is not None])
