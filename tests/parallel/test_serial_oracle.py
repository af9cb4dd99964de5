"""Differential oracle: a one-partition sharded run against the serial farm.

With one partition the shard engine runs the very farm a serial experiment
builds — same :func:`~repro.experiments.common.build_farm` wiring, same
partition seed, same root-seed arrival and service streams — and differs
only in its front end: every job reaches the farm through the boundary bus,
quantized to a window edge.  Job latency is measured from that delivery, so
both runs must complete the same jobs with matching latency statistics.
Energy is not compared: the sharded run ends on a window edge.
"""

from __future__ import annotations

import pytest

from repro.core.config import small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import build_farm, drive
from repro.parallel import ScalabilitySpec, run_sharded
from repro.scheduling.policies import RoundRobinPolicy
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory

#: Relative agreement required of mean and p99 job latency.
TOLERANCE = 0.01


def _serial(spec: ScalabilitySpec):
    """The same farm and workload, driven by the serial experiment path."""
    farm = build_farm(
        spec.n_servers,
        small_cloud_server(n_cores=spec.n_cores),
        policy=RoundRobinPolicy(),
        seed=RandomSource(spec.seed).spawn("part0").seed,
    )
    root = RandomSource(spec.seed)
    rate = arrival_rate_for_utilization(
        spec.utilization, spec.mean_service_s, spec.n_servers, spec.n_cores
    )
    drive(
        farm,
        PoissonProcess(rate, root.stream("arrivals")),
        SingleTaskJobFactory(
            ExponentialService(spec.mean_service_s), root.stream("service")
        ),
        max_jobs=spec.n_jobs,
        drain=True,
        audit="strict",
    )
    return farm.scheduler


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_one_partition_matches_serial_farm(seed):
    spec = ScalabilitySpec(
        n_servers=64, n_jobs=400, n_partitions=1, seed=seed, audit="strict"
    )
    merged = run_sharded(spec, shards=1).merged
    serial = _serial(spec)

    assert merged.totals["jobs_completed"] == serial.jobs_completed == spec.n_jobs
    assert merged.job_latency_mean == pytest.approx(
        serial.job_latency.mean(), rel=TOLERANCE
    )
    assert merged.job_latency_p99 == pytest.approx(
        serial.job_latency.percentile(99), rel=TOLERANCE
    )
