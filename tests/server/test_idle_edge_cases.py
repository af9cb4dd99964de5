"""Directed edge cases of the idle-server power-state machine.

An idle farm under a delay-timer controller has a few racy corners: a wake
request landing in the same tick as S3 sleep entry, a fault striking a
server that is entering or sitting in sleep, and a facility thermal throttle
retuning the frequency of servers that are asleep.  Each scenario below pins
the exact system-state trace (times computed with the same float
expressions the engine uses) and closes with the strict conservation
audits.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.config import small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import Farm, audit_farm, build_farm, drive
from repro.facility.throttle import ThermalThrottle, ThrottleConfig
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import RoundRobinPolicy
from repro.server.server import Server
from repro.server.states import ResidencyCategory, SystemState
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory

TAU_S = 0.05
CONFIG = small_cloud_server(n_cores=4)
ENTRY_S = CONFIG.platform.s3_entry_latency_s
EXIT_S = CONFIG.platform.s3_exit_latency_s


def make_farm(n_servers: int, seed: int, tau_s: float = TAU_S) -> Farm:
    farm = build_farm(n_servers, CONFIG, policy=RoundRobinPolicy(), seed=seed)
    controller = DelayTimerController(farm.engine, tau_s=tau_s, sleep_level="s3")
    for server in farm.servers:
        server.attach_controller(controller)
    return farm


def record_states(server: Server) -> List[Tuple[float, SystemState]]:
    """Log every system-state change of ``server`` as ``(time, state)``."""
    log: List[Tuple[float, SystemState]] = []
    original = server._set_system_state

    def recording(state: SystemState) -> None:
        original(state)
        log.append((server.engine.now, state))

    server._set_system_state = recording
    return log


def run_workload(
    farm: Farm, seed: int, rate_hz: float, n_jobs: int, mean_service_s: float = 0.005
) -> None:
    rng = RandomSource(seed)
    factory = SingleTaskJobFactory(ExponentialService(mean_service_s), rng.stream("service"))
    drive(
        farm,
        PoissonProcess(rate_hz, rng.stream("arrivals")),
        factory,
        max_jobs=n_jobs,
        drain=True,
        audit="strict",
    )


# ----------------------------------------------------------------------
# Wake race against S3 sleep entry
# ----------------------------------------------------------------------
ENTRY_DONE = TAU_S + ENTRY_S  # the instant S3 entry completes


@pytest.mark.parametrize(
    "wake_times,waking_at",
    [
        pytest.param((ENTRY_DONE,), ENTRY_DONE, id="same-tick-as-entry-complete"),
        pytest.param((TAU_S,), ENTRY_DONE, id="same-tick-as-sleep-commit"),
        pytest.param((0.3,), ENTRY_DONE, id="mid-entry-sets-wake-pending"),
        pytest.param((0.3, ENTRY_DONE, 0.6), ENTRY_DONE, id="repeated-requests-coalesce"),
        pytest.param((2.0,), 2.0, id="wake-from-settled-s3"),
    ],
)
def test_wake_race_against_sleep_entry(wake_times, waking_at):
    """A wake requested while entry is in flight (even in the same tick it
    commits or completes) is honoured the instant S3 is reached; requests
    while waking coalesce; the server then sleeps again under its timer."""
    farm = make_farm(n_servers=1, seed=1)
    server = farm.servers[0]
    log = record_states(server)
    for t in wake_times:
        farm.engine.schedule_at(t, server.request_wake)
    farm.engine.run()
    audit_farm(farm, audit="strict")

    awake_at = waking_at + EXIT_S
    asleep_again_at = awake_at + TAU_S
    assert log == [
        (TAU_S, SystemState.ENTERING_SLEEP),
        (ENTRY_DONE, SystemState.S3),
        (waking_at, SystemState.WAKING),
        (awake_at, SystemState.S0),
        (asleep_again_at, SystemState.ENTERING_SLEEP),
        (asleep_again_at + ENTRY_S, SystemState.S3),
    ]
    assert server.residency.transitions[
        (ResidencyCategory.SYS_SLEEP, ResidencyCategory.WAKE_UP)
    ] == 1
    assert server.residency.residency(farm.engine.now)[ResidencyCategory.WAKE_UP] == EXIT_S


# ----------------------------------------------------------------------
# Faults striking a sleeping server (server 0 enters S3 at ~0.13 s, a task
# arriving mid-entry wakes it from ~0.63 s to ~4.63 s, and it is back in S3
# from ~5.23 s, after the workload drained)
# ----------------------------------------------------------------------
def _schedule_fault(farm: Farm, victim: Server, fail_at: float, repair_at: float) -> None:
    def fail() -> None:
        lost = victim.fail()
        farm.scheduler.on_server_failed(victim, lost)

    def repair() -> None:
        if victim.repair():
            farm.scheduler.on_server_repaired(victim)

    farm.engine.schedule_at(fail_at, fail)
    farm.engine.schedule_at(repair_at, repair)


@pytest.mark.parametrize(
    "fail_at,repair_at,state_at_fail",
    [
        pytest.param(0.3, 2.0, SystemState.ENTERING_SLEEP, id="fail-mid-sleep-entry"),
        pytest.param(1.0, 2.5, SystemState.WAKING, id="fail-mid-wake"),
        pytest.param(6.0, 7.0, SystemState.S3, id="fail-in-settled-s3"),
    ],
)
def test_fault_mid_sleep(fail_at, repair_at, state_at_fail):
    """A crash while entering, sitting in or waking from S3 cancels the
    transition in flight and repair returns the server to S0; any task queued behind the pending
    wake is lost and retried, and every job completes under strict audits."""
    n_jobs = 150
    farm = make_farm(n_servers=4, seed=13)
    victim = farm.servers[0]
    log = record_states(victim)
    seen: List[SystemState] = []
    farm.engine.schedule_at(fail_at, lambda: seen.append(victim.system_state))
    _schedule_fault(farm, victim, fail_at, repair_at)
    run_workload(farm, seed=13, rate_hz=60.0, n_jobs=n_jobs)

    assert seen == [state_at_fail]
    assert victim.failure_count == 1
    assert victim.repair_count == 1
    failed = log.index((fail_at, SystemState.FAILED))
    # No sleep-entry completion or wake sneaks in while the server is down.
    assert log[failed + 1] == (repair_at, SystemState.S0)
    assert victim.residency.residency(farm.engine.now)[ResidencyCategory.FAILED] == (
        repair_at - fail_at
    )
    sched = farm.scheduler
    assert sched.tasks_retried == sched.tasks_lost
    assert sched.jobs_failed == 0
    assert sched.jobs_completed == n_jobs


# ----------------------------------------------------------------------
# Facility thermal throttle over an idle farm
# ----------------------------------------------------------------------
THROTTLE_GHZ = 1.2


def _schedule_throttle(farm: Farm, engage_at: float, release_at: float) -> ThermalThrottle:
    throttle = ThermalThrottle(
        "zone0",
        farm.servers,
        ThrottleConfig(limit_c=45.0, throttle_frequency_ghz=THROTTLE_GHZ),
    )
    engine = farm.engine
    engine.schedule_at(engage_at, lambda: throttle.update(50.0, engine.now))
    engine.schedule_at(release_at, lambda: throttle.update(30.0, engine.now))
    return throttle


def _frequencies(farm: Farm) -> List[float]:
    return [proc.frequency_ghz for s in farm.servers for proc in s.processors]


def test_throttle_engages_and_releases_over_sleeping_farm():
    """With no workload every server is in S3 when the throttle engages: the
    retune caps every processor and restores it on release, and it leaves
    the farm's energy unchanged — S3 draw does not depend on frequency."""
    engage_at, release_at = 1.0, 3.0

    def run(throttled: bool):
        farm = make_farm(n_servers=4, seed=2, tau_s=0.01)
        probes: List[Tuple[List[SystemState], List[float]]] = []
        throttle = None
        if throttled:
            throttle = _schedule_throttle(farm, engage_at, release_at)
        farm.engine.schedule_at(
            2.0,
            lambda: probes.append(
                ([s.system_state for s in farm.servers], _frequencies(farm))
            ),
        )
        farm.engine.run(until=5.0)
        audit_farm(farm, audit="strict")
        return farm, throttle, probes

    farm, throttle, probes = run(throttled=True)
    assert throttle.engagements == 1
    assert throttle.releases == 1
    states, frequencies = probes[0]
    assert states == [SystemState.S3] * 4
    assert frequencies == [THROTTLE_GHZ] * 4
    assert _frequencies(farm) == [CONFIG.processor.frequency_ghz] * 4

    baseline, _, _ = run(throttled=False)
    for server, reference in zip(farm.servers, baseline.servers):
        assert server.residency.residency(5.0) == reference.residency.residency(5.0)
        for component, joules in server.energy_breakdown_j(5.0).items():
            assert joules == pytest.approx(
                reference.energy_breakdown_j(5.0)[component], rel=1e-12
            )


def test_throttle_engages_and_releases_under_load():
    """Engaging mid-workload caps busy and idle servers alike; every job
    still completes and the strict audits hold through both retunes."""
    n_jobs = 300
    farm = make_farm(n_servers=6, seed=21)
    throttle = _schedule_throttle(farm, engage_at=0.4, release_at=1.2)
    run_workload(farm, seed=21, rate_hz=150.0, n_jobs=n_jobs)
    assert throttle.engagements == 1
    assert throttle.releases == 1
    assert farm.scheduler.jobs_completed == n_jobs
    assert _frequencies(farm) == [CONFIG.processor.frequency_ghz] * 6
