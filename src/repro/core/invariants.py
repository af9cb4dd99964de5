"""End-of-run conservation audits: catch silently-wrong simulations.

A discrete-event simulator rarely crashes when its accounting is broken — it
just prints a wrong number.  This module gives every experiment a cheap
self-check, run after the event loop finishes, that asserts the conservation
laws the model is built on:

* **job conservation** — every job the driver injected is accounted for:
  ``submitted == completed + failed + still-active``;
* **task conservation** — server task submissions balance completions plus
  work still pending plus tasks lost to failures (the fault-injection path);
* **residency conservation** — each server's state residencies sum to the
  tracked wall-clock interval (a mis-sequenced ``set_state`` breaks this);
* **energy == ∫ power** — each energy account's open-interval extension
  matches its instantaneous power draw, totals equal the sum of their
  component breakdowns, and no account ran negative;
* **event-queue discipline** — after a drain-to-completion run the queue is
  empty (or the engine was explicitly stopped); leftover events mean a
  component is still ticking after the experiment thinks it ended;
* **availability bookkeeping** — fault trackers' failure/repair counts are
  consistent with their current up/down state;
* **facility physics** — when a :class:`~repro.facility.plant.Facility` is
  attached: PUE never dips below 1, zone temperatures stay within their
  configured physical bounds, facility energy accounts integrate their
  declared powers, and throttle engage/release counts are consistent.

Audits return an :class:`AuditReport`; in *strict* mode a violation raises
:class:`InvariantError`, which the resilient sweep layer surfaces as a point
failure instead of journaling a corrupt result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Engine
    from repro.core.stats import AvailabilityTracker
    from repro.facility.plant import Facility
    from repro.scheduling.global_scheduler import GlobalScheduler
    from repro.server.server import Server
    from repro.workload.driver import WorkloadDriver

#: Relative tolerance for float comparisons (energy integrals, residencies).
REL_TOL = 1e-9
#: Absolute floor so comparisons near zero do not demand exact equality.
ABS_TOL = 1e-6

#: Valid values for every ``audit`` parameter (see :meth:`AuditReport.enforce`).
AUDIT_MODES = ("off", "warn", "strict")


def check_audit_mode(mode: str) -> None:
    """Raise :class:`ValueError` unless ``mode`` is one of :data:`AUDIT_MODES`."""
    if mode not in AUDIT_MODES:
        raise ValueError(f"audit mode {mode!r} not in {AUDIT_MODES}")


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    check: str      # machine-readable check id, e.g. "jobs.conservation"
    subject: str    # which component, e.g. "server-3" or "farm"
    message: str    # human-readable statement of the imbalance

    def render(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


@dataclass
class AuditReport:
    """The outcome of an invariant audit: which checks ran, what failed."""

    checks_run: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "AuditReport") -> "AuditReport":
        self.checks_run += other.checks_run
        self.violations.extend(other.violations)
        return self

    def record(self, check: str, subject: str, ok: bool, message: str) -> None:
        self.checks_run += 1
        if not ok:
            self.violations.append(Violation(check, subject, message))

    def render(self) -> str:
        if self.ok:
            return f"invariant audit: {self.checks_run} checks passed"
        lines = [
            f"invariant audit: {len(self.violations)} violation(s) "
            f"in {self.checks_run} checks"
        ]
        lines.extend("  " + v.render() for v in self.violations)
        return "\n".join(lines)

    def raise_if_violated(self) -> None:
        if not self.ok:
            raise InvariantError(self)

    @staticmethod
    def enforce(
        mode: str, audit: Callable[[], "AuditReport"]
    ) -> Optional["AuditReport"]:
        """Run ``audit()`` and react to its violations as ``mode`` says.

        ``"off"`` skips the audit entirely, ``"warn"`` prints the report to
        stderr and carries on, and ``"strict"`` raises :class:`InvariantError`
        so a sweep point fails instead of journaling a corrupt result.  Any
        other mode raises :class:`ValueError`.
        """
        check_audit_mode(mode)
        if mode == "off":
            return None
        report = audit()
        if not report.ok:
            if mode == "strict":
                report.raise_if_violated()
            print(f"[repro.invariants] {report.render()}", file=sys.stderr)
        return report


class InvariantError(AssertionError):
    """A conservation audit failed; the run's numbers cannot be trusted."""

    def __init__(self, report: AuditReport):
        self.report = report
        super().__init__(report.render())


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    tol = max(ABS_TOL, REL_TOL * max(abs(a), abs(b), abs(scale)))
    return abs(a - b) <= tol


# ----------------------------------------------------------------------
# Individual audits (composable; audit_run bundles them)
# ----------------------------------------------------------------------
def audit_engine(
    engine: "Engine", expect_drained: bool = False
) -> AuditReport:
    """The event kernel ended in a sane state."""
    report = AuditReport()
    report.record(
        "engine.clock", "engine",
        math.isfinite(engine.now) and engine.now >= 0.0,
        f"simulation clock is {engine.now!r}",
    )
    if expect_drained:
        pending = engine.peek_time()
        report.record(
            "engine.drained", "engine",
            pending is None or engine.stopped,
            f"event queue not drained (next event at t={pending!r}) and the "
            f"engine was not explicitly stopped",
        )
    return report


def audit_jobs(
    scheduler: "GlobalScheduler", driver: Optional["WorkloadDriver"] = None
) -> AuditReport:
    """Every injected job is completed, failed, or still active — no leaks."""
    report = AuditReport()
    s = scheduler
    for name in ("jobs_submitted", "jobs_completed", "jobs_failed",
                 "active_jobs", "tasks_lost", "tasks_retried",
                 "tasks_abandoned", "slo_violations"):
        value = getattr(s, name)
        report.record(
            "jobs.counter-sign", "scheduler", value >= 0,
            f"{name} is negative ({value})",
        )
    balance = s.jobs_completed + s.jobs_failed + s.active_jobs
    report.record(
        "jobs.conservation", "scheduler",
        s.jobs_submitted == balance,
        f"submitted ({s.jobs_submitted}) != completed ({s.jobs_completed}) "
        f"+ failed ({s.jobs_failed}) + active ({s.active_jobs})",
    )
    report.record(
        "jobs.latency-samples", "scheduler",
        len(s.job_latency) == s.jobs_completed,
        f"{len(s.job_latency)} latency samples for {s.jobs_completed} "
        f"completed jobs",
    )
    if driver is not None:
        report.record(
            "jobs.injected", "driver",
            driver.jobs_injected == s.jobs_submitted,
            f"driver injected {driver.jobs_injected} jobs but the scheduler "
            f"admitted {s.jobs_submitted}",
        )
    return report


def audit_tasks(scheduler: "GlobalScheduler") -> AuditReport:
    """Server task submissions balance completions + pending + lost.

    ``tasks_lost`` counts both tasks lost after submission (server crash)
    and dispatch attempts that never reached a server (no candidates, stale
    placement), so the balance is a two-sided bound rather than an equality.
    """
    report = AuditReport()
    s = scheduler
    submitted = sum(server.tasks_submitted for server in s.servers)
    completed = sum(server.tasks_completed for server in s.servers)
    pending = s.total_pending_tasks()
    slack = submitted - completed - pending
    report.record(
        "tasks.conservation", "farm",
        0 <= slack <= s.tasks_lost,
        f"submitted ({submitted}) - completed ({completed}) - pending "
        f"({pending}) = {slack}, outside [0, tasks_lost={s.tasks_lost}]",
    )
    return report


def audit_residencies(
    servers: Sequence["Server"], now: float
) -> AuditReport:
    """Each server's per-state residencies sum to its tracked interval."""
    report = AuditReport()
    for server in servers:
        tracker = server.residency
        tracked = now - tracker.start_time
        total = sum(tracker.residency(now).values())
        report.record(
            "residency.conservation", server.name,
            tracked >= -ABS_TOL and _close(total, tracked, scale=max(now, 1.0)),
            f"state residencies sum to {total:.9g}s over a {tracked:.9g}s "
            f"tracked interval",
        )
    return report


def audit_energy(servers: Sequence["Server"], now: float) -> AuditReport:
    """Energy accounts integrate power: finite, non-negative, consistent."""
    report = AuditReport()
    for server in servers:
        breakdown = server.energy_breakdown_j(now)
        for component, energy in breakdown.items():
            report.record(
                "energy.finite", f"{server.name}.{component}",
                math.isfinite(energy) and energy >= -ABS_TOL,
                f"energy is {energy!r} J",
            )
        total = server.total_energy_j(now)
        report.record(
            "energy.breakdown-sum", server.name,
            _close(total, sum(breakdown.values()), scale=max(total, 1.0)),
            f"total energy {total:.9g} J != sum of components "
            f"{sum(breakdown.values()):.9g} J",
        )
        # The open-interval extension must integrate the instantaneous
        # power: E(now + 1s) - E(now) == P(now) × 1s.  energy_j() is pure,
        # so probing one second ahead does not disturb the accounts.
        for account in (server.cpu_energy, server.dram_energy,
                        server.platform_energy):
            marginal = account.energy_j(now + 1.0) - account.energy_j(now)
            report.record(
                "energy.integral", f"{server.name}.{account.name}",
                _close(marginal, account.power_w,
                       scale=max(abs(account.power_w), 1.0)),
                f"energy grew {marginal:.9g} J over 1 s at a declared draw "
                f"of {account.power_w:.9g} W",
            )
    return report


def audit_availability(
    trackers: Iterable["AvailabilityTracker"], now: float
) -> AuditReport:
    """Fault trackers: failures/repairs counts agree with the current state."""
    report = AuditReport()
    for tracker in trackers:
        expected_gap = 0 if tracker.is_up else 1
        report.record(
            "availability.transitions", tracker.name,
            tracker.failures - tracker.repairs == expected_gap,
            f"{tracker.failures} failures vs {tracker.repairs} repairs "
            f"while {'up' if tracker.is_up else 'down'}",
        )
        fraction = tracker.uptime_fraction(now)
        report.record(
            "availability.fraction", tracker.name,
            -ABS_TOL <= fraction <= 1.0 + ABS_TOL,
            f"uptime fraction {fraction!r} outside [0, 1]",
        )
    return report


def audit_facility(facility: "Facility", now: float) -> AuditReport:
    """Facility physics: PUE floor, temperature bounds, energy integrals."""
    report = AuditReport()

    # Energy accounts: finite, non-negative, integrate their declared power.
    accounts = (
        facility.it_energy, facility.cooling_energy, facility.overhead_energy
    )
    for account in accounts:
        energy = account.energy_j(now)
        report.record(
            "facility.energy-finite", f"facility.{account.name}",
            math.isfinite(energy) and energy >= -ABS_TOL,
            f"energy is {energy!r} J",
        )
        marginal = account.energy_j(now + 1.0) - account.energy_j(now)
        report.record(
            "facility.energy-integral", f"facility.{account.name}",
            _close(marginal, account.power_w,
                   scale=max(abs(account.power_w), 1.0)),
            f"energy grew {marginal:.9g} J over 1 s at a declared draw "
            f"of {account.power_w:.9g} W",
        )
    total = facility.facility_energy_j(now)
    breakdown_sum = sum(facility.energy_breakdown_j(now).values())
    report.record(
        "facility.energy-breakdown-sum", "facility",
        _close(total, breakdown_sum, scale=max(total, 1.0)),
        f"facility energy {total:.9g} J != sum of components "
        f"{breakdown_sum:.9g} J",
    )

    # PUE is facility power over IT power: >= 1 by construction, so any
    # sample below 1 means the power bookkeeping double-counted or dropped
    # a term.
    pue_values = list(facility.pue_series.values)
    bad_pue = [v for v in pue_values if not (math.isfinite(v) and v >= 1.0 - ABS_TOL)]
    report.record(
        "facility.pue-floor", "facility",
        not bad_pue,
        f"{len(bad_pue)}/{len(pue_values)} PUE samples below 1 "
        f"(worst {min(bad_pue):.9g})" if bad_pue else "",
    )

    # Zone temperatures within the configured physical envelope.
    for zone in facility.zones:
        cfg = zone.thermal.config
        temps = list(zone.temp_series.values) or [zone.thermal.temp_c]
        bad = [
            t for t in temps
            if not (math.isfinite(t)
                    and cfg.min_physical_c - ABS_TOL <= t
                    <= cfg.max_physical_c + ABS_TOL)
        ]
        report.record(
            "facility.temperature-bounds", f"facility.{zone.name}",
            not bad,
            f"{len(bad)}/{len(temps)} samples outside "
            f"[{cfg.min_physical_c}, {cfg.max_physical_c}] °C "
            f"(e.g. {bad[0]!r})" if bad else "",
        )
        throttle = zone.throttle
        if throttle is not None:
            expected_gap = 1 if throttle.engaged else 0
            report.record(
                "facility.throttle-transitions", f"facility.{zone.name}",
                throttle.engagements - throttle.releases == expected_gap,
                f"{throttle.engagements} engagements vs {throttle.releases} "
                f"releases while "
                f"{'engaged' if throttle.engaged else 'released'}",
            )

    # Accumulated signal integrals are money/mass: finite and non-negative.
    for name, value in (("gco2_g", facility.gco2_g),
                        ("cost_usd", facility.cost_usd)):
        report.record(
            "facility.signal-totals", f"facility.{name}",
            math.isfinite(value) and value >= -ABS_TOL,
            f"{name} is {value!r}",
        )
    return report


def audit_collective(
    scheduler: "GlobalScheduler",
    network,
    jobs: Sequence = (),
    distinct_servers: bool = True,
) -> AuditReport:
    """Chunk accounting for collective workloads (allreduce / all-to-all).

    Every collective template attaches a ``CollectiveSpec`` to its job
    stating exactly how many transfers, and how many bytes, the collective
    must push over the wire when each rank sits on its own server.  This
    audit closes the loop: the scheduler launched exactly the promised
    transfers, the network delivered every launched byte, and nothing was
    stranded by a tail drop.  Set ``distinct_servers=False`` when ranks may
    share servers (co-located ranks skip the wire, so the spec is only an
    upper bound).
    """
    report = AuditReport()
    expected_bytes = 0.0
    expected_transfers = 0
    for job in jobs:
        spec = getattr(job, "collective", None)
        if spec is None:
            continue
        report.record(
            "collective.spec-sign", f"job-{job.job_id}",
            spec.wire_bytes >= 0 and spec.n_transfers >= 0,
            f"spec has wire_bytes={spec.wire_bytes!r} "
            f"n_transfers={spec.n_transfers!r}",
        )
        expected_bytes += spec.wire_bytes
        expected_transfers += spec.n_transfers
    s = scheduler
    if distinct_servers:
        report.record(
            "collective.transfers-launched", "scheduler",
            s.transfers_launched == expected_transfers,
            f"launched {s.transfers_launched} transfers but the specs "
            f"promise {expected_transfers}",
        )
        report.record(
            "collective.bytes-launched", "scheduler",
            _close(s.transfer_bytes_launched, expected_bytes,
                   scale=max(expected_bytes, 1.0)),
            f"launched {s.transfer_bytes_launched:.9g} B but the specs "
            f"promise {expected_bytes:.9g} B",
        )
    else:
        report.record(
            "collective.transfers-bounded", "scheduler",
            s.transfers_launched <= expected_transfers,
            f"launched {s.transfers_launched} transfers, more than the "
            f"specs' upper bound {expected_transfers}",
        )
    delivered = getattr(network, "bytes_delivered", None)
    if delivered is not None:
        report.record(
            "collective.bytes-delivered", "network",
            _close(delivered, s.transfer_bytes_launched,
                   scale=max(s.transfer_bytes_launched, 1.0)),
            f"network delivered {delivered:.9g} B of "
            f"{s.transfer_bytes_launched:.9g} B launched",
        )
    stranded = getattr(network, "transfers_stranded", 0)
    report.record(
        "collective.stranded", "network",
        stranded == 0,
        f"{stranded} transfer(s) stranded by tail drops",
    )
    report.record(
        "collective.dropped", "scheduler",
        s.transfers_dropped == 0,
        f"{s.transfers_dropped} result transfer(s) reported dropped",
    )
    return report


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
def audit_run(
    engine: "Engine",
    servers: Sequence["Server"] = (),
    scheduler: Optional["GlobalScheduler"] = None,
    driver: Optional["WorkloadDriver"] = None,
    availability: Iterable["AvailabilityTracker"] = (),
    now: Optional[float] = None,
    expect_drained: bool = False,
    facility: Optional["Facility"] = None,
) -> AuditReport:
    """Run every applicable audit over one simulation's components."""
    t = engine.now if now is None else now
    report = audit_engine(engine, expect_drained=expect_drained)
    if scheduler is not None:
        report.merge(audit_jobs(scheduler, driver))
        report.merge(audit_tasks(scheduler))
    if servers:
        report.merge(audit_residencies(servers, t))
        report.merge(audit_energy(servers, t))
    availability = list(availability)
    if availability:
        report.merge(audit_availability(availability, t))
    if facility is not None:
        report.merge(audit_facility(facility, t))
    return report


def audit_parallel(snapshots: Sequence[dict], window_s: float, t_end: float) -> AuditReport:
    """Cross-shard conservation over per-partition snapshot dicts.

    The sharded runtime (:mod:`repro.parallel`) ships each partition's state
    home as a plain dict; this audit closes the loop across partitions: every
    boundary message sent was received, every dispatched job was submitted
    somewhere, every job was acknowledged back, nothing is still in flight,
    and the run stopped on a window edge.  It runs in the coordinator (or the
    inline loop) after the merge, complementing the per-partition
    :func:`audit_run` each worker performs before shipping its snapshot.
    """
    report = AuditReport()
    by_pid = {snap["pid"]: snap for snap in snapshots}
    report.record(
        "parallel.partitions", "merge",
        sorted(by_pid) == list(range(len(snapshots))),
        f"snapshots cover pids {sorted(by_pid)} for {len(snapshots)} partitions",
    )

    sent = sum(s["bus_sent"] for s in snapshots)
    received = sum(s["bus_received"] for s in snapshots)
    report.record(
        "parallel.bus.conservation", "bus",
        sent == received,
        f"boundary messages sent={sent} received={received}",
    )
    for snap in snapshots:
        report.record(
            "parallel.bus.drained", f"partition-{snap['pid']}",
            snap["bus_pending"] == 0,
            f"{snap['bus_pending']} deposited messages never delivered",
        )
        report.record(
            "parallel.jobs.settled", f"partition-{snap['pid']}",
            snap["active_jobs"] == 0,
            f"{snap['active_jobs']} jobs still active at shutdown",
        )

    frontend = by_pid.get(0, {})
    dispatched = frontend.get("fe_dispatched", 0)
    acks = frontend.get("fe_acks_ok", 0) + frontend.get("fe_acks_failed", 0)
    submitted = sum(s["jobs_submitted"] for s in snapshots)
    completed = sum(s["jobs_completed"] for s in snapshots)
    failed = sum(s["jobs_failed"] for s in snapshots)
    report.record(
        "parallel.jobs.dispatch", "front-end",
        dispatched == submitted,
        f"dispatched={dispatched} but partitions submitted {submitted}",
    )
    report.record(
        "parallel.jobs.acks", "front-end",
        acks == dispatched,
        f"{acks} acks for {dispatched} dispatched jobs",
    )
    report.record(
        "parallel.jobs.outcomes", "front-end",
        frontend.get("fe_acks_ok", 0) == completed
        and frontend.get("fe_acks_failed", 0) == failed,
        f"acks ok/failed={frontend.get('fe_acks_ok', 0)}/"
        f"{frontend.get('fe_acks_failed', 0)} vs partition totals "
        f"{completed}/{failed}",
    )

    edges = t_end / window_s
    report.record(
        "parallel.t_end.on_edge", "barrier",
        _close(edges, round(edges), scale=max(1.0, edges)),
        f"t_end={t_end!r} is not a multiple of window {window_s!r}",
    )
    return report
