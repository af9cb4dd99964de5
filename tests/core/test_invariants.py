"""Conservation audits (repro.core.invariants).

The key acceptance test lives in TestBrokenCounters: run a real farm,
deliberately corrupt one counter, and assert the audit reports a structured
violation instead of letting the run publish a silently wrong number.
"""

from __future__ import annotations

import pytest

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.core.invariants import (
    AuditReport,
    InvariantError,
    Violation,
    audit_availability,
    audit_energy,
    audit_engine,
    audit_jobs,
    audit_residencies,
    audit_run,
)
from repro.core.rng import RandomSource
from repro.core.stats import AvailabilityTracker
from repro.experiments.common import audit_farm, build_farm, drive
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import DeterministicService, SingleTaskJobFactory


def _driven_farm(n_servers: int = 2, seed: int = 7):
    """A small farm after a complete run, with its driver."""
    farm = build_farm(n_servers, small_cloud_server(n_cores=2), seed=seed)
    rng = RandomSource(seed)
    factory = SingleTaskJobFactory(DeterministicService(0.02), rng.stream("s"))
    driver = drive(
        farm, PoissonProcess(40.0, rng.stream("a")), factory,
        duration_s=2.0, audit="off",
    )
    return farm, driver


class TestAuditReport:
    def test_empty_report_is_ok(self):
        report = AuditReport()
        assert report.ok
        assert report.checks_run == 0
        assert "0 checks passed" in report.render()

    def test_record_counts_and_collects(self):
        report = AuditReport()
        report.record("a.check", "thing", True, "fine")
        report.record("b.check", "thing", False, "broken")
        assert report.checks_run == 2
        assert not report.ok
        assert report.violations == [Violation("b.check", "thing", "broken")]

    def test_merge_accumulates(self):
        left = AuditReport()
        left.record("a", "x", True, "")
        right = AuditReport()
        right.record("b", "y", False, "bad")
        merged = left.merge(right)
        assert merged is left
        assert left.checks_run == 2
        assert [v.check for v in left.violations] == ["b"]

    def test_render_lists_each_violation(self):
        report = AuditReport()
        report.record("jobs.conservation", "scheduler", False, "off by one")
        text = report.render()
        assert "1 violation(s)" in text
        assert "[jobs.conservation] scheduler: off by one" in text

    def test_raise_if_violated(self):
        report = AuditReport()
        report.record("x", "y", False, "nope")
        with pytest.raises(InvariantError) as excinfo:
            report.raise_if_violated()
        assert excinfo.value.report is report
        # InvariantError is an AssertionError so strict audits read as
        # assertion failures to callers and test harnesses alike.
        assert isinstance(excinfo.value, AssertionError)

    def test_clean_report_does_not_raise(self):
        report = AuditReport()
        report.record("x", "y", True, "")
        report.raise_if_violated()


class TestCleanRun:
    def test_full_audit_passes_on_real_run(self):
        farm, driver = _driven_farm()
        report = audit_run(
            farm.engine, servers=farm.servers,
            scheduler=farm.scheduler, driver=driver,
        )
        assert report.ok, report.render()
        assert report.checks_run > 10

    def test_audit_farm_strict_passes_on_real_run(self):
        farm, driver = _driven_farm()
        report = audit_farm(farm, driver=driver, audit="strict")
        assert report is not None and report.ok

    def test_audit_farm_off_skips(self):
        farm, driver = _driven_farm()
        assert audit_farm(farm, driver=driver, audit="off") is None

    def test_audit_farm_rejects_unknown_mode(self):
        farm, _ = _driven_farm(n_servers=1)
        with pytest.raises(ValueError, match="audit mode"):
            audit_farm(farm, audit="loud")


def _ai_point(audit):
    from repro.experiments.ai_training import run_ai_training_point

    run_ai_training_point(group_size=4, n_steps=1, compute_s=0.002,
                          size_bytes=40_000, audit=audit)


def _joint_point(audit):
    from repro.experiments.joint_energy import run_joint_point

    run_joint_point("network-aware", 0.3, n_jobs=5, transfer_bytes=1e6, audit=audit)


def _scalability(audit):
    from repro.experiments.scalability import run_scalability

    run_scalability(n_servers=8, n_jobs=20, audit=audit)


def _sharded(audit):
    from repro.parallel import ScalabilitySpec, run_sharded

    run_sharded(ScalabilitySpec(n_servers=32, n_jobs=50, audit=audit), shards=1)


@pytest.mark.parametrize(
    "run", [_ai_point, _joint_point, _scalability, _sharded],
    ids=["ai-training", "joint", "scalability", "sharded"],
)
def test_misspelled_audit_mode_is_rejected(run):
    with pytest.raises(ValueError, match="audit mode 'strcit'"):
        run("strcit")


class TestBrokenCounters:
    """An intentionally corrupted simulation must fail the audit, loudly."""

    def test_job_counter_drift_is_caught(self):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1  # the silent-wrong-number bug
        report = audit_run(
            farm.engine, servers=farm.servers,
            scheduler=farm.scheduler, driver=driver,
        )
        assert not report.ok
        assert "jobs.conservation" in {v.check for v in report.violations}

    def test_strict_mode_raises_on_corrupt_counter(self):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1
        with pytest.raises(InvariantError, match="jobs.conservation"):
            audit_farm(farm, driver=driver, audit="strict")

    def test_warn_mode_reports_to_stderr_without_raising(self, capsys):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1
        report = audit_farm(farm, driver=driver, audit="warn")
        assert report is not None and not report.ok
        err = capsys.readouterr().err
        assert "[repro.invariants]" in err
        assert "jobs.conservation" in err

    def test_negative_counter_is_caught(self):
        farm, driver = _driven_farm()
        farm.scheduler.tasks_lost = -3
        report = audit_jobs(farm.scheduler, driver)
        assert {"jobs.counter-sign"} <= {v.check for v in report.violations}

    def test_driver_scheduler_mismatch_is_caught(self):
        farm, driver = _driven_farm()
        driver.jobs_injected += 2
        report = audit_jobs(farm.scheduler, driver)
        assert "jobs.injected" in {v.check for v in report.violations}

    def test_tampered_energy_account_is_caught(self):
        farm, driver = _driven_farm(n_servers=1)
        farm.servers[0].cpu_energy._energy_j = -50.0
        report = audit_energy(farm.servers, farm.engine.now)
        assert "energy.finite" in {v.check for v in report.violations}

    def test_tampered_residency_is_caught(self):
        farm, driver = _driven_farm(n_servers=1)
        tracker = farm.servers[0].residency
        state = tracker.state
        tracker._residency[state] = tracker._residency.get(state, 0.0) + 10.0
        report = audit_residencies(farm.servers, farm.engine.now)
        assert "residency.conservation" in {v.check for v in report.violations}


class TestEngineAudit:
    def test_clean_engine(self):
        engine = Engine()
        engine.run()
        assert audit_engine(engine).ok

    def test_undrained_queue_flagged_when_drain_expected(self):
        engine = Engine()
        engine.post(5.0, lambda: None)
        engine.run(until=1.0)
        report = audit_engine(engine, expect_drained=True)
        assert "engine.drained" in {v.check for v in report.violations}
        # Without the drain expectation a pending event is legitimate.
        assert audit_engine(engine, expect_drained=False).ok

    def test_explicit_stop_excuses_pending_events(self):
        engine = Engine()
        engine.post(0.5, engine.stop)
        engine.post(5.0, lambda: None)
        engine.run()
        assert engine.stopped
        assert audit_engine(engine, expect_drained=True).ok


class TestAvailabilityAudit:
    def test_consistent_tracker_passes(self):
        tracker = AvailabilityTracker("srv-0")
        tracker.mark_down(1.0)
        tracker.mark_up(2.0)
        report = audit_availability([tracker], now=3.0)
        assert report.ok, report.render()

    def test_inconsistent_transition_counts_are_caught(self):
        tracker = AvailabilityTracker("srv-0")
        tracker.mark_down(1.0)
        tracker.mark_up(2.0)
        tracker.repairs += 1  # bookkeeping corrupted
        report = audit_availability([tracker], now=3.0)
        assert "availability.transitions" in {v.check for v in report.violations}
