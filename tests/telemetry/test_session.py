"""Session lifecycle, emit-site wiring, and sweep-point capture tests.

The integration tests run a real (tiny) farm under an active session and
assert the subsystem emit sites produce the promised tracks — and that the
whole trace is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import os

from repro.core.config import onoff_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import build_farm, drive
from repro.runner.sweep import SweepPoint
from repro.scheduling.policies import LeastLoadedPolicy
from repro.telemetry import (
    TelemetryCapture,
    capture_point,
    chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry import session as telemetry
from repro.telemetry.session import PointCapture, TelemetrySession
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory
from tests.runner import _workers as w


def _run_small_farm():
    # The on/off config sleeps idle servers, so the run exercises the
    # power-state emit site as well as task/job/sched.
    farm = build_farm(2, onoff_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
    rng = RandomSource(1)
    factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
    drive(farm, PoissonProcess(200.0, rng.stream("a")), factory,
          max_jobs=50, drain=True, audit="off")
    return farm


class TestSessionLifecycle:
    def test_inactive_by_default(self):
        assert telemetry.ACTIVE is None
        assert telemetry.current() is None

    def test_context_manager_restores_previous(self):
        with telemetry.session() as outer:
            assert telemetry.ACTIVE is outer
            with telemetry.session() as inner:
                assert telemetry.ACTIVE is inner
            assert telemetry.ACTIVE is outer
        assert telemetry.ACTIVE is None

    def test_category_attributes(self):
        sess = TelemetrySession(trace=True, categories=("power",))
        assert sess.power is sess.recorder
        assert sess.task is None and sess.net is None
        sess = TelemetrySession(trace=False, metrics=False)
        assert sess.recorder is None and sess.metrics is None
        for cat in ("task", "power", "net", "sched", "fault", "job"):
            assert getattr(sess, cat) is None

    def test_payload_shape(self):
        sess = TelemetrySession(trace=True, metrics=True, profile=True)
        sess.recorder.instant("task", "t", "sim", 0.0)
        payload = sess.payload()
        assert payload["dropped"] == 0
        assert len(payload["events"]) == 1
        assert set(payload["metrics"]) == {
            "counters", "gauges", "histograms", "series"
        }
        assert payload["profile"]["events"] == 0
        json.dumps(payload)  # crosses process boundaries as JSON


class TestFarmIntegration:
    def test_emit_sites_cover_the_taxonomy(self):
        with telemetry.session() as sess:
            farm = _run_small_farm()
        cats = {ev[1] for ev in sess.recorder.events}
        assert {"task", "power", "job", "sched"} <= cats
        tracks = {ev[4] for ev in sess.recorder.events}
        # Core tracks carry both task spans and C-state power spans; the
        # server-level system-state track needs a sleep transition, which
        # the CLI delay-timer test exercises.
        assert any(t.startswith("server/") and "/cpu" in t for t in tracks)
        assert "jobs" in tracks and "sched" in tracks
        doc = chrome_trace(sess.recorder.events)
        assert validate_chrome_trace(doc) == []
        # One complete-task span per completed task.
        n_tasks = sum(
            1 for ev in sess.recorder.events if ev[1] == "task" and ev[3] == "X"
        )
        assert n_tasks == sum(
            c.tasks_completed for s in farm.servers
            for p in s.processors for c in p.cores
        )

    def test_metrics_registered_by_drive(self):
        with telemetry.session() as sess:
            farm = _run_small_farm()
        snap = sess.metrics.snapshot()
        assert snap["counters"]["scheduler.jobs_completed"] == (
            farm.scheduler.jobs_completed
        )
        assert snap["counters"]["workload.jobs_injected"] == 50
        assert snap["gauges"]["farm.total_energy_j"] > 0
        assert snap["histograms"]["scheduler.job_latency"]["count"] > 0

    def test_same_seed_trace_is_byte_identical(self):
        docs = []
        for _ in range(2):
            with telemetry.session() as sess:
                _run_small_farm()
            doc = chrome_trace(sess.recorder.events)
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_category_filter_suppresses_other_emit_sites(self):
        with telemetry.session(categories=("power",)) as sess:
            _run_small_farm()
        assert {ev[1] for ev in sess.recorder.events} == {"power"}

    def test_joint_point_registers_metrics(self):
        from repro.experiments.joint_energy import run_joint_point

        with telemetry.session(trace=False) as sess:
            results = [
                run_joint_point(mode, 0.3, n_jobs=10, transfer_bytes=1e6)
                for mode in ("balanced", "network-aware")
            ]
        counters = sess.metrics.snapshot()["counters"]
        # The second farm in one session takes a numbered prefix.
        for prefix, result in zip(("", "farm1."), results):
            assert result.jobs_completed > 0
            assert counters[f"{prefix}scheduler.jobs_completed"] == result.jobs_completed
            assert counters[f"{prefix}workload.jobs_injected"] == 10

    def test_joint_point_is_profiled(self):
        from repro.experiments.joint_energy import run_joint_point

        with telemetry.session(trace=False, metrics=False, profile=True) as sess:
            run_joint_point("network-aware", 0.3, n_jobs=10, transfer_bytes=1e6)
        assert sess.profiler.summary()["events"] > 0

    def test_ai_point_registers_placement_metrics(self):
        from repro.experiments.ai_training import run_ai_training_point

        with telemetry.session(trace=False) as sess:
            run_ai_training_point(group_size=4, n_steps=1, compute_s=0.002,
                                  size_bytes=40_000)
        counters = sess.metrics.snapshot()["counters"]
        assert counters["placement.groups_placed"] == 1
        assert counters["placement.cross_pod_spills"] == 0
        assert counters["scheduler.jobs_completed"] == 1

    def test_profiler_attached_by_build_farm(self):
        with telemetry.session(profile=True) as sess:
            _run_small_farm()
        summary = sess.profiler.summary()
        assert summary["events"] > 0
        assert any("Core." in key for key in summary["handlers"])


class TestCapture:
    def test_from_context_nothing_to_do(self):
        assert TelemetryCapture.from_context(None, None) is None

    def test_from_context_trace_dir_only(self):
        cap = TelemetryCapture.from_context(None, "/tmp/x")
        assert cap.trace_dir == "/tmp/x"
        assert not cap.return_payload and not cap.metrics

    def test_from_context_freezes_session_config(self):
        sess = TelemetrySession(
            trace=True, categories=("task", "power"), metrics=True,
            profile=True, max_events=123,
        )
        cap = TelemetryCapture.from_context(sess)
        assert cap.categories == ("power", "task")
        assert cap.metrics and cap.profile and cap.return_payload
        assert cap.max_events == 123

    def test_capture_point_returns_payload(self):
        cap = TelemetryCapture()
        point = SweepPoint(index=0, fn=w.traced_work, kwargs={"x": 3}, label="x=3")
        result = capture_point(cap, point)
        assert isinstance(result, PointCapture)
        assert result.value == 3
        assert [ev[2] for ev in result.payload["events"]] == ["work-3", "tick"]
        assert result.payload["metrics"]["counters"]["work.x"] == 3
        assert telemetry.ACTIVE is None  # child session did not leak

    def test_capture_point_streams_survive_failure(self, tmp_path):
        cap = TelemetryCapture(trace_dir=str(tmp_path / "pm"))
        ok_point = SweepPoint(index=0, fn=w.traced_work, kwargs={"x": 1})
        bad_point = SweepPoint(
            index=1, fn=w.traced_work, kwargs={"x": 5, "fail_above": 4}
        )
        capture_point(cap, ok_point)
        try:
            capture_point(cap, bad_point)
        except RuntimeError:
            pass
        kept = sorted(os.listdir(tmp_path / "pm"))
        assert kept == ["point-00001.trace.jsonl"]

    def test_capture_point_keep_all(self, tmp_path):
        cap = TelemetryCapture(trace_dir=str(tmp_path / "pm"), keep_traces="all")
        capture_point(cap, SweepPoint(index=0, fn=w.traced_work, kwargs={"x": 1}))
        assert sorted(os.listdir(tmp_path / "pm")) == ["point-00000.trace.jsonl"]
