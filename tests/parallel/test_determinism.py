"""Bit-identity of sharded vs serial execution on the reference scenarios.

The load-bearing guarantee of :mod:`repro.parallel`: for a fixed
:class:`~repro.parallel.ShardSpec` (which fixes the partition count), the
merged stats, rendered report, and boundary-journal fingerprint are the same
bytes whether the partitions run inline on one engine (``shards=1``) or on
any number of worker processes.  Every run here executes under
``audit="strict"`` so the per-partition conservation audits and the
cross-shard :func:`~repro.core.invariants.audit_parallel` gate the result.
"""

from __future__ import annotations

import pytest

from repro.parallel import JointSpec, ScalabilitySpec, run_sharded


def _render_and_fingerprint(spec, shards):
    result = run_sharded(spec, shards=shards)
    return result.merged.render(), result.merged.journal_fingerprint


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestShardDeterminism:
    def test_scalability_identical_at_1_2_4_shards(self):
        spec = ScalabilitySpec(n_servers=64, n_jobs=200, audit="strict")
        baseline = _render_and_fingerprint(spec, 1)
        assert _render_and_fingerprint(spec, 2) == baseline
        assert _render_and_fingerprint(spec, 4) == baseline

    def test_joint_identical_at_1_and_2_shards(self):
        # The network scenario: DAG jobs whose stage transfers cross a
        # fat tree under the joint energy manager.
        spec = JointSpec(n_jobs=40, audit="strict")
        baseline = _render_and_fingerprint(spec, 1)
        assert _render_and_fingerprint(spec, 2) == baseline
        assert "manager_activations=0" not in baseline[0]

    def test_seed_changes_fingerprint(self):
        # The fingerprint is a real witness: different traffic → different
        # hash (otherwise the identity assertions above prove nothing).
        a = run_sharded(ScalabilitySpec(n_servers=64, n_jobs=100, seed=1), 1)
        b = run_sharded(ScalabilitySpec(n_servers=64, n_jobs=100, seed=2), 1)
        assert a.merged.journal_fingerprint != b.merged.journal_fingerprint


@pytest.mark.slow
@pytest.mark.timeout(120)
class TestShardResultShape:
    def test_merged_counters_conserve(self):
        spec = ScalabilitySpec(n_servers=32, n_jobs=120, audit="strict")
        result = run_sharded(spec, shards=2)
        totals = result.merged.totals
        assert totals["fe_dispatched"] == 120
        assert totals["jobs_completed"] + totals["jobs_failed"] == 120
        assert totals["bus_sent"] == totals["bus_received"]
        assert totals["active_jobs"] == 0
        assert result.merged.job_latency_count == totals["jobs_completed"]
        # T_end lands exactly on a window edge.
        edges = result.t_end / spec.window_s
        assert edges == pytest.approx(round(edges))

    def test_events_executed_matches_serial_total(self):
        spec = ScalabilitySpec(n_servers=32, n_jobs=120)
        serial = run_sharded(spec, shards=1)
        sharded = run_sharded(spec, shards=2)
        assert sharded.merged.events_executed == serial.merged.events_executed

    def test_partition_count_is_a_model_parameter(self):
        # Changing n_partitions legitimately changes results (routing and
        # boundary quantization differ); it must not silently alias.
        p2 = run_sharded(ScalabilitySpec(n_servers=64, n_jobs=100, n_partitions=2), 1)
        p4 = run_sharded(ScalabilitySpec(n_servers=64, n_jobs=100, n_partitions=4), 1)
        assert p2.merged.journal_fingerprint != p4.merged.journal_fingerprint
