"""Self-healing shard recovery: crashes roll back and replay, bit-identically.

The chaos hooks fire inside worker processes (partition 2 maps to worker 1
under two shards).  With a heal budget configured, a dead or failed shard
must not abort the run: every worker is killed, respawned from the last
barrier snapshot, and the merged report must equal the crash-free run —
including the boundary-journal fingerprint, the bit-identity witness.

The ``kill`` action is the chaos test the ISSUE names: the worker SIGKILLs
itself mid-window, which exercises the same recovery path as an OOM kill.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.parallel import (
    DEFAULT_HEAL_SNAPSHOT_WINDOWS,
    DurabilityOptions,
    ScalabilitySpec,
    ShardCrashError,
    ShardError,
    run_sharded,
)
from repro.parallel.scenarios import ScalabilityPartition

HEAL = DurabilityOptions(heal_retries=2, heal_backoff_s=0.05)


def _spec(chaos=()):
    return replace(
        ScalabilitySpec(n_servers=32, n_jobs=200, audit="strict"), chaos=chaos
    )


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestSelfHeal:
    def test_sigkilled_worker_is_respawned_and_report_is_bit_identical(self):
        reference = run_sharded(_spec(), shards=2, barrier_timeout_s=60.0)
        # Crash after the first default-cadence snapshot so the heal rolls
        # back to a mid-run barrier, not to a fresh start.
        window = DEFAULT_HEAL_SNAPSHOT_WINDOWS + 5
        assert window < reference.windows
        healed = run_sharded(
            _spec(chaos=((2, window, "kill"),)),
            shards=2,
            barrier_timeout_s=15.0,
            durability=HEAL,
        )
        assert healed.heals == 1
        assert healed.merged.render() == reference.merged.render()
        assert (
            healed.merged.journal_fingerprint
            == reference.merged.journal_fingerprint
        )

    def test_crash_before_first_snapshot_restarts_from_scratch(self):
        reference = run_sharded(_spec(), shards=2, barrier_timeout_s=60.0)
        healed = run_sharded(
            _spec(chaos=((2, 3, "kill"),)),
            shards=2,
            barrier_timeout_s=15.0,
            durability=HEAL,
        )
        assert healed.heals == 1
        assert (
            healed.merged.journal_fingerprint
            == reference.merged.journal_fingerprint
        )

    def test_worker_exception_heals_too(self):
        reference = run_sharded(_spec(), shards=2, barrier_timeout_s=60.0)
        healed = run_sharded(
            _spec(chaos=((2, 3, "raise"),)),
            shards=2,
            barrier_timeout_s=30.0,
            durability=HEAL,
        )
        assert healed.heals == 1
        assert (
            healed.merged.journal_fingerprint
            == reference.merged.journal_fingerprint
        )

    def test_exhausted_budget_surfaces_original_error(self):
        # Three distinct crash windows against a budget of one heal: the
        # second crash must surface as the structured error, not hang.
        spec = _spec(chaos=((2, 3, "kill"), (2, 5, "kill"), (2, 7, "kill")))
        with pytest.raises(ShardCrashError) as err:
            run_sharded(
                spec,
                shards=2,
                barrier_timeout_s=15.0,
                durability=DurabilityOptions(heal_retries=1, heal_backoff_s=0.05),
            )
        assert err.value.shard == 1

    def test_no_budget_keeps_fail_fast_semantics(self):
        with pytest.raises(ShardError):
            run_sharded(
                _spec(chaos=((2, 3, "exit"),)),
                shards=2,
                barrier_timeout_s=15.0,
                durability=DurabilityOptions(heal_retries=0),
            )

    def test_kill_action_ignored_inline(self):
        result = run_sharded(_spec(chaos=((2, 3, "kill"),)), shards=1)
        assert result.merged.totals["jobs_completed"] == 200

    def test_inline_partition_error_propagates_raw_and_is_not_healed(
        self, monkeypatch, capsys
    ):
        # At shards=1 the partitions run in this process: their exception is
        # the caller's own bug, not a shard failure to roll back and replay.
        spec = _spec()
        original = ScalabilityPartition.ready

        def ready(self, edge_time):
            if round(edge_time / spec.window_s) == 3:
                raise RuntimeError("partition ready() failed at window 3")
            return original(self, edge_time)

        monkeypatch.setattr(ScalabilityPartition, "ready", ready)
        with pytest.raises(RuntimeError, match="failed at window 3") as err:
            run_sharded(
                spec,
                shards=1,
                durability=DurabilityOptions(heal_retries=2, heal_backoff_s=0.01),
            )
        assert not isinstance(err.value, ShardError)
        assert "healing" not in capsys.readouterr().err
