"""Worker-crash handling: a dead or wedged shard must surface as a
structured error naming the shard and window — never a hung barrier.

Uses the spec's chaos hooks, which fire inside the worker process just
before it reports the targeted window's barrier (the inline serial path
ignores them).  Partition 2 maps to worker 1 under two shards, so the
errors below must name shard 1.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.parallel import (
    ScalabilitySpec,
    ShardCrashError,
    ShardError,
    run_sharded,
)


def _chaos_spec(action: str):
    spec = ScalabilitySpec(n_servers=32, n_jobs=200)
    return replace(spec, chaos=((2, 3, action),))


@pytest.mark.slow
@pytest.mark.timeout(120)
class TestShardCrashHandling:
    def test_worker_exit_raises_structured_crash_error(self):
        with pytest.raises(ShardCrashError) as err:
            run_sharded(_chaos_spec("exit"), shards=2, barrier_timeout_s=30.0)
        assert err.value.shard == 1
        assert err.value.window == 3
        assert "shard 1" in str(err.value)

    def test_worker_exception_raises_shard_error_with_traceback(self):
        with pytest.raises(ShardError) as err:
            run_sharded(_chaos_spec("raise"), shards=2, barrier_timeout_s=30.0)
        assert not isinstance(err.value, ShardCrashError)
        assert err.value.shard == 1
        assert err.value.window == 3
        assert "chaos: partition 2 raised at window 3" in err.value.detail

    def test_hung_worker_trips_barrier_timeout(self):
        with pytest.raises(ShardCrashError) as err:
            run_sharded(_chaos_spec("hang"), shards=2, barrier_timeout_s=2.0)
        assert err.value.shard == 1
        assert err.value.window == 3
        assert "unresponsive" in err.value.detail

    def test_inline_path_ignores_chaos_hooks(self):
        result = run_sharded(_chaos_spec("raise"), shards=1)
        assert result.merged.totals["jobs_completed"] == 200

    def test_healthy_run_unaffected_by_short_timeout(self):
        spec = ScalabilitySpec(n_servers=32, n_jobs=100)
        result = run_sharded(spec, shards=2, barrier_timeout_s=30.0)
        assert result.merged.totals["jobs_completed"] == 100
