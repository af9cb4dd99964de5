"""Checkpoint→restore bit-identity on the reference scenarios.

The durability contract: interrupting a run at *any* window barrier, writing
a checkpoint, and restoring it in a fresh process-level context must produce
a merged report — rendered lines and boundary-journal fingerprint — that is
byte-identical to the uninterrupted run.  Every run here executes under
``audit="strict"`` so the conservation audits also gate the restored half.

The interrupt window is drawn from a seeded RNG per scenario (a property
test in spirit: any barrier must work; the seed keeps CI deterministic).
"""

from __future__ import annotations

import random

import pytest

from repro.parallel import (
    DurabilityOptions,
    JointSpec,
    RunInterrupted,
    ScalabilitySpec,
    run_sharded,
)

SPECS = {
    "scalability": lambda: ScalabilitySpec(
        n_servers=32, n_jobs=200, audit="strict"
    ),
    "joint": lambda: JointSpec(n_jobs=40, audit="strict"),
}


def _interrupt_then_restore(spec, shards, path, stop_after):
    durability = DurabilityOptions(
        checkpoint_path=path, stop_after_windows=stop_after
    )
    with pytest.raises(RunInterrupted) as err:
        run_sharded(spec, shards=shards, durability=durability)
    assert err.value.edge == stop_after
    assert err.value.checkpoint_path == path
    restored = run_sharded(
        spec, shards=shards, durability=DurabilityOptions(restore_from=path)
    )
    assert restored.restored_edge == stop_after
    return restored


@pytest.mark.slow
@pytest.mark.timeout(600)
@pytest.mark.parametrize("name", sorted(SPECS))
class TestRestoreIdentity:
    def test_inline_restore_is_bit_identical(self, name, tmp_path):
        spec = SPECS[name]()
        reference = run_sharded(spec, shards=1)
        # Interrupt somewhere strictly inside the run, barrier drawn at
        # random (seeded per scenario so failures reproduce).
        rng = random.Random(f"restore-{name}")
        stop_after = rng.randrange(1, reference.windows - 1)
        restored = _interrupt_then_restore(
            spec, 1, str(tmp_path / "run.ckpt"), stop_after
        )
        assert restored.merged.render() == reference.merged.render()
        assert (
            restored.merged.journal_fingerprint
            == reference.merged.journal_fingerprint
        )
        assert restored.windows == reference.windows

    def test_sharded_restore_is_bit_identical(self, name, tmp_path):
        spec = SPECS[name]()
        reference = run_sharded(spec, shards=2, barrier_timeout_s=60.0)
        rng = random.Random(f"restore-sharded-{name}")
        stop_after = rng.randrange(1, reference.windows - 1)
        restored = _interrupt_then_restore(
            spec, 2, str(tmp_path / "run.ckpt"), stop_after
        )
        assert restored.merged.render() == reference.merged.render()
        assert (
            restored.merged.journal_fingerprint
            == reference.merged.journal_fingerprint
        )


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestRestoreRefusals:
    def _checkpoint(self, tmp_path, spec, shards=1, stop_after=3):
        path = str(tmp_path / "run.ckpt")
        with pytest.raises(RunInterrupted):
            run_sharded(
                spec,
                shards=shards,
                durability=DurabilityOptions(
                    checkpoint_path=path, stop_after_windows=stop_after
                ),
            )
        return path

    def test_refuses_different_scenario_parameters(self, tmp_path):
        from repro.checkpoint import CheckpointError

        spec = ScalabilitySpec(n_servers=32, n_jobs=200)
        path = self._checkpoint(tmp_path, spec)
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_sharded(
                ScalabilitySpec(n_servers=32, n_jobs=200, seed=99),
                shards=1,
                durability=DurabilityOptions(restore_from=path),
            )

    def test_refuses_shard_layout_change(self, tmp_path):
        from repro.checkpoint import CheckpointError

        spec = ScalabilitySpec(n_servers=32, n_jobs=200)
        path = self._checkpoint(tmp_path, spec, shards=2)
        with pytest.raises(CheckpointError, match="re-packed"):
            run_sharded(
                spec, shards=4, durability=DurabilityOptions(restore_from=path)
            )

    def test_interrupt_without_checkpoint_path_loses_nothing_silently(self):
        spec = ScalabilitySpec(n_servers=32, n_jobs=200)
        with pytest.raises(RunInterrupted, match="not saved"):
            run_sharded(
                spec,
                shards=1,
                durability=DurabilityOptions(stop_after_windows=3),
            )

    def test_periodic_checkpoint_cadence_writes_latest_barrier(self, tmp_path):
        from repro.checkpoint import read_checkpoint

        spec = ScalabilitySpec(n_servers=32, n_jobs=200)
        path = str(tmp_path / "run.ckpt")
        result = run_sharded(
            spec,
            shards=1,
            durability=DurabilityOptions(
                # window_s = 1e-3 → every 10 windows.
                checkpoint_path=path, checkpoint_every_s=0.010
            ),
        )
        header, _ = read_checkpoint(path)
        assert header["edge"] % 10 == 0
        assert 0 < header["edge"] < result.windows
