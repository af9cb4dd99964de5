"""Checkpoint envelope: atomic writes, verified reads, refused restores."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    check_restorable,
    read_checkpoint,
    scenario_fingerprint,
    write_checkpoint,
)
from repro.parallel import DurabilityOptions, ScalabilitySpec, run_sharded


def _meta(spec, shards=1, edge=7):
    return {
        "scenario": spec.name,
        "fingerprint": scenario_fingerprint(spec),
        "mode": "inline" if shards == 1 else "sharded",
        "shards": shards,
        "n_partitions": spec.n_partitions,
        "edge": edge,
        "sim_time": edge * spec.window_s,
        "window_s": spec.window_s,
    }


class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        payload = b"\x80\x04 arbitrary payload bytes \x00\xff"
        write_checkpoint(path, payload, _meta(spec))
        header, read_payload = read_checkpoint(path)
        assert read_payload == payload
        assert header["version"] == CHECKPOINT_VERSION
        assert header["edge"] == 7
        assert header["fingerprint"] == scenario_fingerprint(spec)

    def test_write_replaces_atomically_and_leaves_no_tmp(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"old", _meta(spec, edge=1))
        write_checkpoint(path, b"new", _meta(spec, edge=2))
        header, payload = read_checkpoint(path)
        assert payload == b"new"
        assert header["edge"] == 2
        assert [f for f in os.listdir(tmp_path) if f != "run.ckpt"] == []

    def test_corrupt_payload_refused(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"payload-bytes", _meta(spec))
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"X")
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_truncated_payload_refused(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"payload-bytes", _meta(spec))
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = str(tmp_path / "not.ckpt")
        open(path, "w").write(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(CheckpointError, match="not a checkpoint file"):
            read_checkpoint(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_version_1_refused_before_unpickling(self, tmp_path):
        # Version-1 payloads pickle classes that no longer exist (pooled
        # idle-server cohorts; the payload below names a missing module the
        # same way): restore must refuse on the header's format version,
        # never reach the unpickler and its ImportError.
        spec = ScalabilitySpec()
        ckpt = tmp_path / "v1.ckpt"
        path = str(ckpt)
        payload = b"crepro.removed_module\nRemovedClass\n."
        write_checkpoint(path, payload, _meta(spec))
        header_line, rest = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 1
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        message = f"format version 1, this build reads version {CHECKPOINT_VERSION}"
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)
        with pytest.raises(CheckpointError, match=message):
            run_sharded(spec, shards=1, durability=DurabilityOptions(restore_from=path))


class TestScenarioFingerprint:
    def test_stable_across_calls(self):
        assert scenario_fingerprint(ScalabilitySpec()) == scenario_fingerprint(
            ScalabilitySpec()
        )

    def test_model_fields_change_it(self):
        base = scenario_fingerprint(ScalabilitySpec())
        assert scenario_fingerprint(ScalabilitySpec(seed=99)) != base
        assert scenario_fingerprint(ScalabilitySpec(n_servers=128)) != base

    def test_verification_knobs_do_not(self):
        base = scenario_fingerprint(ScalabilitySpec())
        spec = ScalabilitySpec(audit="strict")
        assert scenario_fingerprint(spec) == base
        chaotic = replace(spec, chaos=((2, 3, "exit"),))
        assert scenario_fingerprint(chaotic) == base


class TestCheckRestorable:
    def test_accepts_matching_run(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta(spec, shards=2, edge=3))
        header, _ = read_checkpoint(path)
        check_restorable(header, spec, shards=2, path=path)

    def test_refuses_fingerprint_mismatch(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta(spec))
        header, _ = read_checkpoint(path)
        with pytest.raises(CheckpointError, match="fingerprint"):
            check_restorable(header, ScalabilitySpec(seed=99), shards=1, path=path)

    def test_refuses_mode_mismatch(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta(spec, shards=1))
        header, _ = read_checkpoint(path)
        with pytest.raises(CheckpointError, match="cut but this run is"):
            check_restorable(header, spec, shards=2, path=path)

    def test_refuses_shard_count_mismatch(self, tmp_path):
        spec = ScalabilitySpec()
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, b"p", _meta(spec, shards=2))
        header, _ = read_checkpoint(path)
        with pytest.raises(CheckpointError, match="re-packed"):
            check_restorable(header, spec, shards=4, path=path)
