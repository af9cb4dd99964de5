"""On-disk checkpoint envelope: header + pickled world, written atomically.

A checkpoint file is one JSON header line followed by raw pickle bytes:

* the **header** carries the format ``kind``/``version``, the scenario's
  config fingerprint, the shard count, the barrier edge and simulated time
  of the cut, and a blake2b digest + length of the payload — everything
  needed to refuse a bad restore *before* unpickling anything;
* the **payload** holds one pickled worker per shard (engines, servers, RNG
  streams, in-flight flows, scheduler/facility/fault state) plus the
  coordinator's state, captured at a window barrier, where no boundary
  message is in flight inside a worker.

Writes are atomic (tmp file + fsync + ``os.replace`` + directory fsync), so
a crash mid-checkpoint leaves the previous checkpoint intact — the file on
disk is always a complete, verified cut.

The config fingerprint hashes the scenario spec's type (a
:class:`~repro.parallel.ShardSpec` subclass) and its fields through the same
:func:`~repro.runner.journal.stable_repr` machinery the sweep journal uses,
*excluding* the test-only fields (``chaos``, ``audit``): a checkpoint taken
under fault-injection chaos must restore into the same scenario run without
it, and the audit level is a verification knob, not part of the simulated
world.  Scenario constants are class attributes, not fields; the type name
covers them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Tuple

#: First line's ``kind`` field; anything else is not a checkpoint file.
CHECKPOINT_KIND = "repro-checkpoint"

#: Bump when the envelope or payload schema changes incompatibly; restore
#: refuses a foreign version rather than mis-deserializing it.  Version 2
#: dropped the pooled idle-server path: version-1 payloads pickle pool
#: cohorts and a scenario spec with a ``pool`` field.  Version 3 replaced the
#: one flat scenario spec with a spec class per scenario.  Version 4 dropped
#: the header's ``mode`` field: every shard count writes worker blobs.
CHECKPOINT_VERSION = 4

#: Spec fields that do not shape the simulated world (see module docstring).
_FINGERPRINT_EXCLUDED_FIELDS = ("chaos", "audit")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or restored safely."""


def scenario_fingerprint(spec: Any) -> str:
    """Stable identity of the *simulated world* a spec describes.

    Two specs with the same fingerprint produce bit-identical runs (modulo
    the excluded verification/test knobs), so restoring a checkpoint into a
    spec with a different fingerprint would silently compute garbage —
    :func:`check_restorable` refuses it instead.
    """
    # Deferred: repro.runner.journal takes this package's FileLock, so a
    # module-level import here would close an import cycle.
    from repro.runner.journal import stable_repr

    fields: Dict[str, Any] = {
        f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
    }
    for name in _FINGERPRINT_EXCLUDED_FIELDS:
        fields.pop(name, None)
    payload = f"{type(spec).__qualname__}\x1f{stable_repr(fields)}"
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def write_checkpoint(path: str, payload: bytes, meta: Dict[str, Any]) -> None:
    """Atomically write ``payload`` with ``meta`` merged into the header.

    The caller provides the run-level metadata (``fingerprint``,
    ``shards``, ``edge``, ``sim_time``, ``scenario``); this function adds the
    format fields and the payload digest.  On return the bytes are durable:
    the temp file is fsync'd before the rename and the directory after it.
    """
    header = dict(meta)
    header["kind"] = CHECKPOINT_KIND
    header["version"] = CHECKPOINT_VERSION
    header["payload_blake2b"] = hashlib.blake2b(
        payload, digest_size=16
    ).hexdigest()
    header["payload_len"] = len(payload)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Make the rename itself durable (POSIX: fsync the containing directory).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checkpoint(path: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify a checkpoint file; returns ``(header, payload)``.

    Every integrity property is checked before the payload is handed back:
    kind, version, payload length and blake2b digest.  A torn or corrupt
    file raises :class:`CheckpointError` with the specific mismatch.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file (bad header line)"
        ) from exc
    if not isinstance(header, dict) or header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file "
            f"(kind={header.get('kind') if isinstance(header, dict) else header!r})"
        )
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!r} was written by checkpoint format version "
            f"{header.get('version')}, this build reads version "
            f"{CHECKPOINT_VERSION}; re-run from scratch"
        )
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"{path!r} is truncated: header promises "
            f"{header.get('payload_len')} payload bytes, found {len(payload)} "
            "(interrupted checkpoint write?)"
        )
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header.get("payload_blake2b"):
        raise CheckpointError(f"{path!r} payload digest mismatch (corrupt file)")
    return header, payload


def check_restorable(
    header: Dict[str, Any], spec: Any, shards: int, path: str
) -> None:
    """Refuse to restore ``header`` into a mismatched scenario or shard count.

    The fingerprint check is the safety property — restoring into a
    different world would not fail loudly on its own, it would just produce
    wrong numbers.  The shard check exists because the payload holds one
    blob per worker.
    """
    expected = scenario_fingerprint(spec)
    found = header.get("fingerprint")
    if found != expected:
        raise CheckpointError(
            f"checkpoint {path!r} was taken from scenario "
            f"{header.get('scenario')!r} (fingerprint {found}) but this run is "
            f"{getattr(spec, 'name', '?')!r} (fingerprint {expected}); "
            "restore refused — run the checkpointed scenario with identical "
            "parameters"
        )
    if header.get("shards") != shards:
        raise CheckpointError(
            f"checkpoint {path!r} was taken with --shards {header.get('shards')} "
            f"but this run asked for --shards {shards}; worker-local engine "
            "state cannot be re-packed — rerun with the original shard count"
        )
