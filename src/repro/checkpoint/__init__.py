"""Durable runs: deterministic full-state snapshots of a running simulation.

``repro.checkpoint`` is the durability layer under the sharded runtime
(:mod:`repro.parallel`): the whole simulation world — engine clock/heap,
RNG streams, servers, in-flight flows, scheduler, fault
injector, facility state — is pickled as one object graph at a window
barrier (a naturally consistent cut) and written atomically with a schema
version and a config fingerprint that refuses restore into a mismatched
scenario.  See DESIGN.md ("Checkpoint format") for the format and the
barrier-cut consistency argument.
"""

from repro.checkpoint.format import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    CheckpointError,
    check_restorable,
    read_checkpoint,
    scenario_fingerprint,
    write_checkpoint,
)
from repro.checkpoint.lock import FileLock, LockHeldError, try_lock

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FileLock",
    "LockHeldError",
    "check_restorable",
    "read_checkpoint",
    "scenario_fingerprint",
    "try_lock",
    "write_checkpoint",
]
