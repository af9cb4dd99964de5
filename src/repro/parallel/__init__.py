"""Sharded farm engine: conservative time-window parallelism in one run.

Partition the farm into ``P`` model partitions, pack them onto ``N`` workers,
advance each worker's engine in lock-step windows, and exchange
boundary events at window barriers — with merged results bit-identical for
every worker count, one worker (in this process) included.  See DESIGN.md
("Conservative-window sharding") for the protocol derivation.
"""

from repro.parallel.merge import MergedStats, merge_snapshots
from repro.parallel.protocol import (
    BarrierController,
    InFlightLedger,
    Message,
    ProtocolError,
    ShardEndpoint,
    delivery_edge_index,
    drain_window_count,
)
from repro.parallel.runtime import (
    DEFAULT_BARRIER_TIMEOUT_S,
    DEFAULT_HEAL_SNAPSHOT_WINDOWS,
    DurabilityOptions,
    RunInterrupted,
    ShardCrashError,
    ShardError,
    ShardRunResult,
    run_sharded,
)
from repro.parallel.scenarios import (
    FRONTEND_PID,
    AiSpec,
    FacilitySpec,
    FaultsSpec,
    JointSpec,
    ScalabilitySpec,
    ShardSpec,
)

__all__ = [
    "AiSpec",
    "BarrierController",
    "DEFAULT_BARRIER_TIMEOUT_S",
    "DEFAULT_HEAL_SNAPSHOT_WINDOWS",
    "DurabilityOptions",
    "FRONTEND_PID",
    "FacilitySpec",
    "FaultsSpec",
    "InFlightLedger",
    "JointSpec",
    "MergedStats",
    "Message",
    "ProtocolError",
    "RunInterrupted",
    "ScalabilitySpec",
    "ShardCrashError",
    "ShardEndpoint",
    "ShardError",
    "ShardRunResult",
    "ShardSpec",
    "delivery_edge_index",
    "drain_window_count",
    "merge_snapshots",
    "run_sharded",
]
