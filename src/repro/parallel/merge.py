"""Deterministic merge of per-partition shard results.

Each partition returns a plain-dict snapshot (counters, latency samples,
energy integrals, its endpoint journal).  The merge is a pure function of
those snapshots taken in partition order, so any worker packing produces the
same :class:`MergedStats` — and its :meth:`~MergedStats.render` output is
byte-identical, which is what the CI shard-smoke step diffs.

The endpoint journals are reassembled in ``(time, pid, seq)`` order and
hashed with the PR-4 :func:`repro.runner.journal.stable_repr` canonical
rendering (address-free, ``repr`` floats) — the merged fingerprint is the
strongest single witness that two executions saw the same boundary traffic
at the same simulated times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.stats import LatencyCollector
from repro.runner.journal import stable_repr

#: Snapshot keys that are not merged numerically.
_SKIP_KEYS = {"pid", "journal", "job_latency", "task_queue_delay"}
#: Keys merged by max rather than sum.
_MAX_KEYS = {"facility_peak_zone_temp_c"}
#: Keys merged by (partition-ordered) arithmetic mean rather than sum.
_MEAN_KEYS = {"availability", "facility_mean_pue"}


@dataclass
class MergedStats:
    """Shard-count-independent summary of one :func:`run_sharded` run."""

    scenario: str
    n_partitions: int
    t_end: float
    windows: int
    events_executed: int
    totals: Dict[str, object]
    job_latency_count: int
    job_latency_mean: float
    job_latency_p50: float
    job_latency_p99: float
    journal_entries: int
    journal_fingerprint: str
    per_partition: List[Dict[str, object]] = field(repr=False, default_factory=list)

    def render(self) -> str:
        """Byte-stable report; every line starts with ``merged`` for CI diffs."""
        lines = [
            f"merged scenario={self.scenario} partitions={self.n_partitions}",
            f"merged t_end={self.t_end!r} windows={self.windows}",
            f"merged events_executed={self.events_executed}",
        ]
        for key in sorted(self.totals):
            lines.append(f"merged {key}={self.totals[key]!r}")
        lines.append(f"merged job_latency_count={self.job_latency_count}")
        lines.append(f"merged job_latency_mean={self.job_latency_mean!r}")
        lines.append(f"merged job_latency_p50={self.job_latency_p50!r}")
        lines.append(f"merged job_latency_p99={self.job_latency_p99!r}")
        lines.append(f"merged journal_entries={self.journal_entries}")
        lines.append(f"merged journal_fingerprint={self.journal_fingerprint}")
        return "\n".join(lines)


def merged_journal(
    snapshots: List[Dict[str, object]],
) -> List[Tuple[float, int, int, str, tuple]]:
    """All endpoint journal entries in canonical ``(time, pid, seq)`` order."""
    entries: List[Tuple[float, int, int, str, tuple]] = []
    for snap in snapshots:
        entries.extend(snap["journal"])
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return entries


def journal_fingerprint(entries: List[Tuple[float, int, int, str, tuple]]) -> str:
    """blake2b over the canonical rendering of the merged journal."""
    digest = hashlib.blake2b(digest_size=16)
    for entry in entries:
        digest.update(stable_repr(entry).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def merge_snapshots(
    scenario: str,
    snapshots: List[Dict[str, object]],
    engine_events: List[int],
    t_end: float,
    windows: int,
) -> MergedStats:
    """Fold per-partition snapshots (in pid order) into one MergedStats.

    ``engine_events`` carries one ``events_executed`` total per worker
    engine; the sum is shard-count-independent because every shard count
    executes the same events.
    """
    snapshots = sorted(snapshots, key=lambda s: s["pid"])
    if [s["pid"] for s in snapshots] != list(range(len(snapshots))):
        raise ValueError("snapshots must cover partitions 0..P-1 exactly once")

    totals: Dict[str, object] = {}
    means: Dict[str, List[float]] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in _SKIP_KEYS or not isinstance(value, (bool, int, float)):
                continue
            if key in _MEAN_KEYS:
                means.setdefault(key, []).append(float(value))
            elif key in _MAX_KEYS:
                totals[key] = max(totals.get(key, value), value)
            elif isinstance(value, bool):
                totals[key] = totals.get(key, 0) + int(value)
            else:
                totals[key] = totals.get(key, 0) + value
    for key, values in means.items():
        totals[key] = sum(values) / len(values)

    latency = LatencyCollector("merged_job_latency")
    for snap in snapshots:
        latency.extend(snap["job_latency"])
    has_samples = len(latency) > 0

    entries = merged_journal(snapshots)
    return MergedStats(
        scenario=scenario,
        n_partitions=len(snapshots),
        t_end=t_end,
        windows=windows,
        events_executed=sum(engine_events),
        totals=totals,
        job_latency_count=len(latency),
        job_latency_mean=latency.mean() if has_samples else float("nan"),
        job_latency_p50=latency.percentile(50) if has_samples else float("nan"),
        job_latency_p99=latency.percentile(99) if has_samples else float("nan"),
        journal_entries=len(entries),
        journal_fingerprint=journal_fingerprint(entries),
        per_partition=snapshots,
    )
