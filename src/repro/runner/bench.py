"""The ``repro bench`` harness: measure the simulator's hot paths.

Runs the core microbenchmarks (raw event throughput, schedule/cancel churn,
full-stack task churn), a small delay-timer sweep at ``jobs=1`` vs
``jobs=N`` to quantify the parallel-runner speedup, and one scalability
point, then writes the numbers to ``BENCH_core.json``.  The committed file
is the repo's performance trajectory: every perf-focused PR re-runs the
bench and appends its numbers to the history table in EXPERIMENTS.md, and CI
runs ``repro bench --quick --check-against BENCH_core.json`` so an engine
regression >30% fails the build.

All figures are throughput rates (events/s, jobs/s) except the sweep entry,
which records wall-clock seconds and the parallel speedup.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments import delay_timer, scalability
from repro.runner.sweep import host_cpus
from repro.experiments.common import build_farm, drive
from repro.core.config import small_cloud_server
from repro.scheduling.policies import LeastLoadedPolicy
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import (
    ExponentialService,
    SingleTaskJobFactory,
    web_search_profile,
)

SCHEMA_VERSION = 7


def bench_engine_events(n_events: int = 200_000) -> float:
    """Fire-and-forget event throughput (events/s) on the tuple fast path.

    Mixes a self-rescheduling chain with a fan of pre-queued events so both
    heap push and pop/sift costs are exercised at a realistic queue depth.
    """
    engine = Engine()
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < n_events:
            engine.post(0.001, tick)

    sink = fired.__getitem__  # cheap callable taking one arg
    for i in range(1000):
        engine.post(float(i), sink, 0)
    engine.post(0.0, tick)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return engine.events_executed / elapsed


def bench_schedule_cancel(n_timers: int = 200_000) -> float:
    """Timer churn (schedule+cancel pairs/s), the delay-timer hot pattern.

    Every timer is cancelled before it fires — the worst case for lazy
    deletion — so this also exercises heap compaction.
    """
    engine = Engine()
    noop = int
    start = time.perf_counter()
    for i in range(n_timers):
        handle = engine.schedule(1.0 + (i % 50), noop)
        handle.cancel()
    engine.run()
    elapsed = time.perf_counter() - start
    return n_timers / elapsed


def bench_task_churn(n_jobs: int = 20_000, traced: bool = False) -> float:
    """Full-stack jobs/s: dispatch, execute and account short tasks.

    With ``traced`` the identical workload runs under an active telemetry
    session (trace + metrics), measuring the enabled-path emit cost end to
    end; the default measures the guard-only disabled path.
    """
    def run() -> float:
        farm = build_farm(4, small_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
        start = time.perf_counter()
        drive(farm, PoissonProcess(2000.0, rng.stream("a")), factory,
              max_jobs=n_jobs, drain=True)
        elapsed = time.perf_counter() - start
        return farm.scheduler.jobs_completed / elapsed

    if not traced:
        return run()
    from repro.telemetry import session as telemetry_session

    with telemetry_session.session(trace=True, metrics=True):
        return run()


def bench_telemetry_overhead(n_events: int = 200_000) -> Dict[str, Any]:
    """The telemetry layer's on/off cost on the engine dispatch path.

    Measures the :func:`bench_engine_events` workload three ways — no
    dispatch hook (the instrumented engine's fast path, which must stay
    within the regression tolerance of the committed pre-telemetry
    baseline), a pass-through hook, and a full
    :class:`~repro.telemetry.profiler.DispatchProfiler` — and reports the
    hook-enabled overhead.  Rates are best-of-two to damp scheduler noise.
    """
    from repro.telemetry.profiler import DispatchProfiler

    def run_once(mode: str) -> float:
        engine = Engine()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < n_events:
                engine.post(0.001, tick)

        sink = fired.__getitem__
        for i in range(1000):
            engine.post(float(i), sink, 0)
        engine.post(0.0, tick)
        if mode == "passthrough":
            engine.set_dispatch_hook(lambda t, cb, a: cb(*a))
        elif mode == "profiled":
            DispatchProfiler().attach(engine)
        start = time.perf_counter()
        engine.run()
        return engine.events_executed / (time.perf_counter() - start)

    disabled = max(run_once("disabled"), run_once("disabled"))
    passthrough = max(run_once("passthrough"), run_once("passthrough"))
    profiled = max(run_once("profiled"), run_once("profiled"))
    return {
        "events_per_s_hook_disabled": round(disabled),
        "events_per_s_hook_passthrough": round(passthrough),
        "events_per_s_profiled": round(profiled),
        "hook_overhead_pct": round((disabled - passthrough) / disabled * 100, 2),
    }


def bench_facility_overhead(n_jobs: int = 20_000) -> Dict[str, Any]:
    """The facility co-simulation layer's cost on the farm hot path.

    Runs the task-churn workload twice — without a facility (the committed
    disabled-path rate, gated against the baseline: simulations that never
    attach a facility must not pay for the layer's existence) and with one
    ticking at 10 ms across the run — and reports the enabled tick overhead.
    Rates are best-of-two to damp scheduler noise.
    """
    from repro.facility import Facility, FacilityConfig

    def run_once(enabled: bool) -> Tuple[float, int]:
        farm = build_farm(4, small_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
        facility = None
        if enabled:
            # Horizon just past the ~10 s the workload needs, so the tick
            # chain covers the run but does not keep the queue alive after.
            facility = Facility(
                farm.engine, farm.servers, FacilityConfig(tick_s=0.01)
            )
            facility.start(until=12.0)
        start = time.perf_counter()
        drive(farm, PoissonProcess(2000.0, rng.stream("a")), factory,
              max_jobs=n_jobs, drain=True)
        elapsed = time.perf_counter() - start
        ticks = 0
        if facility is not None:
            facility.stop()
            ticks = facility.ticks
        return farm.scheduler.jobs_completed / elapsed, ticks

    disabled = max(run_once(False)[0], run_once(False)[0])
    first = run_once(True)
    enabled = max(first[0], run_once(True)[0])
    return {
        "jobs_per_s_disabled": round(disabled),
        "jobs_per_s_enabled": round(enabled),
        "ticks": first[1],
        "tick_overhead_pct": round((disabled - enabled) / disabled * 100, 2),
    }


def bench_net_packet_throughput(n_packets: int = 50_000) -> float:
    """Per-packet data-plane throughput (packets/s) under heavy queueing.

    A same-instant storm of single packets across a star fabric: every
    directed hop serialises its share through the output queue, so this
    measures the per-packet event path (queue churn + port power activity),
    which is also the fast path's materialization fallback.
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.packet import PacketNetwork
    from repro.network.topology import star

    engine = _Engine()
    topo = star(engine, 16)
    net = PacketNetwork(engine, topo)
    for i in range(n_packets):
        src = i % 16
        dst = (src + 1 + (i % 15)) % 16
        engine.post_at(0.0, net.send_packet, f"h{src}", f"h{dst}", 1500.0)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return net.packets_delivered / elapsed


def _fanout_wall_clock(fast_path: bool, rounds: int) -> Tuple[float, int]:
    """Wall-clock seconds for a rounds×16-transfer permutation workload.

    Disjoint server pairs on a 32-host star, so every route is idle when its
    transfer launches: with ``fast_path`` each 100-packet transfer collapses
    to a handful of events, without it ~400.  Returns (seconds, transfers).
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.packet import PacketNetwork
    from repro.network.topology import star

    engine = _Engine()
    topo = star(engine, 32)
    net = PacketNetwork(engine, topo, fast_path=fast_path)
    done = [0]

    def bump() -> None:
        done[0] += 1

    def launch_round() -> None:
        for i in range(16):
            net.transfer(2 * i, 2 * i + 1, 150_000.0, bump)

    for r in range(rounds):
        # 2 ms apart: every transfer (~1.3 ms end to end) finishes and its
        # links go idle again before the next round launches.
        engine.schedule_at(r * 2e-3, launch_round)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    assert done[0] == 16 * rounds
    return elapsed, done[0]


def bench_net_transfer_fanout(rounds: int = 25) -> Tuple[float, float]:
    """Fast-path transfer throughput (transfers/s) and speedup vs per-packet.

    Runs the identical permutation workload with the fast path off and on;
    the delivered timestamps are bit-identical (see
    ``tests/network/test_fast_path.py``), only the event count differs.
    """
    wall_slow, _ = _fanout_wall_clock(False, rounds)
    wall_fast, n = _fanout_wall_clock(True, rounds)
    return n / wall_fast, (wall_slow / wall_fast if wall_fast else 0.0)


def bench_net_large_topology(n_routes: int = 30_000) -> float:
    """ECMP route queries/s on a k=8 fat-tree (128 hosts, 80 switches).

    Includes the lazy BFS table builds, which amortise across queries —
    the pattern the next-hop-table router replaced per-pair
    ``all_shortest_paths`` enumeration with.
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.routing import Router
    from repro.network.topology import fat_tree

    engine = _Engine()
    topo = fat_tree(engine, 8)
    router = Router(topo)
    n_servers = topo.n_servers
    start = time.perf_counter()
    for i in range(n_routes):
        src = (i * 7 + 3) % n_servers
        dst = (i * 13 + 29) % n_servers
        if src == dst:
            dst = (dst + 1) % n_servers
        router.route(f"h{src}", f"h{dst}", flow_key=f"f{i & 1023}")
    elapsed = time.perf_counter() - start
    return n_routes / elapsed


def bench_collective(
    n_ranks: int = 1024,
    fat_tree_k: int = 16,
    size_bytes: float = 1e6,
    rounds: int = 8,
) -> Dict[str, Any]:
    """1,024-node ring allreduce end to end through the packet-train path.

    One :func:`~repro.collective.ring_allreduce_job` over a k=16 fat tree
    (1,024 hosts), placed by :class:`~repro.scheduling.placement.
    GroupPlacementPolicy` and executed by the global scheduler over
    :class:`~repro.network.packet.PacketNetwork` — the full collective
    stack, not a microbench of one layer.  ``rounds`` DAG rounds fold the
    ``2(p-1)`` chunk phases via ``phase_batch`` (byte-exact); the 1 MB
    buffer keeps the per-packet train precompute (O(packets) per transfer)
    from drowning the event-path cost this point gates.  The run ends with
    a strict :func:`~repro.core.invariants.audit_collective`, so the bench
    doubles as a conservation check at scale.
    """
    import math as _math

    from repro.collective import ring_allreduce_job
    from repro.core.invariants import audit_collective
    from repro.network.packet import PacketNetwork
    from repro.network.topology import fat_tree
    from repro.scheduling.global_scheduler import GlobalScheduler
    from repro.scheduling.placement import GroupPlacementPolicy
    from repro.server.server import Server

    engine = Engine()
    topo = fat_tree(engine, fat_tree_k)
    if topo.n_servers < n_ranks:
        raise ValueError(
            f"k={fat_tree_k} fat tree has {topo.n_servers} hosts < {n_ranks} ranks"
        )
    config = small_cloud_server(n_cores=1)
    servers = [Server(engine, config, server_id=i) for i in range(topo.n_servers)]
    net = PacketNetwork(engine, topo, fast_path=True)
    scheduler = GlobalScheduler(
        engine, servers, policy=GroupPlacementPolicy(topo), network=net
    )
    phases = 2 * (n_ranks - 1)
    batch = _math.ceil(phases / rounds)
    job = ring_allreduce_job(n_ranks, size_bytes, phase_batch=batch, job_id=0)
    start = time.perf_counter()
    scheduler.submit_job(job)
    while scheduler.jobs_completed < 1:
        if not engine.step():
            break
    wall = time.perf_counter() - start
    if scheduler.jobs_completed != 1:
        raise RuntimeError("collective bench: allreduce job did not complete")
    audit_collective(scheduler, net, jobs=[job]).raise_if_violated()
    return {
        "n_ranks": n_ranks,
        "fat_tree_k": fat_tree_k,
        "size_bytes": size_bytes,
        "phase_batch": batch,
        "transfers": job.collective.n_transfers,
        "wire_bytes": job.collective.wire_bytes,
        "sim_time_s": round(engine.now, 6),
        "wall_s": round(wall, 3),
        "allreduce_events_per_s": round(engine.events_executed / wall)
        if wall else 0,
        "transfers_per_s": round(job.collective.n_transfers / wall)
        if wall else 0,
        "trains_engaged": net.trains_engaged,
        "trains_materialized": net.trains_materialized,
        "edge_switches_used": job.group.edge_switches_used,
        "cross_pod_spills": job.group.cross_pod_spills,
        "audit_ok": True,
    }


def bench_parallel(
    n_servers: int = 4_096,
    n_jobs: int = 2_000,
    shards: int = 2,
    best_of: int = 2,
) -> Dict[str, Any]:
    """Shard-engine throughput: serial inline vs ``shards`` worker processes.

    Runs the identical :class:`~repro.parallel.ScalabilitySpec` both
    ways (best-of-``best_of`` each to damp noise) and asserts the merged
    journal fingerprints match — the bench doubles as a determinism check.
    ``speedup`` > 1 requires real cores; on a single-CPU host the barrier
    and process overhead make it < 1, which is reported honestly.
    """
    from repro.parallel import ScalabilitySpec, run_sharded

    spec = ScalabilitySpec(n_servers=n_servers, n_jobs=n_jobs)

    def best(n_shards: int):
        return min(
            (run_sharded(spec, shards=n_shards) for _ in range(best_of)),
            key=lambda r: r.wall_seconds,
        )

    serial = best(1)
    sharded = best(shards)
    if serial.merged.journal_fingerprint != sharded.merged.journal_fingerprint:
        raise RuntimeError(
            f"shard determinism violation at {n_servers} servers: "
            f"shards=1 fingerprint {serial.merged.journal_fingerprint} != "
            f"shards={shards} {sharded.merged.journal_fingerprint}"
        )
    return {
        "n_servers": n_servers,
        "n_jobs": n_jobs,
        "partitions": spec.n_partitions,
        "shards": shards,
        "windows": sharded.windows,
        "events_per_s": round(sharded.events_per_second),
        "serial_events_per_s": round(serial.events_per_second),
        "speedup": round(
            serial.wall_seconds / sharded.wall_seconds, 2
        ) if sharded.wall_seconds else None,
        "fingerprint_match": True,
    }


def _durable_window_cost_s(iterations: int = 200_000) -> float:
    """Per-window wall cost of the armed-but-idle durability bookkeeping.

    Times exactly what ``--checkpoint-every 0`` adds to a barrier: the
    interrupt latch poll plus the snapshot-cadence test, with a live
    signal catcher and an armed-but-idle policy — measured directly, so
    the number is deterministic instead of drowning in run-to-run
    scheduler noise (which is >10% on busy hosts, far above the budget
    this feeds).
    """
    from repro.parallel import DurabilityOptions
    from repro.parallel.runtime import _SignalCatcher, _interrupt_reason

    idle = DurabilityOptions(checkpoint_every_s=0.0)
    with _SignalCatcher(True) as catcher:
        snap_every, _ = idle.cadences(1e-3)
        start = time.perf_counter()
        for edge in range(1, iterations + 1):
            reason = _interrupt_reason(catcher, idle, edge)
            periodic = snap_every > 0 and edge % snap_every == 0
            if reason is not None or periodic:
                raise RuntimeError("unexpected interrupt during bench")
        elapsed = time.perf_counter() - start
    return elapsed / iterations


def bench_durability(
    n_servers: int = 4_096,
    n_jobs: int = 2_000,
    budget_pct: float = 1.0,
    e2e_budget: float = 1.5,
    min_reps: int = 2,
    max_reps: int = 8,
) -> Dict[str, Any]:
    """Cost of the armed-but-idle durability machinery on the shard engine.

    Runs the serial inline scalability scenario with no durability policy
    and again with one attached but checkpointing disabled
    (``--checkpoint-every 0``: signal latch armed, per-barrier cadence
    checks live, zero snapshots taken); the fingerprints must match on
    every rep — the bench doubles as a determinism check.

    Two gates, because wall-clock noise dwarfs the true cost:

    * ``overhead_pct`` (< ``budget_pct``, the <1% contract) — the armed
      per-window bookkeeping measured directly
      (:func:`_durable_window_cost_s`) times the scenario's window count,
      as a fraction of the fastest plain run.  Deterministic to far below
      the budget.
    * ``e2e_ratio`` (< ``e2e_budget``) — floor-of-reps durable wall over
      floor-of-reps plain wall, sampled adaptively (alternating reps until
      the ratio is inside the budget or ``max_reps`` is spent).  Too noisy
      to resolve 1%, but a *structural* slowdown of the armed loop (say,
      an accidental per-window pickle) is 10x+, which no amount of
      scheduler noise hides — and only a slowdown no rep can escape
      exhausts the budget.
    """
    from repro.parallel import DurabilityOptions, ScalabilitySpec, run_sharded

    spec = ScalabilitySpec(n_servers=n_servers, n_jobs=n_jobs)
    idle = DurabilityOptions(checkpoint_every_s=0.0)
    plain_best = durable_best = None
    reps = 0
    for reps in range(1, max_reps + 1):
        plain = run_sharded(spec, shards=1)
        durable = run_sharded(spec, shards=1, durability=idle)
        fp = plain.merged.journal_fingerprint
        if durable.merged.journal_fingerprint != fp:
            raise RuntimeError(
                "durability determinism violation: armed-but-idle "
                f"fingerprint {durable.merged.journal_fingerprint} != "
                f"plain {fp}"
            )
        if plain_best is None or plain.wall_seconds < plain_best.wall_seconds:
            plain_best = plain
        if (
            durable_best is None
            or durable.wall_seconds < durable_best.wall_seconds
        ):
            durable_best = durable
        if (
            reps >= min_reps
            and plain_best.wall_seconds
            and durable_best.wall_seconds / plain_best.wall_seconds
            < e2e_budget
        ):
            break
    overhead = (
        _durable_window_cost_s() * durable_best.windows
        / plain_best.wall_seconds * 100.0
    ) if plain_best.wall_seconds else 0.0
    e2e_ratio = (
        durable_best.wall_seconds / plain_best.wall_seconds
        if plain_best.wall_seconds
        else 1.0
    )
    return {
        "n_servers": n_servers,
        "n_jobs": n_jobs,
        "windows": durable_best.windows,
        "reps": reps,
        "events_per_s": round(durable_best.events_per_second),
        "events_per_s_plain": round(plain_best.events_per_second),
        "overhead_pct": round(overhead, 4),
        "budget_pct": budget_pct,
        "e2e_ratio": round(e2e_ratio, 3),
        "e2e_budget": e2e_budget,
        "fingerprint_match": True,
    }


def _sweep_wall_clock(jobs: int, n_servers: int, duration_s: float) -> float:
    """Wall-clock seconds for an 8-point delay-timer sweep."""
    start = time.perf_counter()
    delay_timer.run_delay_timer_sweep(
        web_search_profile(),
        tau_values=(0.01, 0.05, 0.1, 0.4),
        utilizations=(0.1, 0.3),
        n_servers=n_servers,
        n_cores=2,
        duration_s=duration_s,
        seed=1,
        jobs=jobs,
    )
    return time.perf_counter() - start


def run_bench(
    quick: bool = False,
    sweep_jobs: int = 4,
    skip_sweep: bool = False,
) -> Dict[str, Any]:
    """Run the full bench suite and return the result document."""
    result: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            # Affinity-aware: in containers os.cpu_count() reports the host
            # machine, not the CPUs this process (and the elastic sweep
            # workers, which clamp to the same value) can actually use.
            "cpus": host_cpus(),
        },
    }

    # The engine microbenches are sub-second even at full size; keeping them
    # full-size in quick mode keeps quick rates directly comparable to the
    # committed full-mode baseline (rates fall with smaller event counts as
    # warm-up dominates, which would eat into the regression tolerance).
    result["engine"] = {
        "events_per_s": round(bench_engine_events(200_000)),
        "schedule_cancel_per_s": round(bench_schedule_cancel(200_000)),
    }
    n_churn = 10_000 if quick else 20_000
    result["farm"] = {
        "jobs_per_s": round(bench_task_churn(n_churn)),
    }

    # Telemetry on/off: the hook-disabled rate is gated against the committed
    # baseline (zero-cost-when-off guarantee); the traced farm rate shows the
    # full emit-site cost when a session is active.
    result["telemetry"] = bench_telemetry_overhead(200_000)
    result["telemetry"]["jobs_per_s_traced"] = round(
        bench_task_churn(n_churn, traced=True)
    )

    # Facility on/off: simulations that never attach the facility layer must
    # not pay for it (the disabled rate is gated against the baseline), and
    # the ticking plant should cost ~nothing next to task churn.
    result["facility"] = bench_facility_overhead(n_churn)

    # The packet and routing benches stay full-size in quick mode for the
    # same comparability reason as the engine benches: at smaller query
    # counts the BFS table builds / queue warm-up dominate and the measured
    # rate drops well below the committed full-mode baseline.
    fanout_rate, fanout_speedup = bench_net_transfer_fanout(8 if quick else 25)
    result["network"] = {
        "packets_per_s": round(bench_net_packet_throughput(50_000)),
        "fanout_transfers_per_s": round(fanout_rate),
        "fanout_speedup": round(fanout_speedup, 2),
        "routes_per_s": round(bench_net_large_topology(30_000)),
    }

    if not skip_sweep:
        n_servers = 6 if quick else 12
        duration_s = 3.0 if quick else 10.0
        wall_serial = _sweep_wall_clock(1, n_servers, duration_s)
        wall_parallel = _sweep_wall_clock(sweep_jobs, n_servers, duration_s)
        result["sweep"] = {
            "points": 8,
            "workers": sweep_jobs,
            "wall_s_jobs1": round(wall_serial, 3),
            f"wall_s_jobs{sweep_jobs}": round(wall_parallel, 3),
            "speedup": round(wall_serial / wall_parallel, 3) if wall_parallel else None,
        }

    # The 4,096-server scalability point (quick mode shrinks the job count,
    # not the farm); full mode adds the 65,536-server point.
    # Every earlier section left survivors on the heap; collect and freeze
    # them so generational GC sweeps during the farm runs don't traverse
    # megabytes of unrelated bench state (worth several percent on the gated
    # metric).
    gc.collect()
    gc.freeze()
    n_scal_jobs = 5_000 if quick else 50_000
    # Best of 2: a single 4-second sample is at the mercy of host noise.
    scal = min(
        (
            scalability.run_scalability(n_servers=4096, n_jobs=n_scal_jobs)
            for _ in range(2)
        ),
        key=lambda r: r.wall_seconds,
    )
    result["scalability"] = {
        "n_servers": scal.n_servers,
        "n_jobs": scal.n_jobs,
        "events_per_s": round(scal.events_per_second),
        "jobs_per_s": round(scal.jobs_per_wall_second),
    }
    if not quick:
        big = scalability.run_scalability(n_servers=65_536, n_jobs=50_000)
        result["scalability_65536"] = {
            "n_servers": big.n_servers,
            "n_jobs": big.n_jobs,
            "events_per_s": round(big.events_per_second),
            "jobs_per_s": round(big.jobs_per_wall_second),
        }

    # Collective data plane: the committed 1,024-rank ring-allreduce point
    # runs full-size in quick mode too — it IS the gate, and the strict
    # conservation audit inside doubles as a correctness check at scale.
    gc.collect()
    result["collective"] = bench_collective()

    # Shard engine: serial inline vs worker processes on the identical spec.
    # The gated 4,096-server point runs in both modes; full mode adds the
    # 65,536-server tentpole point (single-shot — it is a demo, not a gate).
    gc.collect()
    shards = min(4, max(2, host_cpus()))
    result["parallel"] = bench_parallel(4_096, 2_000, shards)
    if not quick:
        result["parallel_65536"] = bench_parallel(
            65_536, 20_000, shards, best_of=1
        )

    # Durable runs: the armed-but-idle checkpoint machinery must be free.
    gc.collect()
    result["durability"] = bench_durability(4_096, 2_000)
    return result


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.30,
) -> List[str]:
    """Compare throughput metrics against a baseline document.

    Returns a list of human-readable regression messages (empty = pass).  A
    metric regresses when it falls more than ``tolerance`` (fractional)
    below the baseline.  Only rate metrics are compared — wall-clock numbers
    depend on bench sizing, which ``--quick`` changes.
    """
    watched = [
        ("engine", "events_per_s"),
        ("engine", "schedule_cancel_per_s"),
        ("farm", "jobs_per_s"),
        ("telemetry", "events_per_s_hook_disabled"),
        ("facility", "jobs_per_s_disabled"),
        ("network", "packets_per_s"),
        ("network", "fanout_transfers_per_s"),
        ("network", "routes_per_s"),
        ("scalability", "events_per_s"),
        ("collective", "allreduce_events_per_s"),
        ("parallel", "events_per_s"),
    ]
    problems = []
    for section, metric in watched:
        base = baseline.get(section, {}).get(metric)
        cur = current.get(section, {}).get(metric)
        if not base or not cur:
            continue
        if cur < base * (1.0 - tolerance):
            problems.append(
                f"{section}.{metric} regressed: {cur:,.0f} < "
                f"{base * (1.0 - tolerance):,.0f} "
                f"(baseline {base:,.0f}, tolerance {tolerance:.0%})"
            )
    # Absolute guards, independent of any baseline: a durability policy
    # with checkpointing disabled must cost <1% of shard-engine throughput
    # (direct per-window measurement), and the end-to-end armed run must
    # not be structurally slower than the plain one.
    durability = current.get("durability", {})
    overhead = durability.get("overhead_pct")
    budget = durability.get("budget_pct", 1.0)
    if overhead is not None and overhead >= budget:
        problems.append(
            f"durability.overhead_pct too high: armed-but-idle checkpoint "
            f"machinery costs {overhead:.4f}% per run (budget <{budget:g}%) "
            f"on {durability.get('events_per_s_plain', 0):,} events/s"
        )
    e2e_ratio = durability.get("e2e_ratio")
    e2e_budget = durability.get("e2e_budget", 1.25)
    if e2e_ratio is not None and e2e_ratio >= e2e_budget:
        problems.append(
            f"durability.e2e_ratio too high: armed-but-idle run floor is "
            f"{e2e_ratio:.2f}x the plain floor (budget <{e2e_budget:g}x) — "
            f"a structural slowdown of the durable barrier loop"
        )
    return problems


def render(result: Dict[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    lines = [f"repro bench ({'quick' if result.get('quick') else 'full'} mode)"]
    engine = result.get("engine", {})
    lines.append(f"  engine events/s:          {engine.get('events_per_s', 0):>12,}")
    lines.append(f"  schedule+cancel pairs/s:  {engine.get('schedule_cancel_per_s', 0):>12,}")
    lines.append(f"  farm jobs/s:              {result.get('farm', {}).get('jobs_per_s', 0):>12,}")
    telem = result.get("telemetry")
    if telem:
        lines.append(
            f"  telemetry off events/s:   {telem.get('events_per_s_hook_disabled', 0):>12,} "
            f"(hook on: {telem.get('hook_overhead_pct', 0):+.1f}%)"
        )
        lines.append(
            f"  telemetry traced jobs/s:  {telem.get('jobs_per_s_traced', 0):>12,}"
        )
    facility = result.get("facility")
    if facility:
        lines.append(
            f"  facility off jobs/s:      {facility.get('jobs_per_s_disabled', 0):>12,} "
            f"(ticking: {facility.get('tick_overhead_pct', 0):+.1f}%)"
        )
    network = result.get("network")
    if network:
        lines.append(f"  net packets/s:            {network.get('packets_per_s', 0):>12,}")
        lines.append(
            f"  net fanout transfers/s:   {network.get('fanout_transfers_per_s', 0):>12,} "
            f"({network.get('fanout_speedup', 0):.1f}x vs per-packet)"
        )
        lines.append(f"  net routes/s:             {network.get('routes_per_s', 0):>12,}")
    sweep = result.get("sweep")
    if sweep:
        workers = sweep.get("workers", 4)
        lines.append(
            f"  sweep ({sweep['points']} pts) wall:     "
            f"{sweep['wall_s_jobs1']:.2f}s @jobs=1 -> "
            f"{sweep[f'wall_s_jobs{workers}']:.2f}s @jobs={workers} "
            f"({sweep['speedup']:.2f}x)"
        )
    scal = result.get("scalability", {})
    lines.append(
        f"  scalability ({scal.get('n_servers', 0):,} servers): "
        f"{scal.get('events_per_s', 0):>12,} events/s, "
        f"{scal.get('jobs_per_s', 0):,} jobs/s"
    )
    big = result.get("scalability_65536")
    if big:
        lines.append(
            f"  scalability ({big.get('n_servers', 0):,} servers): "
            f"{big.get('events_per_s', 0):>12,} events/s, "
            f"{big.get('jobs_per_s', 0):,} jobs/s"
        )
    collective = result.get("collective")
    if collective:
        lines.append(
            f"  collective ({collective.get('n_ranks', 0):,}-rank ring): "
            f"{collective.get('allreduce_events_per_s', 0):>12,} events/s "
            f"({collective.get('transfers', 0):,} transfers, "
            f"{collective.get('trains_engaged', 0):,} trains)"
        )
    for key in ("parallel", "parallel_65536"):
        par = result.get(key)
        if par:
            lines.append(
                f"  shard engine ({par.get('n_servers', 0):,} servers, "
                f"{par.get('shards', 0)} shards): "
                f"{par.get('events_per_s', 0):>12,} events/s "
                f"({par.get('speedup', 0):.2f}x vs serial)"
            )
    durability = result.get("durability")
    if durability:
        lines.append(
            f"  durable idle events/s:    "
            f"{durability.get('events_per_s', 0):>12,} "
            f"(armed checkpoint machinery: "
            f"{durability.get('overhead_pct', 0):+.4f}%/run, "
            f"e2e floor {durability.get('e2e_ratio', 0):.2f}x)"
        )
    return "\n".join(lines)


def main(
    out: Optional[str] = "BENCH_core.json",
    quick: bool = False,
    sweep_jobs: int = 4,
    skip_sweep: bool = False,
    check_against: Optional[str] = None,
    tolerance: float = 0.30,
) -> int:
    """Entry point used by the ``repro bench`` CLI subcommand."""
    result = run_bench(quick=quick, sweep_jobs=sweep_jobs, skip_sweep=skip_sweep)
    print(render(result))
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    if check_against:
        with open(check_against) as fh:
            baseline = json.load(fh)
        problems = check_regression(result, baseline, tolerance=tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regressions vs {check_against} (tolerance {tolerance:.0%})")
    return 0
