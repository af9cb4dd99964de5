"""The benchmark's workloads: paper experiments through their public entry points.

Each workload is one whole experiment a HolDCSim user waits on.  The
benchmark's seed is hashed into the experiment's ``seed`` argument, which
is the only input the simulator receives; every other parameter is the
workload's fixed shape.  Every run uses ``audit="strict"``.

Within a run the simulated arrivals are open-loop (Poisson or a diurnal
trace, in simulated time); across runs the benchmark is a closed loop with
one client, since each run is one fresh process waited on to the end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: A seed no tuning of the benchmark or of the simulator has used; a claimed
#: gain must also hold on it.
HELD_OUT_SEED = 7411

#: Values the paper states, which ``paper_err_pp`` compares against.
PAPER = {
    "fig8a-adaptive": {
        "section": "IV-C, Fig. 8a",
        "claim": "active state duration is almost the same as the system utilization",
        "active_residency_pct": 30.0,
    },
    "fig11-joint": {
        "section": "IV-D, Fig. 11",
        "claim": "~20% server and ~18% network power savings",
        "server_saving_pct": 20.0,
        "network_saving_pct": 18.0,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated work unit that ``work_per_s`` counts.
    unit: str
    #: Side of ``repro.experiments.scalability.choose_pool`` the farm sits on.
    pool_side: str
    why: str
    #: Fixed parameters: a different seed must leave these unchanged.
    shape: Dict[str, Any]
    #: program seed -> result object with ``render()``.
    run: Callable[[int], Any]
    #: result -> |simulated - paper| in percentage points, or None.
    paper_err_pp: Callable[[Any], Optional[float]] = field(default=lambda result: None)
    #: True when the experiment runs until every job finished, so a job
    #: still in flight at the end is stranded (a failure).
    drains: bool = True


# -- fig8a-adaptive -----------------------------------------------------------
FIG8A = dict(utilization=0.3, n_servers=10, n_cores=10, duration_s=30.0,
             day_length_s=24.0, profile="web-search")


def _run_fig8a(seed: int):
    from repro.experiments.adaptive import ResidencyResult, run_residency_point
    from repro.workload.profiles import web_search_profile

    rho = FIG8A["utilization"]
    profile = web_search_profile()
    cell = run_residency_point(
        rho, profile, n_servers=FIG8A["n_servers"], n_cores=FIG8A["n_cores"],
        duration_s=FIG8A["duration_s"], day_length_s=FIG8A["day_length_s"],
        seed=seed, audit="strict",
    )
    return ResidencyResult(
        workload=profile.name, utilizations=[rho],
        residency={rho: cell["residency"]}, p95_latency_s={rho: cell["p95_latency_s"]},
    )


def _fig8a_err(result) -> float:
    rho = FIG8A["utilization"]
    return abs(100.0 * result.residency[rho]["Active"]
               - PAPER["fig8a-adaptive"]["active_residency_pct"])


# -- fig11-joint --------------------------------------------------------------
FIG11 = dict(utilizations=(0.3, 0.6), k=4, n_jobs=2000, transfer_bytes=100e6)


def _run_fig11(seed: int):
    from repro.experiments.joint_energy import run_joint_comparison

    return run_joint_comparison(
        utilizations=FIG11["utilizations"], k=FIG11["k"], n_jobs=FIG11["n_jobs"],
        transfer_bytes=FIG11["transfer_bytes"], seed=seed, audit="strict",
    )


def _fig11_err(result) -> float:
    paper = PAPER["fig11-joint"]
    gaps = []
    for rho in FIG11["utilizations"]:
        gaps.append(abs(100.0 * result.saving(rho, "server") - paper["server_saving_pct"]))
        gaps.append(abs(100.0 * result.saving(rho, "network") - paper["network_saving_pct"]))
    return sum(gaps) / len(gaps)


# -- table1-farm --------------------------------------------------------------
TABLE1 = dict(n_servers=20_480, n_jobs=50_000, utilization=0.3,
              mean_service_s=0.005, pool="auto")


def _run_table1(seed: int):
    from repro.experiments.scalability import run_scalability

    return run_scalability(seed=seed, audit="strict", **TABLE1)


# -- ai-collective ------------------------------------------------------------
#: ``compute_jitter`` is the only random input of a training cell; without it
#: the seed would change nothing.  2% stragglers keep the incast regime.
AI = dict(algorithms=("ring", "all_to_all"), group_size=16, k=4, n_steps=4,
          compute_jitter=0.02)


def _run_ai(seed: int):
    from repro.experiments.ai_training import AiTrainingComparison, run_ai_training_point

    results = {}
    for algorithm in AI["algorithms"]:
        results[(algorithm, AI["group_size"])] = run_ai_training_point(
            algorithm, group_size=AI["group_size"], k=AI["k"], n_steps=AI["n_steps"],
            compute_jitter=AI["compute_jitter"], seed=seed, audit="strict",
        )
    return AiTrainingComparison(results=results)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig8a-adaptive", unit="jobs", pool_side="exact",
            why="paper Fig. 8a (IV-C); per-job work dominates: trace, job factory, "
                "PackingPolicy dispatch, C-states, adaptive pools; jobs; exact side "
                "of choose_pool",
            shape=FIG8A, run=_run_fig8a, paper_err_pp=_fig8a_err, drains=False,
        ),
        Workload(
            name="fig11-joint", unit="jobs", pool_side="exact",
            why="paper Fig. 11 (IV-D); the flow network (max_min_rates) dominates, "
                "with joint power manager and switch power; jobs; exact side of "
                "choose_pool",
            shape=FIG11, run=_run_fig11, paper_err_pp=_fig11_err,
        ),
        Workload(
            name="table1-farm", unit="jobs", pool_side="pooled",
            why="paper Table I; setup, audit, GC, memory and the idle-server path "
                "of 20,480 servers; jobs; the only workload on the pooled side of "
                "choose_pool",
            shape=TABLE1, run=_run_table1,
        ),
        Workload(
            name="ai-collective", unit="transfers", pool_side="exact",
            why="collective extension; the only packet data plane: ring rides "
                "packet trains, all-to-all incast materializes per-packet hops; "
                "transfers; exact side of choose_pool",
            shape=AI, run=_run_ai,
        ),
    )
}


def program_seed(workload: str, seed: int) -> int:
    """The simulator seed generated from the benchmark seed."""
    digest = hashlib.blake2b(f"{workload}:{seed}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# -- outputs ------------------------------------------------------------------
def fingerprint(cells: Sequence[Dict[str, Any]]) -> str:
    """Digest of the simulated outputs of every cell (one per ``audit_run``).

    Covers jobs completed, events executed, per-component energy, mean
    residency fractions, latency percentiles and bytes delivered.
    """
    parts: List[Any] = []
    for cell in cells:
        engine, scheduler = cell["engine"], cell["scheduler"]
        now = engine.now
        energy = {"cpu": 0.0, "dram": 0.0, "platform": 0.0}
        residency: Dict[str, float] = {}
        for server in cell.get("servers", ()):
            for component, joules in server.energy_breakdown_j(now).items():
                energy[component] += joules
            for category, frac in server.residency_fractions(now).items():
                residency[category] = residency.get(category, 0.0) + frac
        network = scheduler.network
        if network is not None:
            energy["network"] = network.topology.network_energy_j(now)
        latency = scheduler.job_latency
        parts.append({
            "events": engine.events_executed,
            "now": repr(now),
            "jobs_completed": scheduler.jobs_completed,
            "energy_j": {k: repr(v) for k, v in energy.items()},
            "residency": {k: repr(v) for k, v in sorted(residency.items())},
            "latency_p50_p95_p99": [repr(latency.percentile(p)) for p in (50, 95, 99)]
            if len(latency) else [],
            "bytes_delivered": repr(delivered_bytes(network)) if network is not None else None,
        })
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def delivered_bytes(network) -> float:
    if hasattr(network, "bytes_delivered"):
        return network.bytes_delivered
    return network.bits_delivered / 8.0


def work_done(workload: Workload, cells: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Work units completed, attempted and failed over every cell.

    An operation fails if it does not complete, or if it is dropped or
    stranded.  ``fig8a-adaptive`` stops the clock at its span without
    draining, so jobs still in flight there are neither done nor failed.
    """
    done = attempted = failed = 0
    for cell in cells:
        scheduler = cell["scheduler"]
        network = scheduler.network
        stranded = (getattr(network, "flows_stranded", 0)
                    + getattr(network, "transfers_stranded", 0)) if network else 0
        if workload.unit == "transfers":
            delivered = len(scheduler.transfer_delay)
            lost = scheduler.transfers_launched - delivered + scheduler.transfers_dropped
        else:
            delivered = scheduler.jobs_completed
            lost = scheduler.jobs_failed + scheduler.transfers_dropped
            if workload.drains:
                lost += scheduler.active_jobs
        lost += stranded
        done += delivered
        failed += lost
        attempted += delivered + lost
    return {"work": done, "attempted": attempted, "failed": failed}
