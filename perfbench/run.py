"""HolDCSim benchmark: paper experiments end to end, and layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload again and again for about ``S`` seconds,
each run one fresh process, then fills the rest of the time with probe
processes that stop at the first simulated event.  It prints the end-to-end
metrics (medians, with run counts).

``--trace 1`` makes one untraced and one traced run and prints the per-layer
metrics and the phase x layer table of self times.

Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run's values
and a manifest go to ``perfbench/results/<workload>-seed<N>-trace<T>.json``.
Workloads, work units and paper references are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: A run that takes longer than this is killed and counted as failed.
WORKER_TIMEOUT_S = 150

#: name -> unit.  BENCHMARK.json's ``end_to_end``.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Also printed per workload, and kept in the result file.  They are not
#: gated: ``failed_frac`` is 0 on correct code (it travels as
#: ``attempted``/``failed``), and ``paper_err_pp`` is absent where the paper
#: states no value.
REPORTED = {"failed_frac": "ratio", "paper_err_pp": "pp"}

#: name -> unit.  BENCHMARK.json's ``per_layer``; from the traced run.
PER_LAYER = {
    "phase.import_s": "s", "phase.setup_s": "s", "phase.simulate_s": "s",
    "phase.audit_s": "s", "phase.report_s": "s", "phase.gc_pause_s": "s",
    "engine.events": "count", "engine.events_per_work": "count", "engine.self_s": "s",
    "workload.arrivals": "count", "workload.self_s": "s",
    "jobs.tasks": "count",
    "scheduling.submit_calls": "count", "scheduling.select_calls": "count",
    "scheduling.candidates_per_select": "count", "scheduling.fallback_ratio": "ratio",
    "scheduling.self_s": "s",
    "server.submit_calls": "count", "server.events": "count", "server.self_s": "s",
    "server.sleep_calls": "count", "server.sleep_accepted_ratio": "ratio",
    "server.pool_captures": "count",
    "power.events": "count", "power.self_s": "s", "power.network_cost_calls": "count",
    "network.flow.transfers": "count", "network.flow.recomputes": "count",
    "network.flow.recomputes_per_transfer": "count", "network.flow.recompute_s": "s",
    "network.flow.self_s": "s",
    "network.routing.calls": "count", "network.routing.self_s": "s",
    "network.switch.events": "count", "network.switch.self_s": "s",
    "network.packet.transfers": "count", "network.packet.hop_events": "count",
    "network.packet.train_ratio": "ratio", "network.packet.self_s": "s",
    "trace.spans": "count", "trace.unattributed_pct": "%", "trace.overhead_pct": "%",
}


def spawn(name: str, seed: int, mode: str) -> dict:
    """One fresh worker process; its JSON record (``ok`` False if it broke)."""
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode, "error": f"timed out after {WORKER_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "mode": mode,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def tally(runs: List[dict]) -> Dict[str, object]:
    """Correctness over the whole runs of one invocation.

    A run that broke, raised in its strict audit, or whose fingerprint
    differs from the others counts every operation as failed.
    """
    whole = [r for r in runs if r["mode"] != "probe"]
    ok = [r for r in whole if r["ok"]]
    expected = max((r["attempted"] for r in ok), default=1)
    prints = {r["fingerprint"] for r in ok}
    attempted = failed = 0
    for r in whole:
        n = r["attempted"] if r["ok"] else expected
        attempted += n
        failed += n if (not r["ok"] or len(prints) > 1) else r["failed"]
    probes_ok = all(r["ok"] for r in runs if r["mode"] == "probe")
    return {
        "correct": bool(ok) and len(ok) == len(whole) and probes_ok
        and len(prints) == 1 and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "fingerprints": sorted(prints),
    }


#: Whole runs every invocation makes, however long they take: a median of
#: one run follows the host's slow spells.
MIN_WHOLE_RUNS = 2


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics from whole runs, then set-up probes, for ``seconds``.

    After ``MIN_WHOLE_RUNS`` whole runs, another run starts only if one more
    like the last fits in the budget; there is always at least one probe.
    """
    pseed = workloads.program_seed(name, seed)
    runs: List[dict] = []
    start = time.perf_counter()
    for mode, at_least in (("full", MIN_WHOLE_RUNS), ("probe", 1)):
        for made in itertools.count(1):
            began = time.perf_counter()
            runs.append(spawn(name, pseed, mode))
            now = time.perf_counter()
            if not runs[-1]["ok"] or (
                made >= at_least and now - start + (now - began) > seconds
            ):
                break
        if not runs[-1]["ok"]:
            break
    whole = [r for r in runs if r["mode"] == "full" and r["ok"]]
    setups = [r["setup_s"] for r in runs if r["ok"]]
    counts = {"runs": len(whole), "setup_samples": len(setups)}
    metrics: Dict[str, dict] = {}
    if whole:
        for metric in ("wall_s", "work_per_s", "peak_rss_mb"):
            metrics[metric] = statistics.median(r[metric] for r in whole)
        metrics["setup_s"] = statistics.median(setups)
        err = [r["paper_err_pp"] for r in whole if r["paper_err_pp"] is not None]
        if err:
            metrics["paper_err_pp"] = statistics.median(err)
    out = tally(runs)
    metrics["failed_frac"] = out["failed"] / out["attempted"]
    return {**out, "metrics": metrics, "counts": counts, "runs": runs, "program_seed": pseed}


def trace(name: str, seed: int) -> dict:
    """Per-layer metrics from one traced run, next to one untraced run."""
    pseed = workloads.program_seed(name, seed)
    plain = spawn(name, pseed, "full")
    traced = spawn(name, pseed, "traced")
    out = tally([plain, traced])
    metrics: Dict[str, float] = {}
    if plain["ok"] and traced["ok"]:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    return {**out, "metrics": metrics, "table": traced.get("table"),
            "runs": [plain, traced], "program_seed": pseed}


# -- reporting ---------------------------------------------------------------
def git_revision() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from searching directories above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(name: str, seed: int, seconds: float, traced: bool, result: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    return {
        "workload": name,
        "seed": seed,
        "program_seed": result["program_seed"],
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(traced),
        "run_count": len([r for r in result["runs"] if r["mode"] != "probe"]),
        "work_unit": workload.unit,
        "pool_side": workload.pool_side,
        "shape": workload.shape,
        "paper": workloads.PAPER.get(name),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": " ".join(platform.uname()[:3] + platform.uname()[4:5]),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_end_to_end(name: str, result: dict) -> None:
    counts = result["counts"]
    print(f"== {name}  ({counts['runs']} runs, {counts['setup_samples']} set-ups; "
          f"unit: {workloads.WORKLOADS[name].unit})")
    for metric, unit in {**END_TO_END, **REPORTED}.items():
        value = result["metrics"].get(metric)
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:<14} {shown}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def print_layers(name: str, result: dict) -> None:
    print(f"== {name} traced: phase x layer self time (s)")
    table = result.get("table") or {}
    layers = sorted({layer for row in table.values() for layer in row})
    phases = list(table)
    print(f"  {'layer':<18}" + "".join(f"{p:>10}" for p in phases))
    for layer in layers:
        print(f"  {layer:<18}" + "".join(f"{table[p].get(layer, 0.0):>10.4f}" for p in phases))
    for metric, unit in PER_LAYER.items():
        value = result["metrics"].get(metric)
        if value is not None:
            print(f"  {metric:<40} {value:.6g} {unit}")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    result = trace(name, seed) if traced else measure(name, seed, seconds)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps({"manifest": manifest(name, seed, seconds, traced, result),
                                **result}, indent=1))
    (print_layers if traced else print_end_to_end)(name, result)
    return result


def summary_line(result: dict, units: Dict[str, str], prefix: str = "") -> dict:
    return {
        f"{prefix}{metric}": {"value": result["metrics"][metric], "unit": unit}
        for metric, unit in units.items() if metric in result["metrics"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    units = PER_LAYER if traced else END_TO_END
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, traced) for name in names}
    metrics: Dict[str, dict] = {}
    for name, result in results.items():
        metrics.update(summary_line(result, units, "" if len(names) == 1 else f"{name}."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
