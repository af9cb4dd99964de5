"""The benchmark's own checks.

Run from the repository root (a few minutes: every workload runs once
untraced, once traced and once more at a second seed)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED, OTHER_SEED = 1, 2

#: Layers with a ``<layer>.self_s`` metric, besides ``engine.self_s``.
SELF_TIMED = ("workload", "scheduling", "server", "power", "network.flow",
              "network.routing", "network.switch", "network.packet")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    """One untraced and one traced run of each workload."""
    return request.param, run.trace(request.param, SEED)


def test_runs_are_correct_and_wrappers_leave_the_fingerprint(traced):
    name, result = traced
    plain, spanned = result["runs"]
    assert plain["ok"] and spanned["ok"], (plain.get("error"), spanned.get("error"))
    assert plain["fingerprint"] == spanned["fingerprint"]
    assert result["correct"] and result["failed"] == 0


def test_phases_sum_to_wall(traced):
    _, result = traced
    for record in result["runs"]:
        assert sum(record["phases"].values()) == pytest.approx(record["wall_s"], rel=0.03)
        assert 0 < record["setup_s"] <= record["phases"]["setup"] * 1.001


def test_layer_self_times_account_for_simulate(traced):
    _, result = traced
    m = result["metrics"]
    accounted = m["engine.self_s"] + sum(m[f"{layer}.self_s"] for layer in SELF_TIMED)
    assert accounted == pytest.approx(m["phase.simulate_s"], rel=0.03)
    assert set(run.PER_LAYER) <= set(m)


def test_second_seed_changes_inputs_but_not_shape(traced):
    name, result = traced
    first = result["runs"][0]
    assert workloads.program_seed(name, SEED) != workloads.program_seed(name, OTHER_SEED)
    second = run.spawn(name, workloads.program_seed(name, OTHER_SEED), "full")
    assert second["ok"], second.get("error")
    assert second["fingerprint"] != first["fingerprint"]
    assert second["cells"] == first["cells"]
    assert second["failed"] == 0
    if workloads.WORKLOADS[name].drains:
        assert second["attempted"] == first["attempted"]
    else:  # arrivals over a fixed span: the count moves with the seed only
        assert second["attempted"] == pytest.approx(first["attempted"], rel=0.05)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layers_are_named_after_modules():
    assert probes.layer_of("repro.network.link") == "network.switch"
    assert probes.layer_of("repro.network.packet") == "network.packet"
    assert probes.layer_of("repro.server.pool") == "server"
    assert probes.layer_of("repro.telemetry.trace") == "other"


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig11-joint", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
