"""One run of one workload, in a fresh process; prints one JSON record.

Modes:

* ``full``   — the whole experiment with phase markers only (the timed run);
* ``probe``  — stops at the first simulated event, to sample set-up time;
* ``traced`` — the whole experiment with every span recorded.

Usage: ``python3 perfbench/worker.py <workload> <program-seed> <mode>``.
The record is the last line of standard output.
"""

from __future__ import annotations

from time import perf_counter

STARTED_AT = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODES = ("full", "probe", "traced")


def run(name: str, seed: int, mode: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    import repro.experiments  # noqa: F401  (module imports belong to the import phase)
    import workloads

    workload = workloads.WORKLOADS[name]
    clock = probes.PhaseClock(STARTED_AT, stop_at_first_event=mode == "probe")
    tracer = None
    if mode == "traced":
        tracer = probes.Tracer(clock)
        tracer.install()
    clock.install()
    record = {"workload": name, "seed": seed, "mode": mode, "ok": True, "error": None}
    clock.begin()
    try:
        result = workload.run(seed)
        result.render()
        clock.end()
    except probes.SetupReached:
        record["setup_s"] = clock.setup_s
        return record
    except Exception:  # an audit raised, or the run broke: every operation failed
        record.update(ok=False, error=traceback.format_exc(limit=4))
        return record
    record.update(
        wall_s=clock.wall_s,
        setup_s=clock.setup_s,
        phases={p: clock.totals[i] for i, p in enumerate(probes.PHASES)},
        gc_pause_s=clock.gc_pause_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        paper_err_pp=workload.paper_err_pp(result),
        fingerprint=workloads.fingerprint(clock.cells),
        cells=len(clock.cells),
        **workloads.work_done(workload, clock.cells),
    )
    record["work_per_s"] = record["work"] / clock.totals[probes.SIMULATE]
    if tracer is not None:
        record["layers"], record["table"] = tracer.reduce(record["work"])
    return record


def main(argv) -> int:
    if len(argv) != 3 or argv[2] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    record = run(argv[0], int(argv[1]), argv[2])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
