"""Outside-in instrumentation of one simulator run.

Nothing here edits the simulator's source.  Instead the benchmark wraps
public functions of the ``repro`` package before a workload runs:

* :class:`PhaseClock` splits one run's host time into phases — import,
  setup, simulate, audit, report — from markers that cost nothing per event:
  a one-shot wrapper fires on the first ``run()``/``step()`` of every engine
  the run builds (even engines an experiment builds itself), and the audit
  functions are wrapped.  It is installed on every run, traced or not.
* :class:`Tracer` (traced runs only) records one span per event handler,
  through ``Engine.set_dispatch_hook`` on every engine, and one span per
  call into each layer's public entry points.  Spans are kept in flat arrays
  in memory (name, parent, phase, start, end) and reduced when the run
  ends; a span's self time is its duration minus the time its child spans
  cover.

Layers are named after ``repro`` modules (see :data:`LAYER_OF_MODULE`).
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

PHASES = ("import", "setup", "simulate", "audit", "report")
IMPORT, SETUP, SIMULATE, AUDIT, REPORT = range(len(PHASES))

#: ``repro`` module prefix -> layer; the first match wins.
LAYER_OF_MODULE = (
    ("repro.core.engine", "core.engine"),
    ("repro.core.invariants", "audit"),
    ("repro.workload", "workload"),
    ("repro.jobs", "jobs"),
    ("repro.collective", "jobs"),
    ("repro.scheduling", "scheduling"),
    ("repro.server", "server"),
    ("repro.power", "power"),
    ("repro.network.flow", "network.flow"),
    ("repro.network.routing", "network.routing"),
    ("repro.network.switch", "network.switch"),
    ("repro.network.link", "network.switch"),
    ("repro.network.packet", "network.packet"),
    ("repro.network", "network.topology"),
    ("repro.experiments", "experiments"),
)

#: Time outside every span.  In the simulate phase that is the event loop
#: (``Engine.run``, or an experiment's own ``Engine.step`` loop) plus the
#: tracer's bookkeeping between spans, so it counts as ``engine.self_s``.
OUTSIDE = "(outside spans)"

#: Layers whose simulate-phase self time the benchmark reports.
SIM_LAYERS = (
    "core.engine", "workload", "jobs", "scheduling", "server", "power",
    "network.flow", "network.routing", "network.switch", "network.packet",
)

#: Public entry points wrapped in spans: (module, attribute path, layer).
ENTRY_POINTS = (
    ("repro.scheduling.global_scheduler", "GlobalScheduler.submit_job", "scheduling"),
    ("repro.scheduling.global_scheduler", "GlobalScheduler._on_task_complete", "scheduling"),
    ("repro.server.server", "Server.submit_task", "server"),
    ("repro.server.server", "Server.request_wake", "server"),
    ("repro.network.flow", "FlowNetwork.transfer", "network.flow"),
    ("repro.network.flow", "max_min_rates", "network.flow"),
    ("repro.network.routing", "Router.route", "network.routing"),
    ("repro.network.routing", "Router.min_wake_cost", "network.routing"),
    ("repro.network.packet", "PacketNetwork.transfer", "network.packet"),
    ("repro.power.joint", "JointEnergyManager.network_cost", "power"),
    # Setup-phase builders, so the phase x layer table splits setup too.
    ("repro.experiments.common", "build_farm", "experiments"),
    ("repro.experiments.joint_energy", "build_joint_cluster", "experiments"),
    ("repro.experiments.ai_training", "build_ai_cluster", "experiments"),
    ("repro.network.topology", "fat_tree", "network.topology"),
    ("repro.workload.trace", "synthesize_wikipedia_trace", "workload"),
    ("repro.core.invariants", "audit_run", "audit"),
    ("repro.core.invariants", "audit_collective", "audit"),
)

#: Job factories: spans in the workload layer that also count tasks made.
JOB_FACTORIES = (
    ("repro.workload.profiles", "SingleTaskJobFactory.__call__"),
    ("repro.experiments.joint_energy", "_DagJobFactory.__call__"),
    ("repro.collective", "training_step_job"),
)

#: Audit functions; a call to one is the audit phase.
AUDITS = (
    ("repro.core.invariants", "audit_run"),
    ("repro.core.invariants", "audit_collective"),
)

#: The handler that runs once per packet per hop (packet trains skip it).
PACKET_HOP_HANDLER = "PacketNetwork._hop_arrived"


class SetupReached(Exception):
    """Raised at the first simulated event of a setup-only probe run."""


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) for ``module:path``; importing ``module``."""
    __import__(module)
    owner: Any = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _replace(owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
    """Install ``wrapper`` in place of ``original``.

    A class attribute is replaced on the class.  A module-level function is
    replaced in every loaded ``repro`` module that holds it, because
    ``from x import f`` binds a module-local name at import time.
    """
    if inspect.isclass(owner):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class PhaseClock:
    """Host-time phases of one run, from a few markers per run.

    ``totals[p]`` accumulates the time spent in phase ``p``.  Setup is every
    stretch that ends at an engine's first event; simulate runs from there
    to the next audit; the stretch after the last audit is the report.
    """

    def __init__(self, started_at: float, stop_at_first_event: bool = False):
        self.stop_at_first_event = stop_at_first_event
        self.totals = [0.0] * len(PHASES)
        self.phase = IMPORT
        self.started_at = started_at
        self._since = started_at
        self.entry_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        #: Host seconds from the entry point to the first simulated event.
        self.setup_s: Optional[float] = None
        self.gc_pause_s = 0.0
        self._gc_started = 0.0
        self._audit_depth = 0
        self.engines: List[Any] = []
        #: Bound arguments of every ``audit_run`` call: one per simulated cell.
        self.cells: List[Dict[str, Any]] = []
        self.dispatch_hook: Optional[Callable] = None

    # -- markers -----------------------------------------------------------
    def switch(self, phase: int) -> float:
        now = perf_counter()
        self.totals[self.phase] += now - self._since
        self._since = now
        self.phase = phase
        return now

    def begin(self) -> None:
        """The workload's entry point is about to be called."""
        self.entry_at = self.switch(SETUP)

    def end(self) -> None:
        """The workload's result has been reported."""
        if self.phase == SETUP:
            self.phase = REPORT
        self.ended_at = self.switch(self.phase)

    def first_event(self) -> None:
        now = self.switch(SIMULATE)
        if self.setup_s is None:
            self.setup_s = now - self.entry_at
        if self.stop_at_first_event:
            raise SetupReached

    @property
    def wall_s(self) -> float:
        return self.ended_at - self.started_at

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_started

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Patch engine construction and the audit functions."""
        from repro.core.engine import Engine

        clock = self
        original_init = Engine.__init__

        @functools.wraps(original_init)
        def init(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            clock.engines.append(engine)
            if clock.dispatch_hook is not None:
                engine.set_dispatch_hook(clock.dispatch_hook)
            # One-shot instance attributes shadow run/step until the first
            # call, so later events pay nothing for the marker.
            def first(method: str) -> Callable:
                def call(*a, **kw):
                    del engine.run, engine.step
                    clock.first_event()
                    return getattr(engine, method)(*a, **kw)
                return call
            engine.run = first("run")
            engine.step = first("step")

        Engine.__init__ = init
        for module, name in AUDITS:
            owner, attr, original = _resolve(module, name)
            _replace(owner, attr, original, self._audit_wrapper(original))
        gc.callbacks.append(self._on_gc)

    def _audit_wrapper(self, fn: Callable) -> Callable:
        clock = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def audit(*args, **kwargs):
            if fn.__name__ == "audit_run":
                bound = signature.bind(*args, **kwargs)
                clock.cells.append(dict(bound.arguments))
            clock._audit_depth += 1
            if clock._audit_depth == 1:
                clock.switch(AUDIT)
            try:
                return fn(*args, **kwargs)
            finally:
                clock._audit_depth -= 1
                if clock._audit_depth == 0:
                    # After an audit comes the next cell's setup or, for
                    # the last cell, the report (see :meth:`end`).
                    clock.switch(SETUP)

        return audit


class Tracer:
    """Spans at layer boundaries, kept in memory until the run ends."""

    def __init__(self, clock: PhaseClock):
        self.clock = clock
        self.names: List[Tuple[str, str, bool]] = []  # (name, layer, is_handler)
        self._ids: Dict[Any, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.select_calls = 0
        self.select_candidates = 0
        self.select_none = 0
        self._select_depth = 0
        self.sleep_calls = 0
        self.sleep_accepted = 0
        self.tasks_made = 0

    def name_id(self, key: Any, name: str, layer: str, handler: bool = False) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append((name, layer, handler))
        return nid

    # -- span recording ----------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_phase.append(self.clock.phase)
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def span(self, fn: Callable, name: str, layer: str) -> Callable:
        nid = self.name_id(("entry", name), name, layer)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def dispatch(self, time: float, callback: Callable, args: tuple) -> None:
        """``Engine`` dispatch hook: one span per event handler."""
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            key = (type(owner), callback.__name__)
        else:
            key = getattr(callback, "__code__", None) or type(callback)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._new_handler(key, callback, owner)
        idx = self._open(nid)
        try:
            callback(*args)
        finally:
            self._close(idx)

    def _new_handler(self, key: Any, callback: Callable, owner: Any) -> int:
        from repro.telemetry.profiler import handler_key

        if owner is not None:
            module = type(owner).__module__
        elif hasattr(callback, "__code__"):
            module = callback.__module__
        else:
            module = type(callback).__module__
        return self.name_id(key, handler_key(callback), layer_of(module), handler=True)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call before :meth:`PhaseClock.install`,
        so the clock's audit marker wraps the audit spans and they open in
        the audit phase."""
        self.clock.dispatch_hook = self.dispatch
        for module, path, layer in ENTRY_POINTS:
            owner, attr, original = _resolve(module, path)
            _replace(owner, attr, original, self.span(original, path, layer))
        for module, path in JOB_FACTORIES:
            owner, attr, original = _resolve(module, path)
            _replace(owner, attr, original, self._factory(original, path))
        for cls in self._policy_classes():
            if "select_server" in vars(cls):
                cls.select_server = self._select(
                    cls.select_server, f"{cls.__name__}.select_server"
                )
        owner, attr, original = _resolve("repro.server.server", "Server.sleep")
        _replace(owner, attr, original, self._sleep(original))

    @staticmethod
    def _policy_classes() -> List[type]:
        for module in ("repro.scheduling.policies", "repro.scheduling.placement",
                       "repro.power.joint"):
            __import__(module)
        from repro.scheduling.policies import DispatchPolicy

        found, todo = [], [DispatchPolicy]
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        return found

    def _factory(self, fn: Callable, name: str) -> Callable:
        tracer = self
        traced = self.span(fn, name, "workload")

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            job = traced(*args, **kwargs)
            tracer.tasks_made += len(job.tasks)
            return job

        return factory

    def _select(self, fn: Callable, name: str) -> Callable:
        tracer = self
        traced = self.span(fn, name, "scheduling")

        @functools.wraps(fn)
        def select(policy, task, candidates):
            outermost = tracer._select_depth == 0
            tracer._select_depth += 1
            try:
                server = traced(policy, task, candidates)
            finally:
                tracer._select_depth -= 1
            if outermost:
                tracer.select_calls += 1
                tracer.select_candidates += len(candidates)
                tracer.select_none += server is None
            return server

        return select

    def _sleep(self, fn: Callable) -> Callable:
        tracer = self
        traced = self.span(fn, "Server.sleep", "server")

        @functools.wraps(fn)
        def sleep(*args, **kwargs):
            accepted = traced(*args, **kwargs)
            tracer.sleep_calls += 1
            tracer.sleep_accepted += bool(accepted)
            return accepted

        return sleep

    # -- reduction ---------------------------------------------------------
    def reduce(self, work: int) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """(per-layer metrics, phase x layer self-time table in seconds)."""
        clock = self.clock
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        phases = np.frombuffer(self.span_phase, dtype=np.int8).astype(np.int64)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=len(duration))
        self_s = duration - covered

        layers = sorted({layer for _, layer, _ in self.names})
        column = {layer: i for i, layer in enumerate(layers)}
        layer_of_name = np.array([column[layer] for _, layer, _ in self.names],
                                 dtype=np.int64)
        by_cell = np.bincount(
            phases * len(layers) + layer_of_name[names], weights=self_s,
            minlength=len(PHASES) * len(layers),
        ).reshape(len(PHASES), len(layers))
        table: Dict[str, Dict[str, float]] = {}
        for p, phase in enumerate(PHASES):
            row = {layer: float(by_cell[p, column[layer]]) for layer in layers}
            row[OUTSIDE] = clock.totals[p] - float(by_cell[p].sum())
            table[phase] = row

        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        inclusive = np.bincount(names, weights=duration, minlength=n)

        def spans(*wanted: str, handler: bool = False, layer: Optional[str] = None,
                  weights: np.ndarray = calls) -> float:
            return float(sum(
                weights[i] for i, (name, lay, is_handler) in enumerate(self.names)
                if is_handler == handler and (not wanted or name in wanted)
                and (layer is None or lay == layer)
            ))

        def count(*wanted: str, handler: bool = False, layer: Optional[str] = None) -> int:
            return int(spans(*wanted, handler=handler, layer=layer))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        sim = table["simulate"]
        networks = [c["scheduler"].network for c in clock.cells
                    if c["scheduler"].network is not None]
        trains = sum(net.trains_engaged - net.trains_materialized
                     for net in networks if hasattr(net, "trains_engaged"))
        pools = [c["pool"] for c in clock.cells if c.get("pool") is not None]
        events = sum(e.events_executed for e in clock.engines)
        flow_transfers = count("FlowNetwork.transfer")
        recomputes = count("max_min_rates")
        packet_transfers = count("PacketNetwork.transfer")
        unattributed = sum(v for k, v in sim.items() if k not in SIM_LAYERS + (OUTSIDE,))
        return {
            "phase.import_s": clock.totals[IMPORT],
            "phase.setup_s": clock.totals[SETUP],
            "phase.simulate_s": clock.totals[SIMULATE],
            "phase.audit_s": clock.totals[AUDIT],
            "phase.report_s": clock.totals[REPORT],
            "phase.gc_pause_s": clock.gc_pause_s,
            "engine.events": events,
            "engine.events_per_work": ratio(events, work),
            "engine.self_s": sim[OUTSIDE] + sim.get("core.engine", 0.0),
            "workload.arrivals": count("WorkloadDriver._inject", handler=True),
            "workload.self_s": sim.get("workload", 0.0),
            "jobs.tasks": self.tasks_made,
            "scheduling.submit_calls": count("GlobalScheduler.submit_job"),
            "scheduling.select_calls": self.select_calls,
            "scheduling.candidates_per_select": ratio(self.select_candidates,
                                                      self.select_calls),
            "scheduling.fallback_ratio": ratio(self.select_none, self.select_calls),
            "scheduling.self_s": sim.get("scheduling", 0.0),
            "server.submit_calls": count("Server.submit_task"),
            "server.events": count(handler=True, layer="server"),
            "server.self_s": sim.get("server", 0.0),
            "server.sleep_calls": self.sleep_calls,
            "server.sleep_accepted_ratio": ratio(self.sleep_accepted, self.sleep_calls),
            "server.pool_captures": sum(pool.captures for pool in pools),
            "power.events": count(handler=True, layer="power"),
            "power.self_s": sim.get("power", 0.0),
            "power.network_cost_calls": count("JointEnergyManager.network_cost"),
            "network.flow.transfers": flow_transfers,
            "network.flow.recomputes": recomputes,
            "network.flow.recomputes_per_transfer": ratio(recomputes, flow_transfers),
            "network.flow.recompute_s": spans("max_min_rates", weights=inclusive),
            "network.flow.self_s": sim.get("network.flow", 0.0),
            "network.routing.calls": count("Router.route", "Router.min_wake_cost"),
            "network.routing.self_s": sim.get("network.routing", 0.0),
            "network.switch.events": count(handler=True, layer="network.switch"),
            "network.switch.self_s": sim.get("network.switch", 0.0),
            "network.packet.transfers": packet_transfers,
            "network.packet.hop_events": count(PACKET_HOP_HANDLER, handler=True),
            "network.packet.train_ratio": ratio(trains, packet_transfers),
            "network.packet.self_s": sim.get("network.packet", 0.0),
            "trace.spans": len(names),
            "trace.unattributed_pct": 100.0 * ratio(unattributed, clock.totals[SIMULATE]),
        }, table
