"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces public entry points of the program (class
methods and module functions) with timing wrappers for the duration of
one traced episode, then puts the originals back.  Each wrapped call
pushes a child-time accumulator, so a layer's *self* time is its
inclusive time minus the inclusive time of the wrapped calls made inside
it.  Self times of all layers add up to the inclusive time of the
outermost wrapped calls, which the benchmark compares with the traced
wall time.

An entry point that no longer exists (for example after a later change
batches past ``ServerEngine.submit``) is reported as absent and its
layer reads zero; the run does not crash.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer).  The attribute path is ``Class.method``
#: or a module-level function.  ``sample_latencies`` is patched at its
#: import site in ``repro.serve.engine``, which is where the serving
#: engine looks it up.
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("repro.serve.clock", "VirtualClock.run_until", "serve.clock"),
    ("repro.serve.session", "ServeSession.run", "serve.session"),
    ("repro.serve.engine", "ServerEngine.submit", "serve.engine.submit"),
    ("repro.serve.engine", "ServerEngine.tick", "serve.engine.tick"),
    ("repro.serve.engine", "sample_latencies", "engine.queueing.sample"),
    ("repro.serve.loadgen", "LoadgenReport.record", "serve.loadgen.report"),
    ("repro.serve.loadgen", "LoadgenReport.finish", "serve.loadgen.report"),
    ("repro.engine.simulator", "EngineSimulator.step", "engine.simulator.step"),
    ("repro.engine.simulator", "EngineSimulator.run", "engine.simulator.run"),
    ("repro.serve.control", "OnlineControlLoop.on_slot", "serve.control.on_slot"),
    ("repro.core.controller", "PredictiveController.on_slot", "core.controller.on_slot"),
    ("repro.core.planner", "Planner.best_moves", "core.planner.best_moves"),
    ("repro.prediction.spar", "SPARPredictor.fit", "prediction.spar.fit"),
    ("repro.prediction.spar", "SPARPredictor.predict", "prediction.spar.predict"),
    ("repro.tenancy.admission", "TenantAdmission.quota_admit", "tenancy.quota_admit"),
    ("repro.telemetry.timeseries", "TimeSeriesStore.sample", "telemetry.timeseries.sample"),
    ("repro.telemetry.slo", "SLOMonitor.observe", "telemetry.slo.observe"),
    ("repro.serve.edge", "DistributedServeSession.run", "serve.edge.dispatch"),
    ("repro.serve.worker", "WorkerHandle.post", "serve.worker.handle"),
    ("repro.serve.worker", "WorkerHandle.collect", "serve.worker.handle"),
    ("repro.serve.transport", "PipeTransport.send", "serve.transport.send"),
    ("repro.serve.transport", "PipeTransport.recv", "serve.transport.recv"),
    # The edge blocks in Connection.poll until a worker's reply arrives:
    # that wait is the worker's tick as seen from the edge.
    ("multiprocessing.connection", "Connection.poll", "serve.worker.collect_wait"),
]

#: Extra exact counts taken at entry points: (module, attribute path,
#: counter, function of (args, result) giving the increment).  These
#: wrappers keep no time of their own, so their cost stays with the
#: calling layer.
COUNTERS: List[Tuple[str, str, str, Callable]] = [
    ("repro.serve.clock", "VirtualClock.run_until", "clock_events",
     lambda args, result: int(result)),
    ("repro.serve.engine", "sample_latencies", "sampled_requests",
     lambda args, result: len(args[1])),
    ("multiprocessing.connection", "Connection.send_bytes", "wire_bytes",
     lambda args, result: len(args[1])),
    ("multiprocessing.connection", "Connection.recv_bytes", "wire_bytes",
     lambda args, result: len(result)),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class LayerTracer:
    """Self time, call counts and exact counters per layer for one episode.

    Everything is kept per phase (``setup``, then ``run``) so that work
    done while setting up, such as waiting for spawned workers to say
    hello, is not charged to the layers the run exercises.
    """

    PHASES = ("setup", "run")

    def __init__(self) -> None:
        # Per phase: self nanoseconds, calls and exact counts, keyed by name.
        self.phases = {phase: (Counter(), Counter(), Counter()) for phase in self.PHASES}
        self.absent: List[str] = []
        # One child-time accumulator per open call; _stack[0] is the driver.
        self._stack: List[int] = [0]
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.begin("setup")

    def begin(self, phase: str) -> None:
        """Charge everything from now on to ``phase``."""
        self.self_ns, self.calls, self.counts = self.phases[phase]

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner) if isinstance(owner, type) else True
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def _timed(self, layer: str, original: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                self.calls[layer] += 1

        return timed

    def _counted(self, counter: str, original: Callable, amount: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts[counter] += amount(args, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every entry point that exists; record the missing ones."""
        for module_name, path, counter, amount in COUNTERS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{counter} ({module_name}.{path})")
                continue
            owner, attr, value = found
            self._patch(owner, attr, self._counted(counter, value, amount))
        for module_name, path, layer in ENTRY_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{layer} ({module_name}.{path})")
                continue
            owner, attr, value = found
            self._patch(owner, attr, self._timed(layer, value))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def call(self, layer: str, function: Callable):
        """Call one step of the benchmark's own driver, timed as ``layer``."""
        return self._timed(layer, function)()

    def self_s(self, layer: str, phase: str = "run") -> float:
        return self.phases[phase][0][layer] / 1e9

    def calls_in(self, layer: str, phase: str = "run") -> int:
        return self.phases[phase][1][layer]

    def count(self, counter: str) -> int:
        """An exact counter of the run phase."""
        return self.phases["run"][2][counter]

    def setup_self_s(self, excluding: Tuple[str, ...]) -> float:
        """Set-up self time of every layer but ``excluding``."""
        setup_ns = self.phases["setup"][0]
        return sum(ns for layer, ns in setup_ns.items() if layer not in excluding) / 1e9


#: Per-layer metrics: name -> (unit, better, reading, the end-to-end metric
#: it should move and where).  A reading is called as ``reading(tracer,
#: offered, wall_s, untraced_s)``: the traced episode's tracer, offered
#: requests and wall time, and the wall time of the paired untraced episode.
LayerReading = Callable[[LayerTracer, int, float, float], float]
PER_LAYER: Dict[str, Tuple[str, str, LayerReading, str]] = {
    "serve.clock.self_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.clock"),
        "req_per_s on steady; about flat on diurnal-tenants"),
    "serve.clock.events_per_req": (
        "count", "lower", lambda t, n, w, u: t.count("clock_events") / n,
        "req_per_s on steady; about flat on diurnal-tenants"),
    "serve.session.self_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.session"),
        "req_per_s and tick_ms_p50 on steady (per-tick driver cost)"),
    "serve.engine.submit_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.engine.submit"),
        "req_per_s on steady"),
    "serve.engine.submit_calls_per_req": (
        "count", "lower", lambda t, n, w, u: t.calls_in("serve.engine.submit") / n,
        "req_per_s on steady"),
    "tenancy.quota_admit_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("tenancy.quota_admit"),
        "req_per_s on diurnal-tenants; zero on steady"),
    "serve.engine.tick_self_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.engine.tick"),
        "req_per_s on steady (per-request completion fold)"),
    "serve.loadgen.report_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.loadgen.report"),
        "req_per_s on steady"),
    "engine.queueing.sample_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("engine.queueing.sample"),
        "per-request part: req_per_s on steady; per-call part: tick_ms_p50 "
        "on diurnal-tenants"),
    "engine.queueing.sample_calls": (
        "count", "lower", lambda t, n, w, u: float(t.calls_in("engine.queueing.sample")),
        "tick_ms_p50 on diurnal-tenants (fixed cost per call)"),
    "engine.queueing.sample_reqs_per_call": (
        "count", "higher",
        lambda t, n, w, u: t.count("sampled_requests")
        / max(1, t.calls_in("engine.queueing.sample")),
        "req_per_s on steady (batch size per call)"),
    "engine.simulator.step_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("engine.simulator.step"),
        "tick_ms_p50 on diurnal-tenants"),
    "telemetry.timeseries.sample_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("telemetry.timeseries.sample"),
        "req_per_s and tick_ms_p50 on diurnal-tenants; zero on steady"),
    "telemetry.slo.observe_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("telemetry.slo.observe"),
        "req_per_s and tick_ms_p50 on diurnal-tenants; zero on steady"),
    "serve.control.on_slot_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.control.on_slot"),
        "tick_ms_p99 on diurnal-tenants (refit stalls)"),
    "core.controller.on_slot_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("core.controller.on_slot"),
        "sim_s_per_s on pstore-replay"),
    "core.planner.best_moves_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("core.planner.best_moves"),
        "sim_s_per_s on pstore-replay"),
    "core.planner.calls": (
        "count", "lower", lambda t, n, w, u: float(t.calls_in("core.planner.best_moves")),
        "sim_s_per_s on pstore-replay"),
    "prediction.spar.predict_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("prediction.spar.predict"),
        "sim_s_per_s on pstore-replay"),
    "prediction.spar.fit_s": (
        "s", "lower",
        lambda t, n, w, u: t.self_s("prediction.spar.fit", "setup")
        + t.self_s("prediction.spar.fit"),
        "setup_s and sim_s_per_s on pstore-replay; tick_ms_p99 on "
        "diurnal-tenants (refits)"),
    "prediction.spar.fit_calls": (
        "count", "lower",
        lambda t, n, w, u: float(t.calls_in("prediction.spar.fit", "setup")
                                 + t.calls_in("prediction.spar.fit")),
        "setup_s and sim_s_per_s on pstore-replay"),
    "engine.simulator.run_self_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("engine.simulator.run"),
        "sim_s_per_s on pstore-replay"),
    "serve.edge.dispatch_self_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.edge.dispatch"),
        "req_per_s on soak-pipe; absent elsewhere"),
    "serve.worker.handle_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.worker.handle"),
        "req_per_s on soak-pipe; absent elsewhere"),
    "serve.worker.collect_wait_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.worker.collect_wait"),
        "req_per_s on soak-pipe; absent elsewhere"),
    "serve.transport.send_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.transport.send"),
        "req_per_s on soak-pipe; absent elsewhere"),
    "serve.transport.recv_s": (
        "s", "lower", lambda t, n, w, u: t.self_s("serve.transport.recv"),
        "req_per_s on soak-pipe; absent elsewhere"),
    "serve.transport.bytes_per_req": (
        "count", "lower", lambda t, n, w, u: t.count("wire_bytes") / n,
        "req_per_s on soak-pipe (edge side, both directions); absent elsewhere"),
    "bench.setup.self_s": (
        "s", "lower",
        lambda t, n, w, u: t.setup_self_s(excluding=("prediction.spar.fit",)),
        "setup_s on every workload (construction, worker spawn and hello)"),
    "trace.unattributed_frac": (
        "ratio", "lower", None,
        "none: share of the traced wall that the layer self times above "
        "leave unexplained (driver glue)"),
    "trace.overhead_ratio": (
        "ratio", "lower", lambda t, n, w, u: w / u,
        "none: traced wall / untraced wall of the paired episode"),
}

#: Counts that must repeat exactly across the traced episodes of a run.
EXACT_COUNTS = [
    name for name, (unit, _, _, _) in PER_LAYER.items() if unit == "count"
]

#: The driver glue outside every wrapped call may take at most this share
#: of the traced wall time; beyond it the layer self times no longer explain the
#: wall time and the run fails.
UNATTRIBUTED_MARGIN = 0.02


def read_layers(
    tracer: LayerTracer, offered: int, wall_s: float, untraced_s: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced episode."""
    values = {
        name: float(reading(tracer, max(1, offered), wall_s, untraced_s))
        for name, (_, _, reading, _) in PER_LAYER.items()
        if reading is not None
    }
    explained = sum(
        value for name, value in values.items()
        if PER_LAYER[name][0] == "s"
    )
    values["trace.unattributed_frac"] = (wall_s - explained) / wall_s
    return {name: values[name] for name in PER_LAYER}


def layer_table(values: Dict[str, float], absent: List[str]) -> str:
    """Human-readable per-layer report with the end-to-end map."""
    lines = [f"{'per-layer metric':40s} {'value':>14s}  unit   moves"]
    for name, (unit, _, _, moves) in PER_LAYER.items():
        lines.append(f"{name:40s} {values[name]:14.6g}  {unit:6s} {moves}")
    for entry in absent:
        lines.append(f"absent entry point: {entry}")
    return "\n".join(lines)
