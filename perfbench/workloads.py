"""The four benchmark workloads.

Each workload generates its inputs from the seed once per run (untimed),
then runs *episodes*: set up the program, drive it, read back its
outputs.  Every episode of a run starts from the same inputs, so its
deterministic outputs must be identical; :func:`check_outputs` turns any
difference, or a broken conservation identity, into a failed run.

Serving workloads are driven one virtual tick at a time from here, so
each tick (its arrivals plus the tick itself) is timed from outside the
program.  ``pstore-replay`` is one ``EngineSimulator.run`` call; its tick
is one measurement slot of the replayed trace, timed by a pass-through
controller that the engine hands every slot.

Times are CPU times rescaled to a reference machine speed by a probe
run between ticks (see :class:`TickTimer`); wall times are kept next to
them for the report and for the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

SLA_MS = 500.0


class CheckFailed(Exception):
    """The program's outputs are wrong; the run must not report numbers."""


def _cpu_clock(pid: int) -> int:
    """Linux clock id of the CPU time of process ``pid`` (``CPUCLOCK_SCHED``)."""
    return (~pid << 3) | 2


#: CPU seconds the speed probe takes on the reference machine.  Timings
#: are reported in reference seconds: CPU seconds x PROBE_REFERENCE_S /
#: the probe's CPU seconds at the time.
PROBE_REFERENCE_S = 3e-4
#: Run the probe after every this many CPU seconds of timed ticks: after
#: every tick of ``steady``, every few ticks of ``diurnal-tenants`` and
#: every few dozen slots of ``pstore-replay``.
PROBE_EVERY_S = 0.005


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop (about 0.3 ms).

    On a shared virtual machine the vCPU's speed changes by up to 2x
    within seconds as neighbours come and go, and CPU time scales with
    it.  A tick's CPU time divided by the probe's, measured next to it,
    does not.
    """
    start = time.thread_time()
    total = 0
    slots = {}
    for i in range(3000):
        total += i * i
        slots[i & 63] = total
    return time.thread_time() - start


def probed_speed(probes: int = 5) -> float:
    """Median CPU seconds of a few probes, for a span without ticks."""
    return statistics.median(speed_probe() for _ in range(probes))


class TickTimer:
    """Reference seconds of CPU time per tick of a run, with wall times.

    CPU time is that of the driving thread plus, per tick, the busiest
    worker process: the tick's critical path when the workers step in
    parallel.  On a shared virtual machine the hypervisor takes the vCPU
    away at random for tens of milliseconds (steal time); wall time
    absorbs those stalls and CPU time does not.  The vCPU's speed drifts
    too, which CPU time does feel: after every :data:`PROBE_EVERY_S` of
    timed CPU the timer runs :func:`speed_probe` between two ticks, and
    :meth:`ticks` rescales each tick by the mean of the probes just before
    and just after it.  The probes are outside every tick, and their wall
    time is kept apart (:attr:`probe_wall_s`).  ``probe=False`` (traced
    episodes) times without probing and reports plain CPU seconds.
    """

    def __init__(self, worker_pids: Sequence[int], probe: bool = True) -> None:
        self.clocks = [_cpu_clock(pid) for pid in worker_pids]
        self.probe = probe
        self.cpu: List[float] = []
        self.wall: List[float] = []
        self.probes: List[float] = []
        self.probe_wall_s = 0.0
        self.tail_s = 0.0
        self._after: List[int] = []  # per tick: index of the last probe before it
        self._since = 0.0
        self._first = self._last = self._now()

    def _now(self):
        return (
            time.perf_counter(),
            time.thread_time(),
            [time.clock_gettime(clock) for clock in self.clocks],
        )

    def workers_cpu(self) -> float:
        """CPU seconds the workers have used since they started."""
        return sum(self._first[2])

    def _probe(self) -> None:
        wall = time.perf_counter()
        self.probes.append(speed_probe() if self.probe else PROBE_REFERENCE_S)
        self.probe_wall_s += time.perf_counter() - wall
        self._since = 0.0

    def start(self) -> None:
        self._probe()
        self._first = self._last = self._now()

    def _elapsed(self, now) -> float:
        _, own, workers = self._last
        busiest = max((b - a for a, b in zip(workers, now[2])), default=0.0)
        return now[1] - own + busiest

    def mark(self) -> None:
        """Close the current tick."""
        now = self._now()
        self.cpu.append(self._elapsed(now))
        self.wall.append(now[0] - self._last[0])
        self._after.append(len(self.probes) - 1)
        self._since += self.cpu[-1]
        if self.probe and self._since >= PROBE_EVERY_S:
            self._probe()
            now = self._now()
        self._last = now

    def stop(self) -> None:
        """Close the run: CPU after the last tick is kept as :attr:`tail_s`,
        and a last probe closes the span of it and of the ticks before."""
        self.tail_s = self._elapsed(self._now())
        self._probe()

    def _scale(self, after: np.ndarray) -> np.ndarray:
        """Reference seconds per CPU second between probe ``after`` and the next."""
        probes = np.asarray(self.probes)
        return 2.0 * PROBE_REFERENCE_S / (probes[after] + probes[after + 1])

    def ticks(self) -> np.ndarray:
        """Reference seconds per tick."""
        return np.asarray(self.cpu) * self._scale(np.asarray(self._after, dtype=int))

    def run_s(self) -> float:
        """Reference seconds of the whole run: every tick and the tail."""
        tail = self.tail_s * self._scale(np.asarray([len(self.probes) - 2]))
        return float(self.ticks().sum() + tail[0])


@dataclass
class Episode:
    """Timings and outputs of one set-up + run."""

    setup_s: float
    setup_wall_s: float
    run_s: float
    run_wall_s: float
    tick_s: np.ndarray
    tick_wall_s: np.ndarray
    offered: int
    outputs: Dict[str, object]
    metrics: Dict[str, float]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _drive_ticks(step: Callable[[], None], n_ticks: int, timer: TickTimer) -> None:
    timer.start()
    for _ in range(n_ticks):
        step()
        timer.mark()


def _poisson_schedule(rng: np.random.Generator, rate: float, duration_s: float) -> np.ndarray:
    """Open-loop Poisson arrival times in ``[0, duration_s)``."""
    n = int(rng.poisson(rate * duration_s))
    return np.sort(rng.uniform(0.0, duration_s, n))


def _serving_outputs(
    report, n_arrivals: int, machine_hours: float, extra: Dict[str, object]
) -> Dict[str, object]:
    """Deterministic outputs of a serving episode, after checking the
    conservation identities."""
    if report.offered != n_arrivals:
        raise CheckFailed(f"offered {report.offered} of {n_arrivals} scheduled arrivals")
    if not report.conserved:
        raise CheckFailed(report.conservation_line())
    if not report.tenants_consistent():
        raise CheckFailed("per-tenant counters do not sum to the fleet counters")
    for tenant in report.tenants:
        if report.tenant_in_flight(tenant) != 0:
            raise CheckFailed(report.tenant_conservation_lines())
    latencies = np.asarray(report.latencies_ms, dtype=np.float64)
    if len(latencies) != report.accepted:
        raise CheckFailed(f"{len(latencies)} latencies for {report.accepted} served requests")
    if len(latencies) and not (np.all(np.isfinite(latencies)) and latencies.min() > 0.0):
        raise CheckFailed("served latency not finite and positive")
    outputs: Dict[str, object] = {
        "virtual_s": report.duration_s,
        "offered": report.offered,
        "served": report.accepted,
        "shed": report.rejected,
        "errored": report.errored,
        "latency_p50_ms": float(np.percentile(latencies, 50.0)),
        "latency_p99_ms": float(np.percentile(latencies, 99.0)),
        "slo_good": int(np.count_nonzero(latencies <= SLA_MS)),
        "machine_hours": machine_hours,
        "latency_digest": _digest(latencies),
    }
    outputs.update(extra)
    return outputs


class Workload:
    """Defaults shared by the workloads: one process, nothing to close."""

    worker_processes = 0

    def worker_pids(self, state) -> List[int]:
        return []

    def teardown(self, state) -> None:
        pass

    @staticmethod
    def metrics(outputs: Dict[str, object]) -> Dict[str, float]:
        return {
            "latency_p50_ms": outputs["latency_p50_ms"],
            "latency_p99_ms": outputs["latency_p99_ms"],
            "slo_good_frac": outputs["slo_good"] / outputs["offered"],
            "machine_hours": outputs["machine_hours"],
        }


# ----------------------------------------------------------------------
# steady
# ----------------------------------------------------------------------
class Steady(Workload):
    """One ServeSession under open-loop Poisson load on 2 of 4 nodes.

    No controller, telemetry or tenancy, and the load stays below the
    admission limit, so the per-request Python path dominates.
    """

    name = "steady"
    why = ("Poisson 300 req/s on 2 of 4 nodes, no control, telemetry or "
           "tenancy: per-request Python (submit, sampling, completion fold) "
           "dominates")
    rate_per_s = 300.0
    duration_s = 300

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arrivals = _poisson_schedule(
            np.random.default_rng(seed), self.rate_per_s, self.duration_s
        )

    def setup(self):
        from repro.engine.simulator import EngineConfig
        from repro.serve import ServerEngine, ServeSession

        engine = ServerEngine(
            engine_config=EngineConfig(max_nodes=4, saturation_rate_per_node=300.0),
            initial_nodes=2,
            seed=self.seed,
        )
        return ServeSession(engine, self.arrivals)

    def run(self, session, timer: TickTimer) -> None:
        dt = session.engine.sim.config.dt_seconds
        _drive_ticks(lambda: session.run(dt), self.duration_s, timer)

    def outputs(self, session) -> Dict[str, object]:
        engine = session.engine
        return _serving_outputs(
            session.loadgen.report, len(self.arrivals), engine.machine_hours,
            {"moves": engine.sim.moves_started},
        )


# ----------------------------------------------------------------------
# diurnal-tenants
# ----------------------------------------------------------------------
class DiurnalTenants(Workload):
    """A time-compressed B2W replay over three tenants with the full stack.

    Two evaluation days compressed 144x (600 one-second ticks a day).  The
    online SPAR control loop is trained on the seven preceding days during
    set-up and refits once a day; tenancy enforces a quota on the batch
    tenant; telemetry, a time-series store and SLO monitors are on.

    The flash crowd adds a fixed 150 req/s at 04:00 of the second day,
    when the loop has scaled in to its night size.  An added rate (rather
    than a multiple of the day's load) at the trough overloads the same
    capacity by the same amount whatever the seed, so the crowd's share
    of slow and shed requests, and with it the p99, repeats between
    seeds.  Partitions per node are 2 (not the paper's 6) so that a few
    tens of requests per tick keep per-partition service fast enough for
    the rest of the day to meet the 500 ms SLA.
    """

    name = "diurnal-tenants"
    why = ("compressed B2W days, 3 tenants (1 quota-limited), online SPAR "
           "loop with moves, telemetry and SLOs, flash crowd: per-tick fixed "
           "costs and the shed path")
    compression = 144
    slot_s = 10.0
    train_days = 7
    eval_days = 2
    mean_rate_per_s = 35.0
    saturation_per_node = 60.0
    partitions_per_node = 2
    max_nodes = 6
    db_size_kb = 16.0 * 1024.0
    queue_limit_s = 1.0
    #: (name, share of the load, weight, quota in req/s or None)
    tenants = (("checkout", 0.50, 3, None), ("search", 0.35, 2, None),
               ("batch", 0.15, 1, 12.0))
    crowd_hour = 4.0
    crowd_rate_per_s = 150.0
    #: Slots of ramp-up, hold and decay.
    crowd_slots = (1, 4, 2)

    def __init__(self, seed: int) -> None:
        from repro.workloads.b2w import generate_b2w_trace

        self.seed = seed
        day_s = 86400.0 / self.compression
        self.slots_per_day = int(round(day_s / self.slot_s))
        self.n_ticks = int(round(self.eval_days * day_s))
        trace = generate_b2w_trace(
            self.train_days + self.eval_days,
            slot_seconds=self.slot_s * self.compression,
            seed=seed,
        )
        split = self.train_days * self.slots_per_day
        # Requests per slot, scaled so the evaluation days average
        # mean_rate_per_s before the flash crowd is added.
        scale = self.mean_rate_per_s * self.slot_s / trace.values[split:].mean()
        counts = trace.values * scale
        self.training = counts[:split]
        load = counts[split:] + self._crowd(len(counts) - split, day_s)

        rng = np.random.default_rng(seed)
        starts = np.arange(len(load)) * self.slot_s
        times, owners = [], []
        for index, (_, share, _, _) in enumerate(self.tenants):
            per_slot = rng.poisson(load * share)
            times.append(np.repeat(starts, per_slot) + rng.random(per_slot.sum()) * self.slot_s)
            owners.append(np.full(per_slot.sum(), index, dtype=np.int64))
        merged = np.concatenate(times)
        order = np.argsort(merged, kind="stable")
        self.arrivals = merged[order]
        self.tenant_indices = np.concatenate(owners)[order]
        self.first_rate = load[0] / self.slot_s

    def _crowd(self, n_slots: int, day_s: float) -> np.ndarray:
        """Extra requests per evaluation slot from the flash crowd."""
        start = (self.eval_days - 1) * day_s + self.crowd_hour * 3600.0 / self.compression
        slot = np.floor((np.arange(n_slots) * self.slot_s - start) / self.slot_s)
        ramp, hold, decay = self.crowd_slots
        shape = np.zeros(n_slots)
        up = (slot >= 0) & (slot < ramp)
        shape[up] = (slot[up] + 1) / (ramp + 1)
        shape[(slot >= ramp) & (slot < ramp + hold)] = 1.0
        down = (slot >= ramp + hold) & (slot < ramp + hold + decay)
        shape[down] = 1.0 - (slot[down] - ramp - hold + 1) / (decay + 1)
        return self.crowd_rate_per_s * self.slot_s * shape

    def setup(self):
        from repro.core.params import SystemParameters
        from repro.engine.simulator import EngineConfig
        from repro.prediction.online import OnlinePredictor
        from repro.prediction.spar import SPARPredictor
        from repro.serve import OnlineControlLoop, ServerEngine, ServeSession
        from repro.serve.admission import AdmissionConfig
        from repro.telemetry import Telemetry, TimeSeriesStore
        from repro.telemetry.slo import SLOConfig
        from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec

        registry = TenantRegistry(tenants=[
            TenantSpec(name=name, profile="trace:kind=b2w", weight=weight, quota_rps=quota)
            for name, _, weight, quota in self.tenants
        ])
        params = SystemParameters.from_saturation(
            self.saturation_per_node,
            interval_seconds=self.slot_s,
            partitions_per_node=self.partitions_per_node,
            d_seconds=1.1 * self.db_size_kb / 244.0,
        )
        online = OnlinePredictor(
            SPARPredictor(period=self.slots_per_day, n_periods=3, n_recent=3, max_horizon=8),
            refit_every=self.slots_per_day,
        )
        online.fit(self.training)
        loop = OnlineControlLoop(
            params, online, measurement_slot_seconds=self.slot_s,
            max_machines=self.max_nodes,
        )
        initial = max(1, min(self.max_nodes, math.ceil(self.first_rate * 1.15 / params.q)))
        engine = ServerEngine(
            engine_config=EngineConfig(
                max_nodes=self.max_nodes,
                saturation_rate_per_node=self.saturation_per_node,
                partitions_per_node=self.partitions_per_node,
                db_size_kb=self.db_size_kb,
            ),
            initial_nodes=initial,
            slot_seconds=self.slot_s,
            admission=AdmissionConfig(queue_limit_seconds=self.queue_limit_s),
            controller=loop,
            seed=self.seed,
            telemetry=Telemetry(),
            slo=SLOConfig(),
            tenancy=TenantAdmission(registry),
        )
        return ServeSession(
            engine, self.arrivals, tenant_indices=self.tenant_indices,
            tenant_names=registry.names(), timeseries=TimeSeriesStore(),
        )

    def run(self, session, timer: TickTimer) -> None:
        dt = session.engine.sim.config.dt_seconds
        _drive_ticks(lambda: session.run(dt), self.n_ticks, timer)

    def outputs(self, session) -> Dict[str, object]:
        engine = session.engine
        loop = engine.controller
        quota = sum(engine.tenancy.quota_shed.values())
        report = session.loadgen.report
        return _serving_outputs(
            report, len(self.arrivals), engine.machine_hours,
            {
                "moves": engine.sim.moves_started,
                "predictive_decisions": loop.predictive_decisions,
                "cold_start_decisions": loop.cold_start_decisions,
                "refits": loop.refits,
                "shed_quota": quota,
                "shed_queue_limit": report.rejected - quota - report.brownout_shed,
                "tenants": {k: dict(v) for k, v in sorted(report.tenants.items())},
            },
        )


# ----------------------------------------------------------------------
# soak-pipe
# ----------------------------------------------------------------------
class SoakPipe(Workload):
    """A DistributedServeSession: the edge here, two workers over pipes.

    150 req/s rather than a higher rate so that one 20 s run still holds
    more than 1000 timed ticks, enough for ten beyond the tick p99.
    """

    name = "soak-pipe"
    why = ("edge plus 2 spawned workers over pipes, Poisson 150 req/s: the "
           "only workload on serve.edge, serve.worker and the JSON wire "
           "format of serve.transport")
    rate_per_s = 150.0
    duration_s = 400
    worker_processes = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arrivals = _poisson_schedule(
            np.random.default_rng(seed), self.rate_per_s, self.duration_s
        )

    def setup(self):
        from repro.serve import DistributedServeSession
        from repro.serve.worker import WorkerSpec

        specs = [
            WorkerSpec(worker_id=i, initial_nodes=1, max_nodes=4, seed=self.seed + i)
            for i in range(self.worker_processes)
        ]
        session = DistributedServeSession(specs, self.arrivals, mode="pipe", seed=self.seed)
        try:
            session.start()
        except BaseException:
            session.close()
            raise
        # machine_s: machines advertised by the workers, integrated per tick.
        return {"session": session, "machine_s": 0.0}

    def worker_pids(self, state) -> List[int]:
        return [handle.process.pid for handle in state["session"].workers]

    def run(self, state, timer: TickTimer) -> None:
        session = state["session"]

        def tick() -> None:
            session.run(session.dt_s)
            state["machine_s"] += session.dt_s * sum(
                machines for machines, _ in session.advertised.values()
            )

        _drive_ticks(tick, self.duration_s, timer)

    def teardown(self, state) -> None:
        state["session"].close()

    def outputs(self, state) -> Dict[str, object]:
        session = state["session"]
        alive = [handle.alive for handle in session.workers]
        if not all(alive):
            raise CheckFailed(f"worker liveness after the run: {alive}")
        return _serving_outputs(
            session.report, len(self.arrivals), state["machine_s"] / 3600.0, {}
        )


# ----------------------------------------------------------------------
# pstore-replay
# ----------------------------------------------------------------------
class _SlotClock:
    """Pass-through controller that closes a tick at every measurement slot."""

    def __init__(self, inner, timer: TickTimer) -> None:
        self.inner = inner
        self.timer = timer

    def on_slot(self, sim, slot_index: int, measured_load: float) -> None:
        self.timer.mark()
        self.inner.on_slot(sim, slot_index, measured_load)


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cumulative, 0.5 * cumulative[-1])])


class PStoreReplay(Workload):
    """The paper's Figure 9 P-Store run on the batched engine path.

    Three B2W evaluation days compressed 10x under ``PredictiveController``
    with SPAR trained on the 28 preceding days, on the 10-node engine.
    The trace is scaled so the evaluation days average 1035 txn/s, so the
    seed changes the shape of the days rather than how many machines they
    need.  Figure 9's transient skew (one hot partition per day at a
    random hour) is made regular: a 5 s, 3x hot partition at the top of
    every hour from 08:00 to 23:00.  One random blip a day makes the
    violation count swing between seeds by 30% and more; many short blips
    average out.
    """

    name = "pstore-replay"
    why = ("Figure 9 P-Store run: 3 compressed B2W days under "
           "PredictiveController with SPAR trained on 28 days; the batched "
           "engine path, planner and predictor")
    speedup = 10
    plan_s = 60.0
    train_days = 28
    eval_days = 3
    peak_per_minute = 14500.0
    eval_mean_per_s = 1035.0
    skew_hours = range(8, 24)

    def __init__(self, seed: int) -> None:
        from repro.engine.simulator import SkewEvent
        from repro.workloads.b2w import B2WTraceConfig, generate_b2w_trace

        self.seed = seed
        config = B2WTraceConfig(
            num_days=self.train_days + self.eval_days,
            peak_per_minute=self.peak_per_minute,
            seed=seed,
        )
        compressed = generate_b2w_trace(config=config).time_compressed(self.speedup)
        day_s = 86400.0 / self.speedup
        slots_per_day = int(round(day_s / compressed.slot_seconds))
        split = self.train_days * slots_per_day
        compressed = compressed.scaled(
            self.eval_mean_per_s * compressed.slot_seconds / compressed.values[split:].mean()
        )
        self.eval_trace = compressed[split:]
        self.intervals_per_day = int(round(day_s / self.plan_s))
        self.training = compressed.resample(self.plan_s).values[
            : self.train_days * self.intervals_per_day
        ]
        rng = np.random.default_rng(seed)
        self.skew_events = [
            SkewEvent(
                start_seconds=d * day_s + h * 3600.0 / self.speedup,
                end_seconds=d * day_s + h * 3600.0 / self.speedup + 5.0,
                partition_index=int(rng.integers(0, 6)),
                factor=3.0,
            )
            for d in range(self.eval_days)
            for h in self.skew_hours
        ]
        self.offered_total = int(round(float(self.eval_trace.values.sum())))

    def setup(self):
        from repro.core.controller import PredictiveController
        from repro.core.params import SystemParameters
        from repro.engine.simulator import EngineConfig, EngineSimulator
        from repro.prediction.spar import SPARPredictor

        params = SystemParameters(interval_seconds=self.plan_s, partitions_per_node=6)
        predictor = SPARPredictor(
            period=self.intervals_per_day, n_periods=7, n_recent=6, max_horizon=40
        )
        predictor.fit(self.training)
        config = EngineConfig(dt_seconds=1.0, max_nodes=10)
        controller = PredictiveController(
            params, predictor, training_history=self.training,
            measurement_slot_seconds=self.eval_trace.slot_seconds,
            max_machines=config.max_nodes,
        )
        first_rate = float(self.eval_trace.per_second()[0])
        initial = max(1, min(config.max_nodes, math.ceil(first_rate * 1.15 / params.q)))
        sim = EngineSimulator(config, initial_nodes=initial)
        sim.skew_events = list(self.skew_events)
        return {"sim": sim, "controller": controller, "result": None, "slots": 0}

    def run(self, state, timer: TickTimer) -> None:
        timer.start()
        state["result"] = state["sim"].run(
            self.eval_trace, controller=_SlotClock(state["controller"], timer)
        )
        state["slots"] = len(timer.cpu)

    def outputs(self, state) -> Dict[str, object]:
        sim, result = state["sim"], state["result"]
        steps = len(result.time)
        if steps != len(self.eval_trace) * int(self.eval_trace.slot_seconds):
            raise CheckFailed(f"replayed {steps} steps of {len(self.eval_trace)} slots")
        if state["slots"] != len(self.eval_trace):
            raise CheckFailed("controller not called once per slot")
        offered = float(result.offered.sum() * result.dt_seconds)
        if abs(offered - float(self.eval_trace.values.sum())) > 1e-6 * offered:
            raise CheckFailed(f"engine offered {offered:.1f} of the trace's transactions")
        if not (np.all(np.isfinite(result.p99_ms)) and result.p50_ms.min() > 0.0):
            raise CheckFailed("per-second latency not finite and positive")
        if result.machines.min() < 1 or result.machines.max() > sim.config.max_nodes:
            raise CheckFailed("machine count outside [1, max_nodes]")
        weights = result.offered
        return {
            "virtual_s": steps * result.dt_seconds,
            "offered": self.offered_total,
            "served": self.offered_total,
            "shed": 0,
            "errored": 0,
            "sla_violation_s": result.sla_violations("p99"),
            "latency_p50_ms": _weighted_median(result.p50_ms, weights),
            "latency_p99_ms": _weighted_median(result.p99_ms, weights),
            "slo_good_load": float(weights[result.p99_ms <= SLA_MS].sum() / weights.sum()),
            "machine_hours": result.total_cost() / 3600.0,
            "moves": state["controller"].moves_requested,
            "series_digest": _digest(result.p50_ms, result.p99_ms, result.machines),
        }

    @staticmethod
    def metrics(outputs: Dict[str, object]) -> Dict[str, float]:
        return {
            "latency_p50_ms": outputs["latency_p50_ms"],
            "latency_p99_ms": outputs["latency_p99_ms"],
            "slo_good_frac": outputs["slo_good_load"],
            "machine_hours": outputs["machine_hours"],
        }


WORKLOADS = {w.name: w for w in (Steady, DiurnalTenants, SoakPipe, PStoreReplay)}


def run_episode(workload, tracer=None) -> Episode:
    """Set up, run and read back one episode.

    ``tracer`` (a :class:`layers.LayerTracer`) is installed for set-up
    and run and removed before the outputs are read.
    """
    state = None
    gc.collect()  # every episode starts from a collected heap
    before = probed_speed() if tracer is None else PROBE_REFERENCE_S
    if tracer is not None:
        tracer.install()
    try:
        wall, own = time.perf_counter(), time.thread_time()
        if tracer is not None:
            state = tracer.call("bench.setup", workload.setup)
        else:
            state = workload.setup()
        timer = TickTimer(workload.worker_pids(state), probe=tracer is None)
        setup_wall_s = time.perf_counter() - wall
        # The workers were spawned during set-up: all their CPU so far is set-up.
        setup_s = time.thread_time() - own + timer.workers_cpu()
        after = probed_speed() if tracer is None else PROBE_REFERENCE_S
        setup_s *= 2.0 * PROBE_REFERENCE_S / (before + after)
        if tracer is not None:
            tracer.begin("run")
        wall = time.perf_counter()
        workload.run(state, timer)
        timer.stop()
        run_wall_s = time.perf_counter() - wall - timer.probe_wall_s
        if tracer is not None:
            tracer.uninstall()
        outputs = workload.outputs(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if state is not None:
            workload.teardown(state)
    return Episode(
        setup_s=setup_s,
        setup_wall_s=setup_wall_s,
        run_s=timer.run_s(),
        run_wall_s=run_wall_s,
        tick_s=timer.ticks(),
        tick_wall_s=np.asarray(timer.wall),
        offered=int(outputs["offered"]),
        outputs=outputs,
        metrics=workload.metrics(outputs),
    )


def check_outputs(reference: Dict[str, object], outputs: Dict[str, object], label: str) -> None:
    """Deterministic outputs must repeat exactly within a seed."""
    if outputs != reference:
        diff = {
            key: (reference.get(key), outputs.get(key))
            for key in set(reference) | set(outputs)
            if reference.get(key) != outputs.get(key)
        }
        raise CheckFailed(f"{label} outputs differ from the first episode: {diff}")
