"""Serving scenarios whose exact results are pinned in ``tests/data/serve_pins.json``.

Each scenario runs a small, fully seeded serving session and returns a
JSON-safe result: the loadgen report (every latency, every Retry-After
hint, per-tenant buckets), the engine's counters and routing RNG state,
the retry client's RNG state, and, when telemetry is on, every metric
record in registry order plus the span and event streams.  The pins
were recorded with the per-request serving path (one clock event and
one ``ServerEngine.submit`` per arrival); the batched path must
reproduce them bit for bit.

``tests/test_serve_pins.py`` compares digests of these results with
the recorded ones.  The digests depend on the last bits of NumPy's
``exp``/``log``, which differ between SIMD builds, so the pin file also
records a fingerprint of those functions; on a machine whose
fingerprint differs the digest comparison is skipped (the
machine-independent batched-vs-sequential comparisons still run).

Re-record (only for a deliberate behaviour change, listed in
CHANGES.md)::

    PYTHONPATH=src python -m tests.serve_pins --record
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.engine.simulator import EngineConfig
from repro.errors import TransportError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    DistributedServeSession,
    ResilienceConfig,
    RetryConfig,
    ServerEngine,
    ServeSession,
    WorkerSpec,
    poisson_arrivals,
)
from repro.serve.resilience import _rng_state
from repro.telemetry import Telemetry
from repro.telemetry.slo import SLOConfig
from repro.tenancy import TenantAdmission, TenantSpec, build_registry, composite_arrivals

PIN_FILE = Path(__file__).parent / "data" / "serve_pins.json"


def platform_fingerprint() -> str:
    """Digest of the transcendental functions the latency model uses."""
    x = np.linspace(-30.0, 5.0, 4097)
    h = hashlib.sha256()
    h.update(np.exp(x).tobytes())
    h.update(np.log(np.exp(x) + 1e-3).tobytes())
    h.update(np.array([math.exp(v) for v in x[::64]]).tobytes())
    h.update(np.array([math.log(1.0 - v) for v in np.linspace(0.01, 0.99, 99)]).tobytes())
    return h.hexdigest()[:16]


def _small_config(**kwargs) -> EngineConfig:
    defaults = dict(max_nodes=4, saturation_rate_per_node=12.0, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def _telemetry_state(tel: Telemetry) -> Dict[str, object]:
    metrics = tel.metrics
    return {
        "order": [
            list(metrics.counters()),
            list(metrics.gauges()),
            list(metrics.histograms()),
        ],
        "records": metrics.records(),
        "spans": [span.as_record() for span in tel.tracer.spans],
        "events": [dict(event) for event in tel.timeline.events],
    }


def _session_result(session: ServeSession) -> Dict[str, object]:
    engine = session.engine
    client = session.loadgen.client
    out: Dict[str, object] = {
        "report": asdict(session.loadgen.report),
        "engine": {
            "completed": engine.completed,
            "latency_sum_ms": engine.latency_sum_ms,
            "accepted": engine.admission.accepted,
            "rejected": engine.admission.rejected,
            "errors": engine.errors,
            "brownout_sheds": engine.brownout_sheds,
            "machine_seconds": engine.machine_seconds,
            "ticks": engine.ticks,
            "max_node_queue_seconds": engine.max_node_queue_seconds,
            "rng": _rng_state(engine._rng),
        },
        "client_rng": _rng_state(client._rng) if client is not None else None,
    }
    if engine.tenancy is not None:
        out["tenancy"] = engine.tenancy.state_dict()
    if engine.telemetry is not None:
        out["telemetry"] = _telemetry_state(engine.telemetry)
    return out


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def tick_boundary_run() -> Dict[str, object]:
    """Arrivals exactly on tick boundaries, served in one long run."""
    arrivals = np.repeat(np.arange(0.0, 30.0, 0.5), 8)
    engine = ServerEngine(
        _small_config(), initial_nodes=2, seed=11,
        admission=AdmissionConfig(queue_limit_seconds=0.4), telemetry=Telemetry(),
    )
    session = ServeSession(engine, arrivals)
    session.run(32.0)
    return _session_result(session)


def tick_boundary_stepped() -> Dict[str, object]:
    """Arrivals exactly on tick boundaries, driven one tick per ``run``."""
    arrivals = np.repeat(np.arange(0.0, 30.0, 0.5), 8)
    engine = ServerEngine(
        _small_config(), initial_nodes=2, seed=11,
        admission=AdmissionConfig(queue_limit_seconds=0.4),
    )
    session = ServeSession(engine, arrivals)
    for _ in range(32):
        session.run(1.0)
    return _session_result(session)


def retry_hedge_midtick() -> Dict[str, object]:
    """Short backoffs and hedges that fire between arrivals of one tick."""
    engine = ServerEngine(
        _small_config(), initial_nodes=3, seed=5,
        admission=AdmissionConfig(queue_limit_seconds=1.5, retry_after_floor_s=0.05),
        resilience=ResilienceConfig(breaker=BreakerConfig(miss_threshold=3)),
        telemetry=Telemetry(),
    )
    session = ServeSession(
        engine,
        poisson_arrivals(40.0, 30.0, seed=5),
        retry=RetryConfig(
            max_retries=3, backoff_base_s=0.05, backoff_cap_s=0.4,
            budget_floor=1000, hedge_queue_seconds=0.5, low_priority_fraction=0.2,
        ),
        retry_seed=5,
    )
    session.run(36.0)
    return _session_result(session)


def crash_brownout_stale() -> Dict[str, object]:
    """A node crash under a stale router view, with brownout engaged."""
    plan = FaultPlan([NodeCrash(at_seconds=20.0, node_id=1, recover_after_seconds=30.0)])
    engine = ServerEngine(
        _small_config(), initial_nodes=3, seed=7,
        admission=AdmissionConfig(queue_limit_seconds=4.0),
        fault_injector=FaultInjector(plan),
        resilience=ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=3, open_seconds=12.0),
            brownout=BrownoutConfig(queue_factor=0.5, shed_low_priority=True),
        ),
        telemetry=Telemetry(),
        slo=SLOConfig(),
    )
    session = ServeSession(
        engine,
        poisson_arrivals(14.0, 70.0, seed=7),
        retry=RetryConfig(max_retries=1, backoff_base_s=0.5, low_priority_fraction=0.4),
        retry_seed=7,
    )
    session.run(75.0)
    return _session_result(session)


def crash_no_retry() -> Dict[str, object]:
    """The same crash with no retry client: the batched loadgen path."""
    plan = FaultPlan([NodeCrash(at_seconds=15.0, node_id=2, recover_after_seconds=20.0)])
    engine = ServerEngine(
        _small_config(), initial_nodes=3, seed=9,
        admission=AdmissionConfig(queue_limit_seconds=2.0),
        fault_injector=FaultInjector(plan),
        resilience=ResilienceConfig(breaker=BreakerConfig(miss_threshold=2, open_seconds=8.0)),
        telemetry=Telemetry(),
    )
    session = ServeSession(engine, poisson_arrivals(20.0, 50.0, seed=9))
    session.run(55.0)
    return _session_result(session)


def _tenant_registry():
    return build_registry([
        TenantSpec(name="gold", profile="poisson:rate=9", weight=3, latency_slo_ms=800.0),
        TenantSpec(name="silver", profile="poisson:rate=6", weight=2),
        TenantSpec(name="bronze", profile="poisson:rate=8", weight=1,
                   quota_rps=2.5, quota_burst=3.0, latency_slo_ms=300.0),
    ])


def tenant_quota_midtick() -> Dict[str, object]:
    """A quota-limited tenant shedding mid-tick, telemetry and SLOs on."""
    registry = _tenant_registry()
    times, indices = composite_arrivals(registry, 40.0, seed=13)
    engine = ServerEngine(
        _small_config(), initial_nodes=2, seed=13,
        admission=AdmissionConfig(queue_limit_seconds=3.0),
        tenancy=TenantAdmission(registry),
        telemetry=Telemetry(), slo=SLOConfig(),
    )
    session = ServeSession(
        engine, times, tenant_indices=indices, tenant_names=registry.names(),
    )
    session.run(45.0)
    return _session_result(session)


def tenant_crash_brownout() -> Dict[str, object]:
    """Tenancy under a crash: brownout sheds the low-weight tenants."""
    registry = _tenant_registry()
    times, indices = composite_arrivals(registry, 50.0, seed=17)
    plan = FaultPlan([NodeCrash(at_seconds=12.0, node_id=0, recover_after_seconds=25.0)])
    engine = ServerEngine(
        _small_config(), initial_nodes=3, seed=17,
        admission=AdmissionConfig(queue_limit_seconds=3.0),
        fault_injector=FaultInjector(plan),
        resilience=ResilienceConfig(breaker=BreakerConfig(miss_threshold=2, open_seconds=10.0)),
        tenancy=TenantAdmission(registry),
        telemetry=Telemetry(),
    )
    session = ServeSession(
        engine, times, tenant_indices=indices, tenant_names=registry.names(),
    )
    session.run(55.0)
    return _session_result(session)


def traced_run() -> Dict[str, object]:
    """Request tracing on, with shedding, so every span kind appears."""
    engine = ServerEngine(
        _small_config(), initial_nodes=2, seed=3,
        admission=AdmissionConfig(queue_limit_seconds=0.8),
        telemetry=Telemetry(), trace_requests=True, slo=SLOConfig(),
    )
    session = ServeSession(engine, poisson_arrivals(30.0, 25.0, seed=3))
    session.run(28.0)
    return _session_result(session)


def steady_run() -> Dict[str, object]:
    """Plain Poisson load on 2 of 4 nodes, as the benchmark's steady."""
    engine = ServerEngine(
        EngineConfig(max_nodes=4, saturation_rate_per_node=300.0), initial_nodes=2, seed=1,
    )
    session = ServeSession(engine, poisson_arrivals(300.0, 20.0, seed=1))
    for _ in range(20):
        session.run(1.0)
    return _session_result(session)


def worker_steps() -> Dict[str, object]:
    """The distributed path: the edge's step batches on in-process workers."""
    specs = [
        WorkerSpec(worker_id=i, seed=i, initial_nodes=1, max_nodes=4,
                   saturation_rate_per_node=60.0, queue_limit_seconds=1.0)
        for i in range(2)
    ]
    session = DistributedServeSession(
        specs, poisson_arrivals(140.0, 20.0, seed=4), mode="inproc",
    )
    try:
        report = session.run(22.0)
        return {"report": asdict(report), "edge_rng": _rng_state(session._rng)}
    finally:
        session.close()


def _worker_specs(n: int, **kwargs) -> list:
    base = dict(initial_nodes=1, max_nodes=4, saturation_rate_per_node=60.0,
                queue_limit_seconds=1.0)
    base.update(kwargs)
    return [WorkerSpec(worker_id=i, seed=i, **base) for i in range(n)]


def _edge_result(session: DistributedServeSession) -> Dict[str, object]:
    out: Dict[str, object] = {
        "report": asdict(session.report),
        "edge_rng": _rng_state(session._rng),
        "breakers": {str(w): b.state_dict() for w, b in session.breakers.items()},
        "brownout_active": session.brownout_active,
        "admission": [session.admission.accepted, session.admission.rejected],
        "advertised": {str(w): list(ad) for w, ad in session.advertised.items()},
        "slo": session.slo_monitor.state_dict() if session.slo_monitor else None,
        "tenant_slos": {
            name: monitor.state_dict() for name, monitor in session.tenant_slos.items()
        },
    }
    if session.tenancy is not None:
        out["tenancy"] = session.tenancy.state_dict()
    if session.telemetry is not None:
        out["telemetry"] = _telemetry_state(session.telemetry)
    return out


class _SeveredTransport:
    """A worker link that swallows requests and never answers: the
    worker still looks alive to the router until a reply fails."""

    def send(self, message: Dict[str, object]) -> None:
        pass

    def recv(self, timeout_s=None) -> Dict[str, object]:
        raise TransportError("link severed")

    def close(self) -> None:
        pass


def worker_tenants() -> Dict[str, object]:
    """Edge tenancy: a quota-limited tenant, and a worker death whose
    brownout sheds the low-weight tenants wholesale."""
    registry = _tenant_registry()
    times, indices = composite_arrivals(registry, 40.0, seed=21)
    session = DistributedServeSession(
        _worker_specs(3, saturation_rate_per_node=12.0, queue_limit_seconds=2.0),
        times, mode="inproc", seed=21,
        breaker=BreakerConfig(miss_threshold=2, open_seconds=30.0),
        brownout=BrownoutConfig(queue_factor=0.5, shed_low_priority=True),
        tenancy=TenantAdmission(registry), tenant_indices=indices,
        tenant_names=registry.names(), telemetry=Telemetry(), slo=SLOConfig(),
    )
    try:
        session.run(15.0)
        session.workers[2].kill()
        session.run(30.0)
        return _edge_result(session)
    finally:
        session.close()


def worker_lowprio_edge_limit() -> Dict[str, object]:
    """Low-priority draws interleaved with routing draws, edge queue
    sheds against the advertised queue, and brownout low-priority sheds
    after a worker dies."""
    session = DistributedServeSession(
        _worker_specs(3), poisson_arrivals(150.0, 30.0, seed=6), mode="inproc",
        seed=6, low_priority_fraction=0.35, edge_queue_limit_s=0.3,
        breaker=BreakerConfig(miss_threshold=2, open_seconds=40.0),
        brownout=BrownoutConfig(queue_factor=0.5, shed_low_priority=True),
        telemetry=Telemetry(),
    )
    try:
        session.run(12.0)
        session.workers[0].kill()
        session.run(20.0)
        return _edge_result(session)
    finally:
        session.close()


def worker_crash_midtick() -> Dict[str, object]:
    """A worker whose link breaks while it still looks alive: its tick
    batches fail as connection 500s until its breaker opens, and the
    breaker drives brownout."""
    session = DistributedServeSession(
        _worker_specs(2), poisson_arrivals(100.0, 30.0, seed=9), mode="inproc",
        seed=9, low_priority_fraction=0.25,
        breaker=BreakerConfig(miss_threshold=3, open_seconds=10.0),
        brownout=BrownoutConfig(queue_factor=0.5, shed_low_priority=True),
        telemetry=Telemetry(), slo=SLOConfig(),
    )
    try:
        session.run(8.0)
        victim = session.workers[1]
        victim.server = None
        victim.transport = _SeveredTransport()
        session.run(24.0)
        return _edge_result(session)
    finally:
        session.close()


def worker_traced() -> Dict[str, object]:
    """Request tracing across the edge/worker split with tenancy, edge
    and tenant SLO monitors: stitched spans and merged metrics."""
    registry = _tenant_registry()
    times, indices = composite_arrivals(registry, 20.0, seed=23)
    session = DistributedServeSession(
        _worker_specs(2, saturation_rate_per_node=12.0, trace_requests=True,
                      collect_telemetry=True),
        times, mode="inproc", seed=23, low_priority_fraction=0.2,
        edge_queue_limit_s=1.5, trace_requests=True, telemetry=Telemetry(),
        slo=SLOConfig(), tenancy=TenantAdmission(registry), tenant_indices=indices,
        tenant_names=registry.names(),
    )
    try:
        session.run(22.0)
        session.collect_telemetry()
        return _edge_result(session)
    finally:
        session.close()


SCENARIOS: Dict[str, Callable[[], Dict[str, object]]] = {
    "tick_boundary_run": tick_boundary_run,
    "tick_boundary_stepped": tick_boundary_stepped,
    "retry_hedge_midtick": retry_hedge_midtick,
    "crash_brownout_stale": crash_brownout_stale,
    "crash_no_retry": crash_no_retry,
    "tenant_quota_midtick": tenant_quota_midtick,
    "tenant_crash_brownout": tenant_crash_brownout,
    "traced_run": traced_run,
    "steady_run": steady_run,
    "worker_steps": worker_steps,
    "worker_tenants": worker_tenants,
    "worker_lowprio_edge_limit": worker_lowprio_edge_limit,
    "worker_crash_midtick": worker_crash_midtick,
    "worker_traced": worker_traced,
}


def digest(result: Dict[str, object]) -> str:
    payload = json.dumps(result, sort_keys=False, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


def summary(result: Dict[str, object]) -> Dict[str, object]:
    report = result["report"]
    return {
        key: report[key]
        for key in ("offered", "accepted", "rejected", "errored", "retries", "hedges",
                    "brownout_shed")
    }


def record() -> None:
    pins = {
        "platform": platform_fingerprint(),
        "scenarios": {},
    }
    for name, scenario in SCENARIOS.items():
        result = scenario()
        pins["scenarios"][name] = {"digest": digest(result), "summary": summary(result)}
    PIN_FILE.parent.mkdir(parents=True, exist_ok=True)
    PIN_FILE.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PIN_FILE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.serve_pins --record")
    record()
