"""The serving driver: requests in, latency samples out, ticks in between.

:class:`ServerEngine` turns the batch :class:`~repro.engine.simulator.
EngineSimulator` into a request server.  Transport and pacing live
elsewhere (virtual clock in :mod:`repro.serve.session`, asyncio HTTP in
:mod:`repro.serve.http`); this class only knows two operations:

* :meth:`submit_batch` — route a run of incoming transactions through
  the cluster's data-share weights, run admission control against each
  target node's queue estimate, and either enqueue each for the current
  tick or shed it with a retry-after hint (:meth:`submit` is a batch of
  one);
* :meth:`tick` — advance the engine by one ``dt`` step offered exactly
  the admitted arrivals, draw each request's latency from that step's
  queueing mixture (seeded inverse-CDF sampling, so runs are
  deterministic), deliver completions, feed the arrival count into the
  :class:`~repro.engine.monitor.LoadMonitor`, and invoke the elasticity
  controller whenever a measurement slot closes — exactly the hook the
  batch ``EngineSimulator.run`` loop gives the offline controllers.

Both work on arrays: a batch draws its routing uniforms in one call and
admits against a cumulative per-node count, and a tick folds its
completions with sequential sums, so a batch of ``n`` produces exactly
what ``n`` single submissions would.

Because rejected requests never reach the engine, shedding (not the
fluid queue cap) is what bounds the backlog under an open-loop spike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.engine.migration import MigrationConfig
from repro.engine.monitor import LoadMonitor
from repro.engine.queueing import sample_latencies
from repro.engine.simulator import ElasticityController, EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    prior_in_group,
)
from repro.serve.resilience import OPEN, NodeHealthMonitor, ResilienceConfig
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.metrics import labeled
from repro.telemetry.perf import timed
from repro.telemetry.requesttrace import RequestTracer, TraceContext
from repro.telemetry.slo import SLOConfig, SLOMonitor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tenancy -> loadgen -> engine)
    from repro.serve.loadgen import LoadgenReport
    from repro.tenancy.admission import TenantAdmission


@dataclass(frozen=True)
class TxnOutcome:
    """Terminal state of one submitted transaction.

    Attributes:
        accepted: False when admission control shed the request.
        status: HTTP-style status code (200 or 503).
        node_id: Node the request was routed to.
        submitted_at: Engine time at submission, seconds.
        completed_at: Engine time at completion (submission time for
            rejects — they fail fast).
        latency_ms: Sampled service latency (0 for rejects).
        retry_after_s: Backoff hint carried by rejects.
        trace_id: Request trace id when tracing is enabled, else None.
        reason: Why a request failed — ``"queue-limit"`` (admission
            shed), ``"quota"`` (tenant token-bucket shed), ``"brownout"``
            (low-priority or low-weight-tenant shed during degradation)
            or ``"connection"`` (routed to a dead, not-yet-detected
            node; status 500).  Empty for accepted requests.
        priority: Request priority (0 = normal, 1 = low / sheddable).
        tenant: Tenant the request belongs to; empty when tenancy is
            not configured.
    """

    accepted: bool
    status: int
    node_id: int
    submitted_at: float
    completed_at: float
    latency_ms: float
    retry_after_s: float = 0.0
    trace_id: Optional[int] = None
    reason: str = ""
    priority: int = 0
    tenant: str = ""


OnComplete = Callable[[TxnOutcome], None]

#: Outcome codes of a batch's requests; :data:`REASONS` holds the
#: matching :attr:`TxnOutcome.reason` strings.
ADMITTED, QUEUE_LIMIT, QUOTA, BROWNOUT, CONNECTION = range(5)
REASONS = ("", "queue-limit", "quota", "brownout", "connection")


@dataclass(frozen=True)
class AdmissionBatch:
    """Per-request results of one :meth:`ServerEngine.submit_batch` call,
    in arrival order: routed node, queue estimate at decision time,
    outcome code (see :data:`REASONS`) and Retry-After hint."""

    node: np.ndarray
    estimate: np.ndarray
    reason: np.ndarray
    retry_after_s: np.ndarray

    def decision(self, i: int) -> AdmissionDecision:
        code = int(self.reason[i])
        return AdmissionDecision(
            code == ADMITTED,
            int(self.node[i]),
            float(self.estimate[i]),
            float(self.retry_after_s[i]),
            reason=REASONS[code],
        )


class _Pending(NamedTuple):
    """The admitted requests of one batch, waiting for the next tick."""

    nodes: np.ndarray
    times: np.ndarray
    tenants: Optional[np.ndarray]
    names: Sequence[str]
    traces: Optional[List[tuple]]
    on_complete: Optional[OnComplete]
    sink: Optional["LoadgenReport"]


class _MetricTally:
    """Counter increments, gauge writes and breaker feeds of one batch,
    replayed in the order one-request-at-a-time submission makes them.

    Each entry is keyed ``(request index, step)`` by the first request
    that touches it, so labelled metrics are created in the registry in
    the per-request order and every value ends up the same.
    """

    def __init__(self, names: Dict[tuple, str]) -> None:
        self._names = names  # labelled-name cache shared across batches
        self._entries: List[tuple] = []

    def by_group(
        self,
        step: int,
        base: str,
        label: Optional[str],
        mask: Optional[np.ndarray],
        keys: Optional[np.ndarray] = None,
        table: Optional[Sequence[str]] = None,
    ) -> None:
        """Count the requests in ``mask`` (all when ``None``) on
        ``base``, or on one ``base{label=...}`` counter per key."""
        idx = np.flatnonzero(mask) if mask is not None else np.arange(len(keys))
        if not len(idx):
            return
        if label is None:
            self._entries.append(((int(idx[0]), step), 0, base, len(idx)))
            return
        grouped = keys[idx]
        counts = np.bincount(grouped)
        for value in np.flatnonzero(counts).tolist():
            key = (base, label, value)
            name = self._names.get(key)
            if name is None:
                shown = table[value] if table is not None else value
                name = self._names[key] = labeled(base, **{label: shown})
            first = int(idx[int(np.argmax(grouped == value))])
            self._entries.append(((first, step), 0, name, int(counts[value])))

    def gauge(self, key: Tuple[int, int], name: str, value: float, updates: int) -> None:
        self._entries.append((key, 1, name, (value, updates)))

    def call(self, key: Tuple[int, int], fn: Callable[[], None]) -> None:
        self._entries.append((key, 2, fn, None))

    def apply(self, tel: Telemetry) -> None:
        for _, kind, what, amount in sorted(self._entries, key=itemgetter(0)):
            if kind == 0:
                tel.counter(what).inc(amount)
            elif kind == 1:
                tel.gauge(what).set(amount[0], updates=amount[1])
            else:
                what()


def _sequential_sum(start: float, values: np.ndarray) -> float:
    """``start + v0 + v1 + ...`` added left to right, as a running total
    updated once per value would be (``cumsum`` is sequential)."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


class ServerEngine:
    """Serves transactions against the simulated engine, one tick at a time.

    Args:
        engine_config: Engine parameters (``dt_seconds`` is the tick).
        initial_nodes: Machines active at start.
        slot_seconds: Measurement-slot length fed to the load monitor
            (must be a multiple of the tick).
        admission: Shedding policy; defaults shed well below the engine's
            own queue cap.
        controller: Optional elasticity controller implementing the same
            ``on_slot(sim, slot_index, measured_count)`` protocol the
            batch runs use (:class:`~repro.core.controller.
            PredictiveController`, :class:`~repro.serve.control.
            OnlineControlLoop`, ...).
        seed: Seed for routing and latency sampling.
        trace_requests: Record a per-request span tree on the telemetry
            tracer (requires enabled telemetry).  Tracing never touches
            the routing/latency RNG, so engine results are bit-identical
            with it on or off.
        slo: Enable burn-rate SLO monitoring with this configuration;
            the monitor's state shows up on ``/healthz`` (a firing
            alert degrades the status) and in the run reports.
        resilience: Enable failure detection (per-node circuit breakers
            driven by tick-boundary health probes and request failures)
            and brownout degradation.  With resilience on, the engine
            routes by a *stale router view*: a crashed node keeps
            receiving traffic (each such request errors with status 500
            and feeds the breaker) until its breaker opens, exactly like
            a real router that has not yet noticed the failure.  With
            the default ``None``, behaviour is bit-identical to the
            pre-resilience engine.
        tenancy: Optional :class:`~repro.tenancy.TenantAdmission`.
            With tenancy on, each submitted request carries a tenant
            name; the engine enforces per-tenant token-bucket quotas
            (reason ``"quota"``, deterministic Retry-After), sheds
            low-weight tenants first during brownout, keeps per-tenant
            labelled counters, and runs one labelled burn-rate
            :class:`SLOMonitor` per tenant against that tenant's own
            latency objective.  Tenant admission is RNG-free, so a
            single unthrottled default tenant is bit-identical to the
            untenanted engine.
    """

    def __init__(
        self,
        engine_config: Optional[EngineConfig] = None,
        *,
        initial_nodes: int = 1,
        slot_seconds: float = 60.0,
        admission: Optional[AdmissionConfig] = None,
        controller: Optional[ElasticityController] = None,
        seed: int = 0,
        migration_config: Optional[MigrationConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
        trace_requests: bool = False,
        slo: Optional[SLOConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        tenancy: Optional["TenantAdmission"] = None,
    ) -> None:
        config = engine_config or EngineConfig()
        ticks = slot_seconds / config.dt_seconds
        if abs(ticks - round(ticks)) > 1e-9 or ticks < 1:
            raise ConfigurationError(
                f"slot_seconds {slot_seconds}s must be a positive multiple "
                f"of the tick ({config.dt_seconds}s)"
            )
        self.telemetry = resolve_telemetry(telemetry)
        self.sim = EngineSimulator(
            config,
            initial_nodes=initial_nodes,
            migration_config=migration_config,
            fault_injector=fault_injector,
            telemetry=self.telemetry,
        )
        self.monitor = LoadMonitor(slot_seconds)
        self.controller = controller
        self.admission = AdmissionController(admission, self.telemetry)
        if trace_requests and self.telemetry is None:
            raise ConfigurationError(
                "trace_requests needs telemetry enabled on the engine"
            )
        self.request_tracer: Optional[RequestTracer] = (
            RequestTracer(self.telemetry) if trace_requests else None
        )
        self.slo_monitor: Optional[SLOMonitor] = (
            SLOMonitor(slo, self.telemetry) if slo is not None else None
        )
        self.tenancy = tenancy
        #: Per-tenant labelled SLO monitors, keyed by tenant name.  Each
        #: tenant gets the shared alerting windows but its *own* latency
        #: threshold and objective from the spec.
        self.tenant_slos: Dict[str, SLOMonitor] = {}
        if tenancy is not None:
            base = slo or SLOConfig()
            for spec in tenancy.registry:
                tenant_config = replace(
                    base,
                    objective=spec.slo_objective,
                    latency_threshold_ms=spec.latency_slo_ms,
                )
                self.tenant_slos[spec.name] = SLOMonitor(
                    tenant_config, self.telemetry, labels={"tenant": spec.name}
                )
        if tenancy is not None and controller is not None and hasattr(
            controller, "set_tenant_stats"
        ):
            # The control loop diffs these cumulative counters per
            # planning interval into per-tenant demand rates, so every
            # replan's audit records the WiSeDB-style violation-cost
            # trade per tenant.
            controller.set_tenant_stats(
                lambda: dict(tenancy.offered),
                {t.name: t.weight for t in tenancy.registry},
            )
        self._tenant_tick_good: Dict[str, int] = {}
        self._tenant_tick_bad: Dict[str, int] = {}
        #: Machine-seconds integrated over ticks — the consolidation
        #: experiment's cost axis (machine-hours = this / 3600).
        self.machine_seconds = 0.0
        self._rng = np.random.default_rng(seed)
        self._pending: List[_Pending] = []
        self._pending_count = 0
        self._pending_per_node = np.zeros(config.max_nodes)
        self._metric_names: Dict[tuple, str] = {}
        self._tenant_names: List[str] = tenancy.registry.names() if tenancy else []
        self._tenant_index = {name: i for i, name in enumerate(self._tenant_names)}
        self._slot_index = 0
        self.ticks = 0
        self.completed = 0
        self.rejected_last_tick = 0
        #: Worst per-node queue estimate seen at any tick boundary — the
        #: spike tests assert shedding keeps this bounded.
        self.max_node_queue_seconds = 0.0
        self.latency_sum_ms = 0.0
        self.resilience = resilience
        self.health: Optional[NodeHealthMonitor] = (
            NodeHealthMonitor(resilience.breaker, self.telemetry)
            if resilience is not None
            else None
        )
        #: Requests that hit a dead-but-undetected node (status 500).
        self.errors = 0
        self.brownout_active = False
        self.brownout_sheds = 0
        self._failed_set: frozenset = frozenset()
        self._router_view: Optional[np.ndarray] = None
        self._refresh_routing()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _refresh_routing(self) -> None:
        """Re-derive the routing CDF and per-node capacity after a tick
        (routing weights only change at tick boundaries)."""
        weights = self.sim.partition_weights()
        p = self.sim.config.partitions_per_node
        max_nodes = self.sim.config.max_nodes
        if self.health is None:
            self._route_cdf = np.cumsum(weights)
        else:
            # Stale router view: the cluster reroutes a crashed node's
            # buckets instantly (physical truth), but the *router* only
            # learns about the failure through the breaker.  A failed
            # node with a non-open breaker keeps its stale weight (and
            # keeps eating traffic, which errors and feeds the breaker);
            # an open breaker zeroes it, which is the reroute.
            cluster_nodes = weights.reshape(max_nodes, p).sum(axis=1)
            self._failed_set = frozenset(self.sim.cluster.failed_nodes())
            if self._router_view is None:
                self._router_view = cluster_nodes.copy()
            view = self._router_view
            for node in range(max_nodes):
                if self.health.state_of(node) == OPEN:
                    view[node] = 0.0
                elif node not in self._failed_set:
                    view[node] = cluster_nodes[node]
                # else: failed but undetected — keep the stale weight.
            if view.sum() <= 0.0:  # pragma: no cover - last node never fails
                view[:] = cluster_nodes
            self._route_cdf = np.cumsum(np.repeat(view / p, p))
        mu = self.sim._mu_base
        self._node_rate = np.maximum(mu.reshape(max_nodes, p).sum(axis=1), 1e-9)
        self._node_queue = self.sim.node_queue_seconds()

    def _route(self, n: int) -> np.ndarray:
        """Partitions for ``n`` requests (data-share weighted): one
        uniform each, drawn in one call (the same stream as ``n`` single
        draws)."""
        cdf = self._route_cdf
        return np.searchsorted(cdf, self._rng.random(n) * cdf[-1])

    def route(self) -> int:
        """Pick the partition for one request (data-share weighted)."""
        return int(self._route(1)[0])

    def submit(
        self,
        on_complete: Optional[OnComplete] = None,
        *,
        now: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        priority: int = 0,
        tenant: str = "",
    ) -> AdmissionDecision:
        """Route and admit (or shed) one transaction: a batch of one.

        Accepted requests complete on the next :meth:`tick`; rejected
        ones complete immediately.  ``on_complete`` receives the
        :class:`TxnOutcome` either way.  ``trace`` carries the context
        minted at the edge (loadgen/HTTP); when tracing is on and none
        is supplied, one is minted here with origin ``engine``.
        ``priority`` 1 marks the request sheddable during brownout.
        ``tenant`` names the owning tenant when tenancy is configured;
        untagged requests fall back to the spec's first tenant.
        """
        submitted_at = self.sim.now if now is None else float(now)
        batch = self.submit_batch(
            np.array([submitted_at]),
            priorities=np.array([priority]) if priority else None,
            tenant_codes=np.zeros(1, dtype=np.int64) if tenant else None,
            tenant_names=(tenant,),
            traces=(trace,) if trace is not None else None,
            on_complete=on_complete,
        )
        return batch.decision(0)

    def submit_batch(
        self,
        times: np.ndarray,
        *,
        priorities: Optional[np.ndarray] = None,
        tenant_codes: Optional[np.ndarray] = None,
        tenant_names: Sequence[str] = (),
        traces: Optional[Sequence[Optional[TraceContext]]] = None,
        on_complete: Optional[OnComplete] = None,
        sink: Optional["LoadgenReport"] = None,
    ) -> "AdmissionBatch":
        """Route and admit (or shed) a run of transactions in arrival order.

        Equivalent to one :meth:`submit` per request, in order, with the
        same RNG draws and the same outcomes: all routing uniforms come
        from one ``rng.random(n)`` and one ``searchsorted``, and each
        request's queue estimate counts the requests admitted to its
        node before it (earlier in the tick or earlier in this run).
        Tenant quotas, brownout and dead-node errors are decided in
        arrival order.

        Args:
            times: Submission times, sorted.
            priorities: Per-request priority (1 = sheddable in brownout);
                all 0 when omitted.
            tenant_codes: Per-request index into ``tenant_names``; the
                empty name (or omitting the codes) means the default
                tenant when tenancy is on.
            tenant_names: Tenant name table for ``tenant_codes``.
            traces: Per-request trace contexts (``None`` entries are
                minted here with origin ``engine``); used only when
                request tracing is on.
            on_complete: Called with a :class:`TxnOutcome` for every
                request, in arrival order for failures and at the tick
                for completions.
            sink: A report that takes the outcomes as arrays instead
                (:meth:`~repro.serve.loadgen.LoadgenReport.record_failed`
                at once, :meth:`~repro.serve.loadgen.LoadgenReport.
                record_served` at the tick); no :class:`TxnOutcome` is
                built.
        """
        times = np.asarray(times, dtype=np.float64)
        n = len(times)
        partition = self._route(n)
        node = partition // self.sim.config.partitions_per_node
        if self.tenancy is not None:
            names: Sequence[str] = self._tenant_names
            codes = self._tenant_codes(n, tenant_codes, tenant_names)
        else:
            names, codes = tenant_names, tenant_codes
        tel = self.telemetry
        tally = _MetricTally(self._metric_names) if tel is not None else None

        reason = np.full(n, ADMITTED, dtype=np.int8)
        retry = np.zeros(n)
        if self.health is not None and self._failed_set:
            # The router's stale view sent these to a corpse: each fails
            # like a refused connection and feeds the detector.
            reason[np.isin(node, list(self._failed_set))] = CONNECTION
        self._shed_by_policy(reason, retry, times, priorities, codes, names, tally)
        estimate = self._admit(node, reason, retry)

        if tally is not None:
            self._tally_admission(tally, reason, node, retry)
        self._fail_requests(reason == CONNECTION, node, times, tally)
        if tally is not None:
            tally.apply(tel)

        batch = AdmissionBatch(node, estimate, reason, retry)
        trace_ids, admitted_traces = self._trace_batch(batch, partition, times, traces)
        admitted = np.flatnonzero(reason == ADMITTED)
        if len(admitted):
            self._pending_per_node += np.bincount(
                node[admitted], minlength=len(self._pending_per_node)
            )
            self._pending.append(
                _Pending(
                    node[admitted],
                    times[admitted],
                    codes[admitted] if codes is not None else None,
                    names,
                    admitted_traces,
                    on_complete,
                    sink,
                )
            )
            self._pending_count += len(admitted)
        if len(admitted) < n:
            self._finish_failed(
                batch, times, priorities, codes, names, trace_ids, on_complete, sink
            )
        return batch

    def _shed_by_policy(
        self,
        reason: np.ndarray,
        retry: np.ndarray,
        times: np.ndarray,
        priorities: Optional[np.ndarray],
        codes: Optional[np.ndarray],
        names: Sequence[str],
        tally: Optional["_MetricTally"],
    ) -> None:
        """Tenant brownout, tenant quotas and low-priority brownout, in
        that order, marking sheds in ``reason`` (quota waits in
        ``retry``).  All RNG-free."""
        tenancy = self.tenancy
        if tenancy is not None:
            # In arrival order: brownout sheds whole low-weight tenants
            # before the per-request priority check, then the tenant's
            # token bucket is charged.
            rows = zip(codes.tolist(), times.tolist(), reason.tolist())
            for i, (code, at, code_now) in enumerate(rows):
                tenant = names[code]
                if code_now == CONNECTION:
                    tenancy.offered[tenant] += 1
                elif self.brownout_active and tenancy.brownout_sheddable(tenant):
                    tenancy.offered[tenant] += 1
                    tenancy.record_brownout_shed(tenant)
                    reason[i] = BROWNOUT
                    self.brownout_sheds += 1
                else:
                    wait = tenancy.quota_admit(tenant, at)
                    if wait is not None:
                        reason[i] = QUOTA
                        retry[i] = wait
            if tally is not None:
                tally.by_group(0, "serve.tenant.offered", "tenant", None, codes, names)
                for which, code in (("brownout_shed", BROWNOUT), ("quota_shed", QUOTA)):
                    tally.by_group(
                        1, f"serve.tenant.{which}", "tenant", reason == code, codes, names
                    )
        brownout = self.resilience.brownout if self.resilience is not None else None
        if (
            self.brownout_active
            and brownout is not None
            and brownout.shed_low_priority
            and priorities is not None
        ):
            low = (reason == ADMITTED) & (np.asarray(priorities) > 0)
            reason[low] = BROWNOUT
            self.brownout_sheds += int(np.count_nonzero(low))

    def _admit(self, node: np.ndarray, reason: np.ndarray, retry: np.ndarray) -> np.ndarray:
        """Queue-delay admission for the requests no policy shed, against
        each node's backlog plus the requests admitted to it before
        them; fills in shed hints and returns every request's estimate."""
        limit = self.admission.config.queue_limit_seconds
        brownout = self.resilience.brownout if self.resilience is not None else None
        if self.brownout_active and brownout is not None:
            limit = limit * brownout.queue_factor
        queue, pending, rate = self._node_queue, self._pending_per_node, self._node_rate
        checked = np.flatnonzero(reason == ADMITTED)
        accepted, checked_estimate, checked_retry = self.admission.admit_batch(
            node[checked], queue, pending, rate, limit_s=limit
        )
        reason[checked[~accepted]] = QUEUE_LIMIT
        retry[checked] = checked_retry
        if len(checked) == len(node):
            return checked_estimate
        prior = pending[node] + prior_in_group(node, reason == ADMITTED)
        estimate = queue[node] + prior / rate[node]
        estimate[checked] = checked_estimate
        shed = (reason == QUOTA) | (reason == BROWNOUT)
        if shed.any():
            retry[shed] = self.admission.shed_batch(retry[shed])
        return estimate

    def _tenant_codes(
        self, n: int, codes: Optional[np.ndarray], names: Sequence[str]
    ) -> np.ndarray:
        """Map caller tenant tags onto registry indices (empty = default)."""
        if codes is None:
            return np.zeros(n, dtype=np.int64)
        index = self._tenant_index
        table = []
        for name in names:
            if name and name not in index:
                raise KeyError(f"unknown tenant {name!r}")
            table.append(index[name] if name else 0)
        return np.asarray(table, dtype=np.int64)[np.asarray(codes, dtype=np.int64)]

    def _tally_admission(
        self,
        tally: "_MetricTally",
        reason: np.ndarray,
        node: np.ndarray,
        retry: np.ndarray,
    ) -> None:
        """The admission metrics of one batch, keyed like the per-request
        path touches them (step 2: fleet counter, 3: per-node counter,
        4: brownout counter and Retry-After gauge)."""
        accepted = reason == ADMITTED
        shed = (reason != ADMITTED) & (reason != CONNECTION)
        tally.by_group(2, "serve.admitted", None, accepted)
        tally.by_group(3, "serve.admit.accepted", "node", accepted, node)
        tally.by_group(2, "serve.rejected", None, shed)
        tally.by_group(3, "serve.admit.shed", "node", shed, node)
        tally.by_group(4, "serve.brownout.shed", None, reason == BROWNOUT)
        queue_sheds = np.flatnonzero(reason == QUEUE_LIMIT)
        if len(queue_sheds):
            tally.gauge(
                (int(queue_sheds[0]), 4), "serve.admit.retry_after_s",
                float(retry[queue_sheds[-1]]), len(queue_sheds),
            )

    def _fail_requests(
        self,
        failed: np.ndarray,
        node: np.ndarray,
        times: np.ndarray,
        tally: Optional["_MetricTally"],
    ) -> None:
        """Count the requests that hit a dead node (status 500) and feed
        each one to its breaker, in arrival order."""
        idx = np.flatnonzero(failed)
        if not len(idx):
            return
        health = self.health
        assert health is not None
        self.errors += len(idx)
        for i, node_id, at in zip(idx.tolist(), node[idx].tolist(), times[idx].tolist()):
            if tally is None:
                health.record_request_failure(node_id, at)
            else:
                tally.call((i, 1), partial(health.record_request_failure, node_id, at))
        if tally is not None:
            tally.by_group(2, "serve.errors", None, failed)
            tally.by_group(3, "serve.error", "node", failed, node)

    def _trace_batch(
        self,
        batch: "AdmissionBatch",
        partition: np.ndarray,
        times: np.ndarray,
        traces: Optional[Sequence[Optional[TraceContext]]],
    ) -> Tuple[Optional[List[int]], Optional[List[tuple]]]:
        """Span trees of one batch, in arrival order (tracing on only).

        Returns every request's trace id and the ``(trace_id, root,
        serve span)`` entries of the admitted ones, which the tick
        closes at completion.
        """
        tracer = self.request_tracer
        if tracer is None:
            return None, None
        trace_ids: List[int] = []
        admitted: List[tuple] = []
        migration = self.sim.migration_span_id
        rows = zip(
            batch.node.tolist(), partition.tolist(), batch.estimate.tolist(),
            batch.reason.tolist(), batch.retry_after_s.tolist(), times.tolist(),
        )
        for i, (node_id, part, estimate, code, retry_after, at) in enumerate(rows):
            ctx = traces[i] if traces is not None else None
            if ctx is None:
                ctx = tracer.mint()
            trace_ids.append(ctx.trace_id)
            root = tracer.begin_request(
                ctx, at, node=node_id, partition=part,
                queue_estimate=estimate, migration_span_id=migration,
            )
            if code == CONNECTION:
                tracer.record_error(root, at, reason=REASONS[CONNECTION])
            elif code == ADMITTED:
                admitted.append((ctx.trace_id, root, tracer.record_admitted(root, at)))
            else:
                tracer.record_shed(root, at, retry_after, reason=REASONS[code])
        return trace_ids, admitted

    def _finish_failed(
        self,
        batch: "AdmissionBatch",
        times: np.ndarray,
        priorities: Optional[np.ndarray],
        codes: Optional[np.ndarray],
        names: Sequence[str],
        trace_ids: Optional[List[int]],
        on_complete: Optional[OnComplete],
        sink: Optional["LoadgenReport"],
    ) -> None:
        """Resolve a batch's sheds (503) and errors (500) immediately."""
        failed = np.flatnonzero(batch.reason != ADMITTED)
        reason = batch.reason[failed]
        self.rejected_last_tick += int(np.count_nonzero(reason != CONNECTION))
        if self.tenancy is not None:
            for code in codes[failed].tolist():
                tenant = names[code]
                self._tenant_tick_bad[tenant] = self._tenant_tick_bad.get(tenant, 0) + 1
        status = np.where(reason == CONNECTION, 500, 503)
        if sink is not None:
            sink.record_failed(
                status,
                batch.retry_after_s[failed],
                reason == BROWNOUT,
                codes[failed] if codes is not None else None,
                names,
            )
        if on_complete is None:
            return
        for i, code, code_status in zip(failed.tolist(), reason.tolist(), status.tolist()):
            at = float(times[i])
            on_complete(
                TxnOutcome(
                    accepted=False,
                    status=code_status,
                    node_id=int(batch.node[i]),
                    submitted_at=at,
                    completed_at=at,
                    latency_ms=0.0,
                    retry_after_s=float(batch.retry_after_s[i]),
                    trace_id=trace_ids[i] if trace_ids is not None else None,
                    reason=REASONS[code],
                    priority=int(priorities[i]) if priorities is not None else 0,
                    tenant=names[codes[i]] if codes is not None else "",
                )
            )

    # ------------------------------------------------------------------
    # Tick path
    # ------------------------------------------------------------------
    @timed("engine.tick")
    def tick(self) -> Dict[str, float]:
        """Advance one engine step serving the admitted arrivals.

        Completions fold in as arrays: one latency draw per admitted
        request from the step's mixture, sequential sums for the running
        totals, and a :class:`TxnOutcome` only for requests that carry a
        callback.  Returns the engine step record, extended with the
        tick's admitted/rejected counts.
        """
        dt = self.sim.config.dt_seconds
        pending = self._pending
        admitted = self._pending_count
        self._pending = []
        self._pending_count = 0
        self._pending_per_node[:] = 0.0
        rejected = self.rejected_last_tick
        self.rejected_last_tick = 0
        self.machine_seconds += self.sim.machines_allocated * dt

        record = self.sim.step(admitted / dt)
        tel = self.telemetry
        slo = self.slo_monitor
        slo_good = 0
        slo_bad = rejected  # a 503 burns budget like an over-SLA reply

        if admitted:
            uniforms = self._rng.random(admitted)
            latencies_s = sample_latencies(self.sim.last_latency_components, uniforms)
            latencies_ms = latencies_s * 1000.0
            self.completed += admitted
            self.latency_sum_ms = _sequential_sum(self.latency_sum_ms, latencies_ms)
            if tel is not None:
                tel.histogram("serve.latency_ms").observe_many(latencies_ms)
            if slo is not None:
                good = int(np.count_nonzero(slo.classify_many(latencies_ms)))
                slo_good += good
                slo_bad += admitted - good
            if self.tenant_slos:
                self._fold_tenants(pending, latencies_ms)
            self._deliver(pending, latencies_s, latencies_ms)

        if slo is not None:
            # Empty ticks still advance the windows (alerts must resolve
            # once the errors age out, even with no traffic).
            slo.observe(self.sim.now, slo_good, slo_bad)
        if self.tenant_slos:
            for name, monitor in self.tenant_slos.items():
                monitor.observe(
                    self.sim.now,
                    self._tenant_tick_good.get(name, 0),
                    self._tenant_tick_bad.get(name, 0),
                )
            self._tenant_tick_good.clear()
            self._tenant_tick_bad.clear()

        self.ticks += 1
        if self.health is not None:
            self._run_health_checks()
        self._refresh_routing()
        queue_peak = float(self._node_queue.max())
        if queue_peak > self.max_node_queue_seconds:
            self.max_node_queue_seconds = queue_peak
        if tel is not None:
            tel.counter("serve.ticks").inc()
            tel.gauge("serve.node_queue_seconds").set(queue_peak)
            tel.gauge("serve.machines").set(float(self.sim.machines_allocated))
            tel.gauge("serve.machine_hours").set(self.machine_seconds / 3600.0)

        closed = self.monitor.record(float(admitted), dt)
        if closed:
            history = self.monitor.history()
            for value in history[len(history) - closed :]:
                if self.controller is not None:
                    self.controller.on_slot(self.sim, self._slot_index, float(value))
                self._slot_index += 1

        record["admitted"] = float(admitted)
        record["rejected"] = float(rejected)
        return record

    def _fold_tenants(self, pending: List["_Pending"], latencies_ms: np.ndarray) -> None:
        """Per-tenant served counters and SLO verdicts, each tenant
        against its own latency objective."""
        codes = np.concatenate([chunk.tenants for chunk in pending])
        names = self._tenant_names
        thresholds = np.array(
            [self.tenant_slos[name].config.latency_threshold_ms for name in names]
        )
        good = latencies_ms <= thresholds[codes]
        served = np.bincount(codes, minlength=len(names))
        good_counts = np.bincount(codes, weights=good, minlength=len(names))
        tel = self.telemetry
        # First-served order, so labelled counters are created in the
        # order the per-request fold would create them.
        present, first = np.unique(codes, return_index=True)
        for code in present[np.argsort(first)].tolist():
            name = names[code]
            n_good = int(good_counts[code])
            self._tenant_tick_good[name] = self._tenant_tick_good.get(name, 0) + n_good
            self._tenant_tick_bad[name] = (
                self._tenant_tick_bad.get(name, 0) + int(served[code]) - n_good
            )
            if tel is not None:
                tel.counter(labeled("serve.tenant.served", tenant=name)).inc(int(served[code]))

    def _deliver(
        self,
        pending: List["_Pending"],
        latencies_s: np.ndarray,
        latencies_ms: np.ndarray,
    ) -> None:
        """Close traces and hand completions to callbacks and sinks."""
        tracer = self.request_tracer
        start = 0
        for chunk in pending:
            stop = start + len(chunk.nodes)
            chunk_ms = latencies_ms[start:stop]
            if chunk.traces is not None or chunk.on_complete is not None:
                completed_at = (chunk.times + latencies_s[start:stop]).tolist()
                ms = chunk_ms.tolist()
                if chunk.traces is not None and tracer is not None:
                    for (_, root, serve_span), at, latency in zip(
                        chunk.traces, completed_at, ms
                    ):
                        tracer.finish_served(root, serve_span, at, latency)
                if chunk.on_complete is not None:
                    self._complete(chunk, completed_at, ms)
            if chunk.sink is not None:
                chunk.sink.record_served(chunk_ms, chunk.tenants, chunk.names)
            start = stop

    @staticmethod
    def _complete(chunk: "_Pending", completed_at: List[float], ms: List[float]) -> None:
        on_complete = chunk.on_complete
        names = chunk.names
        tenants = chunk.tenants.tolist() if chunk.tenants is not None else None
        for j, (node_id, at) in enumerate(zip(chunk.nodes.tolist(), chunk.times.tolist())):
            on_complete(
                TxnOutcome(
                    accepted=True,
                    status=200,
                    node_id=node_id,
                    submitted_at=at,
                    completed_at=completed_at[j],
                    latency_ms=ms[j],
                    trace_id=chunk.traces[j][0] if chunk.traces is not None else None,
                    tenant=names[tenants[j]] if tenants is not None else "",
                )
            )

    def _run_health_checks(self) -> None:
        """One probe round at the tick boundary; updates brownout state."""
        health = self.health
        assert health is not None
        now = self.sim.now
        failed = self.sim.cluster.failed_nodes()
        tracked = set(failed) | set(health.breakers)
        if self._router_view is not None:
            tracked |= {int(n) for n in np.flatnonzero(self._router_view > 0)}
        else:
            tracked |= {
                int(n) for n in np.flatnonzero(self.sim.cluster.node_weights() > 0)
            }
        health.probe(now, sorted(tracked), failed)

        brownout = self.resilience.brownout if self.resilience is not None else None
        engaged = brownout is not None and health.any_open()
        if engaged != self.brownout_active:
            self.brownout_active = engaged
            tel = self.telemetry
            if tel is not None:
                tel.gauge("serve.brownout").set(1.0 if engaged else 0.0)
                tel.counter(
                    "serve.brownout.engaged" if engaged else "serve.brownout.released"
                ).inc()
                tel.event(
                    "brownout", now, engaged=engaged,
                    open_nodes=[n for n, s in health.states().items() if s == OPEN],
                )

    # ------------------------------------------------------------------
    # Introspection (the admin endpoints read these)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def pending_requests(self) -> int:
        """Requests admitted but not yet resolved by a tick."""
        return self._pending_count

    @property
    def moves_completed(self) -> int:
        """Reconfigurations that ran to completion so far."""
        in_flight = 1 if self.sim.migration_active else 0
        return self.sim.moves_started - self.sim.migrations_aborted - in_flight

    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.completed if self.completed else 0.0

    @property
    def machine_hours(self) -> float:
        """Machine-hours consumed so far (machines integrated over ticks)."""
        return self.machine_seconds / 3600.0

    def healthz(self) -> Dict[str, object]:
        """Liveness/readiness snapshot for the ``/healthz`` endpoint.

        A firing SLO burn-rate alert reports ``degraded`` — it outranks
        ``shedding`` because it means user-visible error budget is
        burning, not merely that backpressure is engaged.
        """
        overloaded = (
            float(self._node_queue.max()) > self.admission.config.queue_limit_seconds
        )
        status = "shedding" if overloaded else "ok"
        if self.brownout_active:
            status = "brownout"
        if self.slo_monitor is not None and self.slo_monitor.alerting:
            status = "degraded"
        health: Dict[str, object] = {
            "status": status,
            "now": self.sim.now,
            "machines": self.sim.machines_allocated,
            "migration_active": self.sim.migration_active,
            "ticks": self.ticks,
            "accepted": self.admission.accepted,
            "rejected": self.admission.rejected,
            "completed": self.completed,
            "moves_started": self.sim.moves_started,
            "moves_completed": self.moves_completed,
            "max_node_queue_seconds": round(self.max_node_queue_seconds, 3),
        }
        if self.health is not None:
            health["errors"] = self.errors
            health["brownout"] = self.brownout_active
            health["brownout_sheds"] = self.brownout_sheds
            health["breakers"] = {
                str(node): state for node, state in self.health.states().items()
            }
        if self.slo_monitor is not None:
            health["slo"] = self.slo_monitor.status()
        if self.tenancy is not None:
            admission = self.tenancy.summary()
            health["tenants"] = {
                name: {
                    **admission[name],
                    "slo": self.tenant_slos[name].status(),
                }
                for name in self.tenancy.registry.names()
            }
            # A firing per-tenant alert degrades overall health exactly
            # like the fleet monitor does.
            if any(m.alerting for m in self.tenant_slos.values()):
                health["status"] = "degraded"
        return health
