"""Admission control and backpressure for the serving layer.

The engine's partition queues are fluid and, in the batch simulations,
bounded only by ``EngineConfig.max_queue_seconds`` (the closed-loop
client assumption).  A live server cannot rely on clients to stop
sending: an open-loop flash crowd would push every queue to the cap and
hold p99 at the SLA ceiling for the whole spike.  Load shedding converts
that into explicit, fast 503 rejects instead — the overloaded node keeps
serving the requests it already accepted at survivable latency, and the
reject carries a ``Retry-After`` hint sized to the estimated drain time.

Policy (per request):

1. the router picks a partition (data-share weighted), giving a node;
2. the node's estimated queueing delay is its engine backlog (seconds of
   service) plus the requests already admitted this tick;
3. if that exceeds ``queue_limit_seconds`` the request is shed.

:meth:`AdmissionController.admit_batch` applies the same policy to a run
of requests at once: the estimate grows with every admit, so each node
admits a prefix of the run's requests to it, found with one cumulative
count per node.

``queue_limit_seconds`` should sit below the engine's own
``max_queue_seconds`` cap — then shedding, not the cap, is what bounds
the queues, which is the behaviour the spike tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled


@dataclass(frozen=True)
class AdmissionConfig:
    """Shedding policy knobs.

    Attributes:
        queue_limit_seconds: Per-node queueing-delay bound; requests that
            would land behind a longer queue are rejected.
        retry_after_floor_s: Minimum ``Retry-After`` hint, seconds.
    """

    queue_limit_seconds: float = 10.0
    retry_after_floor_s: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_limit_seconds <= 0:
            raise ConfigurationError("queue_limit_seconds must be positive")
        if self.retry_after_floor_s < 0:
            raise ConfigurationError("retry_after_floor_s must be >= 0")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes:
        accepted: Whether the request was admitted to the engine.
        node_id: Node the request was routed to.
        est_queue_seconds: Estimated queueing delay at decision time.
        retry_after_s: Backoff hint for rejected requests (0 when
            accepted); HTTP surfaces it as a ``Retry-After`` header.
        reason: Why the request was rejected (``"queue-limit"``,
            ``"quota"``, ``"brownout"``, ``"connection"``); empty when
            accepted.
    """

    accepted: bool
    node_id: int
    est_queue_seconds: float
    retry_after_s: float = 0.0
    reason: str = ""

    @property
    def status(self) -> int:
        return 200 if self.accepted else 503

    @property
    def retry_after_whole_seconds(self) -> int:
        return int(math.ceil(self.retry_after_s))


class AdmissionController:
    """Stateless-per-request shedding decisions with telemetry."""

    def __init__(
        self, config: Optional[AdmissionConfig] = None, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.config = config or AdmissionConfig()
        self.telemetry = telemetry
        self.accepted = 0
        self.rejected = 0

    def decide(
        self,
        node_id: int,
        est_queue_seconds: float,
        *,
        limit_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit or shed a request bound for ``node_id``.

        Args:
            node_id: Routed node.
            est_queue_seconds: The node's current estimated queueing
                delay, including requests already admitted this tick.
            limit_s: Override for the configured queue limit (brownout
                passes a tightened one).
        """
        limit = self.config.queue_limit_seconds if limit_s is None else limit_s
        tel = self.telemetry
        if est_queue_seconds <= limit:
            self.accepted += 1
            if tel is not None:
                tel.counter("serve.admitted").inc()
                tel.counter(labeled("serve.admit.accepted", node=node_id)).inc()
            return AdmissionDecision(True, node_id, est_queue_seconds)
        self.rejected += 1
        retry_after = max(
            self.config.retry_after_floor_s, est_queue_seconds - limit
        )
        if tel is not None:
            tel.counter("serve.rejected").inc()
            tel.counter(labeled("serve.admit.shed", node=node_id)).inc()
            tel.gauge("serve.admit.retry_after_s").set(retry_after)
        return AdmissionDecision(
            False, node_id, est_queue_seconds, retry_after, reason="queue-limit"
        )

    def admit_batch(
        self,
        node_ids: np.ndarray,
        queue_s: np.ndarray,
        pending: np.ndarray,
        rates: np.ndarray,
        *,
        limit_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Admit or shed a run of requests in arrival order.

        Equivalent to :meth:`decide` once per request, where request
        ``i`` bound for node ``n`` is estimated at ``queue_s[n] + c /
        rates[n]`` and ``c`` counts the requests admitted to ``n`` before
        it: ``pending[n]`` earlier in the tick plus those earlier in the
        run.  That estimate never falls as ``c`` grows, so node ``n``
        admits the first ``A`` requests of the run routed to it and sheds
        the rest, all of which see ``c = pending[n] + A``.  Records no
        telemetry (the caller batches it).

        Returns:
            ``(accepted, estimates, retry_after_s)`` per request, the
            hint 0 where accepted.
        """
        limit = self.config.queue_limit_seconds if limit_s is None else limit_s
        rank = prior_in_group(node_ids)
        base = pending[node_ids]
        queue = queue_s[node_ids]
        rate = rates[node_ids]
        estimates = queue + (base + rank) / rate
        accepted = estimates <= limit
        admitted = int(np.count_nonzero(accepted))
        retry = np.zeros(len(node_ids))
        if admitted < len(node_ids):
            per_node = np.bincount(node_ids[accepted], minlength=len(pending))
            estimates = queue + (base + np.minimum(rank, per_node[node_ids])) / rate
            shed = ~accepted
            retry[shed] = np.maximum(
                self.config.retry_after_floor_s, estimates[shed] - limit
            )
        self.accepted += admitted
        self.rejected += len(node_ids) - admitted
        return accepted, estimates, retry

    def shed_batch(self, retry_after_s: np.ndarray) -> np.ndarray:
        """Reject a run outright (brownout, tenant quota) like
        :meth:`shed_outright`, without telemetry; returns the hints: the
        configured floor, raised to each finite known wait."""
        self.rejected += len(retry_after_s)
        floor = self.config.retry_after_floor_s
        return np.where(
            np.isfinite(retry_after_s), np.maximum(floor, retry_after_s), floor
        )

    def shed_outright(
        self,
        node_id: int,
        est_queue_seconds: float,
        *,
        reason: str,
        retry_after_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Reject without consulting the queue limit (brownout and
        tenant-quota shedding).

        ``retry_after_s`` overrides the configured floor when the caller
        knows the exact wait — a tenant quota shed carries the token
        bucket's deterministic time-to-next-token.
        """
        self.rejected += 1
        tel = self.telemetry
        if tel is not None:
            tel.counter("serve.rejected").inc()
            tel.counter(labeled("serve.admit.shed", node=node_id)).inc()
            if reason == "brownout":
                tel.counter("serve.brownout.shed").inc()
        retry_after = self.config.retry_after_floor_s
        if retry_after_s is not None and math.isfinite(retry_after_s):
            retry_after = max(retry_after, retry_after_s)
        return AdmissionDecision(
            False,
            node_id,
            est_queue_seconds,
            retry_after,
            reason=reason,
        )

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def reject_rate(self) -> float:
        return self.rejected / self.total if self.total else 0.0


def prior_in_group(keys: np.ndarray, flags: Optional[np.ndarray] = None) -> np.ndarray:
    """For each position ``i``, how many ``j < i`` have ``keys[j] ==
    keys[i]`` (and ``flags[j]`` set, when given)."""
    n = len(keys)
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    if flags is None:
        counted = np.ones(n, dtype=np.int64)
    else:
        counted = flags[order].astype(np.int64)
    before = np.cumsum(counted)
    before -= counted
    grouped = keys[order]
    starts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    if len(starts):
        bounds = np.concatenate(([0], starts, [n]))
        before -= np.repeat(before[bounds[:-1]], np.diff(bounds))
    out = np.empty(n, dtype=np.int64)
    out[order] = before
    return out
