"""Asyncio HTTP front-end for the serving layer (``repro serve``).

A deliberately dependency-free HTTP/1.1 server over ``asyncio`` streams
(the container bakes in no web framework, and the endpoints are tiny):

* ``POST /txn`` (``GET`` also accepted) — submit one transaction.  The
  response resolves on the next engine tick: ``200`` with the sampled
  latency, or ``503`` with a ``Retry-After`` header when admission
  control sheds the request.  With tenancy configured an ``X-Tenant``
  header attributes the request to a registry tenant; unknown names
  get ``403`` and a ``serve.tenant.rejected`` count.
* ``GET /healthz`` — liveness/readiness JSON (see
  :meth:`repro.serve.engine.ServerEngine.healthz`).
* ``GET /metrics`` — Prometheus text exposition of the telemetry
  registry (:func:`repro.telemetry.export.render_prometheus`), plus the
  wall-clock perf stages when a recorder is attached.
* ``GET /timeseries?name=&window=`` — JSON points from the attached
  :class:`~repro.telemetry.timeseries.TimeSeriesStore` (no ``name``
  returns the series index); the live-dashboard data API.
* ``GET /dashboard`` — single-file HTML operator view polling
  ``/metrics``, ``/healthz`` and ``/timeseries``.
* ``POST /shutdown`` — begin a graceful drain: in-flight transactions
  are resolved by one final engine tick, new transactions get ``503``
  with ``Retry-After``, and the server exits once the drain completes
  (used by the CI smoke to exit cleanly after probing).

The engine tick loop runs as an asyncio task in one of two modes:

* **wall** — one tick every ``dt / speedup`` real seconds;
* **virtual** — zero sleeps between ticks (one cooperative yield per
  tick keeps request handling responsive), so a simulated day races by
  in however long the steps take while the admin endpoints stay live.

An optional embedded open-loop arrival schedule is fired in engine time
just before each tick — that is how the CI smoke load-tests a virtual
run without a wall-clock client.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import math
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.checkpoint import CheckpointConfig, capture_engine, is_quiescent
from repro.serve.checkpoint import write_checkpoint as _write_checkpoint
from repro.serve.engine import ServerEngine, TxnOutcome
from repro.serve.loadgen import LoadgenReport, submit_arrivals
from repro.serve.resilience import ResilientClient, RetryConfig
from repro.telemetry.export import render_prometheus
from repro.telemetry.perf import PerfRecorder, render_prometheus_perf
from repro.telemetry.timeseries import TimeSeriesStore

_MAX_HEADER_LINES = 64


def _http_response(
    status: int,
    body: str,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        403: "Forbidden",
        404: "Not Found",
        503: "Service Unavailable",
    }.get(status, "Error")
    payload = body.encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for key, value in (extra_headers or {}).items():
        headers.append(f"{key}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


class ServeApp:
    """HTTP transport + tick pacing around a :class:`ServerEngine`.

    Args:
        engine: The serving driver.
        host/port: Bind address (port 0 picks a free port).
        virtual: Tick as fast as the event loop allows (no sleeps).
        speedup: Wall mode only — real seconds per tick are
            ``dt / speedup``.
        duration_s: Stop ticking once this much engine time has passed
            (``None`` = serve until shut down).
        linger_s: Keep the admin endpoints alive this many real seconds
            after the run completes (so probes can land), unless
            ``/shutdown`` arrives first.
        arrivals: Optional embedded open-loop schedule (engine-time
            timestamps); outcomes accumulate in :attr:`loadgen_report`.
        retry: Per-request resilience policy for the embedded loadgen
            (bounded retries with backoff, optional hedging); retry
            expiries are scheduled in engine time and fired just before
            the tick that covers them.
        retry_seed: Seed of the retry client's jitter RNG.
        checkpoint: Snapshot the serving state to this file on the
            configured cadence (quiescent tick boundaries only).  The
            snapshot uses the same format as
            :meth:`repro.serve.session.ServeSession.resume` consumes.
        tenant_indices: Optional per-arrival tenant index array (from
            :func:`repro.tenancy.composite_arrivals`), parallel to
            ``arrivals`` — tags the embedded schedule when the engine
            carries a tenant registry.
        tenant_names: Registry names the indices point into.
        timeseries: Optional ring-buffer store sampled from the engine's
            metrics once per tick; backs ``GET /timeseries`` and the
            dashboard sparklines.
        perf: Optional wall-clock recorder rendered into ``/metrics``
            (``repro_perf_*`` families) — never into debug bundles.
        cost_per_machine_hour: Dollar rate behind the ``cost_dollars``
            field of ``/healthz`` (0 hides the estimate).
    """

    def __init__(
        self,
        engine: ServerEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        virtual: bool = False,
        speedup: float = 1.0,
        duration_s: Optional[float] = None,
        linger_s: float = 0.0,
        arrivals: Optional[np.ndarray] = None,
        retry: Optional[RetryConfig] = None,
        retry_seed: int = 0,
        checkpoint: Optional[CheckpointConfig] = None,
        tenant_indices: Optional[np.ndarray] = None,
        tenant_names: Optional[List[str]] = None,
        timeseries: Optional[TimeSeriesStore] = None,
        perf: Optional[PerfRecorder] = None,
        cost_per_machine_hour: float = 0.0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.virtual = virtual
        self.speedup = max(float(speedup), 1e-9)
        self.duration_s = duration_s
        self.linger_s = max(float(linger_s), 0.0)
        self._arrivals = (
            np.asarray(arrivals, dtype=np.float64) if arrivals is not None else None
        )
        self._arrival_index = 0
        if (tenant_indices is None) != (tenant_names is None):
            raise ConfigurationError("tenant_indices and tenant_names go together")
        self._tenant_indices = (
            np.asarray(tenant_indices, dtype=np.int64)
            if tenant_indices is not None
            else None
        )
        if self._tenant_indices is not None and (
            self._arrivals is None
            or len(self._tenant_indices) != len(self._arrivals)
        ):
            raise ConfigurationError(
                "tenant_indices must parallel the embedded arrival schedule"
            )
        self._tenant_names = list(tenant_names) if tenant_names is not None else None
        if timeseries is not None and engine.telemetry is None:
            raise ConfigurationError("a timeseries store needs engine telemetry")
        self.timeseries = timeseries
        self.perf = perf
        self.cost_per_machine_hour = float(cost_per_machine_hour)
        self.loadgen_report = LoadgenReport()
        # Engine-time timers for retry/hedge expiries: (when, seq, fn),
        # drained alongside the embedded arrivals before each tick.
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0
        self.client: Optional[ResilientClient] = (
            ResilientClient(
                engine,
                self.loadgen_report,
                retry,
                self._schedule_engine_time,
                seed=retry_seed,
            )
            if retry is not None
            else None
        )
        self.checkpoint = checkpoint
        self.checkpoints_written = 0
        self._checkpoint_due = (
            engine.now + checkpoint.every_s if checkpoint is not None else None
        )
        self.run_complete = False
        self.draining = False
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Tick loop
    # ------------------------------------------------------------------
    def _schedule_engine_time(self, when: float, fn: Callable[[], None]) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (float(when), self._timer_seq, fn))

    def _next_timer(self) -> float:
        return self._timers[0][0] if self._timers else math.inf

    def _fire_embedded(self, until: float) -> None:
        """Fire arrivals and due retry timers in engine-time order.

        A timer due at or before the next arrival fires first; each run
        of arrivals up to the next timer (or ``until``) is submitted as
        one batch.
        """
        arrivals = self._arrivals
        if arrivals is None:
            arrivals = np.empty(0)

        def stop_index() -> int:
            bound = min(self._next_timer(), until)
            return int(np.searchsorted(arrivals, bound, side="left"))

        while True:
            timer = self._next_timer()
            index = self._arrival_index
            arrival = float(arrivals[index]) if index < len(arrivals) else math.inf
            if timer < until and timer <= arrival:
                _, _, fn = heapq.heappop(self._timers)
                fn()
                continue
            if arrival >= until:
                return
            self._arrival_index = submit_arrivals(
                self.engine, self.loadgen_report, self.client, arrivals, index,
                stop_index, self._tenant_indices, self._tenant_names,
            )

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint is None or self._checkpoint_due is None:
            return
        if self.engine.now < self._checkpoint_due - 1e-9:
            return
        if self.client is not None and self.client.outstanding:
            return  # deferred: scheduled retries would be lost
        if self._timers or not is_quiescent(self.engine):
            return
        controller = self.engine.controller
        control_state = None
        if controller is not None and hasattr(controller, "state_dict"):
            control_state = controller.state_dict()
        state: Dict[str, object] = {
            "clock_now": self.engine.now,
            "ran_s": self.engine.now,
            "engine": capture_engine(self.engine),
            "control": control_state,
            "loadgen": {
                "cursor": self._arrival_index,
                "report": asdict(self.loadgen_report),
            },
            "client": self.client.state_dict() if self.client is not None else None,
        }
        digest = _write_checkpoint(self.checkpoint.path, state)
        self.checkpoints_written += 1
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter("serve.checkpoints").inc()
            tel.event(
                "checkpoint",
                self.engine.now,
                path=self.checkpoint.path,
                sha256=digest[:16],
            )
        while self._checkpoint_due <= self.engine.now + 1e-9:
            self._checkpoint_due += self.checkpoint.every_s

    def _sample_timeseries(self) -> None:
        if self.timeseries is not None:
            self.timeseries.sample(
                self.engine.telemetry.metrics, self.engine.now
            )

    async def _ticker(self) -> None:
        dt = self.engine.sim.config.dt_seconds
        try:
            while not self._stop.is_set() and not self.draining:
                if self.duration_s is not None and (
                    self.engine.now >= self.duration_s - 1e-9
                ):
                    break
                if self.virtual:
                    await asyncio.sleep(0)
                else:
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), timeout=dt / self.speedup
                        )
                    except asyncio.TimeoutError:
                        pass
                self._fire_embedded(until=self.engine.now + dt)
                self.engine.tick()
                self._sample_timeseries()
                self._maybe_checkpoint()
            if self.engine.pending_requests:
                # Graceful drain: one final tick resolves every admitted
                # in-flight request before the server stops answering.
                self.engine.tick()
                self._sample_timeseries()
            self.run_complete = True
            if self.duration_s is not None:
                self.loadgen_report.duration_s = min(self.duration_s, self.engine.now)
            if self.linger_s > 0 and not self._stop.is_set() and not self.draining:
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=self.linger_s)
                except asyncio.TimeoutError:
                    pass
        finally:
            self.run_complete = True
            self._stop.set()

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, str]]:
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        request = {"method": parts[0].upper(), "path": parts[1]}
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            key = name.strip().lower()
            if key == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
            elif key == "x-tenant":
                request["tenant"] = value.strip()
        if content_length > 0:
            await reader.readexactly(min(content_length, 1 << 20))
        return request

    async def _submit_txn(self, tenant: str = "") -> bytes:
        draining = _http_response(
            503, json.dumps({"error": "server is draining"}),
            extra_headers={"Retry-After": "1"},
        )
        if self.draining or self.run_complete or self._stop.is_set():
            # Draining or stopped: no new work is admitted; fail fast
            # with a Retry-After instead of hanging the client.
            return draining
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[TxnOutcome]" = loop.create_future()

        def complete(outcome: TxnOutcome) -> None:
            if not future.done():
                future.set_result(outcome)

        tracer = self.engine.request_tracer
        trace = tracer.mint("http") if tracer is not None else None
        self.engine.submit(
            complete, now=self.engine.now, trace=trace, tenant=tenant
        )
        # The tick that resolves the future may never come if the run
        # ends first — race it against the stop event.
        stop_waiter = asyncio.ensure_future(self._stop.wait())
        done, _ = await asyncio.wait(
            {future, stop_waiter}, return_when=asyncio.FIRST_COMPLETED
        )
        if future not in done:
            return draining
        stop_waiter.cancel()
        outcome = future.result()
        if outcome.accepted:
            payload: Dict[str, object] = {
                "status": "ok",
                "latency_ms": round(outcome.latency_ms, 3),
                "node": outcome.node_id,
                "submitted_at": outcome.submitted_at,
            }
            if outcome.trace_id is not None:
                payload["trace_id"] = outcome.trace_id
            if outcome.tenant:
                payload["tenant"] = outcome.tenant
            return _http_response(200, json.dumps(payload))
        shed: Dict[str, object] = {
            "status": "shed",
            "retry_after_s": outcome.retry_after_s,
            "node": outcome.node_id,
        }
        if outcome.trace_id is not None:
            shed["trace_id"] = outcome.trace_id
        body = json.dumps(shed)
        return _http_response(
            503, body,
            extra_headers={"Retry-After": str(int(outcome.retry_after_s) + 1)},
        )

    def _resolve_tenant(
        self, header: str
    ) -> Tuple[str, Optional[bytes]]:
        """Map an ``X-Tenant`` header to a registry tenant.

        Returns ``(tenant, None)`` on success (empty tenant when no
        header was sent) or ``("", 403 response)`` when the name is not
        in the registry — counted as ``serve.tenant.rejected``.
        """
        if not header:
            return "", None
        tenancy = self.engine.tenancy
        if tenancy is not None and header in tenancy.registry.names():
            return header, None
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter("serve.tenant.rejected").inc()
        known = tenancy.registry.names() if tenancy is not None else []
        return "", _http_response(
            403,
            json.dumps({"error": f"unknown tenant {header!r}", "tenants": known}),
        )

    def _timeseries_response(self, query: str) -> bytes:
        if self.timeseries is None:
            return _http_response(
                404, json.dumps({"error": "no timeseries store attached"})
            )
        params = parse_qs(query)
        name = params.get("name", [""])[0]
        if not name:
            return _http_response(200, json.dumps(self.timeseries.summary()))
        try:
            window = int(params.get("window", ["1"])[0])
        except ValueError:
            return _http_response(
                400, json.dumps({"error": "window must be an integer tick count"})
            )
        try:
            points = self.timeseries.query(name, window=window)
        except ConfigurationError as exc:
            return _http_response(400, json.dumps({"error": str(exc)}))
        return _http_response(
            200, json.dumps({"name": name, "window": window, "points": points})
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(self._read_request(reader), timeout=30.0)
            if request is None:
                return
            split = urlsplit(request["path"])
            path = split.path
            if path == "/healthz":
                health = dict(self.engine.healthz())
                health["run_complete"] = self.run_complete
                health["draining"] = self.draining
                health["machine_hours"] = round(self.engine.machine_hours, 6)
                if self.cost_per_machine_hour > 0:
                    health["cost_dollars"] = round(
                        self.engine.machine_hours * self.cost_per_machine_hour, 4
                    )
                response = _http_response(200, json.dumps(health))
            elif path == "/metrics":
                text = (
                    render_prometheus(self.engine.telemetry)
                    if self.engine.telemetry is not None
                    else "# no telemetry registry installed\n"
                )
                if self.perf is not None:
                    text += render_prometheus_perf(self.perf)
                response = _http_response(
                    200, text, content_type="text/plain; version=0.0.4"
                )
            elif path == "/timeseries":
                response = self._timeseries_response(split.query)
            elif path == "/dashboard":
                from repro.serve.dashboard import DASHBOARD_HTML

                response = _http_response(
                    200, DASHBOARD_HTML, content_type="text/html; charset=utf-8"
                )
            elif path == "/txn":
                tenant, reject = self._resolve_tenant(request.get("tenant", ""))
                response = reject if reject is not None else (
                    await self._submit_txn(tenant)
                )
            elif path == "/shutdown" and request["method"] == "POST":
                response = _http_response(
                    200, json.dumps({"status": "stopping", "draining": True})
                )
                # Graceful drain: stop admitting, let the ticker resolve
                # in-flight requests with a final tick, then exit.  If
                # the run already completed (linger phase) there is
                # nothing in flight and the stop is immediate.
                self.draining = True
                self._wake.set()
                if self.run_complete:
                    self._stop.set()
            else:
                response = _http_response(404, json.dumps({"error": "not found"}))
            writer.write(response)
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    async def _bind(self, retries: int = 5, delay_s: float = 0.05):
        """``asyncio.start_server`` with the transport layer's bind-retry
        policy: transient EADDRINUSE/EADDRNOTAVAIL (a just-released port
        still in TIME_WAIT — the CI flake class) backs off and retries;
        real misconfiguration raises immediately."""
        from repro.serve.transport import _BIND_RETRY_ERRNOS

        last: Optional[OSError] = None
        for attempt in range(max(1, retries)):
            try:
                return await asyncio.start_server(
                    self._handle, self.host, self.port
                )
            except OSError as exc:
                if exc.errno not in _BIND_RETRY_ERRNOS:
                    raise
                last = exc
                await asyncio.sleep(delay_s * (attempt + 1))
        raise ConfigurationError(
            f"could not bind {self.host}:{self.port} after {retries} "
            f"attempts: {last}"
        )

    # ------------------------------------------------------------------
    async def run(self, on_ready: Optional[Callable[["ServeApp"], None]] = None) -> None:
        """Serve until the run (plus linger) completes or /shutdown."""
        self._server = await self._bind()
        self.port = self._server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(self)
        ticker = asyncio.create_task(self._ticker())
        try:
            await self._stop.wait()
        finally:
            ticker.cancel()
            try:
                await ticker
            except asyncio.CancelledError:
                pass
            self._server.close()
            await self._server.wait_closed()


# ----------------------------------------------------------------------
# Wall-clock HTTP load-generation client (``repro loadgen``)
# ----------------------------------------------------------------------
async def run_loadgen_client(
    url: str,
    arrivals: np.ndarray,
    *,
    speedup: float = 1.0,
    concurrency: int = 128,
) -> LoadgenReport:
    """Fire an arrival schedule at a running server over HTTP.

    Open-loop: request launch times follow the schedule (compressed by
    ``speedup``) regardless of completions, with a concurrency cap as
    the only safety valve.  Returns the aggregated report.
    """
    split = urlsplit(url if "//" in url else f"http://{url}")
    host = split.hostname or "127.0.0.1"
    port = split.port or 80
    report = LoadgenReport()
    semaphore = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()

    async def one(when: float) -> None:
        async with semaphore:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                report.record(
                    TxnOutcome(False, 503, -1, when, when, 0.0, retry_after_s=1.0)
                )
                return
            try:
                writer.write(
                    b"POST /txn HTTP/1.1\r\nHost: %b\r\nContent-Length: 0\r\n"
                    b"Connection: close\r\n\r\n" % host.encode("ascii")
                )
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                retry_after = 0.0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "retry-after":
                        retry_after = float(value.strip())
                body = await reader.read()
                latency_ms = 0.0
                if status == 200:
                    try:
                        latency_ms = float(json.loads(body).get("latency_ms", 0.0))
                    except (ValueError, AttributeError):
                        latency_ms = 0.0
                report.record(
                    TxnOutcome(
                        accepted=status == 200,
                        status=status,
                        node_id=-1,
                        submitted_at=when,
                        completed_at=when,
                        latency_ms=latency_ms,
                        retry_after_s=retry_after,
                    )
                )
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
                report.record(
                    TxnOutcome(False, 503, -1, when, when, 0.0, retry_after_s=1.0)
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # pragma: no cover
                    pass

    start = loop.time()
    tasks = []
    for when in np.asarray(arrivals, dtype=np.float64):
        delay = float(when) / max(speedup, 1e-9) - (loop.time() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(float(when))))
    if tasks:
        await asyncio.gather(*tasks)
    report.duration_s = float(arrivals[-1]) if len(arrivals) else 0.0
    return report
