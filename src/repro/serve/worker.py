"""Worker process for the distributed serving path.

One worker owns one :class:`~repro.serve.engine.ServerEngine` shard —
its own routing RNG, admission controller, load monitor and (optionally)
online control loop — and advances it in lock step with the edge: every
``step`` message carries the arrivals routed to this shard for one tick
as columns, the worker submits them as one batch, ticks the engine once,
and replies with the tick's terminal results as columns plus a small
health advertisement (machines, current queue estimate).  Because the
edge is the only initiator and each request gets exactly one reply, the
distributed session is deterministic regardless of process scheduling —
the same property the virtual clock gives the single-process session.

The command protocol (JSON over :mod:`repro.serve.transport`)::

    {"cmd": "hello"}                      -> identity + capacity ad
    {"cmd": "step", "times": [...], ...}  -> tick results + capacity ad
    {"cmd": "healthz"}                    -> full engine healthz
    {"cmd": "capture"}                    -> engine+control snapshot
    {"cmd": "restore", "state": {...}}    -> ok (fresh engines only)
    {"cmd": "telemetry"}                  -> metrics/spans/events snapshot
    {"cmd": "telemetry_delta"}            -> new-or-changed metrics/events
    {"cmd": "shutdown"}                   -> ok; the process exits

A ``step`` frame holds one entry per request in each column, in arrival
order (see :func:`step_message`); float columns travel packed
(:func:`~repro.serve.transport.pack_floats`), integer columns as JSON
lists::

    times         packed submission times, finite and sorted  (required)
    priorities    0 = normal, 1 = sheddable in brownout        (required)
    trace_ids     edge-minted trace ids, int or null     (only when traced)
    tenants       index into tenant_names              (only when tenanted)
    tenant_names  the tenant name table                (only when tenanted)

and its reply carries the tick's results as columns (see
:func:`parse_step_reply`)::

    failed        positions (in the frame) of the requests that failed,
                  in arrival order
    status        503 (shed) or 500 (error), per failure
    retry_after_s packed Retry-After hints, per failure
    reason        "queue-limit", "quota", "brownout" or "connection",
                  per failure
    latency_ms    packed latencies of the served requests — the positions
                  not in ``failed`` — in admission (= arrival) order
    completed_at  packed completion times of the served requests (only
                  when the frame carried trace ids: the edge closes its
                  spans with them)

The edge knows each request's time, tenant and trace id from the frame
it sent, so the reply does not repeat them.

Every reply carries ``"ok"``; a bad command or a malformed frame comes
back as ``{"ok": false, "error": ...}`` so a worker never dies on bad
input (it dies on a broken transport, which is the edge going away).

:class:`WorkerHandle` is the edge-side proxy.  Its ``inproc`` mode
drives a :class:`WorkerServer` directly in-process through the same
message dicts — byte-identical protocol, no sockets — which is what the
unit tests (and coverage) exercise; ``pipe`` and ``tcp`` put a real
process boundary behind the identical messages.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ReproError, TransportError
from repro.serve.admission import AdmissionConfig
from repro.serve.checkpoint import capture_engine, ensure_quiescent, restore_engine
from repro.serve.engine import ADMITTED, CONNECTION, REASONS, ServerEngine, TxnOutcome
from repro.serve.transport import (
    DEFAULT_TIMEOUT_S,
    PipeTransport,
    TcpTransport,
    connect_transport,
    pack_floats,
    unpack_floats,
)
from repro.telemetry import Telemetry
from repro.telemetry.merge import TelemetryDeltaTracker
from repro.telemetry.perf import maybe_span
from repro.telemetry.requesttrace import TraceContext

#: Transport modes a distributed session can run its workers over.
TRANSPORT_MODES = ("pipe", "tcp", "inproc")

_SPAWN = multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class WorkerSpec:
    """JSON-able recipe for one worker's engine shard.

    The spec crosses the process boundary (spawn pickles it), so it
    holds only plain values — the worker builds the engine itself with
    :func:`build_worker_engine`.
    """

    worker_id: int
    initial_nodes: int = 1
    max_nodes: int = 4
    saturation_rate_per_node: float = 438.0
    db_size_kb: float = 1106.0 * 1024.0
    slot_seconds: float = 60.0
    interval_seconds: float = 300.0
    queue_limit_seconds: float = 10.0
    seed: int = 0
    control: str = "none"
    spar: Dict[str, int] = field(default_factory=dict)
    refit_every: int = 10080
    trace_requests: bool = False
    collect_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ConfigurationError("worker_id must be >= 0")
        if self.control not in ("online", "reactive", "none"):
            raise ConfigurationError(
                f"unknown worker control {self.control!r}; "
                "use online, reactive or none"
            )
        if self.trace_requests and not self.collect_telemetry:
            raise ConfigurationError(
                "trace_requests needs collect_telemetry on the worker"
            )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkerSpec":
        return cls(**data)  # type: ignore[arg-type]


def build_worker_engine(
    spec: WorkerSpec, telemetry: Optional[Telemetry] = None
) -> ServerEngine:
    """Construct the engine shard a spec describes (mirrors the CLI)."""
    from repro.core.params import SystemParameters
    from repro.engine.simulator import EngineConfig

    config = EngineConfig(
        max_nodes=spec.max_nodes,
        saturation_rate_per_node=spec.saturation_rate_per_node,
        db_size_kb=spec.db_size_kb,
    )
    params = SystemParameters.from_saturation(
        spec.saturation_rate_per_node, interval_seconds=spec.interval_seconds
    )
    controller = None
    if spec.control == "online":
        from repro.prediction.online import OnlinePredictor
        from repro.prediction.spar import SPARPredictor
        from repro.serve.control import OnlineControlLoop

        spar_kwargs = {
            "period": 288, "n_periods": 3, "n_recent": 6, "max_horizon": 12,
        }
        spar_kwargs.update({k: int(v) for k, v in spec.spar.items()})
        online = OnlinePredictor(
            SPARPredictor(**spar_kwargs), refit_every=spec.refit_every
        )
        controller = OnlineControlLoop(
            params,
            online,
            measurement_slot_seconds=spec.slot_seconds,
            max_machines=spec.max_nodes,
        )
    elif spec.control == "reactive":
        from repro.core.controller import ReactiveController

        controller = ReactiveController(
            params,
            max_machines=spec.max_nodes,
            measurement_slot_seconds=spec.slot_seconds,
        )
    return ServerEngine(
        engine_config=config,
        initial_nodes=spec.initial_nodes,
        slot_seconds=spec.slot_seconds,
        admission=AdmissionConfig(queue_limit_seconds=spec.queue_limit_seconds),
        controller=controller,
        seed=spec.seed,
        telemetry=telemetry,
        trace_requests=spec.trace_requests,
    )


# ----------------------------------------------------------------------
# The step frame and its reply
# ----------------------------------------------------------------------
class StepColumns(NamedTuple):
    """A validated ``step`` frame (see the module docstring)."""

    times: np.ndarray
    priorities: np.ndarray
    trace_ids: Optional[List[Optional[int]]]
    tenants: Optional[np.ndarray]
    tenant_names: List[str]


class StepReply(NamedTuple):
    """A parsed ``step`` reply: failures by frame position, then the
    served requests' latencies (and completion times when traced)."""

    failed: np.ndarray
    status: np.ndarray
    retry_after_s: np.ndarray
    reason: np.ndarray
    latency_ms: np.ndarray
    completed_at: Optional[np.ndarray]


def step_message(
    times: np.ndarray,
    priorities: np.ndarray,
    trace_ids: Optional[Sequence[int]] = None,
    tenants: Optional[np.ndarray] = None,
    tenant_names: Sequence[str] = (),
) -> Dict[str, object]:
    """The ``step`` frame for one worker's share of a tick."""
    message: Dict[str, object] = {
        "cmd": "step",
        "times": pack_floats(times),
        "priorities": priorities.tolist(),
    }
    if trace_ids is not None:
        message["trace_ids"] = list(trace_ids)
    if tenants is not None:
        message["tenants"] = tenants.tolist()
        message["tenant_names"] = list(tenant_names)
    return message


def _int_column(message: Dict[str, object], key: str, n: int) -> np.ndarray:
    """One integer column of a frame, ``n`` entries long."""
    values = message.get(key)
    if not isinstance(values, list):
        raise TransportError(f"step frame: {key!r} must be a list")
    if len(values) != n:
        raise TransportError(
            f"step frame: {key!r} has {len(values)} entries, times has {n}"
        )
    if not values:
        return np.empty(0, dtype=np.int64)
    try:
        array = np.array(values)
    except (TypeError, ValueError) as exc:
        raise TransportError(f"step frame: {key!r} is not a flat list: {exc}") from exc
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise TransportError(f"step frame: {key!r} holds non-integer or nested entries")
    return array.astype(np.int64)


def parse_step(message: Dict[str, object]) -> StepColumns:
    """Validate a ``step`` frame; a malformed one raises
    :class:`~repro.errors.TransportError` (which the worker answers
    with ``ok: false``)."""
    times = unpack_floats(message.get("times"))
    n = len(times)
    if not np.isfinite(times).all():
        raise TransportError("step frame: times must be finite")
    if n > 1 and (np.diff(times) < 0).any():
        raise TransportError("step frame: times must be sorted")
    priorities = _int_column(message, "priorities", n)
    if ((priorities != 0) & (priorities != 1)).any():
        raise TransportError("step frame: priorities must be 0 or 1")
    trace_ids = message.get("trace_ids")
    if trace_ids is not None:
        if not isinstance(trace_ids, list) or len(trace_ids) != n:
            raise TransportError("step frame: trace_ids must parallel times")
        if not all(t is None or type(t) is int for t in trace_ids):
            raise TransportError("step frame: trace ids must be integers or null")
    tenants = None
    names: List[str] = []
    if "tenants" in message or "tenant_names" in message:
        names = message.get("tenant_names")  # type: ignore[assignment]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise TransportError("step frame: tenant_names must be a list of strings")
        tenants = _int_column(message, "tenants", n)
        if ((tenants < 0) | (tenants >= len(names))).any():
            raise TransportError("step frame: tenant codes must index tenant_names")
    return StepColumns(times, priorities, trace_ids, tenants, names)


def parse_step_reply(reply: Dict[str, object], n: int, traced: bool) -> StepReply:
    """Check a worker's ``step`` reply against the ``n`` requests sent;
    a refused or inconsistent reply raises
    :class:`~repro.errors.TransportError`."""
    if not reply.get("ok"):
        raise TransportError(f"worker refused the step: {reply.get('error')}")
    try:
        failed = np.asarray(reply["failed"], dtype=np.int64)
        result = StepReply(
            failed,
            np.asarray(reply["status"], dtype=np.int64),
            unpack_floats(reply["retry_after_s"]),
            np.asarray(reply["reason"], dtype=str),
            unpack_floats(reply["latency_ms"]),
            unpack_floats(reply["completed_at"]) if traced else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed step reply: {exc!r}") from exc
    k = len(failed)
    served = len(result.latency_ms)
    if (
        k + served != n
        or not len(result.status) == len(result.retry_after_s) == len(result.reason) == k
        or (traced and len(result.completed_at) != served)
        or (k and (failed[0] < 0 or failed[-1] >= n or (np.diff(failed) <= 0).any()))
    ):
        raise TransportError(f"step reply does not match the {n} requests sent")
    return result


class _ServedLatencies:
    """Engine sink keeping one tick's served latencies (the failures are
    read from the :class:`~repro.serve.engine.AdmissionBatch`)."""

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []

    def record_failed(self, *_: object) -> None:
        pass

    def record_served(self, latencies_ms: np.ndarray, *_: object) -> None:
        self.chunks.append(latencies_ms)

    def latencies_ms(self) -> np.ndarray:
        return np.concatenate(self.chunks) if self.chunks else np.empty(0)


class WorkerServer:
    """Executes edge commands against one engine shard."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if spec.collect_telemetry else None
        )
        self.engine = build_worker_engine(spec, self.telemetry)
        self._delta_tracker: Optional[TelemetryDeltaTracker] = None

    # ------------------------------------------------------------------
    def _capacity_ad(self) -> Dict[str, object]:
        """What the edge's router view learns from every reply."""
        return {
            "worker": self.spec.worker_id,
            "machines": int(self.engine.sim.machines_allocated),
            "queue_seconds": float(self.engine._node_queue.max()),
        }

    def handle(self, message: Dict[str, object]) -> Dict[str, object]:
        """One request in, one reply out; never raises on bad input."""
        cmd = message.get("cmd")
        try:
            if cmd == "hello":
                reply: Dict[str, object] = {"ok": True}
            elif cmd == "step":
                reply = self._cmd_step(message)
            elif cmd == "healthz":
                reply = {"ok": True, "healthz": self.engine.healthz()}
            elif cmd == "capture":
                reply = self._cmd_capture()
            elif cmd == "restore":
                reply = self._cmd_restore(message)
            elif cmd == "telemetry":
                reply = self._cmd_telemetry()
            elif cmd == "telemetry_delta":
                reply = self._cmd_telemetry_delta()
            elif cmd == "shutdown":
                reply = {"ok": True, "bye": True}
            else:
                return {"ok": False, "error": f"unknown command {cmd!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        reply.update(self._capacity_ad())
        return reply

    def _cmd_step(self, message: Dict[str, object]) -> Dict[str, object]:
        with maybe_span("worker.step"):
            return self._run_step(message)

    def _run_step(self, message: Dict[str, object]) -> Dict[str, object]:
        """Submit the step's arrivals as one batch, then tick once."""
        step = parse_step(message)
        engine = self.engine
        served = _ServedLatencies()
        completions: List[TxnOutcome] = []
        failed = np.empty(0, dtype=np.int64)
        reason = np.empty(0, dtype=np.int8)
        retry = np.empty(0)
        if len(step.times):
            traces = None
            if engine.request_tracer is not None and step.trace_ids is not None:
                traces = [
                    TraceContext(trace_id, "edge") if trace_id is not None else None
                    for trace_id in step.trace_ids
                ]
            batch = engine.submit_batch(
                step.times,
                priorities=step.priorities,
                tenant_codes=step.tenants,
                tenant_names=step.tenant_names,
                traces=traces,
                # Completion times cross the wire only for traced frames.
                on_complete=completions.append if step.trace_ids is not None else None,
                sink=served,
            )
            failed = np.flatnonzero(batch.reason != ADMITTED)
            reason = batch.reason[failed]
            retry = batch.retry_after_s[failed]
        record = engine.tick()
        reply: Dict[str, object] = {
            "ok": True,
            "failed": failed.tolist(),
            "status": np.where(reason == CONNECTION, 500, 503).tolist(),
            "retry_after_s": pack_floats(retry),
            "reason": [REASONS[code] for code in reason.tolist()],
            "latency_ms": pack_floats(served.latencies_ms()),
            "now": engine.now,
            "admitted": int(record["admitted"]),
            "rejected": int(record["rejected"]),
        }
        if step.trace_ids is not None:
            reply["completed_at"] = pack_floats(
                np.array([o.completed_at for o in completions if o.accepted])
            )
        return reply

    def _cmd_capture(self) -> Dict[str, object]:
        ensure_quiescent(self.engine)
        controller = self.engine.controller
        control_state = None
        if controller is not None and hasattr(controller, "state_dict"):
            control_state = controller.state_dict()
        return {
            "ok": True,
            "state": {
                "engine": capture_engine(self.engine),
                "control": control_state,
            },
        }

    def _cmd_restore(self, message: Dict[str, object]) -> Dict[str, object]:
        state = message.get("state")
        if not isinstance(state, dict) or not isinstance(state.get("engine"), dict):
            raise CheckpointError("restore needs a state object with an engine snapshot")
        control_state = state.get("control")
        controller = self.engine.controller
        if control_state is not None and (
            controller is None or not hasattr(controller, "load_state_dict")
        ):
            return {
                "ok": False,
                "error": "snapshot carries control state but this "
                "worker has no restorable controller",
            }
        try:
            restore_engine(self.engine, state["engine"])
            if control_state is not None:
                controller.load_state_dict(control_state)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise CheckpointError(f"malformed restore state: {exc!r}") from exc
        return {"ok": True}

    def _cmd_telemetry(self) -> Dict[str, object]:
        if self.telemetry is None:
            return {"ok": True, "snapshot": None}
        from repro.telemetry.merge import snapshot_telemetry

        return {"ok": True, "snapshot": snapshot_telemetry(self.telemetry)}

    def _cmd_telemetry_delta(self) -> Dict[str, object]:
        """Incremental telemetry since the last delta (live fleet view)."""
        if self.telemetry is None:
            return {"ok": True, "delta": None}
        if self._delta_tracker is None:
            self._delta_tracker = TelemetryDeltaTracker()
        return {"ok": True, "delta": self._delta_tracker.delta(self.telemetry)}


def worker_main(spec_dict: Dict[str, object], mode: str, endpoint) -> None:
    """Subprocess entry point: serve commands until shutdown or EOF."""
    spec = WorkerSpec.from_dict(spec_dict)
    if mode == "pipe":
        transport = PipeTransport(endpoint, timeout_s=None)
    elif mode == "tcp":
        host, port = endpoint
        transport = connect_transport(str(host), int(port), timeout_s=DEFAULT_TIMEOUT_S)
        transport.timeout_s = None  # block between ticks; EOF ends us
        transport.sock.settimeout(None)
        transport.send({"worker": spec.worker_id})
    else:  # pragma: no cover - guarded by WorkerHandle
        raise ConfigurationError(f"unknown worker transport mode {mode!r}")
    server = WorkerServer(spec)
    try:
        while True:
            try:
                message = transport.recv()
            except TransportError:
                break  # the edge went away; nothing left to serve
            reply = server.handle(message)
            transport.send(reply)
            if message.get("cmd") == "shutdown":
                break
    finally:
        transport.close()


class WorkerHandle:
    """Edge-side proxy for one worker, over any transport mode.

    ``inproc`` runs the :class:`WorkerServer` in the calling process —
    the same message dicts, no serialization — and exists so the
    deterministic unit tests (and line coverage) can exercise the full
    edge/worker protocol without process scheduling in the loop.
    ``pipe`` and ``tcp`` spawn a real worker process.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        mode: str = "pipe",
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        _transport=None,
        _process=None,
    ) -> None:
        if mode not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"unknown transport mode {mode!r}; use one of "
                + ", ".join(TRANSPORT_MODES)
            )
        self.spec = spec
        self.mode = mode
        self.timeout_s = timeout_s
        self._dead = False
        self._pending_reply: Optional[Dict[str, object]] = None
        self.server: Optional[WorkerServer] = None
        self.transport = _transport
        self.process = _process
        if mode == "inproc":
            self.server = WorkerServer(spec)

    # ------------------------------------------------------------------
    # Process lifecycle (pipe/tcp modes; inproc has none)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker process (no-op for inproc)."""
        if self.mode == "inproc" or self.process is not None:
            return
        if self.mode == "pipe":
            parent, child = _SPAWN.Pipe()
            self.process = _SPAWN.Process(
                target=worker_main,
                args=(self.spec.as_dict(), "pipe", child),
                daemon=True,
                name=f"repro-worker-{self.spec.worker_id}",
            )
            self.process.start()
            child.close()
            self.transport = PipeTransport(parent, timeout_s=self.timeout_s)
        else:  # pragma: no cover - tcp start lives in edge rendezvous
            raise ConfigurationError(
                "tcp workers are started by DistributedServeSession's "
                "rendezvous; use mode 'pipe' for standalone handles"
            )

    def adopt(self, transport: TcpTransport, process) -> None:
        """Bind a rendezvoused TCP connection + process to this handle."""
        self.transport = transport
        self.process = process

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        if self._dead:
            return False
        if self.process is not None and not self.process.is_alive():
            return False
        return True

    def post(self, message: Dict[str, object]) -> None:
        """Send a command without waiting for the reply.

        The edge posts one ``step`` to every worker and only then starts
        collecting, so the shards compute their tick concurrently.  In
        ``inproc`` mode the command executes immediately and the reply
        is parked for :meth:`collect` — same call pattern, zero
        concurrency, which is exactly what the deterministic tests want.
        """
        if self._dead:
            raise TransportError(f"worker {self.spec.worker_id} is marked dead")
        if self.server is not None:
            self._pending_reply = self.server.handle(message)
            return
        if self.transport is None:
            raise TransportError(f"worker {self.spec.worker_id} was never started")
        try:
            self.transport.send(message)
        except TransportError:
            self._dead = True
            raise

    def collect(self) -> Dict[str, object]:
        """Receive the reply to the last :meth:`post`."""
        if self.server is not None:
            reply = self._pending_reply
            self._pending_reply = None
            if reply is None:
                raise TransportError(
                    f"worker {self.spec.worker_id}: collect without a post"
                )
            return reply
        if self._dead or self.transport is None:
            raise TransportError(f"worker {self.spec.worker_id} is marked dead")
        try:
            return self.transport.recv()
        except TransportError:
            self._dead = True
            raise

    def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """One command round trip; marks the worker dead on any failure."""
        self.post(message)
        return self.collect()

    def kill(self) -> None:
        """Hard-kill the worker (chaos injection; inproc just goes dark)."""
        self._dead = True
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=10)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: best-effort shutdown command, then reap."""
        if not self._dead and self.server is None and self.transport is not None:
            try:
                self.transport.send({"cmd": "shutdown"})
                self.transport.recv(timeout_s=timeout_s)
            except TransportError:
                pass
        self._dead = True
        if self.transport is not None:
            self.transport.close()
        if self.process is not None:
            self.process.join(timeout=timeout_s)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=timeout_s)
