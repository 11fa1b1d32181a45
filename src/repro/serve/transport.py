"""Wire transports for the distributed serving path.

The edge and its workers speak a tiny JSON message protocol: every
message is one JSON object, every request gets exactly one reply, and
the edge is the only initiator (strict request/reply keeps the lock-step
tick loop deterministic regardless of process scheduling).  Two real
transports carry it:

* :class:`PipeTransport` — a :func:`multiprocessing.Pipe` connection
  pair, JSON bytes over ``send_bytes``/``recv_bytes``.  The default:
  cheap, inherits cleanly through the ``spawn`` start method, and the
  kernel reaps it with the process.
* :class:`TcpTransport` — length-prefixed JSON frames (4-byte big-endian
  size + payload) over a localhost socket.  Exercises a genuine network
  edge: partial reads, EOFs on crash, bind collisions.

Both raise :class:`~repro.errors.TransportError` on any failure —
timeout, truncated frame, dead peer — so the edge can convert a broken
worker into per-request 500s and breaker evidence instead of crashing.

:func:`retry_on_bind_failure` is the shared helper for flaky port
allocation (``EADDRINUSE`` from a lingering TIME_WAIT socket): the TCP
listener here and the HTTP tests both bind through it.
"""

from __future__ import annotations

import base64
import binascii
import errno
import json
import socket
import struct
import time
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from repro.errors import TransportError
from repro.telemetry.perf import maybe_span

#: Default per-reply wait; a worker that takes longer than this to
#: answer one tick is treated as dead (the soak ticks are milliseconds).
DEFAULT_TIMEOUT_S = 60.0

_LEN = struct.Struct(">I")
_MAX_FRAME = 256 * 1024 * 1024  # corrupt length prefixes fail loudly

T = TypeVar("T")

#: Errnos that mean "the port was not available right now" — the retry
#: class, as opposed to genuine misconfiguration (EACCES and friends).
_BIND_RETRY_ERRNOS = (errno.EADDRINUSE, errno.EADDRNOTAVAIL)


def retry_on_bind_failure(
    bind: Callable[[], T], *, retries: int = 5, delay_s: float = 0.05
) -> T:
    """Call ``bind()`` retrying transient address-in-use failures.

    Port allocation races (a test that just released a port still in
    TIME_WAIT, two jobs grabbing ephemeral ports at once) surface as
    ``EADDRINUSE``/``EADDRNOTAVAIL`` and deserve a short backoff and
    another try; every other ``OSError`` propagates immediately.
    """
    last: Optional[OSError] = None
    for attempt in range(max(1, retries)):
        try:
            return bind()
        except OSError as exc:
            if exc.errno not in _BIND_RETRY_ERRNOS:
                raise
            last = exc
            time.sleep(delay_s * (attempt + 1))
    raise TransportError(
        f"could not bind after {retries} attempts: {last}"
    ) from last


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class PipeTransport:
    """JSON messages over one end of a :func:`multiprocessing.Pipe`.

    ``timeout_s=None`` blocks forever on receive — the worker side uses
    it to idle between ticks (EOF from a dead edge still wakes it up).
    """

    def __init__(
        self, conn, timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
    ) -> None:
        self.conn = conn
        self.timeout_s = timeout_s

    def send(self, message: Dict[str, object]) -> None:
        try:
            self.conn.send_bytes(_encode(message))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        wait = self.timeout_s if timeout_s is None else timeout_s
        try:
            if not self.conn.poll(wait):
                raise TransportError(f"pipe recv timed out after {wait:g}s")
            payload = self.conn.recv_bytes()
        except TransportError:
            raise
        except (OSError, EOFError, ValueError) as exc:
            raise TransportError(f"pipe recv failed: {exc}") from exc
        return _decode(payload)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - double close
            pass


class TcpTransport:
    """Length-prefixed JSON frames over a connected socket."""

    def __init__(
        self, sock: socket.socket, timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
    ) -> None:
        self.sock = sock
        self.timeout_s = timeout_s
        sock.settimeout(timeout_s)

    def send(self, message: Dict[str, object]) -> None:
        payload = _encode(message)
        try:
            self.sock.sendall(_LEN.pack(len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"tcp send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self.sock.recv(remaining)
            except socket.timeout as exc:
                raise TransportError(
                    f"tcp recv timed out after {self.timeout_s:g}s"
                ) from exc
            except OSError as exc:
                raise TransportError(f"tcp recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("tcp peer closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        if timeout_s is not None:
            self.sock.settimeout(timeout_s)
        try:
            (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
            if length > _MAX_FRAME:
                raise TransportError(f"tcp frame length {length} is implausible")
            return _decode(self._recv_exact(length))
        finally:
            if timeout_s is not None:
                self.sock.settimeout(self.timeout_s)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


def _encode(message: Dict[str, object]) -> bytes:
    # The perf span times serialization only, never the socket wait —
    # idle blocking would drown the signal the span exists to surface.
    with maybe_span("transport.encode"):
        return json.dumps(message, separators=(",", ":")).encode("utf-8")


def _decode(payload: bytes) -> Dict[str, object]:
    with maybe_span("transport.decode"):
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise TransportError(f"expected a JSON object frame, got {type(message).__name__}")
    return message


def pack_floats(values: np.ndarray) -> str:
    """A float column as a JSON string: base64 of little-endian float64.

    Exact by construction (no decimal round trip), 10.7 bytes a value
    instead of the ~18 of JSON float text, and an order of magnitude
    cheaper to encode and decode than printing and parsing each float.
    """
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpack_floats(text: object) -> np.ndarray:
    """Inverse of :func:`pack_floats`; anything else raises
    :class:`~repro.errors.TransportError`."""
    if not isinstance(text, str):
        raise TransportError(f"expected a packed float column, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise TransportError(f"malformed packed float column: {exc}") from exc
    if len(raw) % 8:
        raise TransportError("packed float column length is not a multiple of 8 bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


# ----------------------------------------------------------------------
# TCP rendezvous (edge listens, workers dial in and say hello)
# ----------------------------------------------------------------------
def bind_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """Bound+listening TCP socket, retrying transient bind failures."""

    def bind() -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen()
        except OSError:
            sock.close()
            raise
        return sock

    return retry_on_bind_failure(bind)


def connect_transport(
    host: str, port: int, timeout_s: float = DEFAULT_TIMEOUT_S
) -> TcpTransport:
    """Dial the edge's listener (worker side of the TCP rendezvous)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    return TcpTransport(sock, timeout_s)


def accept_transport(
    listener: socket.socket, timeout_s: float = DEFAULT_TIMEOUT_S
) -> TcpTransport:
    """Accept one worker connection on the edge's listener."""
    listener.settimeout(timeout_s)
    try:
        sock, _ = listener.accept()
    except socket.timeout as exc:
        raise TransportError(
            f"no worker connected within {timeout_s:g}s"
        ) from exc
    except OSError as exc:
        raise TransportError(f"accept failed: {exc}") from exc
    return TcpTransport(sock, timeout_s)
