"""Asyncio TCP front-end multiplexing client connections onto the cluster.

:class:`GatewayServer` funnels many TCP connections, each speaking the
frame protocol of :mod:`repro.gateway.protocol`, onto one serving backend:
a :class:`~repro.cluster.coordinator.ClusterCoordinator` fed through its
pipelined ``push_nowait`` path, or a single-process
:class:`~repro.service.ImputationService`.  Every frame is applied on the
event-loop thread, and nothing there waits for the backend except a FLUSH.
A station opened via HELLO becomes backend session ``c<conn_id>/<station>``,
so two clients never share state; RESULT frames carry the client's name.

**Bytes in, bytes out.**  Every connection is an
:class:`asyncio.BufferedProtocol`: each read lands in one receive buffer
the server owns and reuses, and the frame decoder copies out what it
keeps.  In front of a cluster a PUSH payload is checked by its header and
admitted undecoded; within ``_EMIT_LINGER`` it is re-stamped into its
worker's push ring, and each worker is woken at most once per emit.  Each
worker publishes a tick's results and applied position as soon as it has
imputed it, and wakes the loop through the cluster's ``result_signal``
(watched with ``add_reader``); the loop drains the result rings without
blocking and forwards each result frame as a RESULT payload, its header
re-addressed to the client's station.  An in-process service's pushes are
decoded and its results written right after the push.  FLUSH is only a
barrier.

**Backpressure.**  When the pipelined backlog (admitted, not yet applied)
or a ring-full stall reaches ``pause_watermark``, every connection stops
reading its socket (TCP carries the pressure to the producers) until a
drain brings the backlog back under; above an optional ``shed_watermark``
pushes are shed with ERROR(overloaded).  A connection whose client does
not read its replies stops being read too, until its writes drain.  A
client killed mid-write costs only its own connection: its torn frame
dies with its decoder.

**Leases.**  A client presenting a ``token`` in HELLO has its sessions
detached under it for ``lease_ttl`` seconds when its connection drops,
with the results it may have missed.  A ``resume`` HELLO gets them back
with ``acked_seq`` (the pushes ACKed as applied: journaled, on a durable
cluster), the client replays the rest, and replays of admitted payloads
are dropped: at-least-once on the wire, exactly-once in model state.  A
resume fences a half-open old connection on the spot, and a session a
worker crash rolled back fences its connection so that the resume
restarts the stream after the records the worker confirmed.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..cluster.worker import InheritedSocket, close_in_child, decode_results
from ..exceptions import (
    GatewayError, ProtocolError, ReproError, RolledBackError, UnavailableError,
)
from ..results import TickResult
from . import protocol

__all__ = ["GatewayServer", "DEFAULT_LEASE_TTL"]

#: Pipelined backlog (records admitted, not yet applied) at which the read
#: gate closes.
DEFAULT_PAUSE_WATERMARK = 8192

#: Seconds a disconnected token-bearing client's sessions stay leased.
DEFAULT_LEASE_TTL = 30.0

#: Bytes of the receive buffer every connection reads into: asyncio's own
#: read size, so a large PRIME takes no more reads than asyncio's default
#: ``recv`` did, without its allocation per read.
_READ_BUFFER = 256 * 1024

#: Seconds :meth:`GatewayServer.stop` lets closing connections flush what
#: they still have to write before it aborts them.
_CLOSE_TIMEOUT = 1.0

#: Results a token client's station keeps for a resume's re-send: the
#: client's RECEIVED frames trim them, this bounds a client that sends none
#: (the oldest go first, so only a longer run of results lost with one
#: dropped socket would not be re-sent).
_RETAIN_LIMIT = 16384

#: Seconds admitted rows wait to be emitted together: each emit to a
#: sleeping worker is a cross-process wake-up.  On records_steady on a
#: 2-vCPU VM, emitting every loop pass measured p50 ~5 ms at +36% CPU per
#: record against the old 10 ms flush, 5 ms p50 ~10 ms at ~+15%, and 8 ms
#: p50 ~13 ms at ~+7% (CHANGES.md).
_EMIT_LINGER = 0.008

_NO_SESSION = "station {!r} has no open session (send HELLO first)"


def _retention() -> Deque[TickResult]:
    return deque(maxlen=_RETAIN_LIMIT)


class _Connection(asyncio.BufferedProtocol):
    """Server-side state of one client connection, and its protocol."""

    def __init__(self, server: "GatewayServer") -> None:
        self.server = server
        self.conn_id = server._next_conn_id
        server._next_conn_id += 1
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = protocol.FrameDecoder(server._max_frame_payload)
        #: Whether the transport asked us to stop writing (its buffer is full).
        self.writes_paused = False
        #: Resolved once the transport has closed.
        self.lost: Optional[asyncio.Future] = None
        #: station -> namespaced backend session id
        self.sessions: Dict[str, str] = {}
        #: station -> shard index reported at HELLO (kept for resumes)
        self.workers: Dict[str, Optional[int]] = {}
        #: station -> next expected PUSH payload sequence (every payload
        #: below it was admitted: applied, shed, or handed to the backend)
        self.next_seq: Dict[str, int] = {}
        #: station -> last cumulative sequence sent in an ACK frame
        self.acked_sent: Dict[str, int] = {}
        #: Token clients only.  station -> admitted payloads awaiting their
        #: ACK: ``(seq after it, session records applied when it is due,
        #: its records)``.
        self.unacked: Dict[str, Deque[Tuple[int, int, int]]] = {}
        #: station -> leading records of the payload at ``next_seq`` that a
        #: crash rollback kept: its re-send skips them.
        self.skip: Dict[str, int] = {}
        #: Token clients only.  station -> results written but not yet
        #: reported received (a resume re-sends them).
        self.retained: Dict[str, Deque[TickResult]] = {}
        #: lease token presented in this connection's HELLOs (opt-in)
        self.token: Optional[str] = None

    # -- protocol callbacks ------------------------------------------------ #
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()
        #: Workers forked while the connection is open close their copy.
        self.inherited = close_in_child(
            InheritedSocket(transport.get_extra_info("socket"))
        )
        self.server._attach(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._receive_buffer

    def buffer_updated(self, nbytes: int) -> None:
        server = self.server
        try:
            frames = self.decoder.feed(server._receive_buffer[:nbytes])
            for kind, payload in frames:
                if server._connections.get(self.conn_id) is not self:
                    break  # fenced: its client resumes elsewhere
                server._apply(self, kind, payload)
        except ProtocolError as error:
            # The stream cannot be resynchronised: report and close.
            server._protocol_errors += 1
            self.error(protocol.ERR_PROTOCOL, str(error))
            server._forget_connection(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        try:
            self.server._forget_connection(self)
        finally:
            self.server._live.discard(self)
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.writes_paused = True
        self.server._update_reading(self)

    def resume_writing(self) -> None:
        self.writes_paused = False
        self.server._update_reading(self)

    # -- replies ----------------------------------------------------------- #
    def send(self, kind: int, payload: bytes = b"") -> None:
        """Queue one frame on the socket (whole frames, never interleaved)."""
        self.transport.write(protocol.encode_frame(kind, payload))

    def error(self, code: int, message: str, ref: Optional[Tuple] = None) -> None:
        """Send an ERROR; ``ref=(station, seq)`` names the PUSH it is about."""
        self.send(protocol.FRAME_ERROR, protocol.encode_error(code, message, ref))


@dataclass
class _Lease:
    """A disconnected client's detached session, waiting to be resumed."""

    token: str
    station: str
    session_id: str
    next_seq: int
    acked_seq: int
    worker: Optional[int]
    expires_at: float
    #: The connection's admitted-but-unacknowledged payloads.
    unacked: Deque[Tuple[int, int, int]] = field(default_factory=deque)
    #: Results the client may have missed (unconfirmed, then detached).
    results: Deque[TickResult] = field(default_factory=_retention)


class GatewayServer:
    """Serve the frame protocol over TCP in front of a serving backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.cluster.coordinator.ClusterCoordinator` (results
        streamed back through ``result_signal``/``poll_results``; on its
        legacy ``pipe`` transport collected at each emit) or an
        :class:`~repro.service.ImputationService` (pushed synchronously).
        Borrowed: closing the server does not shut the backend down.
    host, port:
        Listen address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    pause_watermark:
        Pipelined backlog (records admitted, not yet applied) at which the
        read gate closes until a drain brings it back under; ring-full
        stalls reported by the cluster transport close the gate too.
    shed_watermark:
        Optional higher watermark above which pushes are shed with
        ERROR(overloaded) instead of delaying the producer; ``None``
        (default) never sheds.
    lease_ttl:
        Seconds a disconnected token-bearing client's sessions stay
        resumable before being removed; ``0`` disables leasing (every
        disconnect destroys its sessions, as a tokenless client's does).
    max_frame_payload:
        Per-frame payload bound enforced on both directions.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pause_watermark: int = DEFAULT_PAUSE_WATERMARK,
        shed_watermark: Optional[int] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_frame_payload: int = protocol.DEFAULT_MAX_FRAME_PAYLOAD,
    ) -> None:
        if pause_watermark < 1:
            raise GatewayError(
                f"pause_watermark must be >= 1, got {pause_watermark}"
            )
        if shed_watermark is not None and shed_watermark < pause_watermark:
            raise GatewayError(
                f"shed_watermark ({shed_watermark}) must be >= "
                f"pause_watermark ({pause_watermark})"
            )
        if lease_ttl < 0:
            raise GatewayError(f"lease_ttl must be >= 0, got {lease_ttl}")
        self._backend = backend
        self._pipelined = hasattr(backend, "push_nowait")
        self._host = host
        self._port = port
        self._signal = backend.result_signal if self._pipelined else None
        self._pause_watermark = int(pause_watermark)
        self._shed_watermark = None if shed_watermark is None else int(shed_watermark)
        self._lease_ttl = float(lease_ttl)
        self._max_frame_payload = int(max_frame_payload)

        self._server: Optional[asyncio.base_events.Server] = None
        #: Registry entries of the listening sockets (see close_in_child).
        self._inherited: List[InheritedSocket] = []
        #: The read gate: while closed, no connection reads its socket.
        self._gate_open = True
        #: Every read of every connection lands here; the frame decoder
        #: copies out what it keeps before the next read reuses it.
        self._receive_buffer = memoryview(bytearray(_READ_BUFFER))
        self._connections: Dict[int, _Connection] = {}
        #: Connections whose transport has not closed yet (fenced and
        #: forgotten ones included), awaited on stop.
        self._live: Set[_Connection] = set()
        self._session_owner: Dict[str, _Connection] = {}
        #: Detached (leased) sessions: session id -> lease, and the resume
        #: index (token, station) -> lease over the same objects.
        self._detached: Dict[str, _Lease] = {}
        self._lease_index: Dict[Tuple[str, str], _Lease] = {}
        self._next_conn_id = 0
        self._closed = False
        #: Records admitted per backend session (ACK accounting).
        self._admitted: Dict[str, int] = {}
        #: Connections with admitted payloads still awaiting their ACK.
        self._ack_waiting: Set[_Connection] = set()
        #: Whether an emit of admitted rows is already scheduled.
        self._emit_scheduled = False
        #: Data-plane stall count when the gate last opened (cluster backends).
        self._stalls_seen = self._backend_stalls()

        # Lifetime telemetry.
        self._records_in = 0
        self._results_out = 0
        self._shed_records = 0
        self._flushes = 0
        self._pause_events = 0
        self._pending_peak = 0
        self._connections_peak = 0
        self._connections_total = 0
        self._protocol_errors = 0
        self._leases_created = 0
        self._leases_resumed = 0
        self._leases_expired = 0
        self._leases_taken_over = 0
        self._resumes_rejected = 0
        self._duplicate_records_dropped = 0
        self._acks_sent = 0
        self._unavailable_records = 0

        # Background-thread bookkeeping (see :meth:`background`).
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """The configured listen host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when created as 0)."""
        return self._port

    @property
    def backend(self):
        """The serving backend this gateway fronts."""
        return self._backend

    def stats(self) -> Dict[str, object]:
        """Gateway telemetry as plain JSON-serialisable data."""
        return {
            "connections_current": len(self._connections),
            "connections_peak": self._connections_peak,
            "connections_total": self._connections_total,
            "sessions": len(self._session_owner),
            "records_in": self._records_in,
            "results_out": self._results_out,
            "shed_records": self._shed_records,
            "flushes": self._flushes,
            "pause_events": self._pause_events,
            "pending_records": self._backlog(),
            "pending_records_peak": self._pending_peak,
            "protocol_errors": self._protocol_errors,
            "pause_watermark": self._pause_watermark,
            "shed_watermark": self._shed_watermark,
            "lease_ttl": self._lease_ttl,
            "leases_active": len(self._detached),
            "leases_created": self._leases_created,
            "leases_resumed": self._leases_resumed,
            "leases_expired": self._leases_expired,
            "leases_taken_over": self._leases_taken_over,
            "resumes_rejected": self._resumes_rejected,
            "duplicate_records_dropped": self._duplicate_records_dropped,
            "acks_sent": self._acks_sent,
            "unavailable_records": self._unavailable_records,
            "results_retained": sum(
                len(results)
                for connection in list(self._connections.values())
                for results in list(connection.retained.values())
            ) + sum(len(lease.results) for lease in list(self._detached.values())),
        }

    # ------------------------------------------------------------------ #
    # Async lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listen socket and start watching the result signal."""
        if self._server is not None:
            raise GatewayError("the gateway server is already running")
        self._gate_open = True
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._inherited = [
            close_in_child(InheritedSocket(sock)) for sock in self._server.sockets
        ]
        if self._signal is not None:
            asyncio.get_running_loop().add_reader(self._signal, self._deliver)
        self._closed = False

    async def stop(self) -> None:
        """Stop accepting and close every connection."""
        if self._server is None:
            return
        self._closed = True
        self._server.close()
        self._inherited = []
        if self._signal is not None:
            asyncio.get_running_loop().remove_reader(self._signal)
        for connection in list(self._connections.values()):
            self._forget_connection(connection)
        self._session_owner.clear()
        if self._live:
            # Closing transports write out what they hold first; a peer
            # that reads nothing must not hold the stop up.
            await asyncio.wait([c.lost for c in self._live], timeout=_CLOSE_TIMEOUT)
            for connection in list(self._live):
                connection.transport.abort()
            if self._live:
                await asyncio.wait([c.lost for c in self._live])
        await self._server.wait_closed()
        self._server = None
        # Leases do not outlive the server: remove their backend sessions.
        for lease in list(self._detached.values()):
            try:
                self._backend.remove_session(lease.session_id)
            except ReproError:
                pass
        self._detached.clear()
        self._lease_index.clear()

    async def serve_forever(self) -> None:
        """Run until cancelled (after :meth:`start`)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # Background-thread convenience (sync callers, tests, benchmarks)
    # ------------------------------------------------------------------ #
    def background(self) -> "GatewayServer":
        """Run the server on a dedicated thread; use as a context manager.

        ``with GatewayServer(cluster).background() as gw:`` starts an event
        loop on a daemon thread, binds the socket (``gw.port`` is resolved
        once ``__enter__`` returns), and tears everything down on exit.
        The *backend* stays owned by the caller — only the network front is
        started and stopped.
        """
        return self

    def __enter__(self) -> "GatewayServer":
        ready = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,),
            name="repro-gateway-server", daemon=True,
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise GatewayError(
                f"gateway server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self) -> None:
        """Stop the background-thread server (idempotent)."""
        if self._thread is None:
            return
        loop, stop = self._loop, self._stop_requested
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def _thread_main(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._background_main(ready))
        except BaseException as error:  # startup failures surface in __enter__
            self._startup_error = self._startup_error or error
        finally:
            ready.set()

    async def _background_main(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            await self.start()
        except BaseException as error:
            self._startup_error = error
            return
        ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            await self.stop()
            self._loop = None
            self._stop_requested = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _attach(self, connection: _Connection) -> None:
        """Register a new connection (see :meth:`_Connection.connection_made`)."""
        self._connections[connection.conn_id] = connection
        self._live.add(connection)
        self._connections_total += 1
        self._connections_peak = max(
            self._connections_peak, len(self._connections)
        )
        self._update_reading(connection)

    def _update_reading(self, connection: _Connection) -> None:
        """Read a connection's socket iff the gate is open and its writes flow.

        While closed, unread bytes fill the kernel receive buffers and TCP
        stalls the producers; a client that does not read its replies stalls
        only its own connection.
        """
        if self._gate_open and not connection.writes_paused:
            connection.transport.resume_reading()
        else:
            connection.transport.pause_reading()

    def _set_gate(self, open_: bool) -> None:
        self._gate_open = open_
        for connection in list(self._connections.values()):
            self._update_reading(connection)

    def _forget_connection(self, connection: _Connection) -> None:
        """Detach (lease) a gone token client's sessions; remove the rest.

        Tokenless clients (and any disconnect during server stop) keep the
        destroy-on-disconnect behaviour; every other connection keeps
        serving either way.
        """
        self._connections.pop(connection.conn_id, None)
        self._ack_waiting.discard(connection)
        leased = self._replayable(connection) and not self._closed
        if leased and connection.sessions:
            self._detach_sessions(connection)
        else:
            for session_id in connection.sessions.values():
                self._session_owner.pop(session_id, None)
                self._admitted.pop(session_id, None)
                try:
                    self._backend.remove_session(session_id)
                except ReproError:
                    pass  # already gone (e.g. backend shut down first)
            connection.sessions.clear()
        connection.transport.close()

    def _detach_sessions(self, connection: _Connection) -> None:
        """Move every session of a token-bearing connection onto leases."""
        loop = asyncio.get_running_loop()
        expires_at = loop.time() + self._lease_ttl
        for station, session_id in connection.sessions.items():
            self._session_owner.pop(session_id, None)
            # A newer connection may already hold this (token, station):
            # never clobber its lease slot with a stale one.
            stale = self._lease_index.get((connection.token, station))
            if stale is not None:
                self._drop_lease(stale)
            lease = _Lease(
                token=connection.token,
                station=station,
                session_id=session_id,
                next_seq=connection.next_seq.get(station, 0),
                acked_seq=connection.acked_sent.get(station, 0),
                worker=connection.workers.get(station),
                expires_at=expires_at,
                unacked=connection.unacked.pop(station, deque()),
                results=connection.retained.pop(station, None) or _retention(),
            )
            self._detached[session_id] = lease
            self._lease_index[(connection.token, station)] = lease
            self._leases_created += 1
        connection.sessions.clear()
        self._ack_waiting.discard(connection)
        loop.call_at(expires_at, self._sweep_leases)

    def _takeover_stale_owner(self, token: str, station: str) -> Optional[_Lease]:
        """Fence a live-looking connection whose client has reconnected.

        Half-open TCP can take arbitrarily long to surface as an EOF; the
        token proves ownership, and the outbox replay covers whatever the
        stale socket never delivered.
        """
        for stale in list(self._connections.values()):
            if stale.token == token and station in stale.sessions:
                self._fence(stale)
                self._leases_taken_over += 1
                return self._lease_index.get((token, station))
        return None

    def _fence(self, connection: _Connection) -> None:
        """Lease a live token connection's sessions and close it.

        Its client resumes and replays what was not ACKed.  Shut down, not
        just closed: any other process holding a copy of the socket would
        keep a plain close from reaching the client (forked workers release
        theirs, see ``close_in_child``).
        """
        self._connections.pop(connection.conn_id, None)
        self._detach_sessions(connection)
        sock = connection.transport.get_extra_info("socket")
        try:
            if sock is not None:
                sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer is gone already
        connection.transport.close()

    def _replayable(self, connection: _Connection) -> bool:
        return connection.token is not None and self._lease_ttl > 0

    def _drop_lease(self, lease: _Lease) -> None:
        """Remove one lease and its backend session (idempotent)."""
        self._detached.pop(lease.session_id, None)
        self._lease_index.pop((lease.token, lease.station), None)
        self._admitted.pop(lease.session_id, None)
        try:
            self._backend.remove_session(lease.session_id)
        except ReproError:
            pass

    def _sweep_leases(self) -> None:
        """Expire leases whose TTL elapsed (a timer per lease, and resumes)."""
        if not self._detached:
            return
        now = asyncio.get_running_loop().time()
        for lease in [
            lease for lease in self._detached.values() if lease.expires_at <= now
        ]:
            self._drop_lease(lease)
            self._leases_expired += 1

    # ------------------------------------------------------------------ #
    # Frame application
    # ------------------------------------------------------------------ #
    def _apply(self, connection: _Connection, kind: int, payload: bytes) -> None:
        if kind == protocol.FRAME_PUSH or kind == protocol.FRAME_PUSH_BLOCK:
            self._apply_push(connection, payload)
        elif kind == protocol.FRAME_HELLO:
            self._apply_hello(connection, payload)
        elif kind == protocol.FRAME_PRIME:
            self._apply_prime(connection, payload)
        elif kind == protocol.FRAME_FLUSH:
            self._apply_flush(connection, payload)
        elif kind == protocol.FRAME_PING:
            connection.send(protocol.FRAME_PONG, payload)
        elif kind == protocol.FRAME_RECEIVED:
            for station, tick in protocol.decode_ack(payload).items():
                # The client holds every result below ``tick``: a resume
                # need not re-send them.
                retained = connection.retained.get(station)
                while retained and retained[0].index < tick:
                    retained.popleft()
        else:
            self._protocol_errors += 1
            connection.error(
                protocol.ERR_PROTOCOL,
                f"frame kind {kind} is not valid client -> server",
            )

    def _apply_hello(self, connection: _Connection, payload: bytes) -> None:
        hello = protocol.decode_hello(payload)
        station = str(hello["station"])
        token = hello.get("token")
        if token is not None:
            if connection.token is None:
                connection.token = str(token)
            elif connection.token != token:
                connection.error(
                    protocol.ERR_SESSION,
                    "a connection must use one lease token for all its stations",
                )
                return
        if hello.get("resume"):
            self._apply_resume(
                connection, station, str(token), hello.get("results_from")
            )
            return
        session_id = f"c{connection.conn_id}/{station}"
        try:
            if station in connection.sessions:
                raise GatewayError(
                    f"station {station!r} is already open on this connection"
                )
            params = dict(hello["params"])
            shard = self._backend.create_session(
                session_id,
                method=str(hello["method"]),
                series_names=hello.get("series_names"),
                warmup_ticks=int(hello["warmup_ticks"]),
                **params,
            )
        except ReproError as error:
            connection.error(protocol.ERR_SESSION, str(error))
            return
        connection.sessions[station] = session_id
        self._session_owner[session_id] = connection
        worker = shard if isinstance(shard, int) else None
        connection.workers[station] = worker
        connection.send(
            protocol.FRAME_HELLO_OK, protocol.encode_hello_ok(session_id, worker)
        )

    def _apply_resume(
        self,
        connection: _Connection,
        station: str,
        token: str,
        results_from: Optional[int],
    ) -> None:
        """Reattach a leased session to a reconnected client.

        HELLO_OK reports the payloads applied so far (the client replays
        the rest; what was already admitted dedups), then the lease's
        results from tick ``results_from`` on follow.  A missing, expired
        or foreign-token lease is a plain session error.
        """
        self._sweep_leases()
        lease = self._lease_index.get((token, station))
        if lease is None:
            # The old connection may still look alive (half-open TCP): the
            # token proves ownership, so fence it and take its lease over.
            lease = self._takeover_stale_owner(token, station)
        if lease is None or station in connection.sessions:
            self._resumes_rejected += 1
            connection.error(
                protocol.ERR_SESSION,
                f"no resumable lease for station {station!r} "
                f"(expired, never detached, or wrong token)",
            )
            return
        self._detached.pop(lease.session_id, None)
        self._lease_index.pop((token, station), None)
        if self._pipelined and self._backend.rolled_back_records(lease.session_id):
            self._rewind(lease, connection)
        connection.sessions[station] = lease.session_id
        connection.workers[station] = lease.worker
        connection.next_seq[station] = lease.next_seq
        connection.acked_sent[station] = lease.acked_seq
        if lease.unacked:
            connection.unacked[station] = lease.unacked
            self._ack_waiting.add(connection)
            self._advance_ack(connection, station)
        self._session_owner[lease.session_id] = connection
        self._leases_resumed += 1
        connection.send(
            protocol.FRAME_HELLO_OK,
            protocol.encode_hello_ok(
                lease.session_id,
                lease.worker,
                resumed=True,
                acked_seq=connection.acked_sent[station],
            ),
        )
        resend = [
            result for result in lease.results
            if results_from is None or result.index >= int(results_from)
        ]
        if resend:
            # Results the client missed: send before anything new.
            self._send_results(connection, station, resend)

    def _rolled_back(self, connection: _Connection, session_ids: List[str]) -> bool:
        """Handle sessions a worker crash rolled back; whether it fenced.

        A client that can replay is fenced: its resume restarts the stream
        after the confirmed records (see :meth:`_rewind`).  Any other has
        its sessions rewound in place, the rolled-back records lost.
        """
        rolled = [s for s in session_ids if self._backend.rolled_back_records(s)]
        if rolled and self._replayable(connection):
            self._fence(connection)
            return True
        for session_id in rolled:
            self._backend.rewind(session_id)
        return False

    def _rewind(self, lease: _Lease, connection: _Connection) -> None:
        """Restart a rolled-back stream after the records its worker confirmed.

        Fully confirmed payloads are ACKed; the first other one becomes the
        next expected sequence, its confirmed leading records skipped when
        the client re-sends it, so the replay applies the rest exactly once.
        """
        applied = self._backend.rewind(lease.session_id)
        for seq_after, due, rows in lease.unacked:
            if due > applied:
                if applied > due - rows:
                    connection.skip[lease.station] = applied - (due - rows)
                break
            lease.acked_seq = seq_after
        lease.unacked.clear()
        lease.next_seq = lease.acked_seq
        self._admitted[lease.session_id] = applied

    def _apply_prime(self, connection: _Connection, payload: bytes) -> None:
        station, history = protocol.decode_prime(payload)
        session_id = connection.sessions.get(station)
        try:
            if session_id is None:
                raise GatewayError(_NO_SESSION.format(station))
            self._backend.prime(session_id, history)
        except ReproError as error:
            connection.error(protocol.ERR_SESSION, str(error))
            return
        connection.send(protocol.FRAME_PRIME_OK)

    def _apply_push(self, connection: _Connection, payload: bytes) -> None:
        if self._pipelined:
            # Checked by its header and admitted as bytes: only the worker
            # that imputes the block decodes it.
            frame = protocol.validate_push_payload(payload)
            seq, station, records = frame.position, frame.session_id, frame.rows
        else:
            seq, station, (_, block) = protocol.decode_push_payload(payload)
            records = len(block)
        ref = (station, seq)
        session_id = connection.sessions.get(station)
        if session_id is None:
            connection.error(protocol.ERR_SESSION, _NO_SESSION.format(station), ref)
            return
        expected = connection.next_seq.get(station, 0)
        if seq < expected:
            # An at-least-once replay of a payload this server already
            # admitted: drop it silently (exactly-once dedup, not an error).
            self._duplicate_records_dropped += records
            return
        if seq > expected:
            connection.error(
                protocol.ERR_SESSION,
                f"push sequence gap for station {station!r}: "
                f"got {seq}, expected {expected}",
                ref,
            )
            return
        skip = connection.skip.pop(station, 0) if connection.skip else 0
        records = max(records - skip, 0)
        backlog = 0 if self._shed_watermark is None else self._backlog()
        if (
            self._shed_watermark is not None
            and backlog + records > self._shed_watermark
        ):
            # Shedding is a *decision*, not a transport failure: the frame
            # consumes its sequence slot so the stream keeps flowing (and a
            # resilient client's replay of it dedups instead of re-applying
            # records the server deliberately refused).
            connection.next_seq[station] = seq + 1
            self._shed_records += records
            self._await_ack(connection, station, session_id, seq + 1, 0)
            connection.error(
                protocol.ERR_OVERLOADED,
                f"push of {records} records shed: backlog "
                f"{backlog} >= shed watermark {self._shed_watermark}",
                ref,
            )
            return
        try:
            if not self._pipelined:
                results = self._backend.push_block(session_id, block[skip:])
            elif skip:
                # A crash rollback kept the payload's leading records.
                for row in frame.decode()[1][skip:]:
                    self._backend.push_nowait(session_id, row)
            else:
                self._backend.push_frame_nowait(session_id, frame)
        except RolledBackError:
            if not self._rolled_back(connection, [session_id]):
                self._apply_push(connection, payload)  # rewound in place
            return
        except UnavailableError as error:
            # The shard's circuit breaker is open: refuse fast with a retry
            # hint instead of hanging; healthy shards keep serving.
            self._unavailable_records += records
            connection.send(
                protocol.FRAME_ERROR,
                protocol.encode_unavailable(error.retry_after, str(error), ref),
            )
            return
        except ReproError as error:
            connection.error(protocol.ERR_SESSION, str(error), ref)
            return
        connection.next_seq[station] = seq + 1
        self._records_in += records
        self._admitted[session_id] = self._admitted.get(session_id, 0) + records
        self._emit_soon()
        self._await_ack(connection, station, session_id, seq + 1, records)
        if not self._pipelined:
            if results:
                self._send_results(connection, station, results)
            return
        backlog = self._backend.pipelined_backlog()
        self._pending_peak = max(self._pending_peak, backlog)
        stalled = self._backend_stalls() > self._stalls_seen
        if (backlog >= self._pause_watermark or stalled) and self._gate_open:
            # The serving tier runs behind: stop reading until a drain
            # brings the backlog back under the watermark.
            self._pause_events += 1
            self._set_gate(False)

    def _apply_flush(self, connection: _Connection, payload: bytes) -> None:
        """FLUSH is a barrier: FLUSH_OK follows every earlier result and ACK."""
        token = protocol.decode_token(payload)
        self._flushes += 1
        if self._pipelined:
            if self._rolled_back(connection, list(connection.sessions.values())):
                return  # the client resumes, then flushes again
            try:
                gathered = self._backend.flush()
            except ReproError as error:
                # A deferred push failure surfaced at the barrier: it fails
                # this FLUSH; whatever results did land still go out.
                connection.error(protocol.ERR_SERVER, f"flush failed: {error}")
                self._deliver()
                return
            self._deliver(gathered)
        else:
            self._send_acks()
        connection.send(protocol.FRAME_FLUSH_OK, protocol.encode_token(token))

    # ------------------------------------------------------------------ #
    # Delivery and acknowledgement
    # ------------------------------------------------------------------ #
    def _backlog(self) -> int:
        return self._backend.pipelined_backlog() if self._pipelined else 0

    def _backend_stalls(self) -> int:
        return self._backend.data_plane_stalls() if self._pipelined else 0

    def _emit_soon(self) -> None:
        if not self._emit_scheduled:
            self._emit_scheduled = True
            asyncio.get_running_loop().call_later(_EMIT_LINGER, self._emit)

    def _emit(self) -> None:
        """Emit what was admitted in the last ``_EMIT_LINGER``; send ready ACKs."""
        self._emit_scheduled = False
        try:
            if self._signal is not None:
                self._backend.emit_pending()
            elif self._pipelined:
                # No result stream (the cluster's pipe transport): collect.
                self._deliver(self._backend.flush())
        finally:
            self._send_acks()

    def _deliver(self, gathered: Optional[Dict[str, list]] = None) -> None:
        """Write the results that landed, ACK what was applied, reopen the gate.

        ``gathered`` maps session ids to result items: worker result frames
        as bytes (from ``poll_results``) or :class:`TickResult` objects.
        """
        if gathered is None:
            gathered = self._backend.poll_results()
        for session_id, items in gathered.items():
            connection = self._session_owner.get(session_id)
            if connection is None:
                lease = self._detached.get(session_id)
                if lease is not None:
                    # Detached but leased: buffer for the resume.
                    lease.results.extend(decode_results(items))
                continue  # otherwise the owner is gone; results die
            self._send_results(connection, session_id.split("/", 1)[1], items)
        self._send_acks()
        if not self._gate_open and self._backlog() < self._pause_watermark:
            self._stalls_seen = self._backend_stalls()
            self._set_gate(True)

    def _send_results(self, connection: _Connection, station: str, items: list) -> None:
        try:
            payloads, ticks = protocol.result_payloads(
                station, items, self._max_frame_payload
            )
        except Exception as error:
            message = f"results for {station!r} cannot be encoded: {error}"
            connection.error(protocol.ERR_SERVER, message)
            return
        for result_payload in payloads:
            connection.send(protocol.FRAME_RESULT, result_payload)
        self._results_out += ticks
        if connection.token is not None:
            connection.retained.setdefault(station, _retention()).extend(
                decode_results(items)
            )

    def _await_ack(
        self, connection: _Connection, station: str, session_id: str, seq: int,
        rows: int,
    ) -> None:
        """Queue an admitted payload's ACK behind the records admitted so far."""
        if connection.token is not None:  # only lease holders replay
            connection.unacked.setdefault(station, deque()).append(
                (seq, self._admitted.get(session_id, 0), rows)
            )
            self._ack_waiting.add(connection)
            self._emit_soon()

    def _applied(self, session_id: str) -> int:
        if self._pipelined:
            return self._backend.applied_records(session_id)
        return self._admitted.get(session_id, 0)  # applied synchronously

    def _advance_ack(self, connection: _Connection, station: str) -> bool:
        """Pop ``station``'s applied payloads; whether the acked seq moved."""
        waiting = connection.unacked.get(station)
        session_id = connection.sessions.get(station)
        if not waiting or session_id is None:
            return False
        applied, moved = self._applied(session_id), False
        while waiting and waiting[0][1] <= applied:
            connection.acked_sent[station], moved = waiting.popleft()[0], True
        return moved

    def _send_acks(self) -> None:
        """Tell token clients how far each station's pushes are applied."""
        for connection in list(self._ack_waiting):
            advanced = {
                station: connection.acked_sent[station]
                for station in list(connection.unacked)
                if self._advance_ack(connection, station)
            }
            if advanced:
                connection.send(protocol.FRAME_ACK, protocol.encode_ack(advanced))
                self._acks_sent += 1
            if not any(connection.unacked.values()):
                self._ack_waiting.discard(connection)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "listening" if self._server is not None else "stopped"
        return (
            f"GatewayServer({self._host}:{self._port}, "
            f"connections={len(self._connections)}, {state})"
        )
