"""Client library for the gateway wire protocol.

Two layers, mirroring how the protocol itself is split:

* :class:`AsyncGatewayClient` — the asyncio core.  One TCP connection, a
  background reader task that turns arriving bytes into frames (via the
  sans-io :class:`~repro.gateway.protocol.FrameDecoder`) and routes them:
  RESULT frames accumulate per station as the server streams them (and feed
  an optional ``result_hook`` for latency measurement), control replies
  resolve the awaiting request (PONG and FLUSH_OK only when they echo its
  token), and ERROR frames are recorded — an ERROR about a push names the
  push's station and sequence and never fails an unrelated request.
  Pushes are fire-and-forget — the socket *is* the pipeline, exactly like
  the coordinator's ``push_nowait`` — and :meth:`flush` is the barrier that
  makes every earlier push's results visible.

* :class:`GatewayClient` — a small synchronous wrapper for scripts, tests
  and the REPL.  It owns a private event loop and drives the async core one
  operation at a time; the reader task makes progress whenever the loop
  runs, so results keep flowing in even between blocking calls.

Stations are client-local names: the server namespaces them per connection
(``c<conn_id>/<station>``), so two clients can both stream a station called
``"north"`` without colliding.  All results come back keyed by the
client-local station name.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import GatewayError, OverloadedError, ProtocolError
from ..results import TickResult
from . import protocol

__all__ = ["AsyncGatewayClient", "GatewayClient"]

#: Socket read size per reader-task iteration.
_READ_CHUNK = 1 << 16

#: Human-readable names for ERROR codes (diagnostics only).
_ERROR_NAMES = {
    protocol.ERR_PROTOCOL: "protocol",
    protocol.ERR_SESSION: "session",
    protocol.ERR_OVERLOADED: "overloaded",
    protocol.ERR_SERVER: "server",
    protocol.ERR_UNAVAILABLE: "unavailable",
}


class AsyncGatewayClient:
    """Asyncio client for one gateway connection.

    Create with :meth:`connect`; close with :meth:`close`.  Control
    operations (:meth:`create_session`, :meth:`prime`, :meth:`flush`,
    :meth:`ping`) are request/reply and serialised per connection; pushes
    are pipelined fire-and-forget.  Results stream in as the server applies
    the pushes; they are buffered per station and claimed with
    :meth:`take_results` (or :meth:`flush`, which waits for every earlier
    push's results first).

    Attributes
    ----------
    result_hook:
        Optional ``callable(station, [TickResult, ...])`` invoked from the
        reader task the moment a RESULT frame is decoded — the hook for
        push-to-result latency measurement.
    shed:
        Messages of ERROR(overloaded) frames received so far; each records
        a push the server dropped under load.
    unavailable:
        ``(retry_after, detail)`` pairs of ERROR(unavailable) frames — each
        records a push refused because its shard's circuit breaker is open.
        Like shed pushes, they never fail an unrelated request.
    acked:
        ``{station: cumulative applied push sequence}`` from ACK frames and
        resumed HELLO_OKs — everything below the sequence is applied
        server-side.
    errors:
        ``(code, message)`` pairs of every ERROR frame received other than
        shed and unavailable pushes.  An ERROR about a push (it names the
        push's station and sequence) is only recorded here; any other
        ERROR also fails the request in flight.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_payload: int,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_payload = max_frame_payload
        self._decoder = protocol.FrameDecoder(max_frame_payload)
        self._sessions: Dict[str, str] = {}
        self._seq = itertools.count()
        self._push_seq: Dict[str, int] = {}
        self._results: Dict[str, List[TickResult]] = {}
        self._request_lock = asyncio.Lock()
        #: The request in flight: ``(reply kind, echoed token or None, future)``.
        self._pending: Optional[Tuple[int, Optional[int], asyncio.Future]] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False
        #: Why the connection died, once the reader task saw it die.
        self._lost: Optional[GatewayError] = None
        self.result_hook: Optional[Callable[[str, List[TickResult]], None]] = None
        self.shed: List[str] = []
        self.unavailable: List[Tuple[float, str]] = []
        self.acked: Dict[str, int] = {}
        self.errors: List[Tuple[int, str]] = []
        self.records_pushed = 0
        self.results_received = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_frame_payload: int = protocol.DEFAULT_MAX_FRAME_PAYLOAD,
    ) -> "AsyncGatewayClient":
        """Open a TCP connection to a gateway and start the reader task."""
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as error:
            raise GatewayError(
                f"cannot connect to gateway at {host}:{port}: {error}"
            ) from error
        client = cls(reader, writer, max_frame_payload)
        client._reader_task = asyncio.ensure_future(client._reader_loop())
        return client

    async def close(self) -> None:
        """Close the connection (idempotent); in-flight results are dropped."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    @property
    def sessions(self) -> Dict[str, str]:
        """``{station: server-side namespaced session id}`` opened so far."""
        return dict(self._sessions)

    # ------------------------------------------------------------------ #
    # Reader task
    # ------------------------------------------------------------------ #
    async def _reader_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    self._fail_pending(GatewayError("gateway closed the connection"))
                    return
                for kind, payload in self._decoder.feed(data):
                    self._dispatch(kind, payload)
        except asyncio.CancelledError:
            raise
        except (ProtocolError, OSError) as error:
            self._fail_pending(
                error if isinstance(error, ProtocolError)
                else GatewayError(f"gateway connection lost: {error}")
            )

    def _dispatch(self, kind: int, payload: bytes) -> None:
        if kind == protocol.FRAME_RESULT:
            station, results = protocol.decode_result_payload(payload)
            self.results_received += len(results)
            self._results.setdefault(station, []).extend(results)
            if self.result_hook is not None:
                self.result_hook(station, results)
        elif kind == protocol.FRAME_ACK:
            for station, seq in protocol.decode_ack(payload).items():
                if seq > self.acked.get(station, 0):
                    self.acked[station] = seq
        elif kind == protocol.FRAME_ERROR:
            code, message = protocol.decode_error(payload)
            if code == protocol.ERR_OVERLOADED:
                self.shed.append(message)
            elif code == protocol.ERR_UNAVAILABLE:
                self.unavailable.append(protocol.decode_unavailable(message))
            else:
                self.errors.append((code, message))
                if protocol.decode_error_ref(payload) is None:
                    # Not about a push: the answer to the request in flight.
                    name = _ERROR_NAMES.get(code, str(code))
                    self._resolve_pending_error(
                        GatewayError(f"gateway {name} error: {message}")
                    )
        elif self._pending is not None and self._pending[0] == kind:
            _, token, future = self._pending
            if token is not None and protocol.decode_token(payload) != token:
                return  # a late reply to an abandoned request
            self._pending = None
            if not future.done():
                future.set_result(payload)
        # A reply nobody awaits (e.g. PONG after a timeout) is dropped.

    def _resolve_pending_error(self, error: GatewayError) -> bool:
        if self._pending is None:
            return False
        _, _, future = self._pending
        self._pending = None
        if not future.done():
            future.set_exception(error)
        return True

    def _fail_pending(self, error: GatewayError) -> None:
        self._lost = error
        self._resolve_pending_error(error)

    def _check_usable(self) -> None:
        if self._closed:
            raise GatewayError("the gateway client is closed")
        if self._lost is not None:
            # Nothing will answer on a dead connection: fail now, not at a
            # timeout (the resilient client reconnects on this).
            raise GatewayError(str(self._lost))

    # ------------------------------------------------------------------ #
    # Request/reply plumbing
    # ------------------------------------------------------------------ #
    async def _request(
        self, kind: int, payload: bytes, reply_kind: int, token: Optional[int] = None
    ) -> bytes:
        """Send one control request and await its reply.

        With ``token``, only a reply echoing it resolves the request.
        """
        self._check_usable()
        async with self._request_lock:
            self._check_usable()  # the connection may have died meanwhile
            future: asyncio.Future = asyncio.get_event_loop().create_future()
            self._pending = (reply_kind, token, future)
            self._writer.write(protocol.encode_frame(kind, payload))
            try:
                await self._writer.drain()
                return await future
            finally:
                if self._pending is not None and self._pending[2] is future:
                    self._pending = None

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    async def create_session(
        self,
        station: str,
        method: str = "tkcm",
        series_names: Optional[Sequence[str]] = None,
        *,
        warmup_ticks: int = 0,
        **params,
    ) -> str:
        """Open a session for ``station``; returns the server-side id.

        Mirrors :meth:`ImputationService.create_session` — ``method``,
        ``series_names``, ``warmup_ticks`` and keyword ``params`` travel in
        the HELLO handshake and are applied verbatim on the serving tier.
        """
        payload = protocol.encode_hello(
            station, method, series_names, warmup_ticks, params
        )
        reply = await self._request(
            protocol.FRAME_HELLO, payload, protocol.FRAME_HELLO_OK
        )
        session_id = str(protocol.decode_hello_ok(reply)["session_id"])
        self._sessions[station] = session_id
        return session_id

    async def prime(
        self, station: str, history: Mapping[str, Sequence[float]]
    ) -> None:
        """Bulk-feed warm-up history into one station before streaming."""
        await self._request(
            protocol.FRAME_PRIME,
            protocol.encode_prime(station, history),
            protocol.FRAME_PRIME_OK,
        )

    async def push(self, station: str, row) -> None:
        """Stream one record, fire-and-forget (its results stream back)."""
        await self._push_rows(protocol.FRAME_PUSH, station, [row])

    async def push_block(self, station: str, rows: Sequence) -> None:
        """Stream a block of records, fire-and-forget."""
        await self._push_rows(protocol.FRAME_PUSH_BLOCK, station, rows)

    async def _push_rows(self, kind: int, station: str, rows: Sequence) -> None:
        self._check_usable()
        seq = self._push_seq.get(station, 0)
        payloads, next_seq = protocol.encode_push_payloads(
            seq, station, rows, self._max_frame_payload
        )
        self._push_seq[station] = next_seq
        for payload in payloads:
            self._writer.write(protocol.encode_frame(kind, payload))
        self.records_pushed += len(rows)
        await self._writer.drain()

    async def send_frames(self, frames: Sequence[Tuple[int, bytes]]) -> None:
        """Write pre-encoded ``(kind, payload)`` frames and drain the socket.

        The seam the resilient client replays its outbox through: payloads
        keep their original sequence stamps, so a replay is byte-identical
        to the first transmission.
        """
        self._check_usable()
        for kind, payload in frames:
            self._writer.write(protocol.encode_frame(kind, payload))
        await self._writer.drain()

    async def flush(self) -> Dict[str, List[TickResult]]:
        """Barrier: deliver every earlier push's results and claim them.

        Sends FLUSH and waits for the FLUSH_OK echoing its token, which the
        server emits only after every earlier push of this connection is
        applied and its RESULT frames are on the socket; then returns (and
        clears) the accumulated ``{station: [TickResult, ...]}``.
        """
        token = next(self._seq)
        await self._request(
            protocol.FRAME_FLUSH,
            protocol.encode_token(token),
            protocol.FRAME_FLUSH_OK,
            token,
        )
        return self.take_results()

    def take_results(self) -> Dict[str, List[TickResult]]:
        """Claim results received so far without a server round-trip."""
        gathered, self._results = self._results, {}
        return gathered

    async def ping(self) -> None:
        """Round-trip a PING/PONG token (liveness check)."""
        token = next(self._seq)
        await self._request(
            protocol.FRAME_PING, protocol.encode_token(token), protocol.FRAME_PONG,
            token,
        )

    def raise_if_shed(self) -> None:
        """Raise :class:`~repro.exceptions.OverloadedError` if pushes were shed."""
        if self.shed:
            raise OverloadedError(
                f"{len(self.shed)} pushes shed by the gateway "
                f"(first: {self.shed[0]})"
            )


class GatewayClient:
    """Synchronous gateway client (wrapper over :class:`AsyncGatewayClient`).

    Owns a private event loop; every method drives the async core until the
    operation completes, which also advances the background reader task —
    results keep accumulating between calls.  Usable as a context manager::

        with GatewayClient("127.0.0.1", port) as client:
            client.create_session("station-7", pattern_size=12, k=3)
            client.prime("station-7", history)
            for row in stream:
                client.push("station-7", row)
            results = client.flush()["station-7"]

    Parameters
    ----------
    host, port:
        The gateway's listen address.
    timeout:
        Seconds each request/reply operation may take before
        :class:`~repro.exceptions.GatewayError` is raised.
    max_frame_payload:
        Per-frame payload bound (must match the server's).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        max_frame_payload: int = protocol.DEFAULT_MAX_FRAME_PAYLOAD,
    ) -> None:
        self._timeout = float(timeout)
        self._loop = asyncio.new_event_loop()
        try:
            self._core: Optional[AsyncGatewayClient] = self._loop.run_until_complete(
                AsyncGatewayClient.connect(
                    host, port, max_frame_payload=max_frame_payload
                )
            )
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coroutine):
        if self._core is None:
            raise GatewayError("the gateway client is closed")
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(coroutine, self._timeout)
            )
        except asyncio.TimeoutError:
            raise GatewayError(
                f"gateway operation timed out after {self._timeout:.1f}s"
            ) from None

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection and the private event loop (idempotent)."""
        if self._core is None:
            return
        core, self._core = self._core, None
        try:
            self._loop.run_until_complete(core.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- operations ----------------------------------------------------- #
    def create_session(
        self,
        station: str,
        method: str = "tkcm",
        series_names: Optional[Sequence[str]] = None,
        *,
        warmup_ticks: int = 0,
        **params,
    ) -> str:
        """Open a session for ``station``; returns the server-side id."""
        return self._run(
            self._core.create_session(
                station, method, series_names, warmup_ticks=warmup_ticks, **params
            )
        )

    def prime(self, station: str, history: Mapping[str, Sequence[float]]) -> None:
        """Bulk-feed warm-up history into one station before streaming."""
        self._run(self._core.prime(station, history))

    def push(self, station: str, row) -> None:
        """Stream one record, fire-and-forget."""
        self._run(self._core.push(station, row))

    def push_block(self, station: str, rows: Sequence) -> None:
        """Stream a block of records, fire-and-forget."""
        self._run(self._core.push_block(station, rows))

    def flush(self) -> Dict[str, List[TickResult]]:
        """Barrier: deliver and claim all results of earlier pushes."""
        return self._run(self._core.flush())

    def take_results(self) -> Dict[str, List[TickResult]]:
        """Claim results received so far without a server round-trip."""
        if self._core is None:
            raise GatewayError("the gateway client is closed")
        return self._core.take_results()

    def ping(self) -> None:
        """Round-trip a PING/PONG token (liveness check)."""
        self._run(self._core.ping())

    @property
    def shed(self) -> List[str]:
        """Messages of pushes the server shed under load."""
        if self._core is None:
            return []
        return list(self._core.shed)

    @property
    def unavailable(self) -> List[Tuple[float, str]]:
        """``(retry_after, detail)`` of pushes refused on degraded shards."""
        if self._core is None:
            return []
        return list(self._core.unavailable)

    @property
    def errors(self) -> List[Tuple[int, str]]:
        """Unsolicited ERROR frames received (``(code, message)`` pairs)."""
        if self._core is None:
            return []
        return list(self._core.errors)

    @property
    def sessions(self) -> Dict[str, str]:
        """``{station: server-side namespaced session id}`` opened so far."""
        if self._core is None:
            return {}
        return self._core.sessions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._core is None else "open"
        return f"GatewayClient({state}, sessions={len(self.sessions)})"
