"""Reconnecting gateway client with an unacknowledged-frame replay outbox.

The plain :class:`~repro.gateway.client.GatewayClient` treats its TCP
connection as precious: the first reset or timeout raises and everything
namespaced to the connection is gone.  This module wraps the same async
core in a delivery loop that survives the network instead:

* **Lease token.**  Every HELLO carries an opaque client token, opting the
  connection into the server's session leases — on disconnect the server
  *detaches* the sessions for ``lease_ttl`` seconds rather than destroying
  them, and buffers any results that land meanwhile.

* **Outbox.**  Every PUSH payload is kept, with its sequence stamp, until a
  cumulative ACK (or a resumed HELLO_OK) confirms the server applied it.
  The stored bytes are the exact bytes first sent, so a replay is
  bit-identical to the original transmission.

* **Reconnect + resume + replay.**  When an operation hits a connection
  error, the client redials with exponential backoff and decorrelated
  jitter, re-HELLOs each station with ``resume`` + its token, learns the
  cumulative applied sequence from HELLO_OK, trims the outbox below it, and
  replays the rest in order.  Frames the server already admitted but had
  not yet ACKed are re-sent and dropped by the server's own sequence
  bookkeeping — at-least-once on the wire, exactly-once in model state, so
  an interrupted run stays bit-identical to an uninterrupted one.  Results
  lost in flight with the old socket come back too: the resume names the
  first tick the client has no result for, and the server re-sends what it
  retained from there on.  So the server can forget the rest, every
  ``_RECEIVED_EVERY`` results the next push or flush tells it how far each
  station has been received (a RECEIVED frame).

The delivery guarantee is summarised in ARCHITECTURE.md's guarantee table;
the failure drills in :mod:`repro.scenarios.resilience` pin it under seeded
disconnects, worker kills and wedges.
"""

from __future__ import annotations

import asyncio
import random
import secrets
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import GatewayError, OverloadedError
from ..results import TickResult
from . import protocol
from .client import AsyncGatewayClient

__all__ = [
    "ReconnectPolicy",
    "AsyncResilientGatewayClient",
    "ResilientGatewayClient",
]

#: Results received between two RECEIVED frames.
_RECEIVED_EVERY = 256


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff policy of one reconnect cycle.

    Sleeps follow *decorrelated jitter*: each delay is drawn uniformly from
    ``[backoff_base, 3 * previous delay]`` and capped at ``backoff_cap`` —
    retries spread out instead of thundering back in lockstep.
    """

    max_attempts: int = 8
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise GatewayError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0 < self.backoff_base <= self.backoff_cap:
            raise GatewayError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base} / {self.backoff_cap}"
            )


class _Station:
    """Client-side state of one opened station."""

    __slots__ = ("session_id", "next_seq", "outbox")

    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        #: Next PUSH payload sequence to stamp.
        self.next_seq = 0
        #: Unacknowledged payloads: ``(seq, frame kind, payload bytes)``.
        self.outbox: Deque[Tuple[int, int, bytes]] = deque()


class AsyncResilientGatewayClient:
    """Asyncio gateway client that reconnects, resumes, and replays.

    Same surface as :class:`~repro.gateway.client.AsyncGatewayClient`
    (create_session / prime / push / push_block / flush / take_results /
    ping) with every operation retried across connection failures.  One
    deliberate exception: :meth:`prime` is *not* replayed — priming is not
    idempotent, and a PRIME whose reply was lost mid-handshake cannot be
    safely repeated, so that rare case raises instead of double-feeding
    history.  Prime before streaming, as the quickstarts do.

    Parameters
    ----------
    host, port:
        The gateway's listen address.
    token:
        Lease token presented in every HELLO.  Defaults to a fresh random
        token; pass one explicitly to resume sessions across *client
        process* restarts, not just socket drops.
    policy:
        :class:`ReconnectPolicy` (attempts and backoff of a reconnect
        cycle).
    rng:
        ``random.Random`` used for jitter — inject a seeded one for
        deterministic tests.
    sleep:
        Awaitable sleep function, ``asyncio.sleep`` by default — inject a
        no-op in tests to run reconnect cycles without wall-clock delay.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        policy: Optional[ReconnectPolicy] = None,
        rng: Optional[random.Random] = None,
        sleep=None,
        max_frame_payload: int = protocol.DEFAULT_MAX_FRAME_PAYLOAD,
    ) -> None:
        self._host = host
        self._port = port
        self.token = token if token is not None else secrets.token_hex(8)
        self._policy = policy if policy is not None else ReconnectPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._max_frame_payload = int(max_frame_payload)
        self._core: Optional[AsyncGatewayClient] = None
        self._stations: Dict[str, _Station] = {}
        self._results: Dict[str, List[TickResult]] = {}
        #: station -> first tick index no result has arrived for yet.
        self._results_from: Dict[str, int] = {}
        #: ``results_received`` when the last RECEIVED frame went out.
        self._received_sent = 0
        self._closed = False
        # Lifetime telemetry (survives reconnects).
        self.reconnects = 0
        self.frames_replayed = 0
        self.records_pushed = 0
        self.results_received = 0
        self.shed: List[str] = []
        self.unavailable: List[Tuple[float, str]] = []
        self.acked: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    async def connect(
        cls, host: str, port: int, **kwargs
    ) -> "AsyncResilientGatewayClient":
        """Open the first connection (same signature as the constructor)."""
        client = cls(host, port, **kwargs)
        client._core = await AsyncGatewayClient.connect(
            host, port, max_frame_payload=client._max_frame_payload
        )
        return client

    async def close(self) -> None:
        """Close the connection (idempotent); the outbox is dropped."""
        self._closed = True
        if self._core is not None:
            self._harvest(self._core)
            core, self._core = self._core, None
            await core.close()

    @property
    def sessions(self) -> Dict[str, str]:
        """``{station: server-side namespaced session id}`` opened so far."""
        return {
            station: state.session_id
            for station, state in self._stations.items()
        }

    @property
    def outbox_frames(self) -> int:
        """Unacknowledged PUSH payloads currently held for replay."""
        return sum(len(state.outbox) for state in self._stations.values())

    def _require_core(self) -> AsyncGatewayClient:
        if self._closed:
            raise GatewayError("the resilient gateway client is closed")
        assert self._core is not None
        return self._core

    def _claim(self, gathered: Mapping[str, List[TickResult]]) -> None:
        """Keep arrived results for the caller; note how far each station got."""
        for station, results in gathered.items():
            if results:
                self._results.setdefault(station, []).extend(results)
                self._results_from[station] = results[-1].index + 1

    def _harvest(self, core: AsyncGatewayClient) -> None:
        """Fold a (possibly dying) core's accumulated state into this one."""
        self._claim(core.take_results())
        self.results_received += core.results_received
        core.results_received = 0
        self.shed.extend(core.shed)
        core.shed = []
        self.unavailable.extend(core.unavailable)
        core.unavailable = []
        for station, seq in core.acked.items():
            if seq > self.acked.get(station, 0):
                self.acked[station] = seq
        core.acked = {}

    def _receipt(self, core: AsyncGatewayClient) -> List[Tuple[int, bytes]]:
        """A RECEIVED frame once enough results arrived since the last one."""
        arrived = self.results_received + core.results_received
        if arrived - self._received_sent < _RECEIVED_EVERY:
            return []
        self._harvest(core)
        self._received_sent = self.results_received
        return [(protocol.FRAME_RECEIVED, protocol.encode_ack(self._results_from))]

    def _trim_outbox(self, station: str, acked_seq: int) -> None:
        state = self._stations.get(station)
        if state is None:
            return
        while state.outbox and state.outbox[0][0] < acked_seq:
            state.outbox.popleft()

    def _trim_all(self) -> None:
        if self._core is not None:
            self._harvest(self._core)
        for station, seq in self.acked.items():
            self._trim_outbox(station, seq)

    # ------------------------------------------------------------------ #
    # Reconnect cycle
    # ------------------------------------------------------------------ #
    async def _reconnect(self, cause: BaseException) -> None:
        """Redial, resume every station, and replay the unacked outbox."""
        if self._closed:
            raise GatewayError("the resilient gateway client is closed")
        if self._core is not None:
            self._harvest(self._core)
            core, self._core = self._core, None
            await core.close()
        delay = self._policy.backoff_base
        last_error: BaseException = cause
        for attempt in range(self._policy.max_attempts):
            if attempt:
                # Decorrelated jitter keeps a fleet of reconnecting clients
                # from hammering the gateway in lockstep.
                delay = min(
                    self._policy.backoff_cap,
                    self._rng.uniform(self._policy.backoff_base, delay * 3.0),
                )
                await self._sleep(delay)
            core = None
            try:
                core = await AsyncGatewayClient.connect(
                    self._host, self._port,
                    max_frame_payload=self._max_frame_payload,
                )
                await self._resume_all(core)
            except (GatewayError, OSError) as error:
                # Includes a transiently missing lease: the server may not
                # have processed the old connection's disconnect yet, in
                # which case the lease reappears before the next attempt.
                last_error = error
                if core is not None:
                    await core.close()
                continue
            self._core = core
            self.reconnects += 1
            return
        raise GatewayError(
            f"gave up reconnecting to {self._host}:{self._port} after "
            f"{self._policy.max_attempts} attempts: {last_error}"
        ) from last_error

    async def _resume_all(self, core: AsyncGatewayClient) -> None:
        """Resume every opened station on a fresh connection, then replay."""
        for station, state in self._stations.items():
            payload = protocol.encode_hello(
                station, "", None, 0, {}, token=self.token, resume=True,
                results_from=self._results_from.get(station),
            )
            reply = await core._request(
                protocol.FRAME_HELLO, payload, protocol.FRAME_HELLO_OK
            )
            info = protocol.decode_hello_ok(reply)
            acked_seq = int(info.get("acked_seq", 0))
            state.session_id = str(info["session_id"])
            if acked_seq > self.acked.get(station, 0):
                self.acked[station] = acked_seq
            self._trim_outbox(station, acked_seq)
            if state.outbox:
                # Replay everything the server has not confirmed.  Payloads
                # at or above acked_seq were either never applied or are
                # absorbed by the server's sequence dedup — either way the
                # stream state ends identical to an uninterrupted run.
                frames = [
                    (kind, payload) for _, kind, payload in state.outbox
                ]
                await core.send_frames(frames)
                self.frames_replayed += len(frames)
        self._harvest(core)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    async def _with_retry(self, op, *args, **kwargs):
        """Run one core operation, reconnecting once per failure."""
        while True:
            core = self._require_core()
            try:
                return await op(core, *args, **kwargs)
            except OverloadedError:
                raise
            except (GatewayError, OSError) as error:
                await self._reconnect(error)

    async def create_session(
        self,
        station: str,
        method: str = "tkcm",
        series_names: Optional[Sequence[str]] = None,
        *,
        warmup_ticks: int = 0,
        **params,
    ) -> str:
        """Open a leased session for ``station``; returns the server id."""
        if station in self._stations:
            raise GatewayError(
                f"station {station!r} is already open on this client"
            )
        payload = protocol.encode_hello(
            station, method, series_names, warmup_ticks, params,
            token=self.token,
        )

        async def op(core: AsyncGatewayClient) -> str:
            reply = await core._request(
                protocol.FRAME_HELLO, payload, protocol.FRAME_HELLO_OK
            )
            return str(protocol.decode_hello_ok(reply)["session_id"])

        session_id = await self._with_retry(op)
        self._stations[station] = _Station(session_id)
        return session_id

    async def prime(
        self, station: str, history: Mapping[str, Sequence[float]]
    ) -> None:
        """Bulk-feed warm-up history (NOT replayed — see the class docs)."""
        core = self._require_core()
        await core._request(
            protocol.FRAME_PRIME,
            protocol.encode_prime(station, history),
            protocol.FRAME_PRIME_OK,
        )

    async def push(self, station: str, row) -> None:
        """Stream one record; kept in the outbox until the server ACKs it."""
        await self._push_rows(protocol.FRAME_PUSH, station, [row])

    async def push_block(self, station: str, rows: Sequence) -> None:
        """Stream a block of records with outbox-backed delivery."""
        await self._push_rows(protocol.FRAME_PUSH_BLOCK, station, rows)

    async def _push_rows(self, kind: int, station: str, rows: Sequence) -> None:
        state = self._stations.get(station)
        if state is None:
            raise GatewayError(
                f"station {station!r} has no open session "
                f"(call create_session first)"
            )
        seq = state.next_seq
        payloads, next_seq = protocol.encode_push_payloads(
            seq, station, rows, self._max_frame_payload
        )
        state.next_seq = next_seq
        for offset, payload in enumerate(payloads):
            state.outbox.append((seq + offset, kind, payload))
        self.records_pushed += len(rows)
        frames = [(kind, payload) for payload in payloads]
        start_reconnects = self.reconnects

        async def op(core: AsyncGatewayClient) -> None:
            if self.reconnects != start_reconnects:
                # A reconnect inside this retry loop already replayed the
                # whole outbox, these frames included.
                return
            await core.send_frames(self._receipt(core) + frames)

        await self._with_retry(op)

    async def flush(self) -> Dict[str, List[TickResult]]:
        """Barrier: deliver every earlier push's results and claim them.

        On success the server's ACKs have confirmed every pushed payload,
        so the outbox is empty afterwards.
        """

        async def op(core: AsyncGatewayClient) -> Dict[str, List[TickResult]]:
            receipt = self._receipt(core)
            if receipt:
                await core.send_frames(receipt)
            return await core.flush()

        self._claim(await self._with_retry(op))
        self._trim_all()
        return self.take_results()

    def take_results(self) -> Dict[str, List[TickResult]]:
        """Claim results received so far without a server round-trip."""
        if self._core is not None:
            self._harvest(self._core)
        gathered, self._results = self._results, {}
        return gathered

    async def ping(self) -> None:
        """Round-trip a PING/PONG token, reconnecting if the link is down."""

        async def op(core: AsyncGatewayClient) -> None:
            await core.ping()

        await self._with_retry(op)

    def raise_if_shed(self) -> None:
        """Raise :class:`~repro.exceptions.OverloadedError` on shed pushes."""
        self._trim_all()
        if self.shed:
            raise OverloadedError(
                f"{len(self.shed)} pushes shed by the gateway "
                f"(first: {self.shed[0]})"
            )

    # ------------------------------------------------------------------ #
    # Fault-injection seam (drills and tests)
    # ------------------------------------------------------------------ #
    def inject_disconnect(self) -> None:
        """Abort the underlying transport as a real network drop would.

        The next operation sees the dead socket and runs a full
        reconnect/resume/replay cycle — the seam the chaos drills use to
        fire seeded disconnects mid-stream.
        """
        if self._core is not None:
            self._core._writer.transport.abort()


class ResilientGatewayClient:
    """Synchronous wrapper over :class:`AsyncResilientGatewayClient`.

    Drop-in replacement for :class:`~repro.gateway.client.GatewayClient`
    that transparently survives connection drops::

        with ResilientGatewayClient("127.0.0.1", port) as client:
            client.create_session("station-7", pattern_size=12, k=3)
            client.prime("station-7", history)
            for row in stream:          # the socket may die at any point
                client.push("station-7", row)
            results = client.flush()["station-7"]   # bit-identical anyway

    ``timeout`` bounds each *operation including its reconnect cycle*, so
    it should comfortably exceed the policy's worst-case backoff total.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        policy: Optional[ReconnectPolicy] = None,
        rng: Optional[random.Random] = None,
        timeout: float = 60.0,
        max_frame_payload: int = protocol.DEFAULT_MAX_FRAME_PAYLOAD,
    ) -> None:
        self._timeout = float(timeout)
        self._loop = asyncio.new_event_loop()
        try:
            self._core: Optional[AsyncResilientGatewayClient] = (
                self._loop.run_until_complete(
                    AsyncResilientGatewayClient.connect(
                        host, port,
                        token=token,
                        policy=policy,
                        rng=rng,
                        max_frame_payload=max_frame_payload,
                    )
                )
            )
        except BaseException:
            self._loop.close()
            raise

    def _require(self) -> AsyncResilientGatewayClient:
        """The live async core — raises after close() instead of exploding
        on ``None`` when a caller builds a coroutine from it."""
        if self._core is None:
            raise GatewayError("the resilient gateway client is closed")
        return self._core

    def _run(self, coroutine):
        if self._core is None:
            raise GatewayError("the resilient gateway client is closed")
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(coroutine, self._timeout)
            )
        except asyncio.TimeoutError:
            raise GatewayError(
                f"gateway operation timed out after {self._timeout:.1f}s "
                f"(including reconnect attempts)"
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

    def __enter__(self) -> "ResilientGatewayClient":
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
        """Open a leased session for ``station``; returns the server id."""
        return self._run(
            self._require().create_session(
                station, method, series_names, warmup_ticks=warmup_ticks, **params
            )
        )

    def prime(self, station: str, history: Mapping[str, Sequence[float]]) -> None:
        """Bulk-feed warm-up history into one station before streaming."""
        self._run(self._require().prime(station, history))

    def push(self, station: str, row) -> None:
        """Stream one record with outbox-backed at-least-once delivery."""
        self._run(self._require().push(station, row))

    def push_block(self, station: str, rows: Sequence) -> None:
        """Stream a block of records with outbox-backed delivery."""
        self._run(self._require().push_block(station, rows))

    def flush(self) -> Dict[str, List[TickResult]]:
        """Barrier: deliver and claim all results of earlier pushes."""
        return self._run(self._require().flush())

    def take_results(self) -> Dict[str, List[TickResult]]:
        """Claim results received so far without a server round-trip."""
        if self._core is None:
            raise GatewayError("the resilient gateway client is closed")
        return self._core.take_results()

    def ping(self) -> None:
        """Round-trip a PING/PONG token, reconnecting if needed."""
        self._run(self._require().ping())

    def inject_disconnect(self) -> None:
        """Abort the transport (fault-injection seam for drills/tests)."""
        if self._core is not None:
            self._core.inject_disconnect()

    # -- telemetry ------------------------------------------------------ #
    @property
    def token(self) -> Optional[str]:
        """The lease token presented in every HELLO."""
        return None if self._core is None else self._core.token

    @property
    def reconnects(self) -> int:
        """Completed reconnect/resume/replay cycles so far."""
        return 0 if self._core is None else self._core.reconnects

    @property
    def frames_replayed(self) -> int:
        """Outbox payloads re-sent across all reconnects."""
        return 0 if self._core is None else self._core.frames_replayed

    @property
    def outbox_frames(self) -> int:
        """Unacknowledged PUSH payloads currently held for replay."""
        return 0 if self._core is None else self._core.outbox_frames

    @property
    def shed(self) -> List[str]:
        """Messages of pushes the server shed under load."""
        if self._core is None:
            return []
        self._core._trim_all()  # fold the live connection's errors in
        return list(self._core.shed)

    @property
    def unavailable(self) -> List[Tuple[float, str]]:
        """``(retry_after, detail)`` of pushes refused on degraded shards."""
        if self._core is None:
            return []
        self._core._trim_all()
        return list(self._core.unavailable)

    @property
    def sessions(self) -> Dict[str, str]:
        """``{station: server-side namespaced session id}`` opened so far."""
        return {} if self._core is None else self._core.sessions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._core is None else "open"
        return f"ResilientGatewayClient({state}, sessions={len(self.sessions)})"
