"""Cluster worker: one process, one :class:`ImputationService` fleet.

A :class:`ClusterWorker` is the parent-side handle of a child process running
:func:`_worker_main`.  Parent and child always share a duplex pipe — the
**control plane** — and, on the default shared-memory transport, two
:class:`~repro.cluster.shm.SharedRingBuffer` segments — the **data plane**:

* **push ring** (coordinator → worker): streamed record blocks as
  length-prefixed codec frames (``(session-id, float64 block, presence
  bitmask)`` laid out in place — no pickle).  The worker *drains the ring*
  instead of ``conn.recv()`` for push traffic.
* **result ring** (worker → coordinator): imputed
  :class:`~repro.results.TickResult` lists encoded as flat numpy columns,
  each loop tick's results followed by an *applied marker* — the data-plane
  position below which every item has been applied (on a durable cluster:
  journaled).  The parent side hands the frames on as bytes; only a caller
  that needs the values decodes them (:func:`decode_results`).
* **signal channel** (worker → coordinator, one pipe shared by the fleet):
  one byte after each publication to a result ring, so a reader such as the
  gateway can sleep on it instead of polling.  It never carries commands.
* **pipe**: commands, snapshot blobs, errors, and backpressure wakeups —
  everything rare enough that pickling does not matter.  On the legacy
  ``pipe`` transport the pipe carries the data plane too, exactly as before.

Ordering across the two planes is kept by a per-worker *data-plane position*:
every frame (and every pipe-carried push fallback) is stamped with a
monotonically increasing position, and every control command carries the
position reached when it was sent as a **barrier** — the worker applies all
data items below the barrier before executing the command.  This preserves
the FIFO semantics of the single-pipe protocol: an RPC observes every push
that preceded it, bit for bit.

**Batching pushes per tick** is unchanged and amplified: each loop tick the
worker drains *everything* currently published (frames and piped pushes),
groups it by session, coalesces adjacent record matrices, and feeds each
session one vectorised :meth:`ImputationSession.push_block`.  The session's
block/tick parity guarantee makes the coalescing invisible in the results.

**Results stream out as they are applied.**  On the shared-memory transport
the worker publishes each loop tick's results, then the applied marker, the
moment the tick's imputation returns, without being asked.  Publishing never
blocks: frames that do not fit a full result ring wait in the worker's
outbox for the next loop pass, so a coordinator that stops draining can
never deadlock the worker (and through it, its own push-ring writes).  The
``collect`` command survives as the barrier behind
:meth:`ClusterCoordinator.flush
<repro.cluster.coordinator.ClusterCoordinator.flush>`: its reply names the
applied position to wait for on the result ring, plus any results the codec
could not represent (they travel inline, pickled).  On the legacy ``pipe``
transport every result travels in the ``collect`` reply.

Because a streamed push cannot be replied to, a failure while executing one
(say, a malformed row) is *deferred*: the exception is raised at the next
``collect`` for the coordinator to re-raise at the call site that gathers
results.
"""

from __future__ import annotations

import itertools
import os
import select
import struct
import time
import weakref
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ClusterError, WorkerCrashedError
from ..results import TickResult
from ..service import ImputationService
from .shm import (
    FRAME_APPLIED,
    FRAME_PUSH,
    FRAME_RESULTS,
    PushFrame,
    SharedRingBuffer,
    decode_push_frame,
    decode_result_frame,
    encode_push_frames,
    encode_result_frames,
    result_frame_session,
)
from .telemetry import WorkerTelemetry

__all__ = ["ClusterWorker", "InheritedSocket", "close_in_child", "decode_results"]

#: Default seconds a coordinator waits for one RPC reply before declaring the
#: worker dead.  Generous: a worker may legitimately spend a while imputing a
#: large coalesced block before it reaches the RPC in its queue.
DEFAULT_REPLY_TIMEOUT = 120.0

#: Poll slice while waiting for a reply: short enough to notice a crashed
#: worker (and to drain result rings) promptly, long enough to stay cheap.
_REPLY_POLL_SLICE = 0.01

#: Worker-side idle wait on the pipe when both planes are quiet.  Wakeups
#: are event-driven — the coordinator sends a ``wake`` control message when
#: it writes into an empty ring — so this only bounds the latency of the
#: rare lost-wakeup race (frame published in the instant between the
#: worker's last ring check and its pipe wait), and how late progress that
#: produced no results may be signalled.
_IDLE_POLL = 0.02

#: Spin sleep while waiting for in-flight frames below a command barrier.
_BARRIER_SPIN = 0.0001

#: First worker-side idle wait while results are queued behind a full result
#: ring: the reader frees space without telling the worker, so it retries,
#: doubling the wait up to ``_IDLE_POLL`` while the ring stays full.
_OUTBOX_RETRY = 0.0005

#: Payload of an applied marker: the u64 data-plane position.
_POSITION = struct.Struct("<Q")

#: Everything alive in this process that a forked worker must not keep, by
#: registration number.  A worker inherits all of it and closes it first
#: thing, in registration order (see :func:`_worker_main`); under ``spawn``
#: the map starts empty in the child.
_CLOSE_IN_CHILD: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_REGISTRATIONS = itertools.count()


def close_in_child(resource):
    """Register ``resource`` to be closed in every worker forked from here; returns it.

    ``resource`` is anything with ``close()``.  The registry holds it
    weakly: it leaves once this process drops it.
    What goes in: coordinator-side pipe ends (a worker holding one would
    keep that pipe open after the coordinator dies, and a pipe with a live
    writer never reports EOF — the worker would outlive its coordinator),
    and a gateway's listening and client sockets (see
    :class:`InheritedSocket`).
    """
    _CLOSE_IN_CHILD[next(_REGISTRATIONS)] = resource
    return resource


class InheritedSocket:
    """Registry entry for a socket a forked worker must release.

    Holding a copy, the worker would keep the connection open after the
    gateway closes it (its client never sees EOF) and a stopped gateway's
    port bound.  The worker cannot close the copy through the socket
    object, which asyncio does not expose, and closing the bare descriptor
    would let a later collection of that object close whatever reuses the
    number; so ``close()`` points the descriptor at ``/dev/null`` instead.
    Keep the entry alive as long as the socket.
    """

    def __init__(self, sock) -> None:
        self._sock = sock

    def close(self) -> None:
        """Release this process's copy of the socket (see the class docstring)."""
        descriptor = self._sock.fileno()
        if descriptor < 0:
            return  # closed before the fork
        null = os.open(os.devnull, os.O_RDWR)
        try:
            os.dup2(null, descriptor)
        finally:
            os.close(null)


def decode_results(items) -> List[TickResult]:
    """Tick results of drained items, in order.

    An item is a result frame as bytes (see :meth:`ClusterWorker.
    drain_results`), decoded here, or a :class:`~repro.results.TickResult`
    that travelled inline, kept as it is.
    """
    results: List[TickResult] = []
    for item in items:
        if isinstance(item, bytes):
            results.extend(decode_result_frame(item)[1])
        else:
            results.append(item)
    return results


def _as_rows(items: List) -> List:
    """Rows of an emit: push frames are decoded, other items are rows already."""
    rows: List = []
    for item in items:
        if isinstance(item, PushFrame):
            rows.extend(item.decode()[1])  # dicts, or the matrix's row views
        else:
            rows.append(item)
    return rows


# --------------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------------- #
def _coalesce_parts(parts: List) -> List:
    """Merge adjacent pending parts per session into maximal blocks.

    ``("matrix", m)`` parts with matching widths are concatenated into one
    block; ``("rows", r)`` parts are chained.  Order is preserved, so the
    session sees exactly the pushed tick sequence.
    """
    groups: List = []
    for kind, value in parts:
        if kind == "matrix":
            if (
                groups
                and isinstance(groups[-1], np.ndarray)
                and groups[-1].shape[1] == value.shape[1]
            ):
                groups[-1] = np.concatenate((groups[-1], value))
            else:
                groups.append(value)
        else:
            if groups and isinstance(groups[-1], list):
                groups[-1].extend(value)
            else:
                groups.append(list(value))
    return groups


def _execute_pending(service, telemetry, pending, buffered, deferred) -> None:
    """Impute the coalesced per-session groups drained this loop tick."""
    for session_id, parts in pending.items():
        for block in _coalesce_parts(parts):
            started = time.perf_counter()
            try:
                results = service.push_block(session_id, block)
            except Exception as error:  # surfaces at the next collect
                deferred.append(error)
                continue
            telemetry.record_push(
                len(block), len(results), time.perf_counter() - started
            )
            if results:
                buffered.setdefault(session_id, []).extend(results)
    pending.clear()


def _worker_main(worker_id: int, conn, durability=None, shm_names=None, signal=None) -> None:  # pragma: no cover - child process
    """Entry point of the worker child process (covered via subprocesses)."""
    # Inherited through fork (see close_in_child), released in registration
    # order: a gateway's listening sockets before the connections it
    # accepted, so a client that sees its connection close can rely on the
    # port being free.
    for _, resource in sorted(_CLOSE_IN_CHILD.items()):
        resource.close()
    service = ImputationService(durability=durability)
    telemetry = WorkerTelemetry(worker_id=worker_id)
    buffered: Dict[str, List[TickResult]] = {}
    #: Results the codec cannot represent: carried by the next collect reply.
    inline: Dict[str, List[TickResult]] = {}
    #: ``(kind, payload)`` frames waiting for space in the result ring.
    outbox: Deque[Tuple[int, bytes]] = deque()
    deferred: List[Exception] = []
    pending: Dict[str, list] = {}

    push_ring = result_ring = None
    if shm_names is not None:
        push_ring = SharedRingBuffer.attach(shm_names[0])
        result_ring = SharedRingBuffer.attach(shm_names[1])
    signal_fd = None
    if signal is not None:
        signal_fd = signal.fileno()
        os.set_blocking(signal_fd, False)
    retry = _OUTBOX_RETRY  # idle wait while the outbox is stuck

    # One poll object for the command pipe: Connection.poll() builds a
    # selector per call, which costs more than the rest of an idle pass.
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)

    def _ready(timeout: float = 0.0) -> bool:
        return bool(poller.poll(timeout * 1000.0))

    consumed = 0          # data-plane items applied (frames + piped pushes)
    announced = 0         # position of the last applied marker queued
    held: Optional[tuple] = None  # decoded frame waiting for its position

    def _pump(limit: Optional[int]) -> int:
        """Apply ring frames in position order; block up to ``limit``.

        With ``limit`` ``None``, applies whatever is already published and
        contiguous; with a barrier limit, waits for in-flight frames (they
        were written before the barrier command was sent, so they arrive).
        A positional gap means a piped push precedes the held frame — it is
        left held for the command loop to fill the gap.
        """
        nonlocal consumed, held
        applied = 0
        while True:
            if held is None:
                frame = push_ring.read()
                if frame is None:
                    if limit is None or consumed >= limit:
                        return applied
                    time.sleep(_BARRIER_SPIN)
                    continue
                _, view = frame
                telemetry.record_frame_in(len(view))
                held = decode_push_frame(view)
                push_ring.release()
            position, session_id, part = held
            if position != consumed:
                if limit is not None and consumed < limit:
                    raise ClusterError(
                        "data-plane ordering violated: frame "
                        f"{position} held at barrier {limit} with only "
                        f"{consumed} items applied"
                    )
                return applied
            pending.setdefault(session_id, []).append(part)
            consumed += 1
            held = None
            applied += 1
            if limit is not None and consumed >= limit:
                return applied

    def _publish() -> None:
        """Queue the results and applied position of this tick; write what fits.

        Never blocks on a full ring: the rest of the outbox waits for the
        next loop pass.  One byte on the signal channel tells the reader
        that something landed.  (Pipe transport: results wait for collect.)
        """
        nonlocal buffered, announced
        if result_ring is None:
            return
        for session_id, results in buffered.items():
            try:
                encoded = encode_result_frames(
                    session_id, results, result_ring.max_frame_payload
                )
                if any(
                    len(payload) > result_ring.max_frame_payload
                    for payload in encoded
                ):
                    # A single tick result too large to split (it alone
                    # overflows a frame) can never be written to the ring.
                    raise ValueError("unsplittable oversized result frame")
            except Exception:
                # Results the codec cannot represent stay on the pickled
                # control plane; correctness beats zero-copy here.
                inline.setdefault(session_id, []).extend(results)
            else:
                outbox.extend((FRAME_RESULTS, payload) for payload in encoded)
        buffered = {}
        if consumed != announced:
            outbox.append((FRAME_APPLIED, _POSITION.pack(consumed)))
            announced = consumed
        wrote = False
        while outbox:
            kind, payload = outbox[0]
            if not result_ring.try_write(kind, [payload]):
                telemetry.result_ring_stalls += 1
                break
            outbox.popleft()
            telemetry.record_frame_out(len(payload), 0)
            wrote = True
        if wrote and signal_fd is not None:
            try:
                os.write(signal_fd, b"\x01")
            except BlockingIOError:
                pass  # the channel is full: the reader has wake-ups pending

    running = True
    while running:
        try:
            commands = []
            if push_ring is None:
                commands.append(conn.recv())  # legacy: block on the pipe
            while _ready():
                commands.append(conn.recv())
            if push_ring is not None:
                drained = _pump(None)
                if not commands and not drained:
                    if not _ready(retry if outbox else _IDLE_POLL):
                        stuck = len(outbox)
                        _publish()
                        retry = (
                            min(retry * 2, _IDLE_POLL)
                            if outbox and len(outbox) >= stuck
                            else _OUTBOX_RETRY
                        )
                        continue
                    while _ready():
                        commands.append(conn.recv())
                    # A wake-up follows the frames it announces: apply them
                    # in this same pass.
                    drained = _pump(None)
        except (EOFError, OSError):
            break  # coordinator went away; nothing left to serve
        if push_ring is None:
            drained = 0
        telemetry.record_drain(len(commands) + drained)
        for message in commands:
            if push_ring is None:
                barrier, command = None, message
            else:
                barrier, command = message
            op = command[0]
            if op == "wake":
                continue  # ring data; the next _pump picks it up
            if op == "ping":
                # Health probe: answered BEFORE the data barrier, so a busy
                # but healthy worker replies within one loop tick even with
                # a deep push backlog — only a loop that stopped iterating
                # misses the short probe deadline.  Replies the monotonic
                # progress counters the supervisor compares across probes
                # to tell "slow" from "stuck".
                conn.send(("ok", telemetry.progress()))
                continue
            if op == "wedge":
                # Chaos seam: stop responding without exiting.  The process
                # stays alive but the serving loop never iterates again —
                # the live-but-wedged failure mode a liveness supervisor
                # must distinguish from a plain crash.
                while True:
                    time.sleep(3600.0)
            if op == "push":
                if barrier is not None:
                    _pump(barrier)
                    consumed += 1
                pending.setdefault(command[1], []).append(("rows", command[2]))
                continue
            # Any RPC is a barrier: data items queued before it must land
            # first so snapshots/collects observe a consistent state.
            if barrier is not None:
                _pump(barrier)
            _execute_pending(service, telemetry, pending, buffered, deferred)
            _publish()
            # Replies to the calls that move a session's tick count carry the
            # count, so the coordinator knows every session's confirmed tick.
            try:
                if op == "push_sync":
                    _, session_id, row, timestamp = command
                    started = time.perf_counter()
                    results = service.push(session_id, row, timestamp=timestamp)
                    telemetry.record_push(
                        1, len(results), time.perf_counter() - started
                    )
                    reply = (results, service.session(session_id).ticks_seen)
                elif op == "push_block":
                    _, session_id, block = command
                    started = time.perf_counter()
                    results = service.push_block(session_id, block)
                    telemetry.record_push(
                        len(block), len(results), time.perf_counter() - started
                    )
                    reply = (results, service.session(session_id).ticks_seen)
                elif op == "create_session":
                    _, session_id, method, series_names, warmup_ticks, params = command
                    service.create_session(
                        session_id, method=method, series_names=series_names,
                        warmup_ticks=warmup_ticks, **params,
                    )
                    reply = None
                elif op == "prime":
                    _, session_id, history = command
                    service.prime(session_id, history)
                    reply = service.session(session_id).ticks_seen
                elif op == "snapshot":
                    reply = service.snapshot(command[1])
                elif op == "restore":
                    _, session_id, blob = command
                    reply = service.restore(session_id, blob).ticks_seen
                elif op == "remove_session":
                    # Results already produced for the session stay queued:
                    # they are still delivered.
                    service.remove_session(command[1])
                    reply = None
                elif op == "collect":
                    # The flush barrier: everything below it is applied and
                    # its results queued.  The reply names the applied
                    # position to wait for on the result ring, plus the
                    # results that travel inline (all of them on the pipe
                    # transport).
                    if deferred:
                        raise deferred.pop(0)
                    if result_ring is None:
                        reply, buffered = (consumed, buffered), {}
                    else:
                        reply, inline = (consumed, inline), {}
                elif op == "stats":
                    telemetry.sessions = service.session_ids
                    reply = telemetry.as_dict()
                    durability_stats = service.durability_stats()
                    if durability_stats is not None:
                        reply["durability"] = durability_stats
                elif op == "session_ids":
                    reply = service.session_ids
                elif op == "shutdown":
                    reply = None
                    running = False
                else:
                    raise ClusterError(f"unknown worker command {op!r}")
            except Exception as error:
                conn.send(("error", error))
            else:
                conn.send(("ok", reply))
            if not running:
                break
        else:
            _execute_pending(service, telemetry, pending, buffered, deferred)
            _publish()
    service.close()  # release WAL handles; on-disk state stays recoverable
    conn.close()
    if push_ring is not None:
        push_ring.close()
        result_ring.close()


# --------------------------------------------------------------------------- #
# Parent-side handle
# --------------------------------------------------------------------------- #
class ClusterWorker:
    """Parent-side handle of one worker process.

    Owns the process object, the parent end of the command pipe and — on the
    shared-memory transport — both ring segments.  Provides the interaction
    shapes the coordinator needs: feed-and-forget streaming
    (:meth:`push_rows`), blocking RPC (:meth:`request`), pipelined RPC
    (:meth:`send_request` ... :meth:`recv_reply`), and result-ring draining
    (:meth:`drain_results` / :meth:`wait_applied`).  It also keeps the
    emit log: which session's rows sit below which data-plane position, so
    every applied marker the worker publishes settles exact per-session
    record counts.

    ``signal`` is the write end of the fleet's signal channel (shm
    transport only; see the module docstring).
    """

    def __init__(
        self,
        worker_id: int,
        context,
        durability=None,
        transport: str = "shm",
        ring_capacity: Optional[int] = None,
        signal=None,
    ) -> None:
        self.worker_id = int(worker_id)
        self._push_ring: Optional[SharedRingBuffer] = None
        self._result_ring: Optional[SharedRingBuffer] = None
        shm_names = None
        if transport == "shm":
            try:
                kwargs = {} if ring_capacity is None else {"capacity": ring_capacity}
                self._push_ring = SharedRingBuffer.create(**kwargs)
                self._result_ring = SharedRingBuffer.create(**kwargs)
                shm_names = (self._push_ring.name, self._result_ring.name)
            except OSError:  # pragma: no cover - no usable /dev/shm
                self._close_rings()
        elif transport != "pipe":
            raise ClusterError(
                f"unknown cluster transport {transport!r}; "
                f"expected 'shm' or 'pipe'"
            )
        #: Data-plane items sent (frames + piped push fallbacks) — the
        #: barrier stamped onto every control command.
        self._position = 0
        #: Highest applied position the worker has announced.
        self._applied = 0
        #: Emits not yet applied: ``(end position, session id, records)``.
        self._unapplied: Deque[Tuple[int, str, int]] = deque()
        #: Drained result frames whose applied marker has not arrived yet.
        self._unconfirmed: List[Tuple[str, bytes]] = []
        self._pipe_messages = 0
        self._pipe_data_bytes = 0
        self._push_ring_stalls = 0
        #: Whether an emit since the last :meth:`wake` found the ring empty.
        self._wake_due = False
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn = close_in_child(parent_conn)
        self._process = context.Process(
            target=_worker_main,
            args=(
                self.worker_id, child_conn, durability, shm_names,
                signal if self._result_ring is not None else None,
            ),
            name=f"repro-cluster-worker-{self.worker_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()  # the child holds its own copy

    @property
    def uses_shm(self) -> bool:
        """Whether this worker's data plane runs over shared memory."""
        return self._push_ring is not None

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    def send(self, *command) -> None:
        """Send one control message (barrier-stamped on the shm transport)."""
        payload = (self._position, command) if self.uses_shm else command
        try:
            self._conn.send(payload)
        except (BrokenPipeError, OSError) as error:
            raise ClusterError(
                f"worker {self.worker_id} is gone: {error}"
            ) from error
        self._pipe_messages += 1

    def push_rows(self, session_id: str, items: List, records: int) -> None:
        """Data-plane emit: stream ``records`` records to the worker, no reply.

        ``items`` are rows and :class:`~repro.cluster.shm.PushFrame` blocks,
        in order.  On the shm transport consecutive rows are laid out as
        codec frames in the push ring (splitting oversized runs) and each
        block is re-stamped as one frame; an emit the ring cannot take falls
        back, whole and decoded, to a barrier-stamped pipe push, which the
        worker applies at exactly the same data-plane position — ordering
        is preserved either way.  A full ring blocks (and counts the stall)
        rather than drop; a dead worker raises
        :class:`~repro.exceptions.WorkerCrashedError`.  A worker that may
        be asleep is woken by :meth:`wake`, once per batch of emits.
        """
        # A closed pipe means killed or fenced.  A crash not seen yet
        # surfaces at the next RPC or full-ring write: checking the process
        # here would cost a waitpid on every emit.
        if self._conn.closed:
            raise ClusterError(f"worker {self.worker_id} is gone")
        self._emit(session_id, items)
        # Logged once the rows are on their way: an emit that raised above
        # never reached the worker, so nothing waits for it to apply.
        self._unapplied.append((self._position, session_id, records))

    def _ring_frames(self, session_id: str, items: List) -> List[List]:
        """Chunk lists of the push frames carrying ``items``.

        Raises ``ValueError`` (before anything is written) when a row is too
        wide for one frame: the whole emit must then divert to the pipe, as
        bailing mid-emit would duplicate rows across planes.
        """
        limit = self._push_ring.max_frame_payload
        frames: List[List] = []
        rows: List = []

        def encode_rows() -> None:
            encoded, _ = encode_push_frames(
                self._position + len(frames), session_id, rows, limit
            )
            if any(
                sum(memoryview(chunk).nbytes for chunk in chunks) > limit
                for chunks in encoded
            ):
                raise ValueError("row too wide for a single ring frame")
            frames.extend(encoded)
            rows.clear()

        for item in items:
            if not isinstance(item, PushFrame):
                rows.append(item)
                continue
            if rows:
                encode_rows()
            header, block = item.restamped(self._position + len(frames), session_id)
            if len(header) + len(block) <= limit:
                frames.append([header, block])
            else:  # too large for one frame: split as rows
                rows.extend(_as_rows([item]))
        if rows:
            encode_rows()
        return frames

    def _emit(self, session_id: str, items: List) -> None:
        if self._push_ring is None:
            self._send_pipe_push(session_id, _as_rows(items))
            return
        try:
            frames = self._ring_frames(session_id, items)
        except Exception:
            self._send_pipe_push(session_id, _as_rows(items))
            self._position += 1
            return
        self._wake_due = self._wake_due or self._push_ring.is_empty
        for chunks in frames:
            self._push_ring_stalls += self._push_ring.write(
                FRAME_PUSH, chunks,
                alive=self._process.is_alive,
                describe=f"worker {self.worker_id}",
            )
        self._position += len(frames)

    def _send_pipe_push(self, session_id: str, rows: List) -> None:
        self._pipe_data_bytes += sum(
            8 * len(row) if hasattr(row, "__len__") else 8 for row in rows
        )
        self.send("push", session_id, rows)

    def wake(self) -> None:
        """Nudge the worker if an emit found its push ring empty.

        The worker may be asleep on its pipe; an already backlogged ring
        means it is awake and draining.  Sending one wake after a batch of
        emits lets the worker take the whole batch in one pass.
        """
        if not self._wake_due:
            return
        self._wake_due = False
        try:
            self.send("wake")
        except ClusterError:
            pass  # frames are durable in the ring; death surfaces later

    @property
    def ring_backlog(self) -> bool:
        """Whether the worker still has unread push frames (shm only)."""
        return self._push_ring is not None and not self._push_ring.is_empty

    def send_request(self, *command) -> None:
        """First half of a pipelined RPC; pair with :meth:`recv_reply`."""
        self.send(*command)

    def recv_reply(
        self,
        timeout: Optional[float] = DEFAULT_REPLY_TIMEOUT,
        drain=None,
    ):
        """Second half of a pipelined RPC: reply payload, or raise.

        Polls the pipe with a short deadline slice instead of blocking, so a
        worker that dies between frames surfaces
        :class:`~repro.exceptions.WorkerCrashedError` within one slice — not
        after the full ``timeout`` (which guards against a live-but-wedged
        worker).  ``drain`` is called between slices; the coordinator uses
        it to empty result rings while a ``collect`` reply is in flight.
        Raises the worker-side exception as-is when the command failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(_REPLY_POLL_SLICE):
                    break
            except (EOFError, OSError) as error:
                self._conn.close()
                raise WorkerCrashedError(
                    f"worker {self.worker_id} died mid-command: {error}"
                ) from error
            if drain is not None:
                drain()
            if not self._process.is_alive():
                # One final poll: the reply may have been written just
                # before the process exited.
                if not self._conn.poll(0):
                    self._conn.close()
                    raise WorkerCrashedError(
                        f"worker {self.worker_id} crashed before replying"
                    )
                break
            if deadline is not None and time.monotonic() > deadline:
                # The reply will still arrive eventually, which would leave
                # the FIFO protocol permanently off-by-one — a later RPC
                # would read this command's reply.  The connection cannot be
                # resynced, so poison it: the worker sees EOF and exits, and
                # every later call on this handle fails fast instead of
                # returning the wrong command's payload.
                self._conn.close()
                raise ClusterError(
                    f"worker {self.worker_id} did not reply within "
                    f"{timeout:.0f}s; its connection has been abandoned"
                )
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as error:
            # Poison the handle: the worker is gone, and a half-read pipe
            # could never be resynchronised anyway.
            self._conn.close()
            raise WorkerCrashedError(
                f"worker {self.worker_id} died mid-command: {error}"
            ) from error
        if status == "error":
            raise payload
        return payload

    def request(self, *command, timeout: Optional[float] = DEFAULT_REPLY_TIMEOUT):
        """Blocking RPC: send one command and wait for its reply."""
        self.send_request(*command)
        return self.recv_reply(timeout=timeout)

    def ping(self, timeout: float = 1.0) -> Dict[str, int]:
        """Short-deadline liveness probe; replies progress counters.

        The worker answers pings ahead of the data barrier, so a healthy
        worker replies within one loop tick regardless of push backlog.  A
        miss of the (deliberately short) deadline therefore means the loop
        itself is stuck; :meth:`recv_reply` then poisons the pipe, so the
        wedged worker reads as dead — exactly the fencing a supervisor
        needs before restarting the shard.
        """
        return self.request("ping", timeout=timeout)

    def wedge(self) -> None:
        """Fault injection: command the worker to hang its serving loop.

        One-way — the worker never replies (nor to anything after), so the
        only safe follow-ups on this handle are :meth:`ping` (which will
        time out and poison the pipe) and :meth:`kill`.
        """
        self.send("wedge")

    # ------------------------------------------------------------------ #
    # Result-ring draining (shm transport) and the emit log
    # ------------------------------------------------------------------ #
    def drain_results(self, sink) -> List[Tuple[str, int]]:
        """Take every published frame without blocking.

        Each result frame is copied out of the ring as bytes, undecoded
        (:func:`decode_results` turns such items into
        :class:`~repro.results.TickResult` lists), and goes to
        ``sink(session_id, frame)`` once the applied marker after it
        arrives, so only confirmed work is handed out: results a worker
        published and died before confirming are dropped with its
        unconfirmed records (see :meth:`settle_all`).  Applied markers
        settle the emit log; returns the ``(session_id, records)`` emits
        they showed applied.
        """
        if self._result_ring is None:
            return []
        applied = self._applied
        while True:
            frame = self._result_ring.read()
            if frame is None:
                break
            kind, view = frame
            if kind == FRAME_APPLIED:
                applied = _POSITION.unpack(view)[0]
                self._result_ring.release()
                for session_id, payload in self._unconfirmed:
                    sink(session_id, payload)
                self._unconfirmed.clear()
                continue
            payload = bytes(view)
            self._result_ring.release()
            self._unconfirmed.append((result_frame_session(payload), payload))
        return self._settle(applied)

    def wait_applied(
        self, position: int, sink, timeout: float = DEFAULT_REPLY_TIMEOUT
    ) -> List[Tuple[str, int]]:
        """Drain until the worker announces ``position`` as applied.

        Called after a ``collect`` reply named its position; the worker has
        already queued every frame below it and publishes the rest as the
        ring frees up, so this normally returns after one or two drains.  A
        worker death mid-publication leaves at worst a torn (never-published,
        hence invisible) frame — it is discarded with the segment and
        surfaces here as :class:`~repro.exceptions.WorkerCrashedError`.
        Returns the settled emits, like :meth:`drain_results`.
        """
        settled = self.drain_results(sink)
        deadline = time.monotonic() + timeout
        while self._applied < position:
            time.sleep(_BARRIER_SPIN)
            settled += self.drain_results(sink)
            if self._applied >= position:
                break
            if not self._process.is_alive():
                raise WorkerCrashedError(
                    f"worker {self.worker_id} crashed while publishing "
                    f"results; torn frames discarded"
                )
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"worker {self.worker_id} did not apply position "
                    f"{position} within {timeout:.0f}s"
                )
        return settled

    def settle_all(self) -> List[Tuple[str, int]]:
        """Pop the whole emit log (pipe-transport collect, or a dead worker).

        Results drained without their applied marker are dropped: a dead
        worker never confirmed them.
        """
        self._unconfirmed.clear()
        return self._settle(None)

    def _settle(self, applied: Optional[int]) -> List[Tuple[str, int]]:
        if applied is not None:
            self._applied = applied
        settled = []
        log = self._unapplied
        while log and (applied is None or log[0][0] <= applied):
            _, session_id, records = log.popleft()
            settled.append((session_id, records))
        return settled

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def push_ring_stalls(self) -> int:
        """Ring-full backpressure stalls writing pushes to this worker.

        0 on the pipe transport (there is no ring to fill).  Cheap enough
        to poll: it is the coordinator's own counter, no RPC involved.
        """
        return self._push_ring_stalls

    def transport_stats(self) -> Dict[str, object]:
        """Coordinator-side data-plane counters for this worker."""
        stats: Dict[str, object] = {
            "mode": "shm" if self.uses_shm else "pipe",
            "pipe_messages": self._pipe_messages,
            "pipe_data_bytes": self._pipe_data_bytes,
        }
        if self._push_ring is not None:
            stats.update(
                shm_frames_to_worker=self._push_ring.frames_written,
                shm_bytes_to_worker=self._push_ring.bytes_written,
                shm_frames_from_worker=self._result_ring.frames_read,
                shm_bytes_from_worker=self._result_ring.bytes_read,
                push_ring_stalls=self._push_ring_stalls,
                ring_capacity=self._push_ring.capacity,
            )
        return stats

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _close_rings(self) -> None:
        for ring in (self._push_ring, self._result_ring):
            if ring is not None:
                ring.close()
        self._push_ring = None
        self._result_ring = None

    @property
    def alive(self) -> bool:
        """Whether the worker is still usable (process up, pipe open).

        A worker whose connection was poisoned by a reply timeout counts as
        dead even while its process lingers: the FIFO protocol on that pipe
        can never be resynchronised, so the only way forward is a restart
        (see :meth:`ClusterCoordinator.recover_worker
        <repro.cluster.coordinator.ClusterCoordinator.recover_worker>`).
        """
        return self._process.is_alive() and not self._conn.closed

    def kill(self, salvage=None) -> None:
        """Hard-kill the worker process without draining it (crash injection).

        Unlike :meth:`stop` there is no graceful ``shutdown`` RPC: the
        process is terminated mid-flight, exactly like an OOM kill or a node
        failure — a frame being written when the signal lands stays torn and
        unpublished, and is discarded with the ring segments here.  Used by
        the crash-recovery tests and by
        :meth:`ClusterCoordinator.terminate_worker
        <repro.cluster.coordinator.ClusterCoordinator.terminate_worker>`;
        with durability enabled, every record the worker acknowledged is
        recoverable from its checkpoint store afterwards.  ``salvage(self)``
        runs between the death and the ring teardown, to drain what the
        worker had published.
        """
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - wedged worker
            self._process.kill()
            self._process.join(timeout=10.0)
        self._conn.close()
        if salvage is not None and self._result_ring is not None:
            salvage(self)
        self._close_rings()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the worker down: graceful ``shutdown`` RPC, then escalate."""
        if self._process.is_alive():
            try:
                self.request("shutdown", timeout=timeout)
            except ClusterError:
                pass  # already dead or wedged; escalate below
        self._process.join(timeout=timeout)
        if self._process.is_alive():  # pragma: no cover - wedged worker
            self._process.terminate()
            self._process.join(timeout=timeout)
        self._conn.close()
        self._close_rings()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "stopped"
        transport = "shm" if self.uses_shm else "pipe"
        return f"ClusterWorker(id={self.worker_id}, {transport}, {state})"
