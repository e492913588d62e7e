"""Cluster coordinator: the :class:`ImputationService` facade over N workers.

:class:`ClusterCoordinator` exposes the same push / push_block / snapshot
surface as a single-process :class:`~repro.service.ImputationService`, but
every session actually lives inside one of N :class:`~repro.cluster.worker.
ClusterWorker` processes, chosen by the :class:`~repro.cluster.router.
ShardRouter`.  One Python process's GIL therefore stops being the throughput
ceiling: sessions are spread over workers, and each worker imputes its own
shard independently.

Two ingestion shapes:

* **Synchronous** — :meth:`push` / :meth:`push_block` round-trip one command
  to the owning worker and return its :class:`~repro.results.TickResult`
  list, exactly like the single-process service.
* **Pipelined** — :meth:`push_nowait` streams records without waiting;
  :meth:`flush` gathers everything produced so far, per session in tick
  order; :meth:`push_many` wraps the two for a whole record stream.  On the
  way in, the coordinator micro-batches consecutive records per session
  (``linger_records`` per pipe message, Kafka-producer style) and each worker
  additionally coalesces whatever has queued up per loop tick, so sustained
  streams are imputed through the vectorised block path regardless of OS
  scheduling.
* **Streamed** — on the shm transport, workers publish results as soon as
  they apply a block, so a caller that cannot block (the gateway's event
  loop) emits its buffered rows with :meth:`emit_pending`, sleeps on
  :attr:`result_signal`, and takes whatever landed with
  :meth:`poll_results`; :meth:`applied_records` says how many of a
  session's streamed records the workers have applied (on a durable
  cluster: journaled).  :meth:`flush` remains the barrier.  Neither
  direction need be decoded here: :meth:`push_frame_nowait` streams a
  block held as an encoded push frame (the gateway's validated PUSH
  payloads), and :meth:`poll_results` hands result frames out as bytes.

Live operations ride on the session checkpoint primitive — the exact
``snapshot()`` / ``restore()`` round trip:

* :meth:`drain` empties one worker (pre-rollout): its sessions are
  snapshotted, restored onto the remaining workers along the router's
  minimal move plan, and the drained worker accepts no new placements.
* :meth:`rebalance` changes the worker count in place, migrating only the
  sessions the router's rendezvous hashing actually re-places.

Both preserve bit-identical outputs: a stream pushed across a mid-stream
drain or rebalance produces exactly the estimates of an uninterrupted
single-process run (``tests/cluster/test_cluster.py``).

Constructed with a :class:`~repro.durability.journal.DurabilityConfig`, the
cluster is additionally *crash-safe*: every worker journals its shard to its
own subdirectory of the durability root (``worker-00/``, ``worker-01/``,
...), and the coordinator can detect a dead worker
(:meth:`ClusterCoordinator.dead_workers`), respawn it, and restore its shard
from disk (:meth:`ClusterCoordinator.recover_worker` /
:meth:`ClusterCoordinator.heal`) — or rebuild an entire fleet after a full
outage (:meth:`ClusterCoordinator.recover_from_disk`).  Recovered sessions
resume bit-identically (``tests/cluster/test_crash_recovery.py``).

Since PR 5 the cluster has two transports (``transport=`` constructor
argument):

* ``"shm"`` (default) — the **shared-memory data plane**: streamed record
  blocks travel coordinator → worker through a per-worker
  :class:`~repro.cluster.shm.SharedRingBuffer`, and imputed tick results
  travel back through a second ring, both as pickle-free codec frames (see
  :mod:`repro.cluster.shm`).  The pipe remains the **control plane**:
  commands, snapshot blobs, errors, and backpressure wakeups.  On the way
  in the coordinator *coalesces adaptively* — while a worker's ring has a
  backlog, the per-session micro-batch grows (up to ``linger_cap``) so a
  busy worker receives fewer, larger frames and imputes through larger
  vectorised blocks.
* ``"pipe"`` — the pre-PR-5 behaviour: everything is pickled through the
  duplex pipe.  Kept for comparison benchmarks and as a fallback where
  ``/dev/shm`` is unavailable.

Control messages and snapshot blobs still cross process boundaries as
pickles, so everything said about trusting snapshot blobs in
:mod:`repro.service.session` applies to the cluster's pipes as well — they
are process-local and never leave the machine.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..durability.journal import DurabilityConfig
from ..durability.recovery import RecoveryManager, RecoveryReport, SessionRecovery
from ..durability.store import discover_stores
from ..exceptions import (
    ClusterError,
    RecoveryError,
    RolledBackError,
    ServiceError,
    UnavailableError,
)
from ..results import TickResult
from ..service.session import Tick
from .router import MovePlan, ShardRouter
from .shm import PushFrame
from .telemetry import aggregate_stats
from .worker import ClusterWorker, close_in_child, decode_results

__all__ = ["ClusterCoordinator"]

#: Records buffered per session before a data-plane emit on the pipelined
#: path.  64 rows keeps transport traffic low and blocks big enough for the
#: vectorised path while bounding per-record latency.
DEFAULT_LINGER_RECORDS = 64

#: Ceiling of the adaptive micro-batch on the shm transport: while a
#: worker's push ring has a backlog the per-session linger doubles per emit,
#: capped here so per-record latency stays bounded even under sustained
#: overload.
DEFAULT_LINGER_CAP = 512

#: Pipelined records in flight (sent, results not yet collected) per worker
#: before the coordinator collects mid-stream to bound worker-side buffering.
DEFAULT_MAX_INFLIGHT = 20_000

#: Outstanding RPCs during a fan-out gather (snapshot_all, migrations).
#: Bounded so neither pipe direction fills while the coordinator is still
#: sending: unbounded pipelining over thousands of sessions would deadlock
#: both processes in ``send`` once the OS pipe buffers are full of snapshot
#: blobs.
_PIPELINE_WINDOW = 32


class _Linger:
    """One session's pipelined records not emitted yet, in push order.

    ``items`` holds rows (one record each) and
    :class:`~repro.cluster.shm.PushFrame` blocks; ``records`` counts the
    records they carry.
    """

    __slots__ = ("items", "records")

    def __init__(self) -> None:
        self.items: list = []
        self.records = 0


def _serialized(method):
    """Run a public method under the coordinator's re-entrant lock."""

    @functools.wraps(method)
    def serialized(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return serialized


class ClusterCoordinator:
    """Serve many imputation sessions across ``num_workers`` processes.

    Examples
    --------
    >>> with ClusterCoordinator(num_workers=2) as cluster:
    ...     _ = cluster.create_session("north", method="locf",
    ...                                series_names=["n1", "n2"])
    ...     _ = cluster.push("north", {"n1": 1.0, "n2": 2.0})
    ...     cluster.push("north", {"n1": float("nan"), "n2": 3.0})[0]["n1"].value
    1.0

    Every public method that touches the workers holds one re-entrant lock,
    so a gateway thread draining results (:meth:`poll_results`) never
    interleaves with another thread probing (:meth:`stats`,
    :meth:`ping_worker`) or repairing (:meth:`heal`) the same fleet.
    """

    def __init__(
        self,
        num_workers: int = 2,
        *,
        start_method: Optional[str] = None,
        transport: str = "shm",
        ring_capacity: Optional[int] = None,
        linger_records: int = DEFAULT_LINGER_RECORDS,
        linger_cap: int = DEFAULT_LINGER_CAP,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        if num_workers < 1:
            raise ClusterError(f"a cluster needs at least one worker, got {num_workers}")
        if linger_records < 1:
            raise ClusterError(f"linger_records must be >= 1, got {linger_records}")
        if transport not in ("shm", "pipe"):
            raise ClusterError(
                f"unknown cluster transport {transport!r}; expected 'shm' or 'pipe'"
            )
        self._context = multiprocessing.get_context(start_method)
        self._lock = threading.RLock()
        self._router = ShardRouter(num_workers)
        self._durability = durability
        self._transport = transport
        self._ring_capacity = ring_capacity
        #: The fleet's signal channel (shm only): workers write one byte to
        #: it after each publication to their result rings.
        self._signal_reader = self._signal_writer = None
        if transport == "shm":
            reader, writer = self._context.Pipe(duplex=False)
            for end in (reader, writer):
                os.set_blocking(end.fileno(), False)
            self._signal_reader = close_in_child(reader)
            self._signal_writer = writer
        #: Per-worker adaptive micro-batch target (shm transport only).
        self._linger_target: Dict[int, int] = {}
        self._workers: List[ClusterWorker] = [
            self._spawn_worker(i) for i in range(num_workers)
        ]
        self._linger_records = int(linger_records)
        self._linger_cap = max(int(linger_cap), int(linger_records))
        self._max_inflight = int(max_inflight)
        #: Per-session records accepted by push_nowait/push_frame_nowait
        #: but not yet emitted.
        self._linger: Dict[str, _Linger] = {}
        #: Per-worker records emitted onto the data plane but not yet
        #: reported applied by the worker.
        self._inflight: Dict[int, int] = {i: 0 for i in range(num_workers)}
        #: Lifetime high-water mark of ``_inflight`` per worker — how deep
        #: the pipelined backlog ever got (watermark telemetry for callers
        #: like the gateway that need to tune backpressure thresholds).
        self._inflight_peak: Dict[int, int] = {i: 0 for i in range(num_workers)}
        #: Results drained from the workers but not yet handed out: result
        #: frames as bytes, and TickResults that travelled inline.
        self._stash: Dict[str, list] = {}
        #: Deferred push failures collected but not raised yet: each is
        #: raised by one flush().
        self._deferred: List[Exception] = []
        #: Per-session pipelined records the workers have applied.
        self._applied_records: Dict[str, int] = {}
        #: Per-session tick count once everything routed to it is applied
        #: (synchronous replies report the count, pipelined records add one
        #: each): where a crash recovery rolls a session back to.
        self._routed_ticks: Dict[str, int] = {}
        #: Sessions a crash rolled back, until rewind(): records dropped.
        self._rolled_back: Dict[str, int] = {}
        #: Workers that received data since their last collect barrier.
        self._uncollected: Set[int] = set()
        self._records_routed: Dict[int, int] = {i: 0 for i in range(num_workers)}
        #: Shards quarantined by a supervisor's crash-loop breaker: worker
        #: index → retry-after hint (seconds).  Pushes to a degraded shard
        #: raise :class:`~repro.exceptions.UnavailableError` instead of
        #: touching the (most likely dead) worker, and result collection
        #: skips it, so healthy shards keep serving.
        self._degraded: Dict[int, float] = {}
        #: Coordinator-side recovery telemetry (surfaced by stats()).
        self._worker_recoveries = 0
        self._recovery_replay_seconds = 0.0
        self._recovery_records_replayed = 0
        self._lost_inflight_records = 0
        self._closed = False

    def _spawn_worker(self, index: int) -> ClusterWorker:
        """Start one worker process, durability-scoped to its own subdirectory."""
        durability = (
            self._durability.for_worker(index) if self._durability else None
        )
        self._linger_target.pop(index, None)
        return ClusterWorker(
            index,
            self._context,
            durability=durability,
            transport=self._transport,
            ring_capacity=self._ring_capacity,
            signal=self._signal_writer,
        )

    @property
    def transport(self) -> str:
        """The configured data-plane transport (``"shm"`` or ``"pipe"``)."""
        return self._transport

    @property
    def result_signal(self) -> Optional[int]:
        """File descriptor that turns readable when results were published.

        Register it with an event loop (``loop.add_reader``) and call
        :meth:`poll_results` when it fires.  ``None`` on the pipe transport,
        where results only travel with the :meth:`flush` barrier.
        """
        return None if self._signal_reader is None else self._signal_reader.fileno()

    # ------------------------------------------------------------------ #
    # Topology introspection
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Number of worker processes (drained ones included)."""
        return len(self._workers)

    @property
    def router(self) -> ShardRouter:
        """The live routing table (read it, don't mutate it)."""
        return self._router

    @property
    def session_ids(self) -> List[str]:
        """Ids of all sessions across all workers, sorted."""
        return sorted(self._router.shard_map)

    def worker_of(self, session_id: str) -> int:
        """Index of the worker currently owning ``session_id``."""
        return self._router.shard_of(session_id)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._router

    def __len__(self) -> int:
        return len(self._router)

    def __iter__(self) -> Iterator[str]:
        return iter(self.session_ids)

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    @_serialized
    def create_session(
        self,
        session_id: str,
        method: str = "tkcm",
        series_names: Optional[Sequence[str]] = None,
        *,
        warmup_ticks: int = 0,
        **params,
    ) -> int:
        """Create a session on its rendezvous worker; returns the worker index.

        Same signature as :meth:`ImputationService.create_session`, except the
        session object lives in a worker process, so the *worker index* is
        returned instead of the session.
        """
        self._ensure_open()
        if session_id in self._router:
            raise ServiceError(f"session {session_id!r} already exists")
        shard = self._router.place(session_id)
        self._workers[shard].request(
            "create_session", session_id, method, series_names, warmup_ticks, params
        )
        self._router.add(session_id, shard)
        self._routed_ticks[session_id] = 0
        return shard

    @_serialized
    def remove_session(self, session_id: str) -> None:
        """Remove a session from its worker and the routing table.

        Rows still buffered for it are emitted first, and the worker keeps
        the results of everything it applied queued for delivery, so they
        stay claimable (:meth:`poll_results`, :meth:`flush`) instead of
        vanishing with the session.
        """
        self._ensure_open()
        self._flush_linger()
        shard = self._require_session(session_id)
        self._workers[shard].request("remove_session", session_id)
        self._router.remove(session_id)
        for counts in (self._applied_records, self._routed_ticks, self._rolled_back):
            counts.pop(session_id, None)

    #: Alias matching :meth:`ImputationService.close_session` (which returns
    #: the session object; here the state stays inside the worker).
    close_session = remove_session

    # ------------------------------------------------------------------ #
    # Synchronous ingestion (ImputationService surface)
    # ------------------------------------------------------------------ #
    @_serialized
    def push(
        self, session_id: str, tick: Tick, timestamp: Optional[float] = None
    ) -> List[TickResult]:
        """Route one record to its worker and wait for the imputations.

        ``timestamp`` opts the push into the owning session's duplicate/
        stale ingest policy exactly like
        :meth:`ImputationService.push <repro.service.service.ImputationService.push>`
        — which is also what lets crash recovery replay watermark-carrying
        WAL frames through a cluster target.
        """
        self._ensure_open()
        shard = self._require_session(session_id)
        self._check_available(shard, session_id)
        if session_id in self._rolled_back:
            self._refuse_rolled_back(session_id)
        self._flush_linger()  # earlier pipelined records must land first
        self._records_routed[shard] += 1
        results, self._routed_ticks[session_id] = self._workers[shard].request(
            "push_sync", session_id, tick, timestamp
        )
        return results

    @_serialized
    def push_block(self, session_id: str, block) -> List[TickResult]:
        """Route a whole block to its worker and wait for the imputations."""
        self._ensure_open()
        shard = self._require_session(session_id)
        self._check_available(shard, session_id)
        if session_id in self._rolled_back:
            self._refuse_rolled_back(session_id)
        self._flush_linger()
        if not hasattr(block, "__len__"):
            block = list(block)
        self._records_routed[shard] += len(block)
        results, self._routed_ticks[session_id] = self._workers[shard].request(
            "push_block", session_id, block
        )
        return results

    @_serialized
    def prime(self, session_id: str, history: Mapping[str, Sequence[float]]) -> None:
        """Bulk-feed history into one session before streaming starts."""
        self._ensure_open()
        self._flush_linger()
        shard = self._require_session(session_id)
        self._check_available(shard, session_id)
        self._routed_ticks[session_id] = self._workers[shard].request(
            "prime", session_id, history
        )

    # ------------------------------------------------------------------ #
    # Pipelined ingestion
    # ------------------------------------------------------------------ #
    @_serialized
    def push_nowait(self, session_id: str, tick: Tick) -> None:
        """Stream one record without waiting for its results.

        Records are micro-batched per session (``linger_records`` per
        data-plane emit; on the shm transport the batch grows adaptively up
        to ``linger_cap`` while the owning worker's ring has a backlog) until
        :meth:`emit_pending` or any RPC sends them; their results are
        claimed with :meth:`poll_results` or :meth:`flush`.  Per-session
        ordering is preserved end to end.  A record the session rejects
        fails the next :meth:`flush`, never this call.
        """
        self._admit(session_id, tick, 1)

    @_serialized
    def push_frame_nowait(self, session_id: str, frame: PushFrame) -> None:
        """Stream a block of records, held as an encoded push frame.

        Like :meth:`push_nowait` for each of the frame's ``rows`` records,
        but the block is never decoded on this side: on the shm transport it
        is re-stamped into the worker's push ring as one frame (the gateway
        forwards the PUSH payloads it validated this way).
        """
        self._admit(session_id, frame, frame.rows)

    @_serialized
    def flush(self) -> Dict[str, List[TickResult]]:
        """Deliver all pending pipelined records and gather their results.

        Returns ``{session_id: [TickResult, ...]}`` covering every record
        streamed with :meth:`push_nowait` whose results were not already
        handed out by :meth:`poll_results`, each session's results in tick
        order.  Blocks until every worker that received data has applied it
        (the barrier behind a gateway FLUSH); a deferred push failure is
        raised here, each by one flush.
        """
        self._ensure_open()
        self._collect_into_stash()
        self._raise_deferred()
        gathered, self._stash = self._stash, {}
        return {
            session_id: decode_results(items) for session_id, items in gathered.items()
        }

    @_serialized
    def emit_pending(self) -> None:
        """Send every row :meth:`push_nowait` buffered, without waiting."""
        self._ensure_open()
        self._flush_linger()

    @_serialized
    def poll_results(self) -> Dict[str, list]:
        """Take the results published so far, without blocking or decoding.

        Consumes pending wake-ups on :attr:`result_signal`, drains every
        result ring and settles the applied markers it finds (so
        :meth:`pipelined_backlog` and :meth:`applied_records` move), and
        returns ``{session_id: [item, ...]}`` in tick order.  An item is one
        result frame as bytes (the layout of
        :func:`~repro.cluster.shm.decode_result_frame`) or a
        :class:`~repro.results.TickResult` the ring could not carry;
        :func:`~repro.cluster.worker.decode_results` turns a list of items
        into tick results.  Never touches the command pipes, so it is safe
        while the workers are busy with anything else.
        """
        self._ensure_open()
        if self._signal_reader is not None:
            try:
                while len(os.read(self._signal_reader.fileno(), 4096)) == 4096:
                    pass
            except BlockingIOError:
                pass
        for worker in self._workers:
            self._settle(worker, worker.drain_results(self._sink))
        gathered, self._stash = self._stash, {}
        return gathered

    def applied_records(self, session_id: str) -> int:
        """Pipelined records of ``session_id`` its worker has applied.

        On a durable cluster, applied means journaled.  The count moves only
        as drained applied markers confirm records, so it never counts a
        record a crash rolled back (see :meth:`recover_worker`).
        """
        return self._applied_records.get(session_id, 0)

    def rolled_back_records(self, session_id: str) -> int:
        """Records a worker crash dropped from ``session_id``, until :meth:`rewind`."""
        return self._rolled_back.get(session_id, 0)

    @_serialized
    def rewind(self, session_id: str) -> int:
        """Accept a crash rollback; returns the records to re-send after.

        The return value is :meth:`applied_records`: the session holds
        exactly its first that many pipelined records, so a caller that
        still has the rest (a gateway client's outbox) re-sends them in
        order and the stream continues as if the crash never happened.
        Pushes to the session raise :class:`~repro.exceptions.RolledBackError`
        until this is called.
        """
        self._rolled_back.pop(session_id, None)
        return self.applied_records(session_id)

    @_serialized
    def pipelined_backlog(self) -> int:
        """Records accepted by :meth:`push_nowait` and not yet applied.

        Counts both rows still lingering coordinator-side and records
        already emitted onto the data plane whose applied markers have not
        been drained yet.  Cheap (no RPC) — suitable for polling by an
        ingest tier deciding whether to apply backpressure.
        """
        lingering = sum(linger.records for linger in self._linger.values())
        return lingering + sum(self._inflight.values())

    def data_plane_stalls(self) -> int:
        """Total ring-full backpressure stalls seen writing to workers.

        A stall means a worker's shared-memory push ring was full and the
        coordinator had to spin-wait — the earliest observable signal that
        the fleet is running behind the offered load.  Cheap (coordinator's
        own counters, no RPC); always 0 on the pipe transport.
        """
        return sum(worker.push_ring_stalls for worker in self._workers)

    @_serialized
    def push_many(
        self, records: Iterable[Tuple[str, Tick]]
    ) -> Dict[str, List[TickResult]]:
        """Stream ``(session_id, record)`` pairs pipelined, then flush.

        The high-throughput entry point for fan-in ingestion: all records are
        in flight before any result is awaited, so workers impute while the
        coordinator is still routing.  Workers that fill their result rings
        meanwhile keep applying and queue the overflow, so a stream producing
        more results than a ring holds still completes.
        """
        for session_id, tick in records:
            self.push_nowait(session_id, tick)
        return self.flush()

    # ------------------------------------------------------------------ #
    # Checkpointing (ImputationService surface)
    # ------------------------------------------------------------------ #
    @_serialized
    def snapshot(self, session_id: str) -> bytes:
        """Checkpoint one session into an opaque blob.

        See :meth:`ImputationSession.snapshot` for the trust caveats.
        """
        self._ensure_open()
        self._flush_linger()
        shard = self._require_session(session_id)
        return self._workers[shard].request("snapshot", session_id)

    @_serialized
    def restore(self, session_id: str, blob: bytes) -> int:
        """Rebuild ``session_id`` from a snapshot blob on its worker.

        Replaces the session if the id exists (rollback), otherwise places it
        like a new session.  Returns the worker index.
        """
        self._ensure_open()
        self._flush_linger()
        if session_id in self._router:
            shard = self._router.shard_of(session_id)
        else:
            shard = self._router.place(session_id)
        self._routed_ticks[session_id] = self._workers[shard].request(
            "restore", session_id, blob
        )
        if session_id not in self._router:
            self._router.add(session_id, shard)
        return shard

    @_serialized
    def snapshot_all(self) -> Dict[str, bytes]:
        """Checkpoint every session on every worker, keyed by session id."""
        self._ensure_open()
        self._flush_linger()
        blobs: Dict[str, bytes] = {}
        requested: List[Tuple[str, ClusterWorker]] = []

        def gather() -> None:
            for session_id, worker in requested:
                blobs[session_id] = worker.recv_reply()
            requested.clear()

        for session_id, shard in sorted(self._router.shard_map.items()):
            worker = self._workers[shard]
            worker.send_request("snapshot", session_id)
            requested.append((session_id, worker))
            if len(requested) >= _PIPELINE_WINDOW:
                gather()
        gather()
        return blobs

    def restore_all(self, blobs: Mapping[str, bytes]) -> None:
        """Rebuild every session from :meth:`snapshot_all` output."""
        for session_id, blob in blobs.items():
            self.restore(session_id, blob)

    # ------------------------------------------------------------------ #
    # Live operations
    # ------------------------------------------------------------------ #
    @_serialized
    def drain(self, worker_index: int) -> MovePlan:
        """Move every session off one worker and stop placing new ones there.

        The pre-rollout primitive: after ``drain(i)`` the worker is idle and
        can be restarted/upgraded while its former sessions keep serving
        elsewhere, bit-identically (exact snapshot/restore round trip).
        Returns the executed ``{session_id: (from, to)}`` move plan.
        """
        self._ensure_open()
        self._flush_linger()
        self._collect_into_stash()  # in-flight results must not be lost
        self._raise_deferred()
        plan = self._router.drain(worker_index)
        self._migrate(plan)
        return plan

    @_serialized
    def rebalance(self, new_worker_count: int) -> MovePlan:
        """Grow or shrink the cluster to ``new_worker_count`` workers.

        Spawns or retires worker processes as needed and migrates only the
        sessions the router's rendezvous hashing re-places (the minimal move
        set).  A rebalance ends any previous drains: all workers are active
        again afterwards.  Returns the executed move plan.
        """
        self._ensure_open()
        if new_worker_count < 1:
            raise ClusterError(
                f"a cluster needs at least one worker, got {new_worker_count}"
            )
        self._flush_linger()
        self._collect_into_stash()
        self._raise_deferred()
        for index in range(self.num_workers, new_worker_count):
            self._workers.append(self._spawn_worker(index))
            self._inflight[index] = 0
            self._inflight_peak[index] = 0
            self._records_routed[index] = 0  # a fresh process starts at zero
        plan = self._router.resize(new_worker_count)
        self._migrate(plan)
        for worker in self._workers[new_worker_count:]:
            worker.stop()
        del self._workers[new_worker_count:]
        for index in list(self._inflight):
            if index >= new_worker_count:
                del self._inflight[index]
                self._inflight_peak.pop(index, None)
                del self._records_routed[index]
                self._linger_target.pop(index, None)
                self._degraded.pop(index, None)
                self._uncollected.discard(index)
        return plan

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    @property
    def durability(self) -> Optional[DurabilityConfig]:
        """The durability configuration, or ``None`` for an in-memory cluster."""
        return self._durability

    def dead_workers(self) -> List[int]:
        """Indices of workers that are no longer usable (crashed or fenced)."""
        return [
            worker.worker_id for worker in self._workers if not worker.alive
        ]

    @_serialized
    def terminate_worker(self, worker_index: int) -> None:
        """Hard-kill one worker process without draining it (crash injection).

        The worker dies exactly like an OOM kill would take it: no graceful
        shutdown, unconfirmed work lost.  On a durable cluster every record
        it had confirmed remains recoverable from its on-disk shard — follow
        up with :meth:`recover_worker` or :meth:`heal`.
        """
        self._ensure_open()
        self._check_worker_index(worker_index)
        self._workers[worker_index].kill(salvage=self._salvage)

    # ------------------------------------------------------------------ #
    # Health probing and shard quarantine (the supervisor's surface)
    # ------------------------------------------------------------------ #
    @_serialized
    def ping_worker(self, worker_index: int, timeout: float = 1.0) -> Dict[str, int]:
        """Liveness + progress probe of one worker.

        Returns the worker's monotonic progress counters (records routed,
        blocks executed, loop ticks).  The worker answers pings ahead of its
        data barrier, so a healthy worker replies within one loop tick no
        matter how deep its push backlog is; a probe that times out
        therefore means the serving loop itself is stuck.  The timeout
        *fences* the worker as a side effect — its command pipe is poisoned,
        so it reads as dead (:meth:`dead_workers`) and can be healed — which
        is exactly what :class:`~repro.cluster.supervisor.ClusterSupervisor`
        relies on when it declares a worker wedged.
        """
        self._ensure_open()
        self._check_worker_index(worker_index)
        return self._workers[worker_index].ping(timeout=timeout)

    @_serialized
    def wedge_worker(self, worker_index: int) -> None:
        """Fault injection: hang one worker's serving loop.

        The process stays alive but never answers anything again — the
        live-but-stuck failure mode (a deadlock, an infinite loop) that
        :meth:`ping_worker`'s timeout fencing exists to catch.  One-way;
        returns immediately.
        """
        self._ensure_open()
        self._check_worker_index(worker_index)
        self._workers[worker_index].wedge()

    @_serialized
    def mark_degraded(self, worker_index: int, *, retry_after: float = 30.0) -> None:
        """Quarantine one shard: reject its pushes instead of serving them.

        The crash-loop circuit breaker's action: while a shard is degraded,
        every push routed to it raises
        :class:`~repro.exceptions.UnavailableError` carrying the
        ``retry_after`` hint (the gateway turns that into an
        ``UNAVAILABLE`` wire error), pipelined rows already buffered for it
        are held back, and result collection skips it — so the other shards
        keep serving instead of blocking on a worker that keeps dying.
        Lifted by :meth:`clear_degraded`, or automatically when
        :meth:`recover_worker` restores the shard.
        """
        self._ensure_open()
        self._check_worker_index(worker_index)
        if retry_after < 0:
            raise ClusterError(f"retry_after must be >= 0, got {retry_after}")
        self._degraded[worker_index] = float(retry_after)

    @_serialized
    def clear_degraded(self, worker_index: int) -> None:
        """Lift a shard's quarantine (idempotent); pushes flow again."""
        self._ensure_open()
        self._degraded.pop(worker_index, None)

    def degraded_workers(self) -> List[int]:
        """Indices of shards currently quarantined by :meth:`mark_degraded`."""
        return sorted(self._degraded)

    def _check_worker_index(self, worker_index: int) -> None:
        if not 0 <= worker_index < len(self._workers):
            raise ClusterError(
                f"worker {worker_index} out of range for "
                f"{len(self._workers)} workers"
            )

    def _check_available(self, shard: int, session_id: str) -> None:
        retry_after = self._degraded.get(shard)
        if retry_after is not None:
            raise UnavailableError(
                f"shard {shard} (owning session {session_id!r}) is degraded "
                f"after repeated worker crashes; retry in {retry_after:.0f}s",
                retry_after=retry_after,
            )

    @_serialized
    def recover_worker(self, worker_index: int, *, standby=None) -> RecoveryReport:
        """Respawn one dead worker and restore its shard from disk.

        The replacement process is started on the same index, every session
        the router places there is restored from its latest checkpoint, and
        the WAL tail is replayed through the vectorised block path — the
        recovered shard then resumes serving bit-identically.  Routing is
        untouched: the shard map still names this worker, so traffic resumes
        as soon as this method returns.

        With a ``standby`` (a :class:`~repro.cluster.standby.StandbyWorker`
        tailing this shard's directory), recovery becomes a **warm
        handoff**: the standby runs one final catch-up
        :meth:`~repro.cluster.standby.StandbyWorker.sync` — replaying only
        the frames appended since its last poll — and its replica snapshots
        are restored straight onto the respawned worker.  The report's
        ``wal_records`` then count just that catch-up, strictly fewer than a
        cold recovery's full checkpoint-interval tail (the regression test
        in ``tests/cluster/test_standby.py`` pins the inequality).  Sessions
        the standby has not replicated yet fall back to the cold path.
        Either way the restored state is bit-identical.

        Pipelined records in flight to the dead worker that its applied
        markers never confirmed are **rolled back**: each such session is
        rebuilt to its last confirmed tick (even where the worker journaled
        more, whose results died with it), rows queued behind them are
        dropped, and the session refuses pushes with
        :class:`~repro.exceptions.RolledBackError` until :meth:`rewind` —
        the caller re-sends from :meth:`applied_records` on, so nothing is
        applied twice or lost for a caller that keeps its unacknowledged
        records (the gateway's resilient clients do).  The rolled-back
        in-flight records are reported as ``lost_inflight_records``.  Only
        a checkpoint written inside that window pins the records it covers
        (they stay applied, their results lost).  Raises
        :class:`~repro.exceptions.ClusterError` when the worker is still
        alive (use :meth:`terminate_worker` first) or the cluster has no
        durability, and :class:`~repro.exceptions.RecoveryError` when a
        routed session has no on-disk state.
        """
        self._ensure_open()
        self._require_durability("recover a worker")
        self._check_worker_index(worker_index)
        if self._workers[worker_index].alive:
            raise ClusterError(
                f"worker {worker_index} is still alive; terminate_worker() "
                f"it first if a forced restart is intended"
            )
        # Validate recoverability BEFORE touching any state: failing after
        # the respawn would strand the shard empty, discard the in-flight
        # accounting, and make a retry impossible ("worker is still alive").
        sessions = self._router.sessions_on(worker_index)
        placed = set(sessions)
        manager = RecoveryManager(self._durability.for_worker(worker_index))
        on_disk = set(manager.store.session_ids())
        missing = [s for s in sessions if s not in on_disk]
        if missing:
            raise RecoveryError(
                f"worker {worker_index} routes sessions with no on-disk "
                f"state: {missing}; they cannot be recovered"
            )
        # Fence the predecessor before respawning: a timeout-poisoned worker
        # counts as dead (its pipe is useless) while its *process* may still
        # be running — and still journaling into this shard's directory.
        # kill() is a no-op for an already-exited process.
        self._workers[worker_index].kill(salvage=self._salvage)
        # Final catch-up sync AFTER the fence: nothing can append to this
        # shard's journals any more, so the standby's replicas converge on
        # exactly the acknowledged pre-crash state.
        catchup = standby.sync() if standby is not None else None
        # What the dead worker confirmed was salvaged from its result ring
        # by kill() and stands; the rest of its emit log never was.
        unconfirmed: Dict[str, int] = {}
        for session_id, records in self._workers[worker_index].settle_all():
            if session_id in placed:
                unconfirmed[session_id] = unconfirmed.get(session_id, 0) + records
        self._inflight[worker_index] = 0
        self._uncollected.discard(worker_index)
        self._workers[worker_index] = self._spawn_worker(worker_index)
        # Hold back pipelined rows queued for any unsendable shard: this
        # worker's sessions (not restored yet) and every *other* dead
        # worker's sessions (their pipes are gone).  A flush triggered by
        # the replay below must not try to deliver either kind.
        unsendable = set(sessions)
        for worker in self._workers:
            if not worker.alive:
                unsendable.update(self._router.sessions_on(worker.worker_id))
        held = {
            session_id: self._linger.pop(session_id)
            for session_id in unsendable
            if session_id in self._linger
        }
        # Confirmed tick of each session with unconfirmed records.
        until = {
            session_id: self._routed_ticks.get(session_id, 0)
            - records - (held[session_id].records if session_id in held else 0)
            for session_id, records in unconfirmed.items()
        }
        try:
            if standby is None:
                report = manager.recover_into(self, session_ids=sessions, until=until)
            else:
                report = self._handoff_from_standby(
                    standby, catchup, sessions, manager, until
                )
            lost = 0
            for session_id, tick in until.items():
                # Records a checkpoint pinned past the confirmed tick stay.
                kept = min(max(self._routed_ticks[session_id] - tick, 0),
                           unconfirmed[session_id])
                self._applied_records[session_id] = (
                    self._applied_records.get(session_id, 0) + kept
                )
                dropped = unconfirmed[session_id] - kept
                if dropped:
                    lost += dropped
                    # Rows queued behind them would overtake their re-send.
                    if session_id in held:
                        dropped += held.pop(session_id).records
                    self._rolled_back[session_id] = (
                        self._rolled_back.get(session_id, 0) + dropped
                    )
            for session_id, linger in held.items():
                if session_id in placed:  # restored without them: recount
                    self._routed_ticks[session_id] += linger.records
        finally:
            self._linger.update(held)
        report.lost_inflight_records = lost
        self._count_recovery(report)
        # A restored shard serves again: lift any crash-loop quarantine so
        # the first post-heal push does not bounce off a stale breaker.
        self._degraded.pop(worker_index, None)
        return report

    def _handoff_from_standby(
        self,
        standby,
        catchup,
        sessions: Sequence[str],
        manager: RecoveryManager,
        until: Mapping[str, int],
    ) -> RecoveryReport:
        """Restore a shard from a warm standby's replicas (plus cold gaps).

        Each replicated session is restored from the standby's snapshot;
        its :class:`~repro.durability.recovery.SessionRecovery` entry counts
        only the final catch-up replay (``wal_records``) and the handoff
        wall time (``replay_seconds``) — the checkpoint-interval tail was
        replayed off the critical path during earlier syncs.  Sessions the
        standby never saw (no checkpoint had landed at its last sync), and
        sessions rolled back to a tick (``until``; the replica is ahead),
        fall back to ``manager``'s cold recovery.
        """
        report = RecoveryReport()
        cold = [s for s in sessions if s not in standby or s in until]
        for session_id in sessions:
            if session_id in cold:
                continue
            started = time.perf_counter()
            self.restore(session_id, standby.snapshot(session_id))
            elapsed = time.perf_counter() - started
            entry = catchup.for_session(session_id) if catchup else None
            frames = entry.frames_replayed if entry else 0
            records = entry.records_replayed if entry else 0
            ticks = standby.ticks(session_id)
            report.sessions.append(
                SessionRecovery(
                    session_id=session_id,
                    checkpoint_version=standby.checkpoint_version(session_id),
                    checkpoint_tick=ticks - records,
                    wal_frames=frames,
                    wal_records=records,
                    replay_seconds=elapsed,
                    final_tick=ticks,
                )
            )
        if cold:
            report.merge(manager.recover_into(self, session_ids=cold, until=until))
        return report

    @_serialized
    def heal(self, *, standbys=None) -> Dict[int, RecoveryReport]:
        """Respawn and recover every dead worker; returns reports by index.

        The one-call repair loop: ``cluster.heal()`` after any
        :class:`~repro.exceptions.ClusterError` that signalled a worker
        death brings the fleet back to full strength with all shards
        restored from disk.  Pass ``standbys`` (a
        :class:`~repro.cluster.standby.StandbyPool`, or a mapping of worker
        index to :class:`~repro.cluster.standby.StandbyWorker`) to hand each
        dead shard off warm instead of replaying its full WAL tail.
        """
        self._ensure_open()
        self._require_durability("heal the cluster")
        reports: Dict[int, RecoveryReport] = {}
        for index in self.dead_workers():
            standby = None
            if standbys is not None:
                if hasattr(standbys, "for_worker"):
                    standby = standbys.for_worker(index)
                else:
                    standby = standbys.get(index)
            reports[index] = self.recover_worker(index, standby=standby)
        return reports

    @_serialized
    def recover_from_disk(self) -> RecoveryReport:
        """Rebuild sessions persisted by a previous cluster (full-fleet recovery).

        Scans the durability root for every per-worker shard directory (the
        previous fleet may have had a different worker count), restores each
        stored session onto its current rendezvous worker, and replays its
        WAL tail.  When several shard directories hold copies of one session
        (a crash mid-migration), the copy with the most advanced checkpoint
        wins.  Source artifacts that now live under a different worker's
        directory are deleted after the restore succeeds, so the disk ends
        up exactly mirroring the new topology — no orphaned state.

        Sessions already live on this cluster are skipped, which makes the
        call idempotent.
        """
        self._ensure_open()
        self._require_durability("recover a fleet from disk")
        self._flush_linger()
        stores = discover_stores(self._durability.root)
        # Pick the most advanced copy per session id.
        best: Dict[str, Tuple[Tuple[int, int], str, object]] = {}
        for label, store in stores.items():
            for session_id in store.session_ids():
                info = store.latest_checkpoint(session_id)
                if info is None:
                    continue
                key = (info.tick, info.version)
                if session_id not in best or key > best[session_id][0]:
                    best[session_id] = (key, label, store)
        report = RecoveryReport()
        for session_id, (_, label, store) in sorted(best.items()):
            if session_id not in self._router:
                report.merge(
                    RecoveryManager(store).recover_into(
                        self, session_ids=[session_id]
                    )
                )
            # Stale copies are cleaned even for sessions that were already
            # live (e.g. healed earlier): leaving them would let a later
            # recovery resurrect an out-of-date replica.
            owner_label = f"worker-{self._router.shard_of(session_id):02d}"
            for other_label, other_store in stores.items():
                if other_label != owner_label:
                    other_store.delete_session(session_id)
        self._count_recovery(report)
        return report

    def _require_durability(self, action: str) -> None:
        if self._durability is None:
            raise ClusterError(
                f"cannot {action}: this cluster has no durability configured "
                f"(pass durability=DurabilityConfig(...) to the coordinator)"
            )

    def _count_recovery(self, report: RecoveryReport) -> None:
        self._worker_recoveries += 1
        self._recovery_replay_seconds += report.replay_seconds
        self._recovery_records_replayed += report.records_replayed
        self._lost_inflight_records += report.lost_inflight_records

    @_serialized
    def stats(self) -> Dict[str, object]:
        """Cluster telemetry: per-worker counters plus aggregate totals.

        Per worker: the serving counters of
        :class:`~repro.cluster.telemetry.WorkerTelemetry` (records routed,
        blocks executed, ticks imputed, push latency, queue depths) plus the
        coordinator-side ``records_sent``, the lifetime high-water mark of
        its pipelined backlog (``pending_records_peak``) and the sessions it
        owns.  The ``"cluster"`` entry aggregates across workers.  On a durable cluster
        each worker additionally reports its ``durability`` counters
        (checkpoints written, WAL records/bytes), and the aggregate gains
        the coordinator's recovery telemetry (``worker_recoveries``,
        ``recovery_replay_seconds``, ``recovery_records_replayed``,
        ``lost_inflight_records``).  Each worker also reports a
        ``transport`` entry (bytes/frames over its shared-memory rings,
        ring-full backpressure stalls, bytes that travelled over the pipe
        instead), aggregated under ``stats()["cluster"]["transport"]``.
        Everything is plain JSON-serialisable data.
        """
        self._ensure_open()
        self._flush_linger()
        per_worker: Dict[int, Dict[str, object]] = {}
        # A quarantined shard's worker is typically dead; polling it would
        # crash the whole stats call, so it is simply absent from the
        # per-worker map (its index still shows under "degraded_workers").
        polled = [
            worker
            for worker in self._workers
            if worker.worker_id not in self._degraded
        ]
        for worker in polled:
            worker.send_request("stats")
        for worker in polled:
            per_worker[worker.worker_id] = worker.recv_reply()
        for worker in polled:
            stats = per_worker[worker.worker_id]
            stats["records_sent"] = self._records_routed.get(worker.worker_id, 0)
            # High-water mark of this worker's pipelined backlog (records
            # emitted by push_nowait whose results were not yet collected).
            stats["pending_records_peak"] = self._inflight_peak.get(
                worker.worker_id, 0
            )
            # Merge the coordinator's side of the data plane (frames/bytes
            # written to the push ring, stalls, pipe fallback bytes) into
            # the worker-side counters.
            transport = dict(stats.get("transport") or {})
            transport.update(worker.transport_stats())
            stats["transport"] = transport
        cluster = aggregate_stats(per_worker)
        cluster["drained_workers"] = self._router.drained_shards
        cluster["degraded_workers"] = self.degraded_workers()
        cluster["transport"]["mode"] = self._transport
        if self._durability is not None:
            durability = cluster.setdefault("durability", {})
            durability["worker_recoveries"] = self._worker_recoveries
            durability["recovery_replay_seconds"] = (
                float(durability.get("recovery_replay_seconds", 0.0))
                + self._recovery_replay_seconds
            )
            durability["recovery_records_replayed"] = (
                int(durability.get("recovery_records_replayed", 0))
                + self._recovery_records_replayed
            )
            durability["lost_inflight_records"] = self._lost_inflight_records
        return {"workers": per_worker, "cluster": cluster}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @_serialized
    def shutdown(self) -> None:
        """Stop every worker process (idempotent).

        In-memory session state is lost unless it was snapshotted first; on
        a durable cluster the on-disk checkpoints and WAL tails survive and
        :meth:`recover_from_disk` on a successor brings the fleet back.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        for end in (self._signal_reader, self._signal_writer):
            if end is not None:
                end.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ClusterCoordinator(workers={self.num_workers}, "
            f"sessions={len(self._router)}, {state})"
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise ClusterError("the cluster has been shut down")

    def _require_session(self, session_id: str) -> int:
        try:
            return self._router.shard_of(session_id)
        except ClusterError:
            raise ServiceError(
                f"unknown session {session_id!r}; "
                f"active: {', '.join(self.session_ids) or '(none)'}"
            ) from None

    def _admit(self, session_id: str, item, records: int) -> None:
        """Queue ``records`` pipelined records for one session (see push_nowait)."""
        self._ensure_open()
        shard = self._require_session(session_id)
        self._check_available(shard, session_id)
        if session_id in self._rolled_back:
            self._refuse_rolled_back(session_id)
        linger = self._linger.get(session_id)
        if linger is None:
            linger = self._linger[session_id] = _Linger()
        linger.items.append(item)
        linger.records += records
        self._routed_ticks[session_id] = self._routed_ticks.get(session_id, 0) + records
        if linger.records >= self._linger_target.get(shard, self._linger_records):
            self._emit_linger(session_id)
            self._workers[shard].wake()
            if self._inflight.get(shard, 0) >= self._max_inflight:
                # Bounds worker-side buffering; a deferred failure found
                # here waits for flush(): this call's records are in flight.
                self._collect_into_stash()

    def _emit_linger(self, session_id: str) -> None:
        """Emit one session's buffered records onto the data plane.

        On the shm transport the records become codec frames in the owning
        worker's push ring, and the adaptive micro-batch target for that
        worker is updated: a non-empty ring before the write means the
        worker is running behind, so the next batch is allowed to grow
        (fewer, larger frames → larger vectorised blocks); an empty ring
        resets the target to the configured base.  The caller wakes the
        worker (:meth:`ClusterWorker.wake`).
        """
        shard = self._router.shard_of(session_id)
        if shard in self._degraded:
            return  # held back until the shard's quarantine is lifted
        linger = self._linger.pop(session_id, None)
        if linger is None:
            return
        worker = self._workers[shard]
        if worker.uses_shm:
            if worker.ring_backlog:
                self._linger_target[shard] = min(
                    self._linger_target.get(shard, self._linger_records) * 2,
                    self._linger_cap,
                )
            else:
                self._linger_target.pop(shard, None)
        worker.push_rows(session_id, linger.items, linger.records)
        self._uncollected.add(shard)
        self._records_routed[shard] += linger.records
        pending = self._inflight.get(shard, 0) + linger.records
        self._inflight[shard] = pending
        if pending > self._inflight_peak.get(shard, 0):
            self._inflight_peak[shard] = pending

    def _flush_linger(self) -> None:
        """Emit every buffered record (ordering barrier before any RPC)."""
        try:
            for session_id in list(self._linger):
                self._emit_linger(session_id)
        finally:
            for worker in self._workers:
                worker.wake()

    def _refuse_rolled_back(self, session_id: str) -> None:
        applied = self.applied_records(session_id)
        raise RolledBackError(
            f"session {session_id!r} was rolled back by a worker crash "
            f"({self._rolled_back[session_id]} records dropped); rewind() it "
            f"and re-send from pipelined record {applied}",
            applied=applied,
        )

    def _salvage(self, worker: ClusterWorker) -> None:
        """Claim what a dead worker published and confirmed before dying."""
        self._settle(worker, worker.drain_results(self._sink))

    def _sink(self, session_id: str, frame: bytes) -> None:
        self._stash.setdefault(session_id, []).append(frame)

    def _settle(self, worker: ClusterWorker, emits: List[Tuple[str, int]]) -> None:
        """Account emits a worker has applied (or, dead, never will)."""
        for session_id, records in emits:
            self._inflight[worker.worker_id] -= records
            if session_id in self._router:
                self._applied_records[session_id] = (
                    self._applied_records.get(session_id, 0) + records
                )

    def _collect_into_stash(self) -> None:
        """Barrier: workers that received data apply it and hand over results.

        Each ``collect`` reply names the applied position the worker reached
        (plus any results that had to travel inline on the pipe); on the shm
        transport the coordinator then drains the result ring until the
        worker's applied marker reaches that position.  The worker never
        blocks on a full ring, and replies are drained while they are in
        flight, so neither side can deadlock.  A failed collect (a deferred
        push failure, a dead worker) is kept for :meth:`_raise_deferred`.
        """
        self._flush_linger()
        # Degraded shards are quarantined: their in-flight results (if the
        # worker is even alive) wait until recover_worker() restores the
        # shard — collecting here would turn every flush into a crash.
        busy = [
            worker
            for worker in self._workers
            if worker.worker_id in self._uncollected
            and worker.worker_id not in self._degraded
        ]
        if not busy:
            return

        def drain_all() -> None:
            for other in busy:
                self._settle(other, other.drain_results(self._sink))

        for worker in busy:
            worker.send_request("collect")
        for worker in busy:
            try:
                position, carried = worker.recv_reply(drain=drain_all)
                if worker.uses_shm:
                    settled = worker.wait_applied(position, self._sink)
                else:
                    settled = worker.settle_all()
            except Exception as error:  # deferred push failure; keep draining
                # The worker may hold further deferred errors; leave it
                # marked so the next flush collects it again.
                self._deferred.append(error)
                continue
            self._settle(worker, settled)
            self._uncollected.discard(worker.worker_id)
            for session_id, results in carried.items():
                self._stash.setdefault(session_id, []).extend(results)

    def _raise_deferred(self) -> None:
        """Raise the oldest deferred failure the collects found, if any."""
        if self._deferred:
            raise self._deferred.pop(0)

    def _migrate(self, plan: MovePlan) -> None:
        """Execute a router move plan via snapshot / restore / remove.

        RPCs are pipelined per chunk of ``_PIPELINE_WINDOW`` sessions: within
        a chunk every request goes out before any reply is read (per-worker
        FIFO keeps replies matched), between chunks everything is drained so
        the pipe buffers never fill in both directions at once.
        """
        ordered = sorted(plan.items())
        for start in range(0, len(ordered), _PIPELINE_WINDOW):
            chunk = ordered[start: start + _PIPELINE_WINDOW]
            for session_id, (source, _) in chunk:
                self._workers[source].send_request("snapshot", session_id)
            blobs = {
                session_id: self._workers[source].recv_reply()
                for session_id, (source, _) in chunk
            }
            for session_id, (_, destination) in chunk:
                self._workers[destination].send_request(
                    "restore", session_id, blobs[session_id]
                )
            for session_id, (_, destination) in chunk:
                self._workers[destination].recv_reply()
            # Only after every destination acknowledged its restore (on a
            # durable cluster: its fresh checkpoint is on disk) may the
            # sources drop theirs — removing earlier would open a crash
            # window with zero durable copies of a migrating session.
            for session_id, (source, _) in chunk:
                self._workers[source].send_request("remove_session", session_id)
            for session_id, (source, _) in chunk:
                self._workers[source].recv_reply()
