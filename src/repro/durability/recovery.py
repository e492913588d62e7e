"""Crash recovery: rebuild sessions from checkpoints plus WAL tails.

:class:`RecoveryManager` turns the on-disk state a
:class:`~repro.durability.journal.SessionJournal` maintains back into live
sessions: load the latest checkpoint blob, restore it with
:meth:`~repro.service.session.ImputationSession.restore`, then replay the
WAL tail through ``push_block`` (or ``push`` for frames whose presence mask
marks absent series) with the results discarded — they were already
delivered before the crash.  Because both halves of that equation are exact
(the snapshot round trip and the block/tick parity guarantee), a recovered
session's subsequent imputations are **bit-identical** to an uninterrupted
run, which the parity suite under ``tests/durability/`` enforces for TKCM
and for loop-fallback baselines.

The manager deliberately reads a session's checkpoint *and* its full WAL
tail into memory before touching the target: restoring into a
durability-enabled service immediately writes a fresh checkpoint and rotates
the WAL, so reading lazily would race the very rotation the restore causes.
WAL tails are bounded by the checkpoint policy's ``checkpoint_every``, so
the buffered frames are small.

``recover_into`` only needs a *service surface* — ``restore(session_id,
blob)`` plus ``push_block(session_id, block)`` — so the same code recovers a
single-process :class:`~repro.service.service.ImputationService` and a
whole :class:`~repro.cluster.coordinator.ClusterCoordinator` fleet.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import RecoveryError
from ..service.session import ImputationSession
from .journal import DurabilityConfig
from .store import CheckpointStore
from .wal import read_wal

__all__ = ["RecoveryManager", "RecoveryReport", "SessionRecovery"]


@dataclass(frozen=True)
class SessionRecovery:
    """Outcome of recovering one session."""

    #: Id of the recovered session.
    session_id: str
    #: Checkpoint version the recovery started from.
    checkpoint_version: int
    #: Session tick captured by that checkpoint.
    checkpoint_tick: int
    #: WAL frames replayed on top of the checkpoint.
    wal_frames: int
    #: Records replayed from the WAL tail.
    wal_records: int
    #: Wall-clock seconds spent replaying the tail.
    replay_seconds: float
    #: Session tick after replay (``checkpoint_tick + wal_records``).
    final_tick: int

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, JSON-serialisable."""
        return {
            "session_id": self.session_id,
            "checkpoint_version": self.checkpoint_version,
            "checkpoint_tick": self.checkpoint_tick,
            "wal_frames": self.wal_frames,
            "wal_records": self.wal_records,
            "replay_seconds": self.replay_seconds,
            "final_tick": self.final_tick,
        }


@dataclass
class RecoveryReport:
    """Aggregate outcome of one recovery operation."""

    #: Per-session recovery details, in recovery order.
    sessions: List[SessionRecovery] = field(default_factory=list)
    #: Pipelined records that were in flight to a crashed worker when it
    #: died, i.e. whose imputation *results* were never collected and cannot
    #: be (cluster recoveries only; ``0`` otherwise).  The records
    #: themselves are not necessarily lost: any the worker applied and
    #: journaled before dying are replayed from the WAL, so this is an
    #: upper bound on true state loss.
    lost_inflight_records: int = 0

    @property
    def session_ids(self) -> List[str]:
        """Ids of every recovered session, sorted."""
        return sorted(entry.session_id for entry in self.sessions)

    @property
    def records_replayed(self) -> int:
        """Total WAL records replayed across all sessions."""
        return sum(entry.wal_records for entry in self.sessions)

    @property
    def replay_seconds(self) -> float:
        """Total wall-clock seconds spent replaying WAL tails."""
        return sum(entry.replay_seconds for entry in self.sessions)

    def merge(self, other: "RecoveryReport") -> None:
        """Fold another report's sessions and counters into this one."""
        self.sessions.extend(other.sessions)
        self.lost_inflight_records += other.lost_inflight_records

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, JSON-serialisable."""
        return {
            "sessions": [entry.as_dict() for entry in self.sessions],
            "records_replayed": self.records_replayed,
            "replay_seconds": self.replay_seconds,
            "lost_inflight_records": self.lost_inflight_records,
        }


class RecoveryManager:
    """Rebuild sessions (or whole fleets) from one checkpoint store."""

    def __init__(self, store) -> None:
        if isinstance(store, DurabilityConfig):
            store = store.make_store()
        elif not isinstance(store, CheckpointStore):
            store = CheckpointStore(store)
        self.store = store

    # ------------------------------------------------------------------ #
    # Reading on-disk state
    # ------------------------------------------------------------------ #
    def _load(
        self, session_id: str, until: Optional[int] = None
    ) -> Tuple[bytes, list, "SessionRecovery"]:
        """Eagerly read one session's checkpoint blob and WAL tail.

        With ``until``, the state is rebuilt to tick ``until`` instead of
        the journal's end: the newest checkpoint at or before it, plus its
        WAL cut at that tick (or the oldest checkpoint, when every retained
        one is newer).
        """
        checkpoints = self.store.checkpoints(session_id)
        if not checkpoints:
            raise RecoveryError(
                f"session {session_id!r} has no checkpoint under "
                f"{self.store.root!r}; it cannot be recovered"
            )
        info = checkpoints[-1]
        if until is not None:
            info = next(
                (c for c in reversed(checkpoints) if c.tick <= until), checkpoints[0]
            )
        blob = self.store.read_checkpoint(session_id, info.version)
        wal_path = self.store.wal_path(session_id, info.version)
        if os.path.exists(wal_path):
            # Torn tails are handled inside read_wal (a crash mid-append is
            # normal); anything else — bad magic, an unreadable file — is
            # real corruption and must surface, not silently lose the tail.
            frames = list(read_wal(wal_path))
        else:
            # A checkpoint written instants before the crash may not have an
            # accompanying WAL file yet; recovery is then the checkpoint alone.
            frames = []
        if until is not None:
            frames = _cut(frames, max(until - info.tick, 0))
        records = sum(int(matrix.shape[0]) for matrix, _, _ in frames)
        outcome = SessionRecovery(
            session_id=session_id,
            checkpoint_version=info.version,
            checkpoint_tick=info.tick,
            wal_frames=len(frames),
            wal_records=records,
            replay_seconds=0.0,
            final_tick=info.tick + records,
        )
        return blob, frames, outcome

    # ------------------------------------------------------------------ #
    # Recovery entry points
    # ------------------------------------------------------------------ #
    def recover_session(
        self, session_id: str
    ) -> Tuple[ImputationSession, SessionRecovery]:
        """Rebuild one standalone session to its exact pre-crash state."""
        blob, frames, outcome = self._load(session_id)
        session = ImputationSession.restore(blob)
        started = time.perf_counter()
        for matrix, mask, timestamps in frames:
            _replay_frame(session.push, session.push_block,
                          session.series_names, matrix, mask, timestamps)
        seconds = time.perf_counter() - started
        outcome = SessionRecovery(
            **{**outcome.as_dict(), "replay_seconds": seconds}
        )
        self._count(outcome)
        return session, outcome

    def recover_into(
        self,
        target,
        session_ids: Optional[Sequence[str]] = None,
        *,
        until: Optional[Mapping[str, int]] = None,
    ) -> RecoveryReport:
        """Recover sessions into any service surface; returns the report.

        ``target`` needs ``restore(session_id, blob)``,
        ``push_block(session_id, block)`` and ``push(session_id, tick,
        timestamp=None)`` — satisfied by
        :class:`~repro.service.service.ImputationService` and
        :class:`~repro.cluster.coordinator.ClusterCoordinator` alike.
        ``session_ids`` defaults to everything stored under the root;
        ``until`` maps a session to the tick to rebuild it to (a crash
        rollback) instead of the end of its journal.
        When the target is itself durability-enabled, each restore writes a
        fresh checkpoint and the replayed records are re-journaled, so the
        recovered fleet is immediately crash-safe again.
        """
        if session_ids is None:
            session_ids = self.store.session_ids()
        report = RecoveryReport()
        for session_id in session_ids:
            blob, frames, outcome = self._load(
                session_id, None if until is None else until.get(session_id)
            )
            # Restore only after the WAL is fully buffered: a durable target
            # rotates (and eventually prunes) the very files being read.
            target.restore(session_id, blob)
            if any(mask is not None for _, mask, _ in frames):
                names = _series_names_of(blob)
            else:
                names = None  # every frame replays as one vectorised block
            started = time.perf_counter()
            for matrix, mask, timestamps in frames:
                _replay_frame(
                    lambda tick, timestamp=None: target.push(
                        session_id, tick, timestamp=timestamp
                    ),
                    lambda block: target.push_block(session_id, block),
                    names, matrix, mask, timestamps,
                )
            seconds = time.perf_counter() - started
            outcome = SessionRecovery(
                **{**outcome.as_dict(), "replay_seconds": seconds}
            )
            self._count(outcome)
            report.sessions.append(outcome)
        return report

    def _count(self, outcome: SessionRecovery) -> None:
        counters = self.store.counters
        counters.recoveries += 1
        counters.recovery_replay_seconds += outcome.replay_seconds
        counters.recovery_records_replayed += outcome.wal_records


def _cut(frames: list, records: int) -> list:
    """The leading ``records`` rows of a WAL tail, cutting a frame if needed."""
    kept = []
    for matrix, mask, timestamps in frames:
        if records <= 0:
            break
        rows = int(matrix.shape[0])
        if rows > records:
            matrix = matrix[:records]
            mask = None if mask is None else mask[:records]
            timestamps = None if timestamps is None else timestamps[:records]
        kept.append((matrix, mask, timestamps))
        records -= rows
    return kept


def _series_names_of(blob: bytes) -> List[str]:
    """Series order of a snapshot blob, needed to rebuild mapping pushes."""
    payload = pickle.loads(blob)
    return list(payload["series_names"])


def _replay_frame(push, push_block, series_names, matrix, mask,
                  timestamps=None) -> None:
    """Replay one WAL frame through a push surface.

    Fully-present frames go through the vectorised block path; frames with a
    presence mask are replayed row by row as mappings so that absent series
    stay absent (a duck-typed imputer may treat "absent" and "NaN"
    differently, and replay must be bit-exact).  Frames that journaled
    producer timestamps also replay row by row, through ``push(...,
    timestamp=...)``: re-applying the ingest policy restores the dedup
    watermark exactly (journaled timestamps strictly increase, so no
    replayed row is itself dropped), and after recovery a retried duplicate
    delivery is still rejected.  A ``NaN`` in the timestamp vector marks an
    untimestamped row.
    """
    if mask is None and timestamps is None:
        push_block(matrix)
        return
    rows = np.asarray(matrix, dtype=float)
    if timestamps is None:
        stamps = [None] * rows.shape[0]
    else:
        stamps = [None if np.isnan(ts) else float(ts) for ts in timestamps]
    if mask is None:
        for row, ts in zip(rows, stamps):
            push(row, timestamp=ts)
        return
    for row, row_mask, ts in zip(rows, mask, stamps):
        push(
            {
                name: float(value)
                for name, value, present in zip(series_names, row, row_mask)
                if present
            },
            timestamp=ts,
        )
