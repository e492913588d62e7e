"""Shared-memory data plane for the cluster tier.

The pipe between the coordinator and a :class:`~repro.cluster.worker.
ClusterWorker` pickles every object it carries.  For control traffic
(commands, snapshot blobs, errors) that is fine — those messages are rare —
but for the *data plane* (streamed record blocks in, imputed tick results
out) the pickle tax was the reason the cluster scaled negatively on the
multi-station workload: every record matrix was serialised element-wise and
every result re-serialised on the way back.

This module removes that tax:

* :class:`SharedRingBuffer` — a fixed-capacity single-producer /
  single-consumer byte ring living in one ``multiprocessing.shared_memory``
  segment.  Frames are length-prefixed and 8-byte aligned, written in place
  and *published* by a single tail-counter store, so a process dying
  mid-write leaves a torn frame that is simply never visible to the reader
  (it is discarded with the segment).
* :class:`BlockCodec` namespace functions — lay a pushed record block out as
  ``(session-id table, float64 block, presence bitmask)`` directly in the
  segment, and encode imputed :class:`~repro.results.TickResult` lists as
  flat numpy columns plus a string table.  No pickle on either direction;
  reconstruction is bit-exact (values round-trip through ``float64``).
  A frame can also travel without being decoded: :class:`PushFrame`
  checks a push frame by its header and re-stamps its block under another
  position and session id, and :func:`readdress_result_frame` does the
  same for a result frame's session id.

Concurrency model
-----------------
Each ring has exactly one writer and one reader (the coordinator writes the
push ring, the worker writes the result ring).  The writer owns the ``tail``
counter, the reader owns ``head``; both are monotonically increasing byte
counts stored 8-byte-aligned in the segment header.  A frame's payload is
fully written *before* the tail is advanced, and the reader only advances
``head`` after it has finished decoding — the classic SPSC publication
protocol.  CPython executes the buffer stores in program order, the counters
are read and written as whole native words through a ``memoryview`` cast to
``"Q"`` (one aligned 8-byte access each, never byte by byte), and x86/ARM64
make such an access atomic, which is the memory-model footing this
(CPython-only, same-machine) transport relies on.

A full ring makes the writer *wait*, never drop: :meth:`SharedRingBuffer.
write` spins with a tiny sleep, counts the stall for telemetry, and checks a
liveness callback so a dead peer surfaces as
:class:`~repro.exceptions.WorkerCrashedError` instead of a hang.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.tkcm import ImputationResult
from ..exceptions import ClusterError, WorkerCrashedError
from ..results import SeriesEstimate, TickResult

__all__ = [
    "SharedRingBuffer",
    "FRAME_PUSH",
    "FRAME_RESULTS",
    "FRAME_APPLIED",
    "PushFrame",
    "encode_push_frames",
    "decode_push_frame",
    "encode_result_frames",
    "decode_result_frame",
    "result_frame_session",
    "readdress_result_frame",
]

#: Default ring capacity (bytes of frame data) per direction per worker.
DEFAULT_RING_CAPACITY = 1 << 20

#: Ring header layout: three native-endian u64 words at fixed offsets.
_OFF_HEAD = 0      # bytes consumed by the reader (monotonic)
_OFF_TAIL = 8      # bytes published by the writer (monotonic)
_OFF_CAPACITY = 16  # data-region size, so attach() needs no side channel
_HEADER_SIZE = 64

#: Per-frame header: u32 payload length, u32 frame kind.
_FRAME_HEADER = 8
#: Length value marking "skip to the start of the ring" (wrap filler).
_WRAP_MARKER = 0xFFFFFFFF
_ALIGN = 8

#: Frame kinds (the codec's, not the ring's — the ring just carries them).
FRAME_PUSH = 1
FRAME_RESULTS = 2
#: Result-ring marker: every data item below its u64 position is applied.
FRAME_APPLIED = 3

#: Writer poll interval while the ring is full / reader waits for a frame.
_SPIN_SLEEP = 0.0002
#: Stall iterations between liveness-callback checks (keep waitpid cheap).
_LIVENESS_EVERY = 64


def _round_up(value: int) -> int:
    return (value + _ALIGN - 1) & ~(_ALIGN - 1)


class SharedRingBuffer:
    """Fixed-capacity SPSC frame ring in one shared-memory segment.

    Create the segment on the owning side with :meth:`create`, hand the
    :attr:`name` to the peer process, and :meth:`attach` there.  One side
    must only write (:meth:`try_write` / :meth:`write`), the other must only
    read (:meth:`read` ... :meth:`release`).

    Frames are opaque ``(kind, payload)`` pairs.  Payloads are stored
    contiguously (a frame never straddles the wrap boundary; the writer
    inserts a skip marker instead), so the reader can hand out zero-copy
    ``memoryview`` slices of the segment.
    """

    def __init__(self, shm, capacity: int, owner: bool) -> None:
        self._shm = shm
        self._buf = shm.buf
        #: The header as native u64 words: each counter access is one
        #: aligned 8-byte load or store (see :meth:`_load`).
        self._words = shm.buf[:_HEADER_SIZE].cast("Q")
        self._capacity = capacity
        self._owner = owner
        self._pending_head: Optional[int] = None
        self._closed = False
        #: Writer-side lifetime counters (telemetry; reader side has its own).
        self.frames_written = 0
        self.bytes_written = 0
        self.frames_read = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "SharedRingBuffer":
        """Allocate a fresh ring segment (the calling process owns it)."""
        from multiprocessing import shared_memory

        capacity = max(_round_up(int(capacity)), 4 * _ALIGN)
        shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_SIZE + capacity
        )
        ring = cls(shm, capacity, owner=True)
        ring._store(_OFF_HEAD, 0)
        ring._store(_OFF_TAIL, 0)
        ring._store(_OFF_CAPACITY, capacity)
        return ring

    @classmethod
    def attach(cls, name: str) -> "SharedRingBuffer":
        """Open an existing ring segment by name (non-owning).

        The attaching process never unlinks: the creator owns the segment's
        lifetime.  (Re-registration with the resource tracker is harmless —
        its cache is a set — and the creator's unlink unregisters once.)
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        capacity = struct.unpack_from("=Q", shm.buf, _OFF_CAPACITY)[0]
        return cls(shm, int(capacity), owner=False)

    @property
    def name(self) -> str:
        """Segment name, the attach handle for the peer process."""
        return self._shm.name

    @property
    def capacity(self) -> int:
        """Bytes of frame data the ring can hold."""
        return self._capacity

    @property
    def max_frame_payload(self) -> int:
        """Largest payload a single frame may carry (callers split above it).

        Capped at *half* the capacity: a frame only wraps when the space to
        the ring's end (``to_end``) is smaller than the frame, so the worst
        case wrap waste is ``to_end < stored`` and the total claim stays
        below ``2 * stored <= capacity`` — an empty ring can therefore
        always accept a maximal frame regardless of where the write cursor
        happens to sit.  (Without the cap, a frame bigger than the space
        remaining to the boundary could deadlock an *empty* ring: the
        cursor never moves, so the fit never improves.)  Rounded down to
        the frame alignment so a maximal payload's padded stored size
        still fits the half-capacity bound exactly.
        """
        return (self._capacity // 2 - _FRAME_HEADER) // _ALIGN * _ALIGN

    def close(self) -> None:
        """Drop this process's mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        self._words.release()
        self._buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - exported views
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def _load(self, offset: int) -> int:
        # One 8-byte load through the word view.  ``struct``'s standard-size
        # '<Q' assembles the value byte by byte, so a reader racing the
        # peer's store could see a torn counter.
        return self._words[offset >> 3]

    def _store(self, offset: int, value: int) -> None:
        self._words[offset >> 3] = value

    @property
    def is_empty(self) -> bool:
        """Whether no published frame is waiting (reader's view)."""
        return self._load(_OFF_HEAD) == self._load(_OFF_TAIL)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def try_write(self, kind: int, chunks: Sequence) -> bool:
        """Publish one frame if the ring has room; ``False`` when full.

        ``chunks`` are buffer-protocol objects (bytes or C-contiguous numpy
        arrays) concatenated into the frame payload in place — the only copy
        is the one into the segment.
        """
        views = [memoryview(chunk) for chunk in chunks]
        # (An empty view cannot be cast; it carries nothing anyway.)
        views = [view.cast("B") for view in views if view.nbytes]
        total = sum(view.nbytes for view in views)
        stored = _FRAME_HEADER + _round_up(total)
        if stored > self._capacity // 2:
            raise ValueError(
                f"frame of {total} bytes exceeds the ring capacity "
                f"(max payload {self.max_frame_payload} of "
                f"{self._capacity} bytes); split it"
            )
        head = self._load(_OFF_HEAD)
        tail = self._load(_OFF_TAIL)
        offset = tail % self._capacity
        to_end = self._capacity - offset
        if stored <= to_end:
            needed, position = stored, offset
        else:
            needed, position = to_end + stored, 0
        if self._capacity - (tail - head) < needed:
            return False
        if position == 0 and to_end and to_end >= _FRAME_HEADER:
            # Tail region too small for the frame: mark it skippable.
            struct.pack_into(
                "<II", self._buf, _HEADER_SIZE + offset, _WRAP_MARKER, 0
            )
        base = _HEADER_SIZE + position
        struct.pack_into("<II", self._buf, base, total, kind)
        cursor = base + _FRAME_HEADER
        for view in views:
            self._buf[cursor: cursor + view.nbytes] = view
            cursor += view.nbytes
        # Publish: the single store that makes the frame visible.
        self._store(_OFF_TAIL, tail + needed)
        self.frames_written += 1
        self.bytes_written += total
        return True

    def write(
        self,
        kind: int,
        chunks: Sequence,
        *,
        alive: Optional[Callable[[], bool]] = None,
        timeout: float = 120.0,
        describe: str = "ring peer",
    ) -> int:
        """Blocking :meth:`try_write`; returns the number of full-ring stalls.

        Spins with a tiny sleep while the ring is full.  ``alive`` is polled
        periodically so a dead peer raises
        :class:`~repro.exceptions.WorkerCrashedError` instead of waiting out
        the full ``timeout`` (which guards against a live-but-wedged peer).
        """
        stalls = 0
        deadline = time.monotonic() + timeout
        while not self.try_write(kind, chunks):
            stalls += 1
            if alive is not None and stalls % _LIVENESS_EVERY == 1 and not alive():
                raise WorkerCrashedError(
                    f"{describe} died with its ring full; frame dropped"
                )
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"{describe} did not drain its ring within {timeout:.0f}s"
                )
            time.sleep(_SPIN_SLEEP)
        return stalls

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def read(self) -> Optional[Tuple[int, memoryview]]:
        """Peek the next frame as ``(kind, payload view)``; ``None`` if empty.

        The returned view aliases the segment: decode (copy) everything you
        need, then call :meth:`release` to free the slot.  At most one frame
        may be held un-released at a time.
        """
        if self._pending_head is not None:
            raise ClusterError("previous frame not released")
        head = self._load(_OFF_HEAD)
        while True:
            tail = self._load(_OFF_TAIL)
            if head == tail:
                return None
            offset = head % self._capacity
            to_end = self._capacity - offset
            if to_end < _FRAME_HEADER:
                head += to_end
                self._store(_OFF_HEAD, head)
                continue
            length, kind = struct.unpack_from(
                "<II", self._buf, _HEADER_SIZE + offset
            )
            if length == _WRAP_MARKER:
                head += to_end
                self._store(_OFF_HEAD, head)
                continue
            start = _HEADER_SIZE + offset + _FRAME_HEADER
            self._pending_head = head + _FRAME_HEADER + _round_up(length)
            self.frames_read += 1
            self.bytes_read += length
            return kind, self._buf[start: start + length]

    def release(self) -> None:
        """Consume the frame returned by the last :meth:`read`."""
        if self._pending_head is None:
            return
        self._store(_OFF_HEAD, self._pending_head)
        self._pending_head = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedRingBuffer(name={self._shm.name!r}, "
            f"capacity={self._capacity}, owner={self._owner})"
        )


# --------------------------------------------------------------------------- #
# BlockCodec — push frames
# --------------------------------------------------------------------------- #
# Payload layout (offsets from the start of the frame payload):
#
#   u64  position        per-worker data-plane sequence number of this item
#   u16  sid_len         session id byte length        ┐
#   sid  utf-8 bytes                                   │  "session-id table"
#   u8   flags           1 = named columns, 2 = mask   │
#   u16  n_names, then per name: u16 len + utf-8 bytes ┘  (named mode only)
#   u32  rows, u32 cols
#   pad  to 8-byte alignment
#   f64  rows x cols     the record block, written in place (no pickle)
#   u8[] presence bitmask, np.packbits row-major       (flag 2 only)
#
# Named mode carries mapping-shaped rows: ``names`` are the mapping keys in
# first-seen order and the bitmask records which (row, column) cells were
# actually present, so the worker reconstructs the exact dicts the producer
# pushed — absent-vs-NaN is preserved bit-for-bit.
_FLAG_NAMED = 1
_FLAG_MASK = 2


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for frame ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


def _encode_push_frame(
    position: int,
    session_id: str,
    matrix: np.ndarray,
    names: Optional[List[str]],
    mask: Optional[np.ndarray],
) -> List:
    flags = (_FLAG_NAMED if names is not None else 0) | (
        _FLAG_MASK if mask is not None else 0
    )
    header = bytearray()
    header += struct.pack("<Q", position)
    header += _pack_str(session_id)
    header += struct.pack("<B", flags)
    if names is not None:
        header += struct.pack("<H", len(names))
        for name in names:
            header += _pack_str(name)
    rows, cols = matrix.shape
    header += struct.pack("<II", rows, cols)
    header += b"\x00" * (_round_up(len(header)) - len(header))
    chunks: List = [bytes(header), np.ascontiguousarray(matrix, dtype=np.float64)]
    if mask is not None:
        chunks.append(np.packbits(mask, axis=None))
    return chunks


def encode_push_frames(
    position: int, session_id: str, rows: Sequence, max_payload: int
) -> Tuple[List[List], int]:
    """Encode pipelined rows as one or more push-frame chunk lists.

    Consecutive rows of the same shape are coalesced into one frame:
    positional rows (sequences / arrays) become a plain ``float64`` matrix,
    mapping rows become a named matrix plus presence bitmask.  Oversized
    runs are split by row count so every frame fits ``max_payload``.

    Returns ``(frames, next_position)`` — each frame is a chunk list for
    :meth:`SharedRingBuffer.try_write`, stamped with consecutive data-plane
    positions starting at ``position``.  Raises (e.g. on values that do not
    coerce to float) *before* anything is emitted, so a failed encode never
    leaves a half-written emit behind.
    """
    runs: List[Tuple[bool, List]] = []
    for row in rows:
        named = isinstance(row, dict) or (
            hasattr(row, "keys") and hasattr(row, "__getitem__")
        )
        if runs and runs[-1][0] == named:
            runs[-1][1].append(row)
        else:
            runs.append((named, [row]))

    frames: List[List] = []
    for named, run in runs:
        if named:
            names: Dict[str, int] = {}
            for row in run:
                for key in row:
                    names.setdefault(str(key), len(names))
            columns = list(names)
            matrix = np.full((len(run), max(len(columns), 1)), np.nan)
            mask = np.zeros((len(run), max(len(columns), 1)), dtype=bool)
            for i, row in enumerate(run):
                for key, value in row.items():
                    j = names[str(key)]
                    matrix[i, j] = float(value)
                    mask[i, j] = True
            for chunk, mask_chunk in _chunk_matrix(matrix, mask, columns, max_payload):
                frames.append(
                    _encode_push_frame(
                        position + len(frames), session_id, chunk, columns, mask_chunk
                    )
                )
        else:
            try:
                matrix = np.asarray(
                    [np.asarray(row, dtype=float).reshape(-1) for row in run],
                    dtype=float,
                )
            except ValueError:
                # Ragged positional rows: emit each on its own so the width
                # error surfaces per-row inside the session, like the pipe
                # path did.
                for row in run:
                    single = np.asarray(row, dtype=float).reshape(1, -1)
                    frames.append(
                        _encode_push_frame(
                            position + len(frames), session_id, single, None, None
                        )
                    )
                continue
            for chunk, _ in _chunk_matrix(matrix, None, None, max_payload):
                frames.append(
                    _encode_push_frame(
                        position + len(frames), session_id, chunk, None, None
                    )
                )
    return frames, position + len(frames)


def _chunk_matrix(matrix, mask, names, max_payload):
    """Split a run matrix into row slices whose frames fit ``max_payload``."""
    rows, cols = matrix.shape
    name_bytes = sum(len(n.encode("utf-8")) + 2 for n in (names or ()))
    fixed = 8 + 2 + 256 + 1 + 2 + name_bytes + 8 + _ALIGN  # generous header bound
    per_row = cols * 8 + (cols + 7) // 8 + 1
    max_rows = max(1, (max_payload - fixed) // per_row)
    for start in range(0, rows, max_rows):
        stop = start + max_rows
        yield matrix[start:stop], None if mask is None else mask[start:stop]


_PUSH_HEAD = struct.Struct("<QH")


def _push_layout(view) -> tuple:
    """Parse a push frame's header and check it against the frame's length.

    Returns ``(position, session_id, names, rows, cols, table, dims,
    end)``: ``names`` is ``None`` for a positional frame, ``table`` is the
    offset of the flags byte, ``dims`` the end of the ``rows, cols`` field
    that closes the header (the ``float64`` block starts at the next 8-byte
    boundary), and ``end`` the end of the block and its bitmask.  Raises
    ``struct.error``, ``ValueError`` or ``IndexError`` on a frame that
    :func:`decode_push_frame` could not turn into rows: one too short for
    what its header declares, a string that is not UTF-8, or a named frame
    whose columns are not its names (the encoder writes one column per
    name, and one column of absent cells when there are none).
    """
    position, sid_len = _PUSH_HEAD.unpack_from(view, 0)
    offset = _PUSH_HEAD.size
    session_id = bytes(view[offset: offset + sid_len]).decode("utf-8")
    table = offset + sid_len
    flags = view[table]
    offset = table + 1
    names: Optional[List[str]] = None
    if flags & _FLAG_NAMED:
        (n_names,) = struct.unpack_from("<H", view, offset)
        offset += 2
        names = []
        for _ in range(n_names):
            (length,) = struct.unpack_from("<H", view, offset)
            offset += 2
            names.append(bytes(view[offset: offset + length]).decode("utf-8"))
            offset += length
    rows, cols = struct.unpack_from("<II", view, offset)
    dims = offset + 8
    end = _round_up(dims) + rows * cols * 8
    if end > len(view):
        raise ValueError(
            f"push frame of {len(view)} bytes is too short for its "
            f"{rows} x {cols} block"
        )
    if names is None:
        return position, session_id, None, rows, cols, table, dims, end
    if cols != max(len(names), 1):
        raise ValueError(f"named push frame has {cols} columns for {len(names)} names")
    mask = end
    if flags & _FLAG_MASK:
        end += (rows * cols + 7) // 8
        if end > len(view):
            raise ValueError("push frame is too short for its presence bitmask")
    if not names and rows and (
        mask == end
        or np.unpackbits(
            np.frombuffer(view, np.uint8, count=end - mask, offset=mask), count=rows
        ).any()
    ):
        raise ValueError("named push frame has present cells but no names")
    return position, session_id, names, rows, cols, table, dims, end


def decode_push_frame(view: memoryview):
    """Decode a push frame into ``(position, session_id, part)``.

    ``part`` is ``("matrix", ndarray)`` for positional frames — the block is
    copied out of the segment as one ``float64`` matrix — or
    ``("rows", [dict, ...])`` for named frames, reconstructing exactly the
    mappings that were pushed (absent keys stay absent).
    """
    position, session_id, names, rows, cols, _, dims, end = _push_layout(view)
    cells = _round_up(dims)
    matrix = (
        np.frombuffer(view, dtype=np.float64, count=rows * cols, offset=cells)
        .reshape(rows, cols)
        .copy()
    )
    if names is None:
        return position, session_id, ("matrix", matrix)
    mask = np.ones((rows, cols), dtype=bool)
    offset = cells + rows * cols * 8
    if end > offset:
        n_bits = rows * cols
        packed = np.frombuffer(view, dtype=np.uint8, count=end - offset, offset=offset)
        mask = np.unpackbits(packed, count=n_bits).astype(bool).reshape(rows, cols)
    dict_rows = [
        {names[j]: matrix[i, j] for j in range(cols) if mask[i, j]}
        for i in range(rows)
    ]
    return position, session_id, ("rows", dict_rows)


class PushFrame:
    """A push frame checked by its header, its block kept as bytes.

    ``PushFrame(payload)`` raises where :func:`decode_push_frame` would,
    without building the block: the gateway receives PUSH payloads in this
    very layout (the client's sequence number as ``position``, the station
    as ``session_id``) and forwards them.  :meth:`restamped` lays the same
    block out under another position and session id for the push ring:
    the header is rebuilt, the cells and bitmask are copied as bytes.
    ``payload`` must not change while the frame is in use.
    """

    __slots__ = ("payload", "position", "session_id", "rows", "_table", "_dims", "_end")

    def __init__(self, payload: bytes) -> None:
        (self.position, self.session_id, _, self.rows, _, self._table,
         self._dims, self._end) = _push_layout(payload)
        self.payload = payload

    def restamped(self, position: int, session_id: str) -> List:
        """Chunk list of this block as a push frame of ``session_id`` at ``position``."""
        header = (
            struct.pack("<Q", position)
            + _pack_str(session_id)
            + self.payload[self._table: self._dims]
        )
        return [
            header + bytes(_round_up(len(header)) - len(header)),
            memoryview(self.payload)[_round_up(self._dims): self._end],
        ]

    def decode(self):
        """The block as the ``part`` :func:`decode_push_frame` returns."""
        return decode_push_frame(memoryview(self.payload))[2]


# --------------------------------------------------------------------------- #
# BlockCodec — result frames
# --------------------------------------------------------------------------- #
# One frame carries the TickResult list of one session (split when large):
#
#   u16 sid_len + utf-8 session id
#   u32 n_strings, then per string u16 len + utf-8   (series / method names)
#   u32 n_ticks, u32 n_estimates, u32 n_details
#   u32 n_refs_total, u32 n_anchors_total
#   pad to 8
#   i64[n_ticks]      tick indices
#   u32[n_ticks]      estimates per tick
#   u32[n_estimates]  series string index
#   f64[n_estimates]  value
#   u32[n_estimates]  method string index
#   u8[n_estimates]   has-detail flag              (padded to 8)
#   -- per detail, aligned arrays over n_details --
#   u32 series idx | f64 value | u32 method idx | f64 epsilon
#   u32 n_refs | u32 n_anchors
#   u32[n_refs_total] reference-name string indices
#   i64[n_anchors_total] anchor indices
#   f64[n_anchors_total] anchor values
#   f64[n_anchors_total] dissimilarities
#
# Everything numeric crosses as fixed-width machine values, so the decoded
# TickResult/SeriesEstimate/ImputationResult objects are bit-identical to
# what the worker produced — including NaNs.


def encode_result_frames(
    session_id: str, results: Sequence[TickResult], max_payload: int
) -> List[bytes]:
    """Encode one session's tick results into one or more frame payloads."""
    payload = _encode_results(session_id, results)
    if len(payload) <= max_payload or len(results) <= 1:
        return [payload]
    half = len(results) // 2
    return encode_result_frames(
        session_id, results[:half], max_payload
    ) + encode_result_frames(session_id, results[half:], max_payload)


def _encode_results(session_id: str, results: Sequence[TickResult]) -> bytes:
    strings: Dict[str, int] = {}

    def intern(value: str) -> int:
        index = strings.get(value)
        if index is None:
            index = strings[value] = len(strings)
        return index

    tick_indices: List[int] = []
    est_counts: List[int] = []
    est_series: List[int] = []
    est_values: List[float] = []
    est_methods: List[int] = []
    est_has_detail: List[int] = []
    det_series: List[int] = []
    det_values: List[float] = []
    det_methods: List[int] = []
    det_epsilon: List[float] = []
    det_n_refs: List[int] = []
    det_n_anchors: List[int] = []
    ref_names: List[int] = []
    anchor_indices: List[int] = []
    anchor_values: List[float] = []
    dissimilarities: List[float] = []

    for result in results:
        tick_indices.append(result.index)
        est_counts.append(len(result.estimates))
        for name, estimate in result.estimates.items():
            est_series.append(intern(name))
            est_values.append(estimate.value)
            est_methods.append(intern(estimate.method))
            detail = estimate.detail
            if detail is None:
                est_has_detail.append(0)
                continue
            if not isinstance(detail, ImputationResult):
                raise TypeError(
                    f"cannot encode estimate detail of type "
                    f"{type(detail).__name__}"
                )
            est_has_detail.append(1)
            det_series.append(intern(detail.series))
            det_values.append(detail.value)
            det_methods.append(intern(detail.method))
            det_epsilon.append(detail.epsilon)
            det_n_refs.append(len(detail.reference_names))
            det_n_anchors.append(len(detail.anchor_indices))
            ref_names.extend(intern(r) for r in detail.reference_names)
            anchor_indices.extend(detail.anchor_indices)
            anchor_values.extend(detail.anchor_values)
            dissimilarities.extend(detail.dissimilarities)

    header = bytearray()
    header += _pack_str(session_id)
    header += struct.pack("<I", len(strings))
    for value in strings:
        header += _pack_str(value)
    header += struct.pack(
        "<IIIII",
        len(tick_indices),
        len(est_series),
        len(det_series),
        len(ref_names),
        len(anchor_indices),
    )
    header += b"\x00" * (_round_up(len(header)) - len(header))

    def pad8(raw: bytes) -> bytes:
        return raw + b"\x00" * (_round_up(len(raw)) - len(raw))

    parts = [
        bytes(header),
        np.asarray(tick_indices, dtype=np.int64).tobytes(),
        pad8(np.asarray(est_counts, dtype=np.uint32).tobytes()),
        pad8(np.asarray(est_series, dtype=np.uint32).tobytes()),
        np.asarray(est_values, dtype=np.float64).tobytes(),
        pad8(np.asarray(est_methods, dtype=np.uint32).tobytes()),
        pad8(np.asarray(est_has_detail, dtype=np.uint8).tobytes()),
        pad8(np.asarray(det_series, dtype=np.uint32).tobytes()),
        np.asarray(det_values, dtype=np.float64).tobytes(),
        pad8(np.asarray(det_methods, dtype=np.uint32).tobytes()),
        np.asarray(det_epsilon, dtype=np.float64).tobytes(),
        pad8(np.asarray(det_n_refs, dtype=np.uint32).tobytes()),
        pad8(np.asarray(det_n_anchors, dtype=np.uint32).tobytes()),
        pad8(np.asarray(ref_names, dtype=np.uint32).tobytes()),
        np.asarray(anchor_indices, dtype=np.int64).tobytes(),
        np.asarray(anchor_values, dtype=np.float64).tobytes(),
        np.asarray(dissimilarities, dtype=np.float64).tobytes(),
    ]
    return b"".join(parts)


def decode_result_frame(view: memoryview) -> Tuple[str, List[TickResult]]:
    """Decode a result frame back into ``(session_id, [TickResult, ...])``."""
    offset = 0
    (sid_len,) = struct.unpack_from("<H", view, offset)
    offset += 2
    session_id = bytes(view[offset: offset + sid_len]).decode("utf-8")
    offset += sid_len
    (n_strings,) = struct.unpack_from("<I", view, offset)
    offset += 4
    strings: List[str] = []
    for _ in range(n_strings):
        (length,) = struct.unpack_from("<H", view, offset)
        offset += 2
        strings.append(bytes(view[offset: offset + length]).decode("utf-8"))
        offset += length
    n_ticks, n_est, n_det, n_refs, n_anchors = struct.unpack_from(
        "<IIIII", view, offset
    )
    offset = _round_up(offset + 20)

    def take(dtype, count, itemsize, align=True):
        nonlocal offset
        array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
        offset += count * itemsize
        if align:
            offset = _round_up(offset)
        return array

    tick_indices = take(np.int64, n_ticks, 8)
    est_counts = take(np.uint32, n_ticks, 4)
    est_series = take(np.uint32, n_est, 4)
    est_values = take(np.float64, n_est, 8)
    est_methods = take(np.uint32, n_est, 4)
    est_has_detail = take(np.uint8, n_est, 1)
    det_series = take(np.uint32, n_det, 4)
    det_values = take(np.float64, n_det, 8)
    det_methods = take(np.uint32, n_det, 4)
    det_epsilon = take(np.float64, n_det, 8)
    det_n_refs = take(np.uint32, n_det, 4)
    det_n_anchors = take(np.uint32, n_det, 4)
    ref_names = take(np.uint32, n_refs, 4)
    anchor_indices = take(np.int64, n_anchors, 8)
    anchor_values = take(np.float64, n_anchors, 8)
    dissimilarities = take(np.float64, n_anchors, 8)

    results: List[TickResult] = []
    est_cursor = det_cursor = ref_cursor = anchor_cursor = 0
    for t in range(n_ticks):
        estimates: Dict[str, SeriesEstimate] = {}
        for _ in range(int(est_counts[t])):
            series = strings[int(est_series[est_cursor])]
            detail = None
            if est_has_detail[est_cursor]:
                k_refs = int(det_n_refs[det_cursor])
                k_anchors = int(det_n_anchors[det_cursor])
                detail = ImputationResult(
                    series=strings[int(det_series[det_cursor])],
                    value=float(det_values[det_cursor]),
                    method=strings[int(det_methods[det_cursor])],
                    reference_names=tuple(
                        strings[int(r)]
                        for r in ref_names[ref_cursor: ref_cursor + k_refs]
                    ),
                    anchor_indices=tuple(
                        anchor_indices[anchor_cursor: anchor_cursor + k_anchors]
                        .tolist()
                    ),
                    anchor_values=tuple(
                        anchor_values[anchor_cursor: anchor_cursor + k_anchors]
                        .tolist()
                    ),
                    dissimilarities=tuple(
                        dissimilarities[anchor_cursor: anchor_cursor + k_anchors]
                        .tolist()
                    ),
                    epsilon=float(det_epsilon[det_cursor]),
                )
                det_cursor += 1
                ref_cursor += k_refs
                anchor_cursor += k_anchors
            estimates[series] = SeriesEstimate(
                series=series,
                value=float(est_values[est_cursor]),
                method=strings[int(est_methods[est_cursor])],
                detail=detail,
            )
            est_cursor += 1
        results.append(TickResult(index=int(tick_indices[t]), estimates=estimates))
    return session_id, results


def result_frame_session(frame) -> str:
    """The session id a result frame is addressed to (nothing else is read)."""
    (sid_len,) = struct.unpack_from("<H", frame, 0)
    return bytes(frame[2: 2 + sid_len]).decode("utf-8")


def readdress_result_frame(frame: bytes, session_id: str) -> Tuple[bytes, int]:
    """A result frame addressed to ``session_id`` instead; also its tick count.

    Only the header is rebuilt (its padding depends on the id's length); the
    columns are copied as bytes, so the frame equals what
    :func:`encode_result_frames` makes of the decoded results under the new
    id.
    """
    (sid_len,) = struct.unpack_from("<H", frame, 0)
    table = 2 + sid_len
    (n_strings,) = struct.unpack_from("<I", frame, table)
    offset = table + 4
    for _ in range(n_strings):
        (length,) = struct.unpack_from("<H", frame, offset)
        offset += 2 + length
    (n_ticks,) = struct.unpack_from("<I", frame, offset)
    offset += 20
    header = _pack_str(session_id) + frame[table: offset]
    pad = bytes(_round_up(len(header)) - len(header))
    return b"".join((header, pad, memoryview(frame)[_round_up(offset):])), n_ticks
