"""Length-prefixed binary wire protocol of the ingest gateway.

The gateway puts a real network boundary in front of the serving tier, so —
unlike the cluster's process-local pipes — nothing that crosses it may be a
pickle: a byte stream from a TCP peer is untrusted input.  Every message is
a *frame*::

    u32  payload length          (little-endian, bounded by the decoder)
    u32  crc32                   (over the kind byte + payload)
    u8   frame kind              (one of the ``FRAME_*`` constants)
    ...  payload bytes

The payload formats reuse the no-pickle layouts of the cluster's
shared-memory BlockCodec (:mod:`repro.cluster.shm`): a PUSH / PUSH_BLOCK
payload is exactly a shm push frame (client sequence number + session id +
``float64`` rows + presence bitmask, so absent-vs-NaN survives the wire
bit-for-bit), and a RESULT payload is exactly a shm result frame (string
table + flat numpy columns).  So a gateway in front of a cluster forwards
both without decoding them: :func:`validate_push_payload` checks a PUSH by
its header and the block is re-stamped into a worker's push ring, and
:func:`result_payloads` re-addresses a worker's result frame to the
client's station.  The rare control frames (HELLO, HELLO_OK) carry JSON —
auditable, versionable, and still pickle-free.

Robustness is the decoder's job: :class:`FrameDecoder` is *sans-io* — feed
it whatever bytes arrived, get back complete frames.  A partial frame stays
buffered until its remainder arrives; an oversized length prefix or a CRC
mismatch raises :class:`~repro.exceptions.ProtocolError` immediately.  A
byte stream that produced a ``ProtocolError`` cannot be resynchronised
(frame boundaries are gone), so both ends close the connection on it —
there is no way to mis-parse garbage as data without the CRC catching it.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.shm import (
    PushFrame,
    decode_push_frame,
    decode_result_frame,
    encode_push_frames,
    encode_result_frames,
    readdress_result_frame,
)
from ..exceptions import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_PAYLOAD",
    "FRAME_HELLO",
    "FRAME_HELLO_OK",
    "FRAME_PUSH",
    "FRAME_PUSH_BLOCK",
    "FRAME_PRIME",
    "FRAME_PRIME_OK",
    "FRAME_FLUSH",
    "FRAME_FLUSH_OK",
    "FRAME_RESULT",
    "FRAME_ERROR",
    "FRAME_PING",
    "FRAME_PONG",
    "FRAME_ACK",
    "FRAME_RECEIVED",
    "ERR_PROTOCOL",
    "ERR_SESSION",
    "ERR_OVERLOADED",
    "ERR_SERVER",
    "ERR_UNAVAILABLE",
    "FrameDecoder",
    "encode_frame",
    "encode_hello",
    "decode_hello",
    "encode_hello_ok",
    "decode_hello_ok",
    "encode_push_payloads",
    "decode_push_payload",
    "validate_push_payload",
    "encode_result_payloads",
    "result_payloads",
    "decode_result_payload",
    "encode_prime",
    "decode_prime",
    "encode_error",
    "decode_error",
    "decode_error_ref",
    "encode_token",
    "decode_token",
    "encode_ack",
    "decode_ack",
    "encode_unavailable",
    "decode_unavailable",
]

#: Version carried in every HELLO; the server rejects mismatches.  Version 2
#: added push-scoped ERRORs, PING/FLUSH tokens, ``results_from`` and RECEIVED.
PROTOCOL_VERSION = 2

#: Default upper bound on a single frame's payload.  Generous for record
#: blocks and result batches, small enough that a garbage length prefix
#: cannot make a peer buffer gigabytes before the CRC check runs.
DEFAULT_MAX_FRAME_PAYLOAD = 8 << 20

_FRAME_HEADER = struct.Struct("<IIB")

# Frame kinds.  Client -> server: HELLO, PUSH, PUSH_BLOCK, PRIME, FLUSH,
# PING, RECEIVED.  Server -> client: HELLO_OK, PRIME_OK, FLUSH_OK, RESULT,
# ERROR, PONG, ACK.
FRAME_HELLO = 1
FRAME_HELLO_OK = 2
FRAME_PUSH = 3
FRAME_PUSH_BLOCK = 4
FRAME_PRIME = 5
FRAME_PRIME_OK = 6
FRAME_FLUSH = 7
FRAME_FLUSH_OK = 8
FRAME_RESULT = 9
FRAME_ERROR = 10
FRAME_PING = 11
FRAME_PONG = 12
FRAME_ACK = 13
#: ``{station: first tick index without a received result}`` in the ACK
#: layout: the server may forget results below it (see encode_ack).
FRAME_RECEIVED = 14

_KNOWN_KINDS = frozenset(range(FRAME_HELLO, FRAME_RECEIVED + 1))

# Error codes carried by ERROR frames.
ERR_PROTOCOL = 1     #: the peer sent a malformed or unexpected frame
ERR_SESSION = 2      #: a session-level operation failed (unknown id, bad row)
ERR_OVERLOADED = 3   #: the push was shed; the record was NOT applied
ERR_SERVER = 4       #: an unexpected server-side failure
ERR_UNAVAILABLE = 5  #: the session's shard is degraded; retry after a delay


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    """Wrap one payload as a complete wire frame (header + CRC + bytes)."""
    crc = zlib.crc32(bytes((kind,)))
    crc = zlib.crc32(payload, crc)
    return _FRAME_HEADER.pack(len(payload), crc, kind) + payload


class FrameDecoder:
    """Sans-io incremental frame parser over an untrusted byte stream.

    Feed arriving bytes with :meth:`feed`; it returns every frame completed
    by them, in order, as ``(kind, payload bytes)`` pairs.  Incomplete
    frames stay buffered — a torn frame (peer died mid-write) is simply
    never returned.  Any violation — payload length above ``max_payload``,
    CRC mismatch, unknown frame kind — raises
    :class:`~repro.exceptions.ProtocolError`; after that the stream is
    unusable (the decoder refuses further input), because a byte stream
    with a corrupted header cannot be resynchronised safely.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD) -> None:
        self._max_payload = int(max_payload)
        self._buffer = bytearray()
        self._poisoned = False
        #: Lifetime counters (telemetry).
        self.frames_decoded = 0
        self.bytes_fed = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes of an incomplete frame currently held back."""
        return len(self._buffer)

    def feed(self, data) -> List[Tuple[int, bytes]]:
        """Consume arriving bytes; return the frames they completed.

        ``data`` is copied in before this returns, so it may be a view of a
        buffer the caller reuses for its next read.
        """
        if self._poisoned:
            raise ProtocolError(
                "frame stream already failed; the connection must be closed"
            )
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        frames: List[Tuple[int, bytes]] = []
        offset = 0
        try:
            while len(self._buffer) - offset >= _FRAME_HEADER.size:
                length, crc, kind = _FRAME_HEADER.unpack_from(self._buffer, offset)
                if length > self._max_payload:
                    raise ProtocolError(
                        f"frame payload of {length} bytes exceeds the "
                        f"{self._max_payload}-byte limit"
                    )
                if kind not in _KNOWN_KINDS:
                    raise ProtocolError(f"unknown frame kind {kind}")
                end = offset + _FRAME_HEADER.size + length
                if len(self._buffer) < end:
                    break  # partial frame: wait for the rest
                payload = bytes(self._buffer[offset + _FRAME_HEADER.size: end])
                expected = zlib.crc32(payload, zlib.crc32(bytes((kind,))))
                if crc != expected:
                    raise ProtocolError(
                        f"CRC mismatch on frame kind {kind} "
                        f"({crc:#010x} != {expected:#010x})"
                    )
                frames.append((kind, payload))
                self.frames_decoded += 1
                offset = end
        except ProtocolError:
            self._poisoned = True
            raise
        if offset:
            del self._buffer[:offset]
        return frames


# --------------------------------------------------------------------------- #
# HELLO / HELLO_OK (JSON control payloads)
# --------------------------------------------------------------------------- #
def encode_hello(
    station: str,
    method: str,
    series_names: Optional[Sequence[str]],
    warmup_ticks: int,
    params: Mapping[str, object],
    *,
    token: Optional[str] = None,
    resume: bool = False,
    results_from: Optional[int] = None,
) -> bytes:
    """Encode the session-opening handshake for one station.

    ``token`` is an opaque client-chosen lease token: a server that supports
    session leases parks this connection's sessions under it on disconnect
    instead of destroying them.  With ``resume`` the HELLO asks to reattach
    the station's leased session (the token must match the one that opened
    it); the HELLO_OK then reports the cumulative applied push sequence so
    the client knows exactly which outbox frames to replay.
    ``results_from`` (resume only) is the first tick index the client has
    not received a result for: the server re-sends the results it retained
    for the lease from there on (all of them when omitted).
    """
    message: Dict[str, object] = {
        "version": PROTOCOL_VERSION,
        "station": station,
        "method": method,
        "series_names": list(series_names) if series_names is not None else None,
        "warmup_ticks": int(warmup_ticks),
        "params": dict(params),
    }
    if token is not None:
        message["token"] = str(token)
    if resume:
        message["resume"] = True
    if results_from is not None:
        message["results_from"] = int(results_from)
    return json.dumps(message, sort_keys=True).encode("utf-8")


def _decode_json(payload: bytes, required: Sequence[str]) -> Dict[str, object]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed JSON control payload: {error}") from None
    if not isinstance(message, dict) or any(key not in message for key in required):
        raise ProtocolError(
            f"JSON control payload is missing fields {list(required)}"
        )
    return message


def decode_hello(payload: bytes) -> Dict[str, object]:
    """Decode a HELLO payload; rejects version mismatches."""
    message = _decode_json(
        payload, ("version", "station", "method", "warmup_ticks", "params")
    )
    if message["version"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {message['version']!r} not supported "
            f"(this end speaks {PROTOCOL_VERSION})"
        )
    token = message.get("token")
    if token is not None and not isinstance(token, str):
        raise ProtocolError("HELLO token must be a string")
    if message.get("resume") and token is None:
        raise ProtocolError("HELLO resume requires a lease token")
    return message


def encode_hello_ok(
    session_id: str,
    worker: Optional[int],
    *,
    resumed: bool = False,
    acked_seq: int = 0,
) -> bytes:
    """Encode the server's handshake reply (assigned namespaced id).

    ``resumed``/``acked_seq`` report lease reattachment: ``acked_seq`` is the
    cumulative count of PUSH payloads applied for this station, so a
    resuming client replays exactly its outbox entries at or above it.
    """
    return json.dumps(
        {
            "session_id": session_id,
            "worker": worker,
            "resumed": bool(resumed),
            "acked_seq": int(acked_seq),
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_hello_ok(payload: bytes) -> Dict[str, object]:
    """Decode a HELLO_OK payload."""
    return _decode_json(payload, ("session_id",))


# --------------------------------------------------------------------------- #
# PUSH / PUSH_BLOCK and RESULT (BlockCodec payloads)
# --------------------------------------------------------------------------- #
def encode_push_payloads(
    seq: int, station: str, rows: Sequence, max_payload: int
) -> Tuple[List[bytes], int]:
    """Encode pushed rows as one or more PUSH payloads.

    Reuses the shm BlockCodec layout: consecutive same-shaped rows coalesce
    into one ``float64`` matrix (mapping rows additionally carry a presence
    bitmask), oversized runs split to fit ``max_payload``.  Returns
    ``(payloads, next_seq)`` — payloads are stamped with consecutive client
    sequence numbers starting at ``seq``, which the receiver uses to detect
    gaps.  Raises before anything is produced on rows that do not coerce to
    float, so a failed encode never emits a partial push.
    """
    frames, next_seq = encode_push_frames(seq, station, rows, max_payload)
    return [b"".join(_as_bytes(chunk) for chunk in chunks) for chunks in frames], next_seq


def _as_bytes(chunk) -> bytes:
    if isinstance(chunk, bytes):
        return chunk
    return memoryview(chunk).tobytes()


def decode_push_payload(payload: bytes) -> Tuple[int, str, object]:
    """Decode a PUSH payload into ``(seq, station, part)``.

    ``part`` is ``("matrix", ndarray)`` for positional rows or
    ``("rows", [dict, ...])`` for mapping rows — exactly what the cluster's
    data plane consumes.  Malformed payloads (truncated arrays, bad string
    table) raise :class:`~repro.exceptions.ProtocolError`.
    """
    try:
        return decode_push_frame(memoryview(payload))
    except (struct.error, ValueError, UnicodeDecodeError, IndexError) as error:
        raise ProtocolError(f"malformed PUSH payload: {error}") from None


def validate_push_payload(payload: bytes) -> PushFrame:
    """Check a PUSH payload by its header, without decoding its block.

    Raises :class:`~repro.exceptions.ProtocolError` exactly when
    :func:`decode_push_payload` does; the returned frame carries the
    payload's sequence number (``position``), station (``session_id``) and
    record count (``rows``), and lays its block out for a worker's push
    ring as bytes.
    """
    try:
        return PushFrame(payload)
    except (struct.error, ValueError, IndexError) as error:
        raise ProtocolError(f"malformed PUSH payload: {error}") from None


def encode_result_payloads(
    station: str, results: Sequence, max_payload: int
) -> List[bytes]:
    """Encode one station's tick results as one or more RESULT payloads."""
    return encode_result_frames(station, results, max_payload)


def result_payloads(
    station: str, items: Sequence, max_payload: int
) -> Tuple[List[bytes], int]:
    """RESULT payloads carrying one station's results; also their tick count.

    Each item is a worker's result frame as bytes, whose header is
    re-addressed to ``station`` (its columns are copied as they are), or a
    :class:`~repro.results.TickResult`, encoded.  Either way the payloads
    equal what :func:`encode_result_payloads` makes of the same results:
    a re-addressed frame above ``max_payload`` is decoded and split.
    """
    payloads: List[bytes] = []
    ticks = 0
    for forwarded, run in itertools.groupby(items, key=lambda item: isinstance(item, bytes)):
        if not forwarded:
            results = list(run)
            payloads += encode_result_payloads(station, results, max_payload)
            ticks += len(results)
            continue
        for frame in run:
            payload, count = readdress_result_frame(frame, station)
            if len(payload) > max_payload:
                results = decode_result_frame(memoryview(payload))[1]
                payloads += encode_result_payloads(station, results, max_payload)
            else:
                payloads.append(payload)
            ticks += count
    return payloads, ticks


def decode_result_payload(payload: bytes) -> Tuple[str, List]:
    """Decode a RESULT payload back into ``(station, [TickResult, ...])``."""
    try:
        return decode_result_frame(memoryview(payload))
    except (struct.error, ValueError, UnicodeDecodeError, IndexError) as error:
        raise ProtocolError(f"malformed RESULT payload: {error}") from None


# --------------------------------------------------------------------------- #
# PRIME (bulk history)
# --------------------------------------------------------------------------- #
def encode_prime(station: str, history: Mapping[str, Sequence[float]]) -> bytes:
    """Encode priming history as ``station + per-series float64 columns``."""
    sid = station.encode("utf-8")
    parts = [struct.pack("<H", len(sid)), sid, struct.pack("<I", len(history))]
    for name, values in history.items():
        raw = str(name).encode("utf-8")
        column = np.ascontiguousarray(values, dtype=np.float64)
        if column.ndim != 1:
            raise ValueError(
                f"history for series {name!r} must be one-dimensional"
            )
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<Q", column.size))
        parts.append(column.tobytes())
    return b"".join(parts)


def decode_prime(payload: bytes) -> Tuple[str, Dict[str, np.ndarray]]:
    """Decode a PRIME payload into ``(station, {series: float64 array})``."""
    try:
        view = memoryview(payload)
        offset = 0
        (sid_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        station = bytes(view[offset: offset + sid_len]).decode("utf-8")
        offset += sid_len
        (n_series,) = struct.unpack_from("<I", view, offset)
        offset += 4
        history: Dict[str, np.ndarray] = {}
        for _ in range(n_series):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            name = bytes(view[offset: offset + name_len]).decode("utf-8")
            offset += name_len
            (count,) = struct.unpack_from("<Q", view, offset)
            offset += 8
            column = np.frombuffer(view, dtype=np.float64, count=count, offset=offset)
            offset += count * 8
            history[name] = column.copy()
        if offset != len(payload):
            raise ValueError(f"{len(payload) - offset} trailing bytes")
        return station, history
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed PRIME payload: {error}") from None


# --------------------------------------------------------------------------- #
# ERROR and PING/PONG
# --------------------------------------------------------------------------- #
#: Bit set in an ERROR code when a ``(station, sequence)`` reference follows.
_ERROR_REF = 0x8000


def _pack_station(station: str) -> bytes:
    """``u16`` length + UTF-8 bytes (the station field of ERROR and ACK)."""
    raw = str(station).encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def encode_error(
    code: int, message: str, ref: Optional[Tuple[str, int]] = None
) -> bytes:
    """Encode an ERROR payload: ``u16`` code, optional reference, UTF-8 message.

    ``ref=(station, seq)`` marks an error about one PUSH payload: the code
    gains bit 15 and ``u16`` station length + UTF-8 station + ``u64``
    sequence precede the message, so a client can tell it from the reply to
    a control request.
    """
    if ref is None:
        return struct.pack("<H", code) + message.encode("utf-8")
    station, seq = ref
    return (
        struct.pack("<H", code | _ERROR_REF)
        + _pack_station(station)
        + struct.pack("<Q", seq)
        + message.encode("utf-8")
    )


def _split_error(payload: bytes) -> Tuple[int, Optional[Tuple[str, int]], str]:
    try:
        (code,) = struct.unpack_from("<H", payload, 0)
        offset = 2
        ref = None
        if code & _ERROR_REF:
            code &= ~_ERROR_REF
            (length,) = struct.unpack_from("<H", payload, offset)
            station = bytes(payload[offset + 2: offset + 2 + length]).decode("utf-8")
            offset += 2 + length
            (seq,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            ref = (station, seq)
        return code, ref, bytes(payload[offset:]).decode("utf-8")
    except (struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed ERROR payload: {error}") from None


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Decode an ERROR payload into ``(code, message)``."""
    code, _, message = _split_error(payload)
    return code, message


def decode_error_ref(payload: bytes) -> Optional[Tuple[str, int]]:
    """The ``(station, seq)`` a PUSH error refers to; ``None`` for other errors."""
    return _split_error(payload)[1]


def encode_token(token: int) -> bytes:
    """Encode a PING/PONG/FLUSH correlation token (``u64``)."""
    return struct.pack("<Q", token)


def decode_token(payload: bytes) -> int:
    """Decode a PING/PONG/FLUSH correlation token."""
    try:
        (token,) = struct.unpack_from("<Q", payload, 0)
        return token
    except struct.error as error:
        raise ProtocolError(f"malformed token payload: {error}") from None


# --------------------------------------------------------------------------- #
# ACK (cumulative applied-push sequences) and UNAVAILABLE detail
# --------------------------------------------------------------------------- #
def encode_ack(acks: Mapping[str, int]) -> bytes:
    """Encode a cumulative ACK payload: ``{station: applied seq}``.

    Each entry says *every PUSH payload below this sequence number has been
    applied* for that station — the receiver drops those entries from its
    replay outbox.  Layout: ``u32`` entry count, then per entry a ``u16``
    station length + UTF-8 station + ``u64`` cumulative sequence.
    """
    parts = [struct.pack("<I", len(acks))]
    for station, seq in acks.items():
        if int(seq) < 0:
            raise ValueError(f"negative ACK sequence for {station!r}: {seq}")
        parts.append(_pack_station(station))
        parts.append(struct.pack("<Q", int(seq)))
    return b"".join(parts)


def decode_ack(payload: bytes) -> Dict[str, int]:
    """Decode an ACK payload into ``{station: cumulative applied seq}``."""
    try:
        view = memoryview(payload)
        offset = 0
        (count,) = struct.unpack_from("<I", view, offset)
        offset += 4
        acks: Dict[str, int] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            if offset + name_len > len(payload):
                raise ValueError("truncated station name")
            station = bytes(view[offset: offset + name_len]).decode("utf-8")
            offset += name_len
            (seq,) = struct.unpack_from("<Q", view, offset)
            offset += 8
            acks[station] = seq
        if offset != len(payload):
            raise ValueError(f"{len(payload) - offset} trailing bytes")
        return acks
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed ACK payload: {error}") from None


def encode_unavailable(
    retry_after: float, detail: str = "", ref: Optional[Tuple[str, int]] = None
) -> bytes:
    """Encode an ``ERROR(UNAVAILABLE)`` payload carrying a retry hint."""
    message = json.dumps(
        {"retry_after": float(retry_after), "detail": detail}, sort_keys=True
    )
    return encode_error(ERR_UNAVAILABLE, message, ref)


def decode_unavailable(message: str) -> Tuple[float, str]:
    """Decode the message half of an UNAVAILABLE error to ``(retry_after, detail)``.

    Tolerates a plain-text message (returns a zero retry hint) so an
    UNAVAILABLE raised without structured detail still surfaces cleanly.
    """
    try:
        parsed = json.loads(message)
        return float(parsed["retry_after"]), str(parsed.get("detail", ""))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return 0.0, message


def iter_frames(blob: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD) -> Iterable[Tuple[int, bytes]]:
    """Parse a complete byte blob into frames (testing/debugging helper)."""
    decoder = FrameDecoder(max_payload)
    frames = decoder.feed(blob)
    if decoder.buffered_bytes:
        raise ProtocolError(
            f"{decoder.buffered_bytes} trailing bytes form no complete frame"
        )
    return frames
