"""Property/fuzz tests for the gateway wire protocol codec.

The decoder faces untrusted bytes from the network, so these tests lean on
hypothesis: roundtrips must be bit-exact (NaN payloads and absent-vs-NaN
presence masks included), arbitrary chunking must never tear a frame, and
every malformed input — truncated, oversized, bit-flipped, garbage — must
raise ProtocolError without any way to desynchronise silently.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.shm import decode_push_frame, encode_result_frames
from repro.core.tkcm import ImputationResult
from repro.exceptions import ProtocolError
from repro.gateway import protocol
from repro.results import SeriesEstimate, TickResult

MAX_PAYLOAD = protocol.DEFAULT_MAX_FRAME_PAYLOAD

frame_kinds = st.sampled_from(sorted(
    [protocol.FRAME_HELLO, protocol.FRAME_PUSH, protocol.FRAME_RESULT,
     protocol.FRAME_ERROR, protocol.FRAME_PING, protocol.FRAME_PONG]
))

finite_or_nan = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.just(float("nan")),
)


def chunked(blob: bytes, sizes) -> list:
    """Split ``blob`` at the cumulative offsets drawn by hypothesis."""
    chunks, start = [], 0
    for size in sizes:
        if start >= len(blob):
            break
        chunks.append(blob[start: start + size])
        start += size
    if start < len(blob):
        chunks.append(blob[start:])
    return chunks


class TestFraming:
    @given(
        frames=st.lists(
            st.tuples(frame_kinds, st.binary(max_size=256)), min_size=1, max_size=8
        ),
        sizes=st.lists(st.integers(min_value=1, max_value=64), max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_survives_arbitrary_chunking(self, frames, sizes):
        blob = b"".join(protocol.encode_frame(k, p) for k, p in frames)
        decoder = protocol.FrameDecoder()
        decoded = []
        for chunk in chunked(blob, sizes):
            decoded.extend(decoder.feed(chunk))
        assert decoded == frames
        assert decoder.buffered_bytes == 0
        assert decoder.frames_decoded == len(frames)

    @given(payload=st.binary(max_size=128))
    @settings(max_examples=40, deadline=None)
    def test_torn_frame_stays_buffered_not_decoded(self, payload):
        blob = protocol.encode_frame(protocol.FRAME_PUSH, payload)
        decoder = protocol.FrameDecoder()
        assert decoder.feed(blob[:-1]) == []
        assert decoder.buffered_bytes == len(blob) - 1
        # The missing byte completes exactly the original frame.
        assert decoder.feed(blob[-1:]) == [(protocol.FRAME_PUSH, payload)]
        assert decoder.buffered_bytes == 0

    @given(
        payload=st.binary(min_size=1, max_size=128),
        flip=st.integers(min_value=0, max_value=10 ** 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_bit_flip_is_caught(self, payload, flip):
        blob = bytearray(protocol.encode_frame(protocol.FRAME_RESULT, payload))
        position = flip % len(blob)
        blob[position] ^= 1 << (flip % 8)
        decoder = protocol.FrameDecoder()
        # A flipped bit lands in the length (oversized / short read → frame
        # never completes or CRC fails), the kind, the CRC, or the payload:
        # either nothing decodes or ProtocolError — never a wrong frame.
        try:
            frames = decoder.feed(bytes(blob))
        except ProtocolError:
            return
        assert (protocol.FRAME_RESULT, payload) not in frames

    def test_oversized_length_prefix_rejected_before_buffering(self):
        header = struct.pack("<IIB", MAX_PAYLOAD + 1, 0, protocol.FRAME_PUSH)
        decoder = protocol.FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)

    def test_unknown_kind_rejected(self):
        frame = bytearray(protocol.encode_frame(protocol.FRAME_PUSH, b"x"))
        frame[8] = 200  # the kind byte
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            protocol.FrameDecoder().feed(bytes(frame))

    @given(garbage=st.binary(min_size=protocol._FRAME_HEADER.size, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_never_parses_as_data(self, garbage):
        decoder = protocol.FrameDecoder(max_payload=256)
        try:
            frames = decoder.feed(garbage)
        except ProtocolError:
            return  # rejected outright — the expected path
        # Astronomically unlikely (a valid header AND CRC by chance); but
        # even then the decoder only returned frames whose CRC held.
        for kind, payload in frames:
            assert kind in range(protocol.FRAME_HELLO, protocol.FRAME_PONG + 1)

    def test_poisoned_decoder_refuses_further_input(self):
        decoder = protocol.FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack("<IIB", 1, 0, 99) + b"x")
        with pytest.raises(ProtocolError, match="already failed"):
            decoder.feed(protocol.encode_frame(protocol.FRAME_PING, b""))

    def test_tearing_cannot_desync_the_stream(self):
        # A frame whose tail is replaced by other bytes: the length prefix
        # swallows them as payload and the CRC rejects the hybrid — there
        # is no path where later frames are mis-framed silently.
        first = protocol.encode_frame(protocol.FRAME_PUSH, b"A" * 32)
        second = protocol.encode_frame(protocol.FRAME_PING, b"B" * 8)
        decoder = protocol.FrameDecoder()
        with pytest.raises(ProtocolError, match="CRC"):
            decoder.feed(first[:-8] + second)

    def test_iter_frames_rejects_trailing_bytes(self):
        blob = protocol.encode_frame(protocol.FRAME_PING, b"") + b"\x01"
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.iter_frames(blob)


class TestPushPayloads:
    @given(
        rows=st.lists(
            st.lists(finite_or_nan, min_size=3, max_size=3), min_size=1, max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_positional_rows_roundtrip_bit_exact(self, rows):
        matrix = np.asarray(rows, dtype=np.float64)
        payloads, next_seq = protocol.encode_push_payloads(
            5, "st", [matrix[i] for i in range(len(rows))], MAX_PAYLOAD
        )
        assert next_seq == 5 + len(payloads)
        decoded = []
        for payload in payloads:
            seq, station, (kind, value) = protocol.decode_push_payload(payload)
            assert station == "st"
            assert kind == "matrix"
            decoded.append(np.atleast_2d(value))
        together = np.concatenate(decoded, axis=0)
        # Bit-for-bit: NaNs compare equal at the byte level.
        assert together.tobytes() == matrix.tobytes()

    @given(
        rows=st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), finite_or_nan, max_size=3
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_absent_vs_nan_presence_survives(self, rows):
        payloads, _ = protocol.encode_push_payloads(0, "s", rows, MAX_PAYLOAD)
        decoded_rows = []
        for payload in payloads:
            _, _, (kind, value) = protocol.decode_push_payload(payload)
            assert kind == "rows"
            decoded_rows.extend(value)
        assert len(decoded_rows) == len(rows)
        for original, decoded in zip(rows, decoded_rows):
            # Absent keys stay absent — they never come back as NaN.
            assert set(decoded) == set(original)
            for key, value in original.items():
                if math.isnan(value):
                    assert math.isnan(decoded[key])
                else:
                    assert decoded[key] == value

    def test_truncated_push_payload_rejected(self):
        payloads, _ = protocol.encode_push_payloads(
            0, "s", [{"a": 1.0, "b": float("nan")}], MAX_PAYLOAD
        )
        with pytest.raises(ProtocolError, match="malformed PUSH"):
            protocol.decode_push_payload(payloads[0][: len(payloads[0]) // 2])


#: Rows of one PUSH payload: a positional block, or mapping rows (a named
#: block with a presence mask; absent keys and NaN values both occur).
push_rows = st.one_of(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda width: st.lists(
            st.lists(finite_or_nan, min_size=width, max_size=width),
            min_size=1, max_size=6,
        )
    ),
    st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "ç"]), finite_or_nan, max_size=3),
        min_size=1, max_size=6,
    ),
)


def _accepts(check, payload) -> bool:
    try:
        check(payload)
    except ProtocolError:
        return False
    return True


def _push_payload(seq, station, rows) -> bytes:
    (payload,), _ = protocol.encode_push_payloads(seq, station, rows, MAX_PAYLOAD)
    return payload


def _same_part(got, expected) -> bool:
    """Bit-exact equality of decoded blocks (NaN, -0.0, absent keys)."""
    (kind, value), (expected_kind, expected_value) = got, expected
    if kind != expected_kind:
        return False
    if kind == "matrix":
        return value.shape == expected_value.shape and value.tobytes() == expected_value.tobytes()
    return [
        {key: struct.pack("<d", cell) for key, cell in row.items()} for row in value
    ] == [
        {key: struct.pack("<d", cell) for key, cell in row.items()} for row in expected_value
    ]


class TestForwardedPushPayloads:
    """The gateway admits PUSH payloads checked by their header alone and
    re-stamps them into a worker's push ring, where ``_pump`` decodes them
    outside any ``try``: the check must accept exactly what the decoder
    accepts, and a re-stamped frame must decode to the very same block."""

    @given(payload=st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_header_check_agrees_with_decoder_on_arbitrary_bytes(self, payload):
        assert _accepts(protocol.validate_push_payload, payload) == _accepts(
            protocol.decode_push_payload, payload
        )

    @given(
        rows=push_rows,
        seq=st.integers(min_value=0, max_value=2 ** 64 - 1),
        station=st.text(max_size=8),
        cut=st.integers(min_value=0, max_value=10 ** 9),
        flip=st.integers(min_value=0, max_value=10 ** 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_header_check_agrees_with_decoder_on_damaged_payloads(
        self, rows, seq, station, cut, flip
    ):
        payload = _push_payload(seq, station, rows)
        flipped = bytearray(payload)
        flipped[flip % len(payload)] ^= 1 << (flip % 8)
        for damaged in (payload, payload[: cut % len(payload)], bytes(flipped)):
            assert _accepts(protocol.validate_push_payload, damaged) == _accepts(
                protocol.decode_push_payload, damaged
            )

    @given(
        rows=push_rows,
        seq=st.integers(min_value=0, max_value=2 ** 64 - 1),
        station=st.text(max_size=8),
        flip=st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 9)),
        position=st.integers(min_value=0, max_value=2 ** 64 - 1),
        session_id=st.text(max_size=24),
    )
    @settings(max_examples=300, deadline=None)
    def test_restamped_frame_decodes_to_the_same_block(
        self, rows, seq, station, flip, position, session_id
    ):
        payload = _push_payload(seq, station, rows)
        if flip is not None:  # any damaged payload that is still accepted
            flipped = bytearray(payload)
            flipped[flip % len(payload)] ^= 1 << (flip % 8)
            payload = bytes(flipped)
        if not _accepts(protocol.validate_push_payload, payload):
            return
        frame = protocol.validate_push_payload(payload)
        seq, station, expected = protocol.decode_push_payload(payload)
        assert (frame.position, frame.session_id) == (seq, station)
        assert frame.rows == len(expected[1])
        ring_frame = b"".join(bytes(chunk) for chunk in frame.restamped(position, session_id))
        decoded_position, decoded_id, part = decode_push_frame(memoryview(ring_frame))
        assert (decoded_position, decoded_id) == (position, session_id)
        assert _same_part(part, expected)


class TestControlPayloads:
    def test_hello_roundtrip(self):
        payload = protocol.encode_hello(
            "north", "tkcm", ["x", "y"], 3, {"pattern_length": 12}
        )
        hello = protocol.decode_hello(payload)
        assert hello["station"] == "north"
        assert hello["method"] == "tkcm"
        assert hello["series_names"] == ["x", "y"]
        assert hello["warmup_ticks"] == 3
        assert hello["params"] == {"pattern_length": 12}

    def test_hello_version_mismatch_rejected(self):
        payload = protocol.encode_hello("n", "tkcm", None, 0, {})
        tampered = payload.replace(
            f'"version": {protocol.PROTOCOL_VERSION}'.encode(), b'"version": 999'
        )
        assert tampered != payload
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_hello(tampered)

    def test_hello_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_hello(b"\xff\xfe not json")

    @given(
        station=st.text(min_size=1, max_size=12),
        columns=st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.lists(finite_or_nan, min_size=1, max_size=16),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_prime_roundtrip_bit_exact(self, station, columns):
        payload = protocol.encode_prime(station, columns)
        decoded_station, history = protocol.decode_prime(payload)
        assert decoded_station == station
        assert set(history) == set(columns)
        for name, values in columns.items():
            expected = np.asarray(values, dtype=np.float64)
            assert history[name].tobytes() == expected.tobytes()

    def test_prime_truncated_rejected(self):
        payload = protocol.encode_prime("s", {"a": [1.0, 2.0, 3.0]})
        with pytest.raises(ProtocolError, match="malformed PRIME"):
            protocol.decode_prime(payload[:-4])
        with pytest.raises(ProtocolError, match="malformed PRIME"):
            protocol.decode_prime(payload + b"\x00")

    def test_error_and_token_roundtrip(self):
        code, message = protocol.decode_error(
            protocol.encode_error(protocol.ERR_OVERLOADED, "später nochmal")
        )
        assert code == protocol.ERR_OVERLOADED
        assert message == "später nochmal"
        assert protocol.decode_token(protocol.encode_token(2 ** 53)) == 2 ** 53
        with pytest.raises(ProtocolError):
            protocol.decode_token(b"\x01")

    @given(
        station=st.text(max_size=12),
        session_id=st.text(max_size=24),
        split=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_result_payload_roundtrip_bit_exact(self, station, session_id, split):
        nan = float("nan")
        detail = ImputationResult(
            series="x", value=1.5, method="tkcm", reference_names=("y", "zé"),
            anchor_indices=(3, 17), anchor_values=(1.25, nan),
            dissimilarities=(0.5, -0.0), epsilon=2.0,
        )
        results = [
            TickResult(7, {
                "x": SeriesEstimate("x", 1.5, "tkcm", detail),
                "y": SeriesEstimate("y", nan, "online"),
            }),
            TickResult(9, {"x": SeriesEstimate("x", -0.0, "fallback")}),
        ]
        payloads = protocol.encode_result_payloads(station, results, MAX_PAYLOAD)
        decoded = []
        for payload in payloads:
            decoded_station, ticks = protocol.decode_result_payload(payload)
            assert decoded_station == station
            decoded.extend(ticks)
        assert [t.index for t in decoded] == [7, 9]
        assert decoded[0]["x"].value == 1.5
        assert decoded[0]["x"].method == "tkcm"
        assert decoded[0]["x"].detail.reference_names == ("y", "zé")
        assert math.isnan(decoded[0]["y"].value)
        assert struct.pack("<d", decoded[1]["x"].value) == struct.pack("<d", -0.0)
        with pytest.raises(ProtocolError, match="malformed RESULT"):
            protocol.decode_result_payload(payloads[0][:5])
        # A worker's result frame, re-addressed to the station, is exactly
        # the payload the gateway would encode from the decoded results
        # (split the same way when it outgrows the frame limit).
        frame = encode_result_frames(session_id, results, MAX_PAYLOAD)[0]
        limit = len(payloads[0]) - 1 if split else MAX_PAYLOAD
        forwarded, ticks = protocol.result_payloads(station, [frame], limit)
        assert forwarded == protocol.encode_result_payloads(station, results, limit)
        assert ticks == len(results)
        # Ticks that travelled inline are encoded in order around frames.
        mixed, ticks = protocol.result_payloads(station, [frame, results[1], frame], limit)
        assert mixed == forwarded + protocol.encode_result_payloads(
            station, results[1:], limit
        ) + forwarded
        assert ticks == 2 * len(results) + 1


class TestLeasePayloads:
    """HELLO-resume and cumulative-ACK payloads — the resilience additions."""

    @given(
        token=st.text(min_size=1, max_size=24),
        resume=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hello_token_and_resume_roundtrip(self, token, resume):
        payload = protocol.encode_hello(
            "north", "tkcm", ["x"], 2, {}, token=token, resume=resume
        )
        hello = protocol.decode_hello(payload)
        assert hello["token"] == token
        assert bool(hello.get("resume", False)) is resume

    def test_hello_without_token_has_no_lease_fields(self):
        hello = protocol.decode_hello(
            protocol.encode_hello("n", "tkcm", None, 0, {})
        )
        assert "token" not in hello
        assert "resume" not in hello

    def test_resume_without_token_rejected(self):
        payload = protocol.encode_hello("n", "tkcm", None, 0, {}, token="t")
        forged = payload.replace(b'"token": "t"', b'"resume": true')
        with pytest.raises(ProtocolError, match="requires a lease token"):
            protocol.decode_hello(forged)

    def test_non_string_token_rejected(self):
        payload = protocol.encode_hello("n", "tkcm", None, 0, {}, token="9")
        tampered = payload.replace(b'"token": "9"', b'"token": 9')
        with pytest.raises(ProtocolError, match="token must be a string"):
            protocol.decode_hello(tampered)

    def test_hello_ok_reports_resume_state(self):
        info = protocol.decode_hello_ok(
            protocol.encode_hello_ok("c1/st", 2, resumed=True, acked_seq=17)
        )
        assert info["resumed"] is True
        assert info["acked_seq"] == 17
        fresh = protocol.decode_hello_ok(protocol.encode_hello_ok("c1/st", None))
        assert fresh["resumed"] is False
        assert fresh["acked_seq"] == 0

    @given(
        acks=st.dictionaries(
            st.text(min_size=1, max_size=16),
            st.integers(min_value=0, max_value=2 ** 64 - 1),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ack_roundtrip(self, acks):
        assert protocol.decode_ack(protocol.encode_ack(acks)) == acks

    def test_negative_ack_sequence_rejected_at_encode(self):
        with pytest.raises(ValueError, match="negative"):
            protocol.encode_ack({"st": -1})

    @given(
        acks=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.integers(min_value=0, max_value=2 ** 32),
            min_size=1,
            max_size=4,
        ),
        cut=st.integers(min_value=1, max_value=10 ** 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_ack_always_rejected(self, acks, cut):
        payload = protocol.encode_ack(acks)
        keep = cut % len(payload)  # a strict prefix
        with pytest.raises(ProtocolError, match="malformed ACK"):
            protocol.decode_ack(payload[:keep])

    def test_ack_with_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="malformed ACK"):
            protocol.decode_ack(protocol.encode_ack({"st": 3}) + b"\x00")

    @given(
        acks=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.integers(min_value=0, max_value=2 ** 32),
            min_size=1,
            max_size=3,
        ),
        token=st.text(min_size=1, max_size=12),
        sizes=st.lists(st.integers(min_value=1, max_value=32), max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_and_ack_frames_survive_arbitrary_chunking(
        self, acks, token, sizes
    ):
        frames = [
            (
                protocol.FRAME_HELLO,
                protocol.encode_hello(
                    "st", "", None, 0, {}, token=token, resume=True
                ),
            ),
            (protocol.FRAME_ACK, protocol.encode_ack(acks)),
        ]
        blob = b"".join(protocol.encode_frame(k, p) for k, p in frames)
        decoder = protocol.FrameDecoder()
        decoded = []
        for chunk in chunked(blob, sizes):
            decoded.extend(decoder.feed(chunk))
        assert decoded == frames
        hello = protocol.decode_hello(decoded[0][1])
        assert hello["token"] == token and hello["resume"] is True
        assert protocol.decode_ack(decoded[1][1]) == acks

    @given(
        acks=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.integers(min_value=0, max_value=2 ** 32),
            min_size=1,
            max_size=3,
        ),
        flip=st.integers(min_value=0, max_value=10 ** 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_flipped_ack_frame_never_decodes_wrong(self, acks, flip):
        blob = bytearray(
            protocol.encode_frame(protocol.FRAME_ACK, protocol.encode_ack(acks))
        )
        position = flip % len(blob)
        blob[position] ^= 1 << (flip % 8)
        decoder = protocol.FrameDecoder()
        # The frame CRC covers the whole ACK payload: a flipped bit either
        # raises or leaves the frame incomplete — a *wrong* ACK (silently
        # trimming someone's outbox) can never come out.
        try:
            frames = decoder.feed(bytes(blob))
        except ProtocolError:
            return
        for kind, payload in frames:
            assert (kind, payload) != (
                protocol.FRAME_ACK, bytes(blob[9:])
            ) or protocol.decode_ack(payload) == acks

    def test_unavailable_roundtrip_and_plain_text_tolerance(self):
        code, message = protocol.decode_error(
            protocol.encode_unavailable(12.5, "shard 1 quarantined")
        )
        assert code == protocol.ERR_UNAVAILABLE
        assert protocol.decode_unavailable(message) == (
            12.5, "shard 1 quarantined"
        )
        assert protocol.decode_unavailable("try later") == (0.0, "try later")
