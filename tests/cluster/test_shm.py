"""Tests for the shared-memory data plane: ring buffer, codec, crash paths.

The :class:`SharedRingBuffer` invariants under test are the ones the cluster
tier's correctness rides on:

* frames cross the wrap boundary intact, in order, for arbitrary sizes
  (property-style test against a real child process);
* a full ring *stalls* the writer — no frame is ever dropped or reordered
  (backpressure test with a deliberately slow consumer);
* a frame that was being written when its producer died (torn frame) is
  never visible to the reader — publication is a single tail store that
  only happens after the payload is complete.

On top sit the codec round-trips (record blocks, presence masks, tick
results with full TKCM detail — all bit-exact, NaN included) and the
worker-handle crash regression: a worker hard-killed mid-RPC surfaces
:class:`~repro.exceptions.WorkerCrashedError` within the poll deadline, not
after the full reply timeout.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

import numpy as np
import pytest

from repro.cluster.shm import (
    FRAME_PUSH,
    SharedRingBuffer,
    decode_push_frame,
    decode_result_frame,
    encode_push_frames,
    encode_result_frames,
)
from repro.core.tkcm import ImputationResult
from repro.exceptions import ClusterError, WorkerCrashedError
from repro.results import SeriesEstimate, TickResult

NAN = float("nan")


# --------------------------------------------------------------------------- #
# Ring buffer
# --------------------------------------------------------------------------- #
def _echo_main(in_name: str, out_name: str, count: int, delay: float) -> None:
    """Child process: echo ``count`` frames from one ring into another."""
    source = SharedRingBuffer.attach(in_name)
    sink = SharedRingBuffer.attach(out_name)
    echoed = 0
    while echoed < count:
        frame = source.read()
        if frame is None:
            time.sleep(0.0001)
            continue
        kind, view = frame
        payload = bytes(view)
        source.release()
        if delay:
            time.sleep(delay)
        sink.write(kind, [payload])
        echoed += 1
    source.close()
    sink.close()


def _run_echo(capacity, payloads, delay=0.0):
    """Round-trip ``payloads`` through a child echo process; returns echoes.

    The second element of the returned tuple is the total number of
    ring-full stalls the parent's writes suffered.
    """
    outbound = SharedRingBuffer.create(capacity)
    inbound = SharedRingBuffer.create(capacity)
    context = multiprocessing.get_context()
    child = context.Process(
        target=_echo_main,
        args=(outbound.name, inbound.name, len(payloads), delay),
        daemon=True,
    )
    child.start()
    received = []
    stalls = 0

    def _drain_one() -> bool:
        """Move one echoed frame into ``received``; view dies in here."""
        frame = inbound.read()
        if frame is None:
            return False
        received.append((frame[0], bytes(frame[1])))
        inbound.release()
        return True

    try:
        for kind, payload in payloads:
            stalls += outbound.write(
                kind, [payload], alive=child.is_alive, timeout=30.0
            )
            while _drain_one():
                pass
        deadline = time.monotonic() + 30.0
        while len(received) < len(payloads):
            if not _drain_one():
                assert time.monotonic() < deadline, "echoes missing"
                time.sleep(0.0001)
        child.join(timeout=10.0)
    finally:
        if child.is_alive():  # pragma: no cover - hung child
            child.terminate()
        outbound.close()
        inbound.close()
    return received, stalls


class TestSharedRingBuffer:
    def test_random_frame_sizes_across_wrap_boundary(self):
        """Property-style: hundreds of random-size frames through a ring a
        fraction of their total volume, driven from a real child process —
        every frame must arrive intact, in order, with its kind."""
        rng = random.Random(2017)
        payloads = [
            (
                rng.randrange(1, 7),
                bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 700))),
            )
            for _ in range(400)
        ]
        received, _ = _run_echo(1 << 12, payloads)
        assert received == payloads

    @pytest.mark.slow_timing  # a deliberately slow consumer is the subject
    def test_ring_full_backpressure_drops_and_reorders_nothing(self):
        """A slow consumer must stall the writer, never lose a frame."""
        payloads = [(FRAME_PUSH, bytes([i % 256]) * 200) for i in range(64)]
        received, stalls = _run_echo(1 << 10, payloads, delay=0.002)
        assert received == payloads
        assert stalls > 0, "a 1 KiB ring behind a slow consumer must stall"

    def test_empty_ring_reads_none(self):
        ring = SharedRingBuffer.create(1 << 10)
        try:
            assert ring.read() is None
            assert ring.is_empty
        finally:
            ring.close()

    def test_frame_larger_than_capacity_is_rejected(self):
        ring = SharedRingBuffer.create(1 << 10)
        try:
            with pytest.raises(ValueError, match="exceeds the ring capacity"):
                ring.try_write(FRAME_PUSH, [b"x" * (1 << 11)])
        finally:
            ring.close()

    def test_torn_frame_is_invisible(self):
        """Payload bytes written without the tail publish must never be
        read: this is exactly the state a worker killed mid-write leaves."""
        ring = SharedRingBuffer.create(1 << 10)
        reader = SharedRingBuffer.attach(ring.name)
        try:
            ring.try_write(FRAME_PUSH, [b"committed"])
            # A second frame's header+payload written in place, tail NOT
            # advanced (the producer "died" before publishing).
            import struct

            tail = struct.unpack_from("<Q", ring._shm.buf, 8)[0]
            offset = 64 + (tail % ring.capacity)
            struct.pack_into("<II", ring._shm.buf, offset, 5, FRAME_PUSH)
            ring._shm.buf[offset + 8: offset + 13] = b"torn!"
            frame = reader.read()
            payload = bytes(frame[1])
            del frame  # drop the segment view before closing
            assert payload == b"committed"
            reader.release()
            assert reader.read() is None, "the torn frame leaked"
        finally:
            reader.close()
            ring.close()

    def test_torn_frame_from_killed_child_is_discarded(self):
        """A child hard-killed between payload write and publish leaves
        nothing visible; the segment is simply discarded on respawn."""
        ring = SharedRingBuffer.create(1 << 10)

        def dying_writer(name):
            victim = SharedRingBuffer.attach(name)
            import struct

            struct.pack_into("<II", victim._shm.buf, 64, 100, FRAME_PUSH)
            victim._shm.buf[72:172] = b"z" * 100
            os._exit(1)  # no tail publish: the kill landed mid-write

        context = multiprocessing.get_context()
        child = context.Process(target=dying_writer, args=(ring.name,), daemon=True)
        child.start()
        child.join(timeout=10.0)
        try:
            assert ring.read() is None
        finally:
            ring.close()

    def test_write_to_dead_peer_raises_worker_crashed(self):
        """A full ring whose reader is gone must raise, not hang."""
        ring = SharedRingBuffer.create(256)
        try:
            payload = b"p" * 100
            while ring.try_write(FRAME_PUSH, [payload]):
                pass  # fill it up; nobody is draining
            with pytest.raises(WorkerCrashedError):
                ring.write(
                    FRAME_PUSH, [payload], alive=lambda: False, timeout=5.0
                )
            with pytest.raises(ClusterError):
                ring.write(FRAME_PUSH, [payload], timeout=0.05)
        finally:
            ring.close()


#: Two counter values that differ in every byte: any mixture is a torn read.
_WORD_A = 0x00FF00FF00FF00FF
_WORD_B = 0xFF00FF00FF00FF00


def _counter_flipper(name: str) -> None:
    """Child process: rewrite the tail counter until the head reads 1."""
    ring = SharedRingBuffer.attach(name)
    try:
        while True:
            for _ in range(1000):
                ring._store(8, _WORD_B)
                ring._store(8, _WORD_A)
            if ring._load(0) == 1:
                return
    finally:
        ring.close()


class TestRingCounters:
    def test_counters_never_tear_across_processes(self):
        """One process rewrites a counter, another reads it: every read
        must see a whole value.  Byte-wise accessors tear within
        milliseconds on a multi-core host; word accessors never do."""
        ring = SharedRingBuffer.create(1 << 10)
        ring._store(8, _WORD_A)
        context = multiprocessing.get_context()
        child = context.Process(target=_counter_flipper, args=(ring.name,), daemon=True)
        child.start()
        torn = reads = 0
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not torn:
                for _ in range(10_000):
                    if ring._load(8) not in (_WORD_A, _WORD_B):
                        torn += 1
                reads += 10_000
        finally:
            ring._store(0, 1)
            child.join(timeout=10.0)
            ring.close()
        assert child.exitcode == 0
        assert torn == 0, f"{torn} torn counter reads in {reads}"


# --------------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------------- #
def _estimates_equal(a, b) -> bool:
    """Bit-exact TickResult list comparison (NaN == NaN)."""
    def norm(ticks):
        out = []
        for tick in ticks:
            for name in sorted(tick):
                est = tick[name]
                detail = est.detail
                out.append((
                    tick.index, name, repr(est.value), est.method,
                    None if detail is None else (
                        detail.series, repr(detail.value), detail.method,
                        detail.reference_names, detail.anchor_indices,
                        tuple(repr(v) for v in detail.anchor_values),
                        tuple(repr(v) for v in detail.dissimilarities),
                        repr(detail.epsilon),
                    ),
                ))
        return out
    return norm(a) == norm(b)


class TestBlockCodec:
    def _roundtrip_push(self, rows, max_payload=1 << 16):
        frames, next_position = encode_push_frames(7, "sess/a", rows, max_payload)
        ring = SharedRingBuffer.create(1 << 18)
        try:
            for chunks in frames:
                assert ring.try_write(FRAME_PUSH, chunks)
            decoded = []

            def _decode_one() -> bool:
                """Decode one frame; the segment view dies in here."""
                frame = ring.read()
                if frame is None:
                    return False
                decoded.append(decode_push_frame(frame[1]))
                ring.release()
                return True

            while _decode_one():
                pass
        finally:
            ring.close()
        return decoded, next_position

    def test_positional_rows_become_one_matrix_frame(self):
        rows = [np.array([1.0, NAN, 3.0]) for _ in range(5)]
        decoded, next_position = self._roundtrip_push(rows)
        assert next_position == 8
        (position, session_id, (kind, matrix),) = decoded[0]
        assert (position, session_id, kind) == (7, "sess/a", "matrix")
        assert matrix.shape == (5, 3)
        assert np.array_equal(matrix, np.asarray(rows), equal_nan=True)

    def test_named_rows_preserve_absent_keys(self):
        rows = [{"a": 1.0, "b": 2.0}, {"a": NAN}, {"c": 5.5}]
        decoded, _ = self._roundtrip_push(rows)
        (_, _, (kind, back),) = decoded[0]
        assert kind == "rows"
        assert [sorted(r) for r in back] == [["a", "b"], ["a"], ["c"]]
        assert back[0]["a"] == 1.0 and back[0]["b"] == 2.0
        assert np.isnan(back[1]["a"]) and back[2]["c"] == 5.5

    def test_mixed_runs_keep_order_and_positions(self):
        rows = [np.array([1.0]), {"x": 2.0}, {"x": 3.0}, np.array([4.0])]
        decoded, next_position = self._roundtrip_push(rows)
        assert [d[0] for d in decoded] == [7, 8, 9]  # three frames, in order
        assert next_position == 10
        kinds = [d[2][0] for d in decoded]
        assert kinds == ["matrix", "rows", "matrix"]

    def test_oversized_run_is_split_not_dropped(self):
        rows = [np.full(16, float(i)) for i in range(512)]
        decoded, _ = self._roundtrip_push(rows, max_payload=8192)
        assert len(decoded) > 1
        stitched = np.concatenate([d[2][1] for d in decoded])
        assert np.array_equal(stitched, np.asarray(rows))

    def test_result_frames_roundtrip_bit_exact(self):
        detail = ImputationResult(
            series="x", value=1.5, method="tkcm",
            reference_names=("r1", "r2"),
            anchor_indices=(3, 9, 17),
            anchor_values=(1.0, NAN, 1.5),
            dissimilarities=(0.1, 0.2, 0.30000000000000004),
            epsilon=0.5,
        )
        results = [
            TickResult(7, {
                "x": SeriesEstimate("x", 1.5, "tkcm", detail),
                "y": SeriesEstimate("y", NAN, "online"),
            }),
            TickResult(8, {"x": SeriesEstimate("x", 2.5, "fallback")}),
            TickResult(12, {}),
        ]
        payloads = encode_result_frames("sess", results, 1 << 16)
        assert len(payloads) == 1
        session_id, decoded = decode_result_frame(memoryview(payloads[0]))
        assert session_id == "sess"
        assert _estimates_equal(decoded, results)

    def test_result_frames_split_when_oversized(self):
        results = [
            TickResult(i, {"s": SeriesEstimate("s", float(i), "online")})
            for i in range(200)
        ]
        payloads = encode_result_frames("big", results, 1024)
        assert len(payloads) > 1
        stitched = []
        for payload in payloads:
            session_id, part = decode_result_frame(memoryview(payload))
            assert session_id == "big"
            stitched.extend(part)
        assert _estimates_equal(stitched, results)

    def test_unencodable_detail_raises_type_error(self):
        bad = [TickResult(0, {"s": SeriesEstimate("s", 1.0, "online", object())})]
        with pytest.raises(TypeError, match="cannot encode"):
            encode_result_frames("s", bad, 1 << 16)


# --------------------------------------------------------------------------- #
# Worker-handle crash regression (satellite: recv_reply deadline)
# --------------------------------------------------------------------------- #
class TestWorkerCrashSurfacing:
    @pytest.mark.slow_timing  # asserts a wall-clock crash-surfacing deadline
    def test_hard_kill_between_frames_surfaces_fast(self):
        """A worker killed while idle must fail the next RPC within the
        poll deadline — long before the 120 s reply timeout."""
        from repro import ClusterCoordinator

        with ClusterCoordinator(num_workers=1) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 1.0})
            worker = cluster._workers[0]
            worker._process.terminate()
            worker._process.join(timeout=10.0)
            started = time.monotonic()
            with pytest.raises(ClusterError):
                worker.request("stats", timeout=60.0)
            assert time.monotonic() - started < 10.0

    @pytest.mark.slow_timing  # asserts a wall-clock crash-surfacing deadline
    def test_hard_kill_mid_rpc_raises_worker_crashed_within_deadline(self):
        """The satellite regression: the RPC is in flight (the worker is
        busy priming a large history) when the process is hard-killed; the
        pending ``recv_reply`` must surface WorkerCrashedError promptly."""
        from repro import ClusterCoordinator

        with ClusterCoordinator(num_workers=1) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            worker = cluster._workers[0]
            history = {"x": np.arange(2_000_000, dtype=float)}
            worker.send_request("prime", "s", history)
            worker._process.terminate()  # lands mid-prime
            started = time.monotonic()
            with pytest.raises(WorkerCrashedError):
                worker.recv_reply(timeout=60.0)
            assert time.monotonic() - started < 10.0
            assert not worker.alive

class TestOversizedFallbacks:
    """Payloads too large for a single ring frame must divert to the pipe
    — never crash a worker, drop rows, or strand results."""

    def test_rows_too_wide_for_the_ring_fall_back_to_the_pipe(self):
        """One 300-series row (2400 B) cannot fit a 4 KiB ring's half-
        capacity frame cap: the emit must travel the pipe, whole, and the
        oversized per-tick results must come back inline — bit-identical
        to single-process serving (regression: this used to ValueError
        out of push_many / kill the worker post-reply)."""
        from repro import ClusterCoordinator, ImputationService
        from repro.cluster.bench import results_identical

        names = [f"s{i:03d}" for i in range(300)]
        rng = np.random.default_rng(8)
        rows = []
        for t in range(12):
            row = rng.standard_normal(300)
            row[::3] = NAN  # ~100 estimates per tick: oversized results too
            rows.append(row)

        service = ImputationService()
        service.create_session("wide", method="locf", series_names=names)
        expected = {"wide": []}
        for row in rows:
            expected["wide"].extend(service.push("wide", row))

        with ClusterCoordinator(
            num_workers=1, ring_capacity=4096, linger_records=4
        ) as cluster:
            cluster.create_session("wide", method="locf", series_names=names)
            results = cluster.push_many(("wide", row) for row in rows)
            stats = cluster.stats()
        assert results_identical(results, expected)
        transport = stats["cluster"]["transport"]
        assert transport["mode"] == "shm"
        assert transport["bytes_via_pipe"] > 0, (
            "oversized rows should have fallen back to the pipe"
        )
