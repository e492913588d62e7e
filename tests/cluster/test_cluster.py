"""Integration tests for the sharded serving cluster (real worker processes).

The centrepiece is output parity: whatever the topology does — pipelined
ingestion, a mid-stream drain, growing or shrinking the cluster — the
estimates must be **bit-identical** to a single-process
:class:`ImputationService` fed the same record stream.  Everything rides on
the exact session snapshot/restore primitive, so these tests are the
end-to-end proof of the migration protocol.

Configurations are kept small (short windows, few sessions) so each test
spins up its workers in well under a second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterCoordinator, ImputationService
from repro.cluster.bench import flatten_results, results_identical
from repro.exceptions import ClusterError, ConfigurationError, ServiceError

NAN = float("nan")

#: Three stations, two cheap methods and one real TKCM config.
STATIONS = {
    "stations/alpine": dict(
        method="tkcm", series_names=["a0", "a1", "a2", "a3"],
        window_length=240, pattern_length=12, num_anchors=3, num_references=2,
        reference_rankings={"a0": ["a1", "a2", "a3"]},
    ),
    "stations/valley": dict(method="locf", series_names=["v0", "v1", "v2", "v3"]),
    "stations/coast": dict(method="mean", series_names=["c0", "c1", "c2", "c3"]),
}


def _station_matrix(seed: int, num_ticks: int = 480, gap=(260, 380)) -> np.ndarray:
    """Four correlated noisy sines with a long gap in the first column."""
    rng = np.random.default_rng(seed)
    t = np.arange(num_ticks, dtype=float)
    columns = [
        (1.0 + 0.1 * i) * np.sin(2 * np.pi * (t + shift) / 48)
        + 0.05 * rng.standard_normal(num_ticks)
        for i, shift in enumerate([0, 5, 11, 17])
    ]
    matrix = np.stack(columns, axis=1)
    matrix[gap[0]: gap[1], 0] = np.nan
    return matrix


def _record_stream(num_ticks: int = 480):
    """The station streams, interleaved round-robin like an ingestion queue."""
    matrices = {
        station: _station_matrix(seed)
        for seed, station in enumerate(sorted(STATIONS), start=40)
    }
    records = []
    for t in range(num_ticks):
        for station in sorted(STATIONS):
            records.append((station, matrices[station][t]))
    return records


def _populate(target) -> None:
    for station, spec in STATIONS.items():
        params = {k: v for k, v in spec.items() if k not in ("method", "series_names")}
        target.create_session(
            station, method=spec["method"], series_names=spec["series_names"], **params
        )


def _single_process_results(records):
    service = ImputationService()
    _populate(service)
    results: dict = {station: [] for station in STATIONS}
    for station, row in records:
        results[station].extend(service.push(station, row))
    return results


@pytest.fixture(scope="module")
def reference_results():
    """The single-process ground truth for the shared record stream."""
    return _single_process_results(_record_stream())


class TestServiceSurfaceParity:
    def test_sync_push_matches_single_process(self, reference_results):
        records = _record_stream(num_ticks=300)
        expected = _single_process_results(records)
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            results = {station: [] for station in STATIONS}
            for station, row in records:
                results[station].extend(cluster.push(station, row))
        assert results_identical(results, expected)

    def test_push_block_matches_single_process(self, reference_results):
        matrix = _station_matrix(40)
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            results = {"stations/alpine": cluster.push_block("stations/alpine", matrix)}
        service = ImputationService()
        _populate(service)
        expected = {"stations/alpine": service.push_block("stations/alpine", matrix)}
        assert results_identical(results, expected)
        assert flatten_results(results), "the gap must actually be imputed"

    def test_prime_then_stream(self):
        matrix = _station_matrix(77, gap=(300, 400))
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            names = STATIONS["stations/alpine"]["series_names"]
            cluster.prime(
                "stations/alpine",
                {name: matrix[:240, i] for i, name in enumerate(names)},
            )
            results = cluster.push_block("stations/alpine", matrix[240:])
        service = ImputationService()
        _populate(service)
        service.prime(
            "stations/alpine", {name: matrix[:240, i] for i, name in enumerate(names)}
        )
        expected = service.push_block("stations/alpine", matrix[240:])
        assert results_identical(
            {"stations/alpine": results}, {"stations/alpine": expected}
        )

    def test_session_management_surface(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            assert len(cluster) == 3
            assert "stations/alpine" in cluster
            assert list(cluster) == sorted(STATIONS)
            assert cluster.session_ids == sorted(STATIONS)
            cluster.remove_session("stations/coast")
            assert len(cluster) == 2 and "stations/coast" not in cluster
            with pytest.raises(ServiceError, match="unknown session"):
                cluster.push("stations/coast", {"c0": 1.0})
            with pytest.raises(ServiceError, match="already exists"):
                cluster.create_session(
                    "stations/alpine", method="locf", series_names=["x"]
                )

    def test_worker_of_reports_placement(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            for station in STATIONS:
                assert cluster.worker_of(station) in (0, 1)


class TestPipelinedIngestion:
    def test_push_many_matches_single_process(self, reference_results):
        records = _record_stream()
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
        assert results_identical(results, reference_results)
        assert flatten_results(results), "expected imputations over the gaps"

    def test_results_arrive_in_tick_order_per_session(self):
        records = _record_stream()
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
        for ticks in results.values():
            indices = [tick.index for tick in ticks]
            assert indices == sorted(indices)

    def test_flush_is_incremental(self):
        """Each flush returns exactly the results produced since the last."""
        records = _record_stream()
        half = len(records) // 2
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            second = cluster.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in set(first) | set(second)
        }
        assert results_identical(combined, _single_process_results(records))

    def test_sync_push_after_nowait_preserves_order(self):
        """A sync push behind queued pipelined records must observe them."""
        with ClusterCoordinator(num_workers=1, linger_records=1000) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push_nowait("s", {"x": 41.0})
            cluster.push_nowait("s", {"x": 7.0})
            results = cluster.push("s", {"x": NAN})
            assert results[0]["x"].value == 7.0  # carried from the queued record
            flushed = cluster.flush()
            assert flushed == {} or not flatten_results(flushed)

    def test_small_linger_still_bit_identical(self, reference_results):
        records = _record_stream()
        with ClusterCoordinator(num_workers=2, linger_records=3) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
        assert results_identical(results, reference_results)

    def test_backpressure_collects_mid_stream(self, reference_results):
        records = _record_stream()
        with ClusterCoordinator(
            num_workers=2, linger_records=8, max_inflight=50
        ) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
        assert results_identical(results, reference_results)

    def test_bad_record_error_surfaces_at_flush(self):
        with ClusterCoordinator(num_workers=1) as cluster:
            cluster.create_session("s", method="locf", series_names=["x", "y"])
            cluster.push_nowait("s", [1.0, 2.0, 3.0])  # wrong width
            with pytest.raises(ConfigurationError):
                cluster.flush()
        # A collect forced mid-stream by the in-flight bound finds the
        # failure too; the push that forced it has its own row in flight,
        # so the failure waits for the next flush instead of failing it.
        good = [[1.0, 2.0], [NAN, 3.0], [4.0, NAN], [5.0, 6.0], [NAN, NAN], [7.0, 8.0]]
        service = ImputationService()
        service.create_session("s", method="locf", series_names=["x", "y"])
        expected = {"s": [r for row in good for r in service.push("s", row)]}
        with ClusterCoordinator(num_workers=1, max_inflight=4, linger_records=1) as cluster:
            cluster.create_session("s", method="locf", series_names=["x", "y"])
            cluster.push_nowait("s", [1.0])  # wrong width
            for row in good:
                cluster.push_nowait("s", row)
            with pytest.raises(ConfigurationError):
                cluster.flush()
            recovered = cluster.flush()  # each failure is raised once
            # Every record was processed, the rejected one included.
            assert cluster.applied_records("s") == 1 + len(good)
        assert results_identical(recovered, expected)

    def test_results_survive_a_deferred_error_on_the_same_worker(self):
        """A bad record must not strand other sessions' results inside the
        worker: after the error surfaces, the next flush delivers them."""
        with ClusterCoordinator(num_workers=1, linger_records=1) as cluster:
            cluster.create_session("good", method="locf", series_names=["x"])
            cluster.create_session("bad", method="locf", series_names=["x", "y"])
            cluster.push_nowait("good", {"x": 5.0})
            cluster.push_nowait("good", {"x": NAN})      # imputes 5.0
            cluster.push_nowait("bad", [1.0, 2.0, 3.0])  # wrong width
            with pytest.raises(ConfigurationError):
                cluster.flush()
            recovered = cluster.flush()
            assert recovered["good"][0]["x"].value == 5.0

    def test_push_nowait_to_unknown_session_raises_immediately(self):
        with ClusterCoordinator(num_workers=1) as cluster:
            with pytest.raises(ServiceError, match="unknown session"):
                cluster.push_nowait("ghost", {"x": 1.0})


class TestDrain:
    def test_parity_across_mid_stream_drain(self, reference_results):
        records = _record_stream()
        half = len(records) // 2
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            busy = next(
                w for w in range(2) if cluster.router.sessions_on(w)
            )
            moved = cluster.drain(busy)
            assert moved, "the busy worker should have had sessions to move"
            assert cluster.router.sessions_on(busy) == []
            second = cluster.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, reference_results)

    def test_drained_worker_gets_no_new_sessions(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            victim = 0
            cluster.drain(victim)
            for i in range(8):
                worker = cluster.create_session(
                    f"fresh-{i}", method="locf", series_names=["x"]
                )
                assert worker != victim

    def test_drain_moves_sessions_to_live_workers(self):
        with ClusterCoordinator(num_workers=3) as cluster:
            _populate(cluster)
            plan = cluster.drain(1)
            for station, (source, destination) in plan.items():
                assert source == 1 and destination in (0, 2)
                assert cluster.worker_of(station) == destination


class TestRebalance:
    def test_grow_then_shrink_preserves_outputs(self, reference_results):
        records = _record_stream()
        third = len(records) // 3
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            collected = {station: [] for station in STATIONS}
            for chunk, workers in (
                (records[:third], None),
                (records[third: 2 * third], 4),
                (records[2 * third:], 2),
            ):
                if workers is not None:
                    cluster.rebalance(workers)
                    assert cluster.num_workers == workers
                out = cluster.push_many(chunk)
                for station, ticks in out.items():
                    collected[station].extend(ticks)
        assert results_identical(collected, reference_results)

    def test_rebalance_updates_topology_and_router(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            cluster.rebalance(4)
            assert cluster.num_workers == 4
            assert cluster.router.num_shards == 4
            for station in STATIONS:
                assert 0 <= cluster.worker_of(station) < 4
            cluster.rebalance(1)
            assert cluster.num_workers == 1
            assert all(cluster.worker_of(s) == 0 for s in STATIONS)

    def test_rebalance_to_zero_raises(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            with pytest.raises(ClusterError, match="at least one worker"):
                cluster.rebalance(0)


class TestCheckpointing:
    def test_snapshot_all_restore_all_across_coordinators(self):
        records = _record_stream()
        half = len(records) // 2
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            blobs = cluster.snapshot_all()
        assert set(blobs) == set(STATIONS)
        with ClusterCoordinator(num_workers=3) as successor:
            successor.restore_all(blobs)
            assert successor.session_ids == sorted(STATIONS)
            second = successor.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, _single_process_results(records))

    def test_remove_session_preserves_streamed_results(self):
        """Removing a session must not discard results of records already
        streamed to it — they stay claimable by the next flush."""
        with ClusterCoordinator(num_workers=1, linger_records=1) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push_nowait("s", {"x": 8.0})
            cluster.push_nowait("s", {"x": NAN})
            cluster.remove_session("s")
            flushed = cluster.flush()
        assert flushed["s"][0]["x"].value == 8.0

    def test_many_sessions_snapshot_and_rebalance(self):
        """Fleets larger than the RPC pipeline window must migrate and
        checkpoint correctly (exercises the chunked gather paths)."""
        num_sessions = 40  # > _PIPELINE_WINDOW
        with ClusterCoordinator(num_workers=2) as cluster:
            for i in range(num_sessions):
                cluster.create_session(f"s{i:02d}", method="locf", series_names=["x"])
                cluster.push(f"s{i:02d}", {"x": float(i)})
            blobs = cluster.snapshot_all()
            assert len(blobs) == num_sessions
            cluster.rebalance(3)
            for i in range(num_sessions):
                result = cluster.push(f"s{i:02d}", {"x": NAN})
                assert result[0]["x"].value == float(i)

    def test_single_snapshot_restore_roundtrip(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            cluster.create_session("s", method="locf", series_names=["x"])
            cluster.push("s", {"x": 3.0})
            blob = cluster.snapshot("s")
            cluster.push("s", {"x": 99.0})
            cluster.restore("s", blob)  # roll back
            assert cluster.push("s", {"x": NAN})[0]["x"].value == 3.0


class TestTelemetry:
    def test_stats_account_for_the_stream(self):
        records = _record_stream()
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
            stats = cluster.stats()
        cluster_stats = stats["cluster"]
        assert cluster_stats["workers"] == 2
        assert cluster_stats["records_routed"] == len(records)
        assert cluster_stats["ticks_imputed"] == sum(
            len(ticks) for ticks in results.values()
        )
        assert cluster_stats["push_seconds"] > 0
        assert cluster_stats["avg_push_latency"] > 0
        assert cluster_stats["queue_depth_max"] >= 1
        assert cluster_stats["sessions"] == len(STATIONS)
        owned = []
        for worker_id, worker_stats in stats["workers"].items():
            assert worker_stats["worker_id"] == worker_id
            assert worker_stats["records_sent"] == worker_stats["records_routed"]
            owned.extend(worker_stats["sessions"])
        assert sorted(owned) == sorted(STATIONS)

    def test_worker_batching_is_visible(self):
        """The per-tick coalescing must actually batch a pipelined stream."""
        records = _record_stream()
        with ClusterCoordinator(num_workers=1) as cluster:
            _populate(cluster)
            cluster.push_many(records)
            stats = cluster.stats()
        assert stats["cluster"]["avg_batch_records"] > 1.0

    def test_stats_are_json_serialisable(self):
        import json

        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            cluster.push("stations/valley", {"v0": 1.0})
            payload = json.dumps(cluster.stats())
        assert "records_routed" in payload

    def test_fresh_workers_after_shrink_then_grow_start_at_zero(self):
        """A worker id reused after a shrink must not inherit the retired
        process's coordinator-side routing count."""
        with ClusterCoordinator(num_workers=2) as cluster:
            # Find a session id that lives on worker 1, so the retired and
            # recreated process is the one that saw traffic.
            victim = next(
                sid for sid in (f"probe-{i}" for i in range(64))
                if cluster.router.place(sid) == 1
            )
            cluster.create_session(victim, method="locf", series_names=["x"])
            assert cluster.worker_of(victim) == 1
            for _ in range(5):
                cluster.push(victim, {"x": 1.0})
            cluster.rebalance(1)
            cluster.rebalance(2)
            stats = cluster.stats()
            for worker_stats in stats["workers"].values():
                assert worker_stats["records_sent"] == worker_stats["records_routed"]

    def test_drained_workers_are_reported(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            cluster.drain(0)
            assert cluster.stats()["cluster"]["drained_workers"] == [0]

    def test_pending_records_peak_tracks_pipelined_backlog(self):
        """The high-water mark of push_nowait backlog is visible in stats.

        An ingest tier (the gateway) tunes its backpressure watermarks off
        this number, so it must track the deepest uncollected backlog even
        after a flush drained everything.
        """
        records = _record_stream()
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            assert cluster.pipelined_backlog() == 0
            for session_id, row in records:
                cluster.push_nowait(session_id, row)
            assert cluster.pipelined_backlog() > 0
            cluster.flush()
            assert cluster.pipelined_backlog() == 0
            stats = cluster.stats()
            assert cluster.data_plane_stalls() >= 0
        peaks = [
            worker_stats["pending_records_peak"]
            for worker_stats in stats["workers"].values()
        ]
        assert max(peaks) > 0
        # The aggregate is the max across workers, and survives the flush.
        assert stats["cluster"]["pending_records_peak"] == max(peaks)

    def test_pending_records_peak_resets_for_fresh_workers(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            for session_id, row in _record_stream():
                cluster.push_nowait(session_id, row)
            cluster.flush()
            cluster.rebalance(1)
            cluster.rebalance(2)
            stats = cluster.stats()
        assert stats["workers"][1]["pending_records_peak"] == 0


class TestTransports:
    """The data plane has two implementations; both must stay bit-exact.

    The default transport is the shared-memory ring (every other test in
    this module runs it); these tests pin the legacy pipe transport and the
    cross-transport invariants.
    """

    def test_pipe_transport_matches_single_process(self, reference_results):
        records = _record_stream()
        with ClusterCoordinator(num_workers=2, transport="pipe") as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
        assert results_identical(results, reference_results)

    def test_shm_and_pipe_transports_agree_exactly(self, reference_results):
        records = _record_stream()
        outputs = {}
        for transport in ("pipe", "shm"):
            with ClusterCoordinator(num_workers=2, transport=transport) as cluster:
                _populate(cluster)
                outputs[transport] = cluster.push_many(records)
        assert results_identical(outputs["pipe"], outputs["shm"])

    def test_pipe_transport_drain_parity(self, reference_results):
        records = _record_stream()
        half = len(records) // 2
        with ClusterCoordinator(num_workers=2, transport="pipe") as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            busy = next(w for w in range(2) if cluster.router.sessions_on(w))
            cluster.drain(busy)
            second = cluster.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, reference_results)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ClusterError, match="unknown cluster transport"):
            ClusterCoordinator(num_workers=1, transport="carrier-pigeon")

    def test_shm_transport_reports_data_plane_bytes(self):
        records = _record_stream(num_ticks=120)
        with ClusterCoordinator(num_workers=2) as cluster:
            _populate(cluster)
            cluster.push_many(records)
            stats = cluster.stats()
        transport = stats["cluster"]["transport"]
        assert transport["mode"] == "shm"
        assert transport["bytes_via_shm"] > 0
        assert transport["frames_via_shm"] > 0
        assert transport["avg_frame_bytes"] > 0
        for worker_stats in stats["workers"].values():
            worker_transport = worker_stats["transport"]
            assert worker_transport["mode"] == "shm"
            # The worker's view of the push ring must match what the
            # coordinator wrote into it.
            assert (
                worker_transport["shm_bytes_in"]
                == worker_transport["shm_bytes_to_worker"]
            )

    def test_pipe_transport_reports_pipe_bytes(self):
        records = _record_stream(num_ticks=120)
        with ClusterCoordinator(num_workers=2, transport="pipe") as cluster:
            _populate(cluster)
            cluster.push_many(records)
            stats = cluster.stats()
        transport = stats["cluster"]["transport"]
        assert transport["mode"] == "pipe"
        assert transport["bytes_via_shm"] == 0
        assert transport["bytes_via_pipe"] > 0

    def test_small_ring_forces_backpressure_without_loss(self, reference_results):
        """A ring far smaller than the stream must stall the producer but
        never drop or reorder a frame: outputs stay bit-identical and the
        stall counter shows the backpressure actually happened."""
        records = _record_stream()
        with ClusterCoordinator(
            num_workers=2, ring_capacity=4096, linger_records=16
        ) as cluster:
            _populate(cluster)
            results = cluster.push_many(records)
            stats = cluster.stats()
        assert results_identical(results, reference_results)
        assert stats["cluster"]["transport"]["ring_full_stalls"] > 0

    def test_kill_and_recover_under_shm_with_durability(self, tmp_path):
        """Crash recovery over the shm transport: a worker killed mid-frame
        leaves at worst a torn, unpublished frame; WAL replay restores the
        acknowledged stream bit-identically."""
        from repro.durability import DurabilityConfig, DurabilityPolicy

        records = _record_stream()
        half = len(records) // 2
        durability = DurabilityConfig(
            tmp_path / "state", DurabilityPolicy(checkpoint_every=1_000_000)
        )
        with ClusterCoordinator(num_workers=2, durability=durability) as cluster:
            _populate(cluster)
            first = cluster.push_many(records[:half])
            victim = next(w for w in range(2) if cluster.router.sessions_on(w))
            assert cluster._workers[victim].uses_shm
            cluster.terminate_worker(victim)
            cluster.heal()
            second = cluster.push_many(records[half:])
        combined = {
            station: first.get(station, []) + second.get(station, [])
            for station in STATIONS
        }
        assert results_identical(combined, _single_process_results(records))


class TestLifecycle:
    def test_shutdown_is_idempotent_and_closes_the_surface(self):
        cluster = ClusterCoordinator(num_workers=2)
        cluster.create_session("s", method="locf", series_names=["x"])
        cluster.shutdown()
        cluster.shutdown()
        with pytest.raises(ClusterError, match="shut down"):
            cluster.push("s", {"x": 1.0})

    def test_context_manager_stops_workers(self):
        with ClusterCoordinator(num_workers=2) as cluster:
            workers = list(cluster._workers)
            assert all(worker.alive for worker in workers)
        assert all(not worker.alive for worker in workers)

    def test_zero_workers_rejected(self):
        with pytest.raises(ClusterError, match="at least one worker"):
            ClusterCoordinator(num_workers=0)
